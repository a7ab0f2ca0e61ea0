"""Exact rational-arithmetic linear programming.

Both modes make one HiGHS call through scipy: dual simplex, or interior
point with crossover on instances above ``_IPM_ROW_THRESHOLD`` rows.
Float mode checks the HiGHS optimum against its certificate at a
tolerance.  Exact mode rounds the float primal/dual pair to rationals
through a continued-fraction cascade and accepts it only if primal
feasibility, dual feasibility and equality of both objectives all hold
in exact arithmetic (the lift-and-verify scheme of QSopt_ex).  A dense
two-phase primal simplex over Fractions with Bland's rule (guaranteed
termination on the highly degenerate LPs that show up in no-signalling
polytopes) is kept as the last resort: it runs when the lift or HiGHS
itself fails on an instance within ``_FALLBACK_CELL_LIMIT``, and it
re-proves an infeasible or unbounded verdict from HiGHS on small
instances.  So an "optimal" answer in exact mode always carries an
exactly verified certificate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

log = logging.getLogger(__name__)

Rational = Fraction

LE = "<="
EQ = "=="
GE = ">="
_RELATIONS = (LE, EQ, GE)

MAX = "max"
MIN = "min"

# Denominator bounds for the continued-fraction lift of float solutions.
_DENOMINATOR_CASCADE = (1, 8, 72, 1024, 10**4, 10**6, 10**9, 10**12)

_FLOAT_ZERO_SNAP = 1e-9


class LpError(Exception):
    """Malformed linear program."""


class LpSizeError(LpError):
    """Instance exceeds the configured size cap; carries a size report."""


class CertificationError(LpError):
    """The optimum found could not be certified: an exact lift failed on
    an instance too large for the dense simplex, or a float optimum
    violates its certificate beyond the float tolerance."""


class InfeasibleError(RuntimeError):
    """The requested constraint set admits no behavior."""


@dataclass
class Constraint:
    coeffs: tuple[tuple[int, Fraction], ...]
    rel: str
    rhs: Fraction

    def evaluate(self, x: Sequence) -> Fraction:
        return sum((c * x[j] for j, c in self.coeffs), start=Fraction(0))


def make_constraint(coeffs: Union[dict, Iterable], rel: str, rhs) -> Constraint:
    if rel not in _RELATIONS:
        raise LpError(f"unknown relation {rel!r}")
    items = coeffs.items() if isinstance(coeffs, dict) else coeffs
    clean = tuple(sorted((int(j), Fraction(c)) for j, c in items if c))
    return Constraint(clean, rel, Fraction(rhs))


@dataclass
class LinProgram:
    """Sparse LP: optimize a linear objective over rational constraints.

    Variables default to the bound 0 <= x < +inf; a lower bound of
    ``None`` marks the variable as free.  Finite upper bounds are
    normalised into explicit rows before solving.
    """

    num_vars: int
    sense: str = MAX
    objective: dict[int, Fraction] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    lower: dict[int, Optional[Fraction]] = field(default_factory=dict)
    upper: dict[int, Fraction] = field(default_factory=dict)

    def validate(self) -> None:
        if self.num_vars < 0:
            raise LpError("negative variable count")
        if self.sense not in (MAX, MIN):
            raise LpError(f"unknown sense {self.sense!r}")
        for j in self.objective:
            if not 0 <= j < self.num_vars:
                raise LpError(f"objective index {j} out of range")
        for k, con in enumerate(self.constraints):
            if con.rel not in _RELATIONS:
                raise LpError(f"constraint {k}: unknown relation {con.rel!r}")
            for j, _ in con.coeffs:
                if not 0 <= j < self.num_vars:
                    raise LpError(f"constraint {k}: index {j} out of range")
        for j, lo in self.lower.items():
            if lo is not None and lo != 0:
                raise LpError("only lower bounds 0 (default) or None (free) "
                              "are supported directly; shift the variable")
        for j, up in self.upper.items():
            if up is None:
                raise LpError("upper bound None is implicit; omit the entry")

    def is_free(self, j: int) -> bool:
        return j in self.lower and self.lower[j] is None

    def add(self, coeffs, rel, rhs) -> None:
        self.constraints.append(make_constraint(coeffs, rel, rhs))

    def normalized(self) -> "LinProgram":
        """Return an equivalent LP with finite upper bounds as rows."""
        if not self.upper:
            return self
        extra = [make_constraint({j: 1}, LE, u) for j, u in sorted(self.upper.items())]
        return LinProgram(self.num_vars, self.sense, dict(self.objective),
                          list(self.constraints) + extra, dict(self.lower), {})


@dataclass
class LpSolution:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    value: Optional[Union[Fraction, float]]
    primal: list
    dual: list                       # one multiplier per (normalized) constraint
    mode: str                        # "exact" | "float"
    certified: bool = False          # True iff an exact certificate was verified

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class CertificateReport:
    ok: bool
    reasons: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def dump_lp(lp: LinProgram) -> str:
    """Text dump, one constraint per line, rationals as p/q (cross-check aid)."""
    lines = [f"{lp.sense} " + " + ".join(
        f"{c}*x{j}" for j, c in sorted(lp.objective.items()))]
    for con in lp.normalized().constraints:
        terms = " + ".join(f"{c}*x{j}" for j, c in con.coeffs) or "0"
        lines.append(f"{terms} {con.rel} {con.rhs}")
    for j in range(lp.num_vars):
        lines.append(f"x{j} free" if lp.is_free(j) else f"x{j} >= 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def verify_certificate(lp: LinProgram, sol: LpSolution,
                       tolerance: float = 1e-9) -> CertificateReport:
    """Re-check primal feasibility, dual feasibility and objective equality.

    The check is independent of how the solution was produced: exact-mode
    solutions are verified in exact rational arithmetic, float-mode ones
    within ``tolerance``.  Returns a falsy report with reasons on failure.
    """
    reasons: list[str] = []
    norm = lp.normalized()
    if sol.status != LpSolution.OPTIMAL:
        return CertificateReport(False, [f"status is {sol.status}, not optimal"])
    if len(sol.primal) != lp.num_vars:
        return CertificateReport(False, ["primal length mismatch"])
    if len(sol.dual) != len(norm.constraints):
        return CertificateReport(False, ["dual length mismatch"])

    exact = sol.mode == "exact"
    if exact:
        def viol(delta) -> bool:
            return delta != 0
        def neg(val) -> bool:
            return val < 0
    else:
        def viol(delta) -> bool:
            return abs(float(delta)) > tolerance
        def neg(val) -> bool:
            return float(val) < -tolerance

    x = sol.primal
    y = sol.dual

    for j in range(lp.num_vars):
        if not norm.is_free(j) and neg(x[j]):
            reasons.append(f"x{j} = {x[j]} violates x >= 0")
    for k, con in enumerate(norm.constraints):
        lhs = con.evaluate(x)
        delta = lhs - con.rhs
        if con.rel == EQ and viol(delta):
            reasons.append(f"row {k}: {lhs} != {con.rhs}")
        elif con.rel == LE and delta > 0 and viol(delta):
            reasons.append(f"row {k}: {lhs} > {con.rhs}")
        elif con.rel == GE and delta < 0 and viol(delta):
            reasons.append(f"row {k}: {lhs} < {con.rhs}")

    # Dual sign conventions: for a max problem y >= 0 on <= rows and
    # y <= 0 on >= rows (mirrored for min); equality rows are free.
    sign = 1 if norm.sense == MAX else -1
    for k, con in enumerate(norm.constraints):
        if con.rel == LE and neg(sign * y[k]):
            reasons.append(f"dual {k}: wrong sign for <= row")
        elif con.rel == GE and neg(-sign * y[k]):
            reasons.append(f"dual {k}: wrong sign for >= row")

    # Reduced costs: A^T y - c >= 0 for max (<= 0 for min) on x >= 0
    # variables, with equality on free variables.
    col_dual = [Fraction(0) if exact else 0.0] * lp.num_vars
    for k, con in enumerate(norm.constraints):
        yk = y[k]
        if yk:
            for j, c in con.coeffs:
                col_dual[j] += yk * c
    for j in range(lp.num_vars):
        r = col_dual[j] - norm.objective.get(j, 0)
        if norm.is_free(j):
            if viol(r):
                reasons.append(f"reduced cost of free x{j} is {r}, not 0")
        elif neg(sign * r):
            reasons.append(f"reduced cost of x{j} has wrong sign: {r}")

    primal_obj = sum((c * x[j] for j, c in norm.objective.items()),
                     start=Fraction(0) if exact else 0.0)
    dual_obj = sum((y[k] * con.rhs for k, con in enumerate(norm.constraints)),
                   start=Fraction(0) if exact else 0.0)
    if viol(primal_obj - dual_obj):
        reasons.append(f"objective gap: primal {float(primal_obj):.12g} "
                       f"vs dual {float(dual_obj):.12g}")
    if sol.value is not None and viol(primal_obj - sol.value):
        reasons.append(f"reported value {float(sol.value):.12g} != primal "
                       f"objective {float(primal_obj):.12g}")

    return CertificateReport(not reasons, reasons)


# ---------------------------------------------------------------------------
# dense exact simplex (two-phase, Bland's rule)
# ---------------------------------------------------------------------------

def _exact_simplex(norm: LinProgram) -> LpSolution:
    """Two-phase dense tableau simplex over Fractions with Bland's rule."""
    n = norm.num_vars
    maximize = norm.sense == MAX
    obj = {j: (c if maximize else -c) for j, c in norm.objective.items()}

    # Free variables are split as x = x+ - x-.
    free = [j for j in range(n) if norm.is_free(j)]
    split = {j: n + k for k, j in enumerate(free)}
    n_struct = n + len(free)

    rows = []          # (dense coeffs over structural vars, rhs, flip, rel)
    for con in norm.constraints:
        dense = [Fraction(0)] * n_struct
        for j, c in con.coeffs:
            dense[j] += c
            if j in split:
                dense[split[j]] -= c
        rhs, rel, flip = con.rhs, con.rel, False
        if rhs < 0:
            dense = [-c for c in dense]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            flip = True
        rows.append((dense, rhs, flip, rel))

    m = len(rows)
    # Columns: structural | slack/surplus (one per inequality) | identity
    # start columns (slack for <=, artificial for >=/==) | rhs.
    n_slack = sum(1 for r in rows if r[3] != EQ)
    ncols = n_struct + n_slack + m
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    id_col: list[int] = []
    artificial: set[int] = set()
    slack_pos = 0
    zero = Fraction(0)
    one = Fraction(1)
    for i, (dense, rhs, _flip, rel) in enumerate(rows):
        row = dense + [zero] * (n_slack + m) + [rhs]
        if rel == LE:
            col = n_struct + slack_pos
            row[col] = one
            slack_pos += 1
            basis.append(col)
            id_col.append(col)
        elif rel == GE:
            row[n_struct + slack_pos] = -one
            slack_pos += 1
            art = n_struct + n_slack + i
            row[art] = one
            artificial.add(art)
            basis.append(art)
            id_col.append(art)
        else:
            art = n_struct + n_slack + i
            row[art] = one
            artificial.add(art)
            basis.append(art)
            id_col.append(art)
        tableau.append(row)

    def pivot(pr: int, pc: int) -> None:
        prow = tableau[pr]
        piv = prow[pc]
        if piv != 1:
            inv = 1 / piv
            tableau[pr] = prow = [c * inv for c in prow]
        for i in range(len(tableau)):
            if i == pr:
                continue
            row = tableau[i]
            f = row[pc]
            if f:
                tableau[i] = [a - f * b for a, b in zip(row, prow)]
        basis[pr] = pc

    def run(costs: list[Fraction], barred: set[int]) -> str:
        # costs is the z-row (reduced costs), mutated in place via tableau[m].
        tableau.append(costs)
        try:
            while True:
                zrow = tableau[m]
                enter = -1
                for j in range(ncols):
                    if j in barred:
                        continue
                    if zrow[j] < 0:
                        enter = j
                        break
                if enter < 0:
                    return "optimal"
                leave, best = -1, None
                for i in range(m):
                    a = tableau[i][enter]
                    if a > 0:
                        ratio = tableau[i][ncols] / a
                        if best is None or ratio < best or (
                                ratio == best and basis[i] < basis[leave]):
                            best, leave = ratio, i
                if leave < 0:
                    return "unbounded"
                pivot(leave, enter)
        finally:
            tableau.pop()

    # Phase 1: minimise the sum of artificials.
    if artificial:
        z = [zero] * (ncols + 1)
        for a in artificial:
            z[a] = one
        for i in range(m):
            if basis[i] in artificial:
                row = tableau[i]
                z = [zc - rc for zc, rc in zip(z, row)]
        status = run(z, set())
        # After run() the z-row is popped; read the phase-1 objective off
        # the basic artificial levels instead.
        infeas = sum((tableau[i][ncols] for i in range(m) if basis[i] in artificial),
                     start=zero)
        if status != "optimal" or infeas != 0:
            return LpSolution(LpSolution.INFEASIBLE, None, [], [], "exact")
        # Drive basic artificials out where possible; leftover rows are
        # redundant and keep a zero-level artificial in the basis.
        for i in range(m):
            if basis[i] in artificial:
                row = tableau[i]
                for j in range(n_struct + n_slack):
                    if row[j] != 0:
                        pivot(i, j)
                        break

    # Phase 2.
    z = [zero] * (ncols + 1)
    for j, c in obj.items():
        z[j] -= c
        if j in split:
            z[split[j]] += c
    for i in range(m):
        bc = basis[i]
        coeff = -z[bc]
        if coeff:
            row = tableau[i]
            z = [zc + coeff * rc for zc, rc in zip(z, row)]
    status = run(z, artificial)
    if status == "unbounded":
        return LpSolution(LpSolution.UNBOUNDED, None, [], [], "exact")

    x = [zero] * n_struct
    for i in range(m):
        if basis[i] < n_struct:
            x[basis[i]] = tableau[i][ncols]
    primal = [x[j] - (x[split[j]] if j in split else zero) for j in range(n)]

    # Simplex multipliers sit in the z-row over each row's identity-start
    # column; undo the rhs sign normalisation per row.
    zrow_final = [zero] * ncols
    for j, c in obj.items():
        zrow_final[j] -= c
        if j in split:
            zrow_final[split[j]] += c
    for i in range(m):
        bc = basis[i]
        coeff = -zrow_final[bc]
        if coeff:
            row = tableau[i]
            zrow_final = [zc + coeff * rc for zc, rc in zip(zrow_final, row[:ncols])]
    dual = []
    for i, (_dense, _rhs, flip, _rel) in enumerate(rows):
        yi = zrow_final[id_col[i]]
        dual.append(-yi if flip else yi)

    value = sum((c * primal[j] for j, c in norm.objective.items()), start=zero)
    if not maximize:
        dual = [-yi for yi in dual]
    return LpSolution(LpSolution.OPTIMAL, value, primal, dual, "exact")


# ---------------------------------------------------------------------------
# HiGHS and the exact lift
# ---------------------------------------------------------------------------

# Beyond this row count HiGHS dual simplex becomes impractical on the
# dense no-signalling LPs; interior point with crossover is used instead.
# (The symmetric three-round TONS LP, 4,992 rows, takes 0.7 s with
# interior point and 2.8 s with dual simplex.)
_IPM_ROW_THRESHOLD = 4000
# Dense exact simplex is hopeless beyond this tableau size; exact mode
# reports failure rather than silently running for days.
_FALLBACK_CELL_LIMIT = 3_000_000
# An infeasible or unbounded verdict from HiGHS carries no certificate
# the lift could check.  Up to this tableau size (rows * columns of the
# standard form) the dense exact simplex re-proves it in exact
# arithmetic; larger instances take the float verdict.
_VERDICT_RECHECK_CELL_LIMIT = 60_000
# HiGHS statuses with a verdict; any other status is a solver failure.
_HIGHS_STATUS = {0: LpSolution.OPTIMAL, 2: LpSolution.INFEASIBLE,
                 3: LpSolution.UNBOUNDED}


def _highs(norm: LinProgram) -> tuple[Optional[LpSolution], str]:
    """One HiGHS solve of the normalized LP.

    Returns a float ``LpSolution`` (primal and duals in this module's
    sign convention) and HiGHS's message; the solution is None when
    HiGHS fails, that is, ends with a status other than optimal,
    infeasible or unbounded.  ``linprog`` is looked up on each call, so
    a wrapper installed on ``scipy.optimize`` sees every solve.
    """
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog

    n = norm.num_vars
    sign = 1.0 if norm.sense == MIN else -1.0
    c = np.zeros(n)
    for j, cj in norm.objective.items():
        c[j] = sign * float(cj)

    # (row index, constraint, sign): linprog takes A_ub x <= b_ub, so >=
    # rows enter negated.
    ub = [(k, con, 1.0 if con.rel == LE else -1.0)
          for k, con in enumerate(norm.constraints) if con.rel != EQ]
    eq = [(k, con, 1.0) for k, con in enumerate(norm.constraints)
          if con.rel == EQ]

    def matrix(rows):
        if not rows:
            return None
        data, ri, ci = [], [], []
        for i, (_, con, s) in enumerate(rows):
            for j, cf in con.coeffs:
                ri.append(i)
                ci.append(j)
                data.append(s * float(cf))
        return sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n))

    def rhs(rows):
        return [s * float(con.rhs) for _, con, s in rows] or None

    method = ("highs-ipm" if len(norm.constraints) > _IPM_ROW_THRESHOLD
              else "highs-ds")
    res = linprog(c, A_ub=matrix(ub), b_ub=rhs(ub), A_eq=matrix(eq),
                  b_eq=rhs(eq),
                  bounds=[(None, None) if norm.is_free(j) else (0, None)
                          for j in range(n)],
                  method=method)
    status = _HIGHS_STATUS.get(res.status)
    if status != LpSolution.OPTIMAL:
        return (None if status is None else
                LpSolution(status, None, [], [], "float")), res.message

    # HiGHS marginals belong to the minimised, <=-form problem; undo the
    # objective sign and the row negation.
    dual = [0.0] * len(norm.constraints)
    for rows, lin in ((ub, res.ineqlin), (eq, res.eqlin)):
        for (k, _, s), mk in zip(rows, lin.marginals):
            dual[k] = sign * s * float(mk)
    value = -res.fun if norm.sense == MAX else res.fun
    return (LpSolution(LpSolution.OPTIMAL, value, list(map(float, res.x)),
                       dual, "float"), res.message)


def _snap(x: float) -> float:
    return 0.0 if abs(x) < _FLOAT_ZERO_SNAP else x


def _lift_exact(norm: LinProgram, primal_f: list[float],
                dual_f: list[float]) -> Optional[LpSolution]:
    """Round a float primal/dual pair to rationals and verify exactly.

    Cascade levels whose rounding moves any coordinate materially away
    from the float solution cannot be the true rational vertex, so they
    are screened out cheaply before exact arithmetic runs.
    """
    for bound in _DENOMINATOR_CASCADE:
        primal = [Fraction(_snap(v)).limit_denominator(bound) for v in primal_f]
        dual = [Fraction(_snap(v)).limit_denominator(bound) for v in dual_f]
        drift = max((abs(float(q) - v) for q, v in
                     zip(primal + dual, primal_f + dual_f)), default=0.0)
        if drift > 1e-6:
            continue
        value = sum((c * primal[j] for j, c in norm.objective.items()),
                    start=Fraction(0))
        sol = LpSolution(LpSolution.OPTIMAL, value, primal, dual, "exact")
        if verify_certificate(norm, sol):
            sol.certified = True
            return sol
    return None


def _std_cells(norm: LinProgram) -> int:
    m = len(norm.constraints)
    return (m + 1) * (norm.num_vars + 2 * m + 1)


def solve(lp: LinProgram, mode: str = "exact",
          float_tolerance: float = 1e-9) -> LpSolution:
    """Solve the LP.

    Both modes make one HiGHS call (``_highs``): dual simplex, or
    interior point with crossover above ``_IPM_ROW_THRESHOLD`` rows.  A
    float-mode optimum is checked with ``verify_certificate`` at
    ``float_tolerance`` (primal and dual feasibility and the objective
    gap) and raises ``CertificationError`` when it fails; a HiGHS
    failure raises ``LpError``.

    Exact mode is lift-first: the HiGHS vertex is rounded to rationals
    and accepted only when its certificate verifies exactly.  The dense
    exact simplex runs only as the last resort: when the lift fails or
    HiGHS fails on an instance within ``_FALLBACK_CELL_LIMIT`` (larger
    ones raise ``CertificationError``), and to re-prove an infeasible or
    unbounded verdict on an instance within
    ``_VERDICT_RECHECK_CELL_LIMIT``.  The returned optimum is exactly
    optimal (duality gap 0) and ``certified`` is True; status
    infeasible/unbounded is reported via ``status``, never by silent
    defaults.
    """
    lp.validate()
    norm = lp.normalized()
    if mode not in ("exact", "float"):
        raise LpError(f"unknown mode {mode!r}")
    # scipy rejects an empty objective, so a zero-variable exact LP goes
    # straight to the dense exact simplex.
    if mode == "exact" and not norm.num_vars:
        return _dense_certified(norm)

    sol, message = _highs(norm)
    if mode == "float":
        if sol is None:
            raise LpError(f"float solver failed: {message}")
        if sol.status == LpSolution.OPTIMAL:
            report = verify_certificate(norm, sol, float_tolerance)
            if not report:
                raise CertificationError(
                    f"float optimum fails its certificate at tolerance "
                    f"{float_tolerance:g} ({len(report.reasons)} residuals): "
                    + "; ".join(report.reasons[:3]))
        return sol

    cells = _std_cells(norm)
    if sol is not None and sol.status != LpSolution.OPTIMAL:
        if cells > _VERDICT_RECHECK_CELL_LIMIT:
            return LpSolution(sol.status, None, [], [], "exact")
    else:
        if sol is None:
            reason = f"HiGHS failed ({message})"
        else:
            lifted = _lift_exact(norm, sol.primal, sol.dual)
            if lifted is not None:
                return lifted
            reason = "the float solution did not lift to rationals"
        if cells > _FALLBACK_CELL_LIMIT:
            raise CertificationError(
                f"no exact certificate: {reason} and the instance is too "
                f"large for the dense exact simplex ({len(norm.constraints)} "
                f"rows x {norm.num_vars} vars); use float mode")
        log.warning("%s; falling back to dense exact simplex "
                    "(%d rows x %d vars)", reason, len(norm.constraints),
                    norm.num_vars)
    return _dense_certified(norm)


def solve_certified(lp: LinProgram, mode: str,
                    float_tolerance: float = 1e-9) -> LpSolution:
    """``solve`` for an optimum: an infeasible LP raises InfeasibleError,
    an unbounded one RuntimeError, and an exact optimum without a
    verified certificate CertificationError."""
    sol = solve(lp, mode=mode, float_tolerance=float_tolerance)
    if sol.status == LpSolution.INFEASIBLE:
        raise InfeasibleError("constraint set is infeasible")
    if sol.status != LpSolution.OPTIMAL:
        raise RuntimeError(f"unexpected LP status {sol.status}")
    if mode == "exact" and not sol.certified:
        raise CertificationError("no exact optimality certificate obtained")
    return sol


def _dense_certified(norm: LinProgram) -> LpSolution:
    sol = _exact_simplex(norm)
    if sol.status == LpSolution.OPTIMAL:
        sol.certified = bool(verify_certificate(norm, sol))
    return sol
