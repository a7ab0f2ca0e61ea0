"""Exact rational-arithmetic linear programming.

Both modes make one HiGHS call through scipy: dual simplex, or interior
point with crossover on instances above ``_IPM_ROW_THRESHOLD`` rows.
Float mode checks the HiGHS optimum against its certificate at a
tolerance.  Exact mode has one path: it solves exactly (``eliminate``)
the rows and columns that HiGHS reports tight at its float optimum, and
accepts the rational pair only if primal feasibility, dual feasibility
and equality of both objectives hold in exact arithmetic (the
lift-and-verify scheme of QSopt_ex; Applegate, Cook, Dash & Espinoza,
Oper. Res. Lett. 35 (2007), finished by an exact basis solve as in
Gleixner, Steffy & Wolter, INFORMS J. Comput. 28 (2016)).  Both modes
check a certificate with one residual evaluator: numpy sums over the LP
data, primal and dual, compared with 0 over integers in exact mode and
at the tolerance over floats in float mode.  Infeasible and unbounded
verdicts are proved through the exact path, by auxiliary LPs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

from .games import integer_table, is_finite

LE = "<="
EQ = "=="
GE = ">="
_RELATIONS = (LE, EQ, GE)

MAX = "max"
MIN = "min"

_FLOAT_ZERO_SNAP = 1e-9


class LpError(Exception):
    """Malformed linear program."""


class LpSizeError(LpError):
    """Instance exceeds the configured size cap; carries a size report."""


class CertificationError(LpError):
    """No verified certificate: HiGHS failed in exact mode, the exact
    basis solve of an optimum did not verify or is over its size cap,
    HiGHS found no optimum of an LP that the auxiliary LPs show feasible
    and bounded, or a float optimum violates its certificate beyond the
    float tolerance."""


class InfeasibleError(RuntimeError):
    """The requested constraint set admits no behavior."""


@dataclass(frozen=True)
class Constraint:
    """One row, sum_j c_j x_j ``rel`` rhs.  Coefficients and right-hand
    side are exact: an ``int`` where integral, else a ``Fraction``.
    Frozen, so that programs may share rows."""

    coeffs: tuple[tuple[int, Union[int, Fraction]], ...]
    rel: str
    rhs: Union[int, Fraction]


def exact_number(value) -> Union[int, Fraction]:
    """``value`` exactly: an ``int`` where integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    q = Fraction(value)
    return int(q.numerator) if q.denominator == 1 else q


def make_constraint(coeffs: Union[dict, Iterable], rel: str, rhs) -> Constraint:
    """The row of the nonzero ``coeffs``, by column, in exact numbers."""
    if rel not in _RELATIONS:
        raise LpError(f"unknown relation {rel!r}")
    items = coeffs.items() if isinstance(coeffs, dict) else coeffs
    clean = tuple(sorted((int(j), exact_number(c)) for j, c in items if c))
    return Constraint(clean, rel, exact_number(rhs))


@dataclass
class LinProgram:
    """Sparse LP: optimize a linear objective over rational constraints.

    Objective coefficients and bounds are exact numbers, an ``int`` or a
    ``Fraction``.  Variables default to the bound 0 <= x < +inf; a lower
    bound of ``None`` marks the variable as free.  Finite upper bounds are
    normalised into explicit rows before solving.
    """

    num_vars: int
    sense: str = MAX
    objective: dict[int, Union[int, Fraction]] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)
    lower: dict[int, Optional[Union[int, Fraction]]] = field(
        default_factory=dict)
    upper: dict[int, Union[int, Fraction]] = field(default_factory=dict)

    def validate(self) -> None:
        if self.num_vars < 0:
            raise LpError("negative variable count")
        if self.sense not in (MAX, MIN):
            raise LpError(f"unknown sense {self.sense!r}")
        for name, keys in (("objective", self.objective),
                           ("lower bound", self.lower),
                           ("upper bound", self.upper)):
            for j in keys:
                if not 0 <= j < self.num_vars:
                    raise LpError(f"{name} index {j} out of range")
        for k, con in enumerate(self.constraints):
            if con.rel not in _RELATIONS:
                raise LpError(f"constraint {k}: unknown relation {con.rel!r}")
            for j, _ in con.coeffs:
                if not 0 <= j < self.num_vars:
                    raise LpError(f"constraint {k}: index {j} out of range")
        if any(lo is not None and lo != 0 for lo in self.lower.values()):
            raise LpError("only lower bounds 0 (default) or None (free) "
                          "are supported directly; shift the variable")
        if None in self.upper.values():
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


def append_rows(prog: LinProgram, blocks, rhs: list, rel: str,
                distinct: bool = False) -> np.ndarray:
    """Append the rows sum_k c[k] x_{j[r, k]} ``rel`` rhs[r] of the blocks
    ``(j, c)``, in order, with each column's integer coefficients summed
    and zero terms dropped; if ``distinct``, without repeats (right-hand
    side included).  Returns the indices of the rows appended."""
    count, num = sum(len(j) for j, _ in blocks), prog.num_vars
    row = np.repeat(np.arange(count), np.concatenate(
        [np.full(len(j), j.shape[1]) for j, _ in blocks]))
    key, inverse = np.unique(
        row * num + np.concatenate([j.ravel() for j, _ in blocks]),
        return_inverse=True)
    sums = np.bincount(inverse, np.concatenate(
        [np.tile(c, len(j)) for j, c in blocks]), len(key)).astype(np.int64)
    row, col = np.divmod(key[sums != 0], num)
    sums = sums[sums != 0]
    sizes = np.bincount(row, minlength=count)
    starts = np.cumsum(sizes) - sizes
    added = [np.arange(count)]
    if distinct:
        codes: dict = {}
        code = np.array([codes.setdefault(b, len(codes)) for b in rhs], int)
        added = [np.zeros(0, np.int64)]
        # Rows of one length as (rhs code, columns, coefficients); a stable
        # sort keeps equal rows in order, and the first of each is kept.
        for size in np.unique(sizes).tolist():
            members = np.flatnonzero(sizes == size)
            terms = starts[members][:, None] + np.arange(size)
            table = np.hstack([code[members][:, None], col[terms],
                               sums[terms]])
            order = np.lexsort(table.T[::-1])
            table = table[order]
            first = np.r_[True, (table[1:] != table[:-1]).any(axis=1)]
            added.append(members[order[first]])
    added = np.sort(np.concatenate(added))
    ends = (starts + sizes).tolist()
    col, sums, starts = col.tolist(), sums.tolist(), starts.tolist()
    for r in added.tolist():
        terms = slice(starts[r], ends[r])
        prog.constraints.append(Constraint(tuple(zip(
            col[terms], sums[terms])), rel, rhs[r]))
    return added


@dataclass
class LpSolution:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    value: Optional[Union[Fraction, float]]
    primal: list
    dual: list                       # one multiplier per (normalized) constraint
    mode: str                        # "exact" | "float"
    # True iff an exact certificate was verified (an optimum's primal/dual
    # pair, or the auxiliary optima behind a verdict); False in float mode.
    certified: bool = False

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

def _check_tolerance(tolerance: float) -> None:
    """Raise ``LpError`` unless the float tolerance is finite and positive."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise LpError(f"float tolerance must be finite and positive, "
                      f"not {tolerance!r}")


def verify_certificate(lp: LinProgram, sol: LpSolution,
                       tolerance: float = 1e-9) -> CertificateReport:
    """Re-check primal feasibility, dual feasibility and objective equality.

    The check is independent of how the solution was produced, and both
    modes share one residual evaluator (``_residual_reasons``): exact-mode
    solutions are verified exactly over integers, float-mode ones within
    ``tolerance``.  A value, primal or dual entry that is NaN or infinite
    fails by name.  Returns a falsy report with reasons on failure; never
    raises on a bad certificate, only on a tolerance that is not finite
    and positive (``LpError``).
    """
    _check_tolerance(tolerance)
    norm = lp.normalized()
    if sol.status != LpSolution.OPTIMAL:
        return CertificateReport(False, [f"status is {sol.status}, not optimal"])
    if len(sol.primal) != lp.num_vars:
        return CertificateReport(False, ["primal length mismatch"])
    if len(sol.dual) != len(norm.constraints):
        return CertificateReport(False, ["dual length mismatch"])
    x, y = sol.primal, sol.dual
    reasons = [f"x{j} = {v} is not finite"
               for j, v in enumerate(x) if not is_finite(v)] + \
        [f"dual {k} = {v} is not finite"
         for k, v in enumerate(y) if not is_finite(v)]
    if sol.value is not None and not is_finite(sol.value):
        reasons.append(f"reported value {sol.value} is not finite")
    if not reasons:
        reasons = _residual_reasons(norm, x, y, sol.value,
                                    sol.mode == "exact", tolerance)
    return CertificateReport(not reasons, reasons)


def _residual_reasons(norm: LinProgram, x: list, y: list, value,
                      exact: bool, tolerance: float) -> list[str]:
    """``verify_certificate``'s reasons, from numpy residuals.

    The LP data (coefficients, right-hand sides, objective) are arrays
    A, b, c over one denominator s, the primal X over d and the dual Y
    over e, so each check is a residual: the rows A X - b d, the reduced
    costs A^T Y - c e, the objectives c.X / (s d) and b.Y / (s e).  In
    exact mode they are integers, int64 when a magnitude bound allows,
    else Python ints; each is compared with 0 and a failing one reported
    as the ``Fraction`` it stands for.  In float mode they are floats with
    s = d = e = 1, compared at ``tolerance``.  Every sum runs in its
    terms' order from 0, so a float one has the bits of Python's ``sum``.
    """
    cons, n, m = norm.constraints, norm.num_vars, len(norm.constraints)
    row, col, coeffs = _coo(cons)
    obj_cols = list(norm.objective)
    data = itertools.chain(coeffs, (con.rhs for con in cons),
                           norm.objective.values())
    if exact:
        (data, s), (X, d), (Y, e) = map(integer_table, (data, x, y))
        size = len(coeffs) + n + m + 1
        if _max_abs(data) * (_max_abs(X) + d + _max_abs(Y) + e) * size \
                >= 2 ** 63:
            data, X, Y = (v.astype(object) for v in (data, X, Y))
        tol, value = 0, None if value is None else Fraction(value)
    else:
        data, X, Y = (np.fromiter(map(float, vs), float)
                      for vs in (data, x, y))
        s = d = e = 1
        tol = tolerance

    def number(v, den):
        return Fraction(int(v), den) if exact else float(v)

    def sums(index, terms, size):
        out = np.zeros(size, dtype=terms.dtype)
        np.add.at(out, index, terms)
        return out

    a, b, c_obj = np.split(data, [len(coeffs), len(coeffs) + m])
    c = np.zeros(n, dtype=data.dtype)
    c[obj_cols] = c_obj
    free = np.array([norm.is_free(j) for j in range(n)], dtype=bool)
    rel = np.array([con.rel for con in cons], dtype=object)
    le, eq, ge = rel == LE, rel == EQ, rel == GE
    sign = 1 if norm.sense == MAX else -1

    reasons = [f"x{j} = {number(X[j], d)} violates x >= 0"
               for j in np.flatnonzero((X < -tol) & ~free)]
    ax = sums(row, a * X[col], m)
    delta = ax - b * d
    for k in np.flatnonzero(eq & (abs(delta) > tol) | le & (delta > tol)
                            | ge & (delta < -tol)):
        op = {EQ: "!=", LE: ">", GE: "<"}[rel[k]]
        reasons.append(f"row {k}: {number(ax[k], s * d)} {op} {cons[k].rhs}")

    # Dual sign conventions: for a max problem y >= 0 on <= rows and
    # y <= 0 on >= rows (mirrored for min); equality rows are free.
    for k in np.flatnonzero(le & (sign * Y < -tol) | ge & (sign * Y > tol)):
        reasons.append(f"dual {k}: wrong sign for {rel[k]} row")

    # Reduced costs: A^T y - c >= 0 for max (<= 0 for min) on x >= 0
    # variables, with equality on free variables.
    r = sums(col, a * Y[row], n) - c * e
    for j in np.flatnonzero(free & (abs(r) > tol) | ~free & (sign * r < -tol)):
        rj = number(r[j], s * e)
        reasons.append(f"reduced cost of free x{j} is {rj}, not 0"
                       if free[j] else
                       f"reduced cost of x{j} has wrong sign: {rj}")

    primal_obj = number(sums(np.zeros(len(c_obj), np.intp),
                             c_obj * X[obj_cols], 1)[0], s * d)
    dual_obj = number(sums(np.zeros(m, np.intp), b * Y, 1)[0], s * e)
    if abs(primal_obj - dual_obj) > tol:
        reasons.append(f"objective gap: primal {float(primal_obj):.12g} "
                       f"vs dual {float(dual_obj):.12g}")
    if value is not None and abs(primal_obj - value) > tol:
        reasons.append(f"reported value {float(value):.12g} != primal "
                       f"objective {float(primal_obj):.12g}")
    return reasons


def _max_abs(values: np.ndarray) -> int:
    return int(abs(values).max(initial=0))


def _coo(cons: list[Constraint]) -> tuple[np.ndarray, np.ndarray, list]:
    """The nonzeros of the rows, row by row: row indices, column indices
    and the exact coefficients."""
    row = np.repeat(np.arange(len(cons)), [len(con.coeffs) for con in cons])
    col = np.fromiter((j for con in cons for j, _ in con.coeffs), np.intp,
                      len(row))
    return row, col, [c for con in cons for _, c in con.coeffs]


# ---------------------------------------------------------------------------
# HiGHS and the exact basis solve
# ---------------------------------------------------------------------------

# Beyond this row count HiGHS dual simplex becomes impractical on the
# dense no-signalling LPs; interior point with crossover is used instead.
# (On a 2-vCPU Xeon the three-round TONS slice, 785 rows, takes 0.03 s
# either way and gets dual simplex; the four-round one, 7,297 rows, takes
# 0.5 s with interior point and 1.4 s with dual simplex.)
_IPM_ROW_THRESHOLD = 4000
# The exact basis solve runs on LPs with at most this many nonzero
# coefficients; exact mode refuses larger ones.  Its worst case, dense
# random LPs with coefficients in [-9, 9], took 25 s at 85k nonzeros and
# 60 s at 152k; the sparse four-round TONS slice (96k) takes 0.6 s.
_FALLBACK_CELL_LIMIT = 100_000
# HiGHS statuses with a verdict; any other status is a solver failure.
_HIGHS_STATUS = {0: LpSolution.OPTIMAL, 2: LpSolution.INFEASIBLE,
                 3: LpSolution.UNBOUNDED}
# Column key of a linear system's right-hand side in ``eliminate``.
RHS = -1


def _highs(norm: LinProgram) -> tuple[Optional[LpSolution], str,
                                      Optional[tuple[list, list]]]:
    """One HiGHS solve of the normalized LP.

    Returns a float ``LpSolution`` (primal and duals in this module's
    sign convention), HiGHS's message and, at an optimum, HiGHS's row
    slacks and column reduced costs in the LP's row and column order
    (else None).  The solution is None when HiGHS fails, that is, ends
    with a status other than optimal, infeasible or unbounded.
    ``linprog`` is looked up on each call, so a wrapper installed on
    ``scipy.optimize`` sees every solve.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n = norm.num_vars
    sign = 1.0 if norm.sense == MIN else -1.0
    c = np.zeros(n)
    for j, cj in norm.objective.items():
        c[j] = sign * float(cj)

    # linprog takes A_ub x <= b_ub, so >= rows enter negated.
    cons = norm.constraints
    flip = np.array([-1.0 if con.rel == GE else 1.0 for con in cons])
    row, col, coeffs = _coo(cons)
    a = sparse.csr_matrix((flip[row] * np.array(coeffs, float), (row, col)),
                          shape=(len(cons), n))
    b = flip * np.array([con.rhs for con in cons], float)
    is_eq = np.array([con.rel == EQ for con in cons], dtype=bool)
    ub, eq = np.flatnonzero(~is_eq), np.flatnonzero(is_eq)

    def part(m, rows):
        return m[rows] if len(rows) else None

    method = "highs-ipm" if len(cons) > _IPM_ROW_THRESHOLD else "highs-ds"
    res = linprog(c, A_ub=part(a, ub), b_ub=part(b, ub), A_eq=part(a, eq),
                  b_eq=part(b, eq),
                  bounds=[(None, None) if norm.is_free(j) else (0, None)
                          for j in range(n)],
                  method=method)
    status = _HIGHS_STATUS.get(res.status)
    if status != LpSolution.OPTIMAL:
        return (None if status is None else
                LpSolution(status, None, [], [], "float")), res.message, None

    # HiGHS marginals belong to the minimised, <=-form problem; undo the
    # objective sign and the row negation.
    dual = np.zeros(len(cons))
    dual[ub], dual[eq] = res.ineqlin.marginals, res.eqlin.marginals
    dual = (sign * flip * dual).tolist()
    slack = np.zeros(len(cons))
    slack[ub], slack[eq] = res.ineqlin.residual, res.eqlin.residual
    value = -res.fun if norm.sense == MAX else res.fun
    return (LpSolution(LpSolution.OPTIMAL, value, list(map(float, res.x)),
                       dual, "float"), res.message,
            (slack.tolist(), res.lower.marginals.tolist()))


def eliminate(rows: Iterable[dict]) -> Optional[dict[int, dict]]:
    """Reduced row echelon form of sparse rational rows {column: value}
    by exact Gauss-Jordan elimination.  Column ``RHS`` holds a system's
    right-hand side and is never a pivot.  Returns the nonzero rows keyed
    by pivot column, each 1 at its pivot (their count is the rank), or
    None when a row reduces to 0 = nonzero: the system is inconsistent.
    """
    pivots: dict[int, dict] = {}

    def reduce(row: dict, p: int, prow: dict) -> None:
        # row -= row[p] * prow, where prow is 1 at p.
        f = row.pop(p)
        for j, c in prow.items():
            if j != p:
                v = row.get(j, 0) - f * c
                if v:
                    row[j] = v
                else:
                    del row[j]

    for row in sorted(rows, key=len):
        row = {j: Fraction(c) for j, c in row.items() if c}
        # Pivot rows hold no other pivot column, so one pass reduces.
        for p in [j for j in row if j in pivots]:
            reduce(row, p, pivots[p])
        cols = [j for j in row if j != RHS]
        if not cols:
            if row:
                return None
            continue
        p = min(cols)
        inv = 1 / row[p]
        row = {j: c * inv for j, c in row.items()}
        for qrow in pivots.values():
            if p in qrow:
                reduce(qrow, p, row)
        pivots[p] = row
    return pivots


def _solve_active_set(norm: LinProgram, sol: LpSolution, slack: list,
                      reduced: list) -> Optional[LpSolution]:
    """Solve the basis of HiGHS's float optimum exactly, and verify it.

    The primal solves the tight rows (|slack| at most ``_FLOAT_ZERO_SNAP``;
    every equality row) on the columns with |x_j| above it, the dual the
    tight columns (|reduced cost| at most it; every free column) on the
    rows with |y_k| above it; all else is 0.  Returns the exact optimum
    if its certificate verifies, else None.
    """
    tol, cons = _FLOAT_ZERO_SNAP, norm.constraints
    support = {j for j, v in enumerate(sol.primal) if abs(v) > tol}
    rows = [{**{j: c for j, c in con.coeffs if j in support}, RHS: con.rhs}
            for con, s in zip(cons, slack) if con.rel == EQ or abs(s) <= tol]
    cols = [{RHS: norm.objective.get(j, 0)} for j in range(norm.num_vars)]
    for k, yk in enumerate(sol.dual):
        if abs(yk) > tol:
            for j, c in cons[k].coeffs:
                cols[j][k] = c
    cols = [col for j, col in enumerate(cols)
            if norm.is_free(j) or abs(reduced[j]) <= tol]
    pivots = [eliminate(rows), eliminate(cols)]
    if None in pivots:
        return None
    x, y = ([piv[i].get(RHS, Fraction(0)) if i in piv else Fraction(0)
             for i in range(size)]
            for piv, size in zip(pivots, (norm.num_vars, len(cons))))
    value = sum((c * x[j] for j, c in norm.objective.items()),
                start=Fraction(0))
    exact = LpSolution(LpSolution.OPTIMAL, value, x, y, "exact")
    exact.certified = bool(verify_certificate(norm, exact))
    return exact if exact.certified else None


def _exact_highs(norm: LinProgram) -> tuple[Optional[LpSolution], str,
                                            Optional[tuple[list, list]]]:
    """``_highs`` on an LP for exact mode, which refuses one with more
    than ``_FALLBACK_CELL_LIMIT`` nonzeros before HiGHS runs."""
    nnz = sum(len(con.coeffs) for con in norm.constraints)
    if nnz > _FALLBACK_CELL_LIMIT:
        raise CertificationError(
            f"no exact certificate: the exact basis solve is capped at "
            f"{_FALLBACK_CELL_LIMIT} nonzeros ({len(norm.constraints)} rows "
            f"x {norm.num_vars} vars, {nnz} nonzeros); use float mode")
    return _highs(norm)


def _certified_optimum(norm: LinProgram, sol: Optional[LpSolution],
                       message: str,
                       tight: Optional[tuple[list, list]]) -> LpSolution:
    """The exact optimum behind HiGHS's float one, by the exact basis
    solve of the rows and columns HiGHS reports tight (``_exact_highs``'s
    third value).  Raises CertificationError when HiGHS found no optimum
    or the solve does not verify."""
    if sol is None or sol.status != LpSolution.OPTIMAL:
        raise CertificationError(f"no exact certificate: HiGHS found no "
                                 f"optimum ({message})")
    exact = _solve_active_set(norm, sol, *tight)
    if exact is None:
        nnz = sum(len(con.coeffs) for con in norm.constraints)
        raise CertificationError(
            f"no exact certificate: the exact basis solve did not verify "
            f"({len(norm.constraints)} rows x {norm.num_vars} vars, {nnz} "
            f"nonzeros); use float mode")
    return exact


def _certified_verdict(norm: LinProgram, status: str) -> LpSolution:
    """Prove exactly that an LP without a HiGHS optimum is infeasible or
    unbounded; HiGHS's ``status`` does not decide which (it has called a
    feasible, unbounded LP infeasible).

    Phase one minimises the sum of two artificials per row (a_k+ - a_k-
    added to row k): a certified value above 0 proves infeasibility.  The
    ray LP keeps the homogeneous rows and caps the objective at +1 (max)
    or -1 (min): a certified nonzero value then proves unboundedness.
    Both are feasible and bounded.  CertificationError if neither proof
    holds.
    """
    n, m = norm.num_vars, len(norm.constraints)
    phase_one = LinProgram(
        n + 2 * m, MIN, dict.fromkeys(range(n, n + 2 * m), 1),
        [Constraint(con.coeffs + ((n + 2 * k, 1), (n + 2 * k + 1, -1)),
                    con.rel, con.rhs)
         for k, con in enumerate(norm.constraints)], dict(norm.lower))
    if _certified_optimum(phase_one, *_exact_highs(phase_one)).value != 0:
        return LpSolution(LpSolution.INFEASIBLE, None, [], [], "exact", True)
    sign = 1 if norm.sense == MAX else -1
    cap = make_constraint({j: sign * c for j, c in norm.objective.items()},
                          LE, 1)
    ray = LinProgram(n, norm.sense, dict(norm.objective),
                     [Constraint(con.coeffs, con.rel, 0)
                      for con in norm.constraints] + [cap], dict(norm.lower))
    if _certified_optimum(ray, *_exact_highs(ray)).value != 0:
        return LpSolution(LpSolution.UNBOUNDED, None, [], [], "exact", True)
    raise CertificationError(f"HiGHS reports the LP {status}, but it is "
                             f"feasible and bounded")


def solve(lp: LinProgram, mode: str = "exact",
          float_tolerance: float = 1e-9) -> LpSolution:
    """Solve the LP.

    Both modes make one HiGHS call (``_highs``): dual simplex, or
    interior point with crossover above ``_IPM_ROW_THRESHOLD`` rows.  An
    LP without variables needs none: its rows are checked at x = [].  A
    float-mode optimum is checked with ``verify_certificate`` at
    ``float_tolerance`` and raises ``CertificationError`` when it fails;
    a HiGHS failure, or a tolerance that is not finite and positive,
    raises ``LpError``.

    Exact mode has one path: the rows and columns tight at the HiGHS
    optimum are solved exactly and the result verified exactly
    (``_certified_optimum``), and an LP without an optimum is proved
    infeasible or unbounded by two auxiliary LPs (``_certified_verdict``).
    An LP, or auxiliary LP, with more than ``_FALLBACK_CELL_LIMIT``
    nonzeros is refused before HiGHS runs (``_exact_highs``).  Every exact
    answer has ``certified`` True, or ``CertificationError`` is raised.
    """
    lp.validate()
    if mode not in ("exact", "float"):
        raise LpError(f"unknown mode {mode!r}")
    _check_tolerance(float_tolerance)
    norm = lp.normalized()
    exact = mode == "exact"
    if not norm.num_vars:
        zero = Fraction(0) if exact else 0.0
        sol = LpSolution(LpSolution.OPTIMAL, zero, [],
                         [zero] * len(norm.constraints), mode, exact)
        if verify_certificate(norm, sol, float_tolerance):
            return sol
        return LpSolution(LpSolution.INFEASIBLE, None, [], [], mode, exact)

    sol, message, tight = (_exact_highs if exact else _highs)(norm)
    if exact:
        if sol is not None and sol.status != LpSolution.OPTIMAL:
            return _certified_verdict(norm, sol.status)
        return _certified_optimum(norm, sol, message, tight)
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
