"""Exact rational-arithmetic linear programming.

Both modes start with one HiGHS call through scipy: dual simplex, or
interior point with crossover on instances above ``_IPM_ROW_THRESHOLD``
rows.  Float mode checks the HiGHS optimum against its certificate at a
tolerance.  Exact mode has one path: it solves the rows and columns that
HiGHS reports tight at its float optimum over the integers, by
fraction-free elimination (``_echelon``; rows past full rank are only
checked), and accepts the rational pair only if primal feasibility, dual
feasibility and equality of both objectives hold in exact arithmetic
(the lift-and-verify scheme of QSopt_ex; Applegate, Cook, Dash &
Espinoza, Oper. Res. Lett. 35 (2007), finished by an exact basis solve
as in Gleixner, Steffy & Wolter, INFORMS J. Comput. 28 (2016)).  An
optimum whose certificate fails, in either mode, gets one more HiGHS
call at the tighter ``_TIGHT_HIGHS`` feasibility tolerances, and that
optimum is checked the same way.  Both modes check a certificate with
one residual evaluator: numpy sums over the LP data, primal and dual,
compared with 0 over integers in exact mode and at the tolerance over
floats in float mode.  ``solve`` is the one exact entry, also for the
auxiliary LPs that prove a verdict.

An LP keeps its rows as CSR arrays of integer numerators over common
denominators (``LinProgram``), int64 by ``games.narrowed``'s rule; one
writer, ``append_rows``, fills them with exact sums, and every solve and
check reads them, ``Constraint`` views one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import mul
from typing import Optional, Union

import numpy as np

from .games import integer_table, is_finite, narrowed

LE = "<="
EQ = "=="
GE = ">="
_RELATIONS = (LE, EQ, GE)
# A row's relation code in ``LinProgram.rel``: its index into _RELATIONS.
_LE, _EQ, _GE = range(3)

MAX = "max"
MIN = "min"

_FLOAT_ZERO_SNAP = 1e-9


class LpError(Exception):
    """Malformed linear program."""


class LpSizeError(LpError):
    """Instance exceeds the configured size cap; carries a size report."""


class CertificationError(LpError):
    """No verified certificate.  ``solve``, the one exact entry, raises it
    for an LP or for an auxiliary LP of its verdict: HiGHS failed, the
    exact basis solve did not verify or is over its size cap, or HiGHS
    found no optimum of an LP its auxiliary LPs show feasible and bounded.
    Float mode raises it when an optimum fails its certificate."""


class InfeasibleError(RuntimeError):
    """The requested constraint set admits no behavior."""


@dataclass(frozen=True)
class Constraint:
    """A view of one row, sum_j c_j x_j ``rel`` rhs, in exact numbers: an
    ``int`` where integral, else a ``Fraction``.  Built only by
    ``make_constraint`` and ``LinProgram.constraints``.  Frozen."""

    coeffs: tuple[tuple[int, Union[int, Fraction]], ...]
    rel: str
    rhs: Union[int, Fraction]


def _exact(num, den: int) -> Union[int, Fraction]:
    """num / den: an ``int`` where integral, else a ``Fraction``."""
    if den == 1:
        return int(num)
    q = Fraction(int(num), den)
    return q.numerator if q.denominator == 1 else q


def _finite(value, entry: str):
    """``value``; LpError naming ``entry`` if it is NaN or infinite."""
    if not is_finite(value):
        raise LpError(f"{entry} is {value}, not finite")
    return value


def _check_columns(indices: np.ndarray, num_vars: int) -> None:
    """LpError naming the first of ``indices`` outside [0, num_vars)."""
    outside = (indices < 0) | (indices >= num_vars)
    if outside.any():
        raise LpError(f"row index {indices[outside][0]} out of range")


def make_constraint(coeffs: dict, rel: str, rhs) -> Constraint:
    """The row of the nonzero ``coeffs`` {column: c}, in exact numbers."""
    prog = LinProgram(max(coeffs.keys(), default=-1) + 1)
    prog.add(coeffs, rel, rhs)
    return prog.constraints[0]


@dataclass(eq=False)
class LinProgram:
    """Sparse LP: optimize a linear objective over rational constraints.

    Objective coefficients and bounds are exact numbers, an ``int`` or a
    ``Fraction``.  Variables default to the bound 0 <= x < +inf; a lower
    bound of ``None`` marks the variable as free.  Finite upper bounds are
    normalised into explicit rows before solving.  Row k is
    sum_t (data[t] / den) x_indices[t] ``rel`` rhs[k] / rhs_den over t in
    indptr[k]:indptr[k + 1], CSR arrays with sorted columns and no zero
    coefficient.  Numerators are int64, or Python ints past int64; ``rel``
    indexes (LE, EQ, GE).  One writer, ``append_rows`` (``add`` is a row
    of it), replaces the arrays by longer read-only ones, so programs may
    share them; ``constraints`` is a fresh list of views of the rows.
    """

    num_vars: int
    sense: str = MAX
    objective: dict[int, Union[int, Fraction]] = field(default_factory=dict)
    lower: dict[int, Optional[Union[int, Fraction]]] = field(
        default_factory=dict)
    upper: dict[int, Union[int, Fraction]] = field(default_factory=dict)
    indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    indices: np.ndarray = field(default_factory=lambda: np.zeros(0, np.intp))
    data: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    den: int = 1
    rhs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    rhs_den: int = 1
    rel: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int8))

    @property
    def constraints(self) -> list[Constraint]:
        ptr, cols = self.indptr.tolist(), self.indices.tolist()
        coeffs = [_exact(a, self.den) for a in self.data.tolist()]
        return [Constraint(tuple(zip(cols[s:e], coeffs[s:e])), _RELATIONS[c],
                           _exact(b, self.rhs_den))
                for s, e, c, b in zip(ptr, ptr[1:], self.rel.tolist(),
                                      self.rhs.tolist())]

    def validate(self) -> None:
        if self.num_vars < 0:
            raise LpError("negative variable count")
        if self.sense not in (MAX, MIN):
            raise LpError(f"unknown sense {self.sense!r}")
        for name, entries in (("objective coefficient", self.objective),
                              ("lower bound", self.lower),
                              ("upper bound", self.upper)):
            for j, v in entries.items():
                if not 0 <= j < self.num_vars:
                    raise LpError(f"{name} index {j} out of range")
                if v is not None:
                    _finite(v, f"{name} of x{j}")
        _check_columns(self.indices, self.num_vars)
        if any(lo is not None and lo != 0 for lo in self.lower.values()):
            raise LpError("only lower bounds 0 (default) or None (free) "
                          "are supported directly; shift the variable")
        if None in self.upper.values():
            raise LpError("upper bound None is implicit; omit the entry")

    def is_free(self, j: int) -> bool:
        return j in self.lower and self.lower[j] is None

    def add(self, coeffs: dict, rel: str, rhs) -> None:
        """Append the row of the nonzero ``coeffs`` {column: c}, written
        by ``append_rows`` as a one-row block."""
        append_rows(self, [(np.array([[*coeffs.keys()]], np.intp),
                            [*coeffs.values()])], [rhs], rel)

    def normalized(self) -> "LinProgram":
        """Return an equivalent LP with finite upper bounds as rows."""
        if not self.upper:
            return self
        cols, bounds = zip(*sorted(self.upper.items()))
        norm = replace(self, objective=dict(self.objective),
                       lower=dict(self.lower), upper={})
        append_rows(norm, [(np.array(cols)[:, None], [1])], bounds, LE)
        return norm


def _scaled(nums: np.ndarray, factor: int) -> np.ndarray:
    """``nums`` times ``factor``, int64 by ``narrowed``'s rule."""
    return nums if factor == 1 else narrowed(nums, factor) * factor


def _floats(nums: np.ndarray, den: int) -> np.ndarray:
    """Each nums[i] / den rounded to the nearest float, as ``float`` does."""
    if max(den, _max_abs(nums)) < 2 ** 53:
        # Both are exact as floats, so one division rounds correctly.
        return nums.astype(float) / den
    return np.array([int(a) / den for a in nums.tolist()], float)


def _free_columns(norm: LinProgram) -> np.ndarray:
    """Mask of the LP's free columns, those with lower bound None."""
    return np.isin(np.arange(norm.num_vars),
                   [j for j, lo in norm.lower.items() if lo is None])


def _summed_rows(j: np.ndarray, coeffs: np.ndarray):
    """The rows sum_k coeffs[k] x_{j[r, k]} of one block as (row sizes,
    columns, sums): each column's terms summed, zero sums dropped, each
    row's columns ascending.  Every row has the block's width, so a sort
    within rows lines each column's terms up for one ``np.add.reduceat``."""
    count, width = j.shape
    order = np.argsort(j, axis=1)
    cols = np.take_along_axis(j, order, axis=1)
    # A sum starts at each row's first term and at each change of column.
    start = np.ones((count, width), bool)
    start[:, 1:] = cols[:, 1:] != cols[:, :-1]
    at = np.flatnonzero(start)
    sums = np.add.reduceat(coeffs[order].ravel(), at)
    nonzero = sums != 0
    at = at[nonzero]
    return (np.bincount(at // width, minlength=count),
            cols.ravel()[at], sums[nonzero])


def _first_rows(code: np.ndarray, rows: np.ndarray, sizes: np.ndarray,
                cols: np.ndarray, sums: np.ndarray):
    """The rows ``rows`` (ascending indices), in ``_summed_rows``' form,
    less each that equals an earlier one, right-hand-side ``code[rows]``
    included: ``(rows, sizes, cols, sums)`` of the first of each."""
    starts = np.cumsum(sizes) - sizes
    kept = np.zeros(len(sizes), bool)
    # Rows of one length as (rhs code, columns, coefficients); a stable
    # sort keeps equal rows in order, and the first of each is kept.
    for size in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == size)
        terms = starts[members][:, None] + np.arange(size)
        table = np.hstack([code[rows[members]][:, None], cols[terms],
                           sums[terms]])
        order = np.lexsort(table.T[::-1])
        table = table[order]
        first = np.r_[True, (table[1:] != table[:-1]).any(axis=1)]
        kept[members[order[first]]] = True
    entries = np.repeat(kept, sizes)
    return rows[kept], sizes[kept], cols[entries], sums[entries]


def append_rows(prog: LinProgram, blocks, rhs, rel: str,
                distinct: bool = False) -> None:
    """Append the rows sum_k c[k] x_{j[r, k]} ``rel`` rhs[r] of the blocks
    ``(j, c)``, in order, with each column's coefficients summed and zero
    terms dropped; if ``distinct``, without repeats (right-hand side
    included).  ``rhs`` is a list, one exact number per row, or one exact
    number for every row, converted once.  Coefficients (int arrays, ints
    or ``Fraction``s) go over one denominator and sum exactly: in int64,
    or in Python ints past its bound.  Rows are summed, and with
    ``distinct`` de-duplicated, one block at a time; the survivors of all
    blocks are then de-duplicated once, keeping the first of equal rows.
    A refused call leaves the program as it was."""
    if rel not in _RELATIONS:
        raise LpError(f"unknown relation {rel!r}")
    for b, (j, c) in enumerate(blocks):
        if np.ndim(j) != 2:
            raise LpError(f"block {b}: column shape {np.shape(j)}, not 2-D")
        if len(c) != j.shape[1]:
            raise LpError(f"block {b}: row width {j.shape[1]}, coefficient "
                          f"count {len(c)}")
    shared = np.ndim(rhs) == 0  # one number for every row
    if not blocks:
        if not shared and len(rhs):
            raise LpError(f"row count 0, right-hand side count {len(rhs)}")
        return
    # A list is kept as its objects: numpy would round some mixes to floats
    # (an int past 2**53 beside a float, one in [2**63, 2**64) beside 1).
    blocks = [(j, c if isinstance(c, np.ndarray) else np.array(c, object))
              for j, c in blocks]
    count = sum(len(j) for j, _ in blocks)
    widths = [j.shape[1] for j, _ in blocks]
    for j, _ in blocks:
        _check_columns(j.ravel(), prog.num_vars)
    try:
        # A row's sum is at most its width times its largest coefficient.
        nums, den = integer_table(np.concatenate(
            [c for _, c in blocks]).tolist(), max(widths))
        rhs, rhs_den = integer_table([rhs] if shared else rhs)
    except (ValueError, OverflowError):  # Fraction of a NaN or an inf
        # The first entry that is not finite, named by its column in its
        # block's first row.
        for j, c in blocks:
            for col, value in zip(j[:1].ravel().tolist(), c.tolist()):
                _finite(value, f"row coefficient of x{col}")
        for b in [rhs] if shared else rhs:
            _finite(b, "right-hand side")
        raise LpError("row coefficients must be finite") from None
    if shared:
        rhs = np.repeat(rhs, count)
    elif len(rhs) != count:
        raise LpError(f"row count {count}, right-hand side count {len(rhs)}")
    if distinct:
        code = np.unique(rhs, return_inverse=True)[1]
    parts, first = [], 0
    for (j, _), c in zip(blocks, np.split(nums, np.cumsum(widths)[:-1])):
        part = (np.arange(first, first + len(j)), *_summed_rows(j, c))
        first += len(j)
        parts.append(_first_rows(code, *part) if distinct else part)
    rows, sizes, cols, sums = (np.concatenate(p) for p in zip(*parts))
    if distinct:
        rows, sizes, cols, sums = _first_rows(code, rows, sizes, cols, sums)
    to, to_rhs = math.lcm(prog.den, den), math.lcm(prog.rhs_den, rhs_den)
    prog.indptr = np.concatenate([prog.indptr, prog.indptr[-1] + np.cumsum(
        sizes, dtype=np.int64)])
    prog.indices = np.concatenate([prog.indices, np.asarray(cols, np.intp)])
    prog.data = np.concatenate([_scaled(prog.data, to // prog.den),
                                _scaled(sums, to // den)])
    prog.rhs = np.concatenate([_scaled(prog.rhs, to_rhs // prog.rhs_den),
                               _scaled(rhs[rows], to_rhs // rhs_den)])
    prog.den, prog.rhs_den = to, to_rhs
    prog.rel = np.concatenate([
        prog.rel, np.full(len(rows), _RELATIONS.index(rel), np.int8)])
    for array in (prog.indptr, prog.indices, prog.data, prog.rhs, prog.rel):
        array.setflags(write=False)


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
    if len(sol.dual) != len(norm.rhs):
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
    n, m, col = norm.num_vars, len(norm.rhs), norm.indices
    row = np.repeat(np.arange(m), np.diff(norm.indptr))
    obj_cols = list(norm.objective)
    if exact:
        c_obj, c_den = integer_table(norm.objective.values())
        s = math.lcm(norm.den, norm.rhs_den, c_den)
        a, b, c_obj = (_scaled(v, s // den) for v, den in (
            (norm.data, norm.den), (norm.rhs, norm.rhs_den), (c_obj, c_den)))
        (X, d), (Y, e) = integer_table(x), integer_table(y)
        size = len(col) + n + m + 1
        if max(map(_max_abs, (a, b, c_obj))) * \
                (_max_abs(X) + d + _max_abs(Y) + e) * size >= 2 ** 63:
            a, b, c_obj, X, Y = (v.astype(object) for v in (a, b, c_obj, X, Y))
        tol, value = 0, None if value is None else Fraction(value)
    else:
        a, b = _floats(norm.data, norm.den), _floats(norm.rhs, norm.rhs_den)
        c_obj, X, Y = (np.fromiter(map(float, vs), float)
                       for vs in (norm.objective.values(), x, y))
        s = d = e = 1
        tol = tolerance

    def number(v, den):
        return Fraction(int(v), den) if exact else float(v)

    def sums(index, terms, size):
        out = np.zeros(size, dtype=terms.dtype)
        np.add.at(out, index, terms)
        return out

    c = np.zeros(n, dtype=c_obj.dtype)
    c[obj_cols] = c_obj
    free = _free_columns(norm)
    le, eq, ge = (norm.rel == code for code in (_LE, _EQ, _GE))
    sign = 1 if norm.sense == MAX else -1

    reasons = [f"x{j} = {number(X[j], d)} violates x >= 0"
               for j in np.flatnonzero((X < -tol) & ~free)]
    ax = sums(row, a * X[col], m)
    delta = ax - b * d
    for k in np.flatnonzero(eq & (abs(delta) > tol) | le & (delta > tol)
                            | ge & (delta < -tol)):
        op = (">", "!=", "<")[norm.rel[k]]
        reasons.append(f"row {k}: {number(ax[k], s * d)} {op} "
                       f"{_exact(norm.rhs[k], norm.rhs_den)}")

    # Dual sign conventions: for a max problem y >= 0 on <= rows and
    # y <= 0 on >= rows (mirrored for min); equality rows are free.
    for k in np.flatnonzero(le & (sign * Y < -tol) | ge & (sign * Y > tol)):
        reasons.append(f"dual {k}: wrong sign for {_RELATIONS[norm.rel[k]]} "
                       f"row")

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
# HiGHS's feasibility tolerances on the retry after a failed certificate;
# its defaults, 1e-7, can leave residuals above the checks' 1e-9.
_TIGHT_HIGHS = {"primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10}
# HiGHS statuses with a verdict; any other status is a solver failure.
_HIGHS_STATUS = {0: LpSolution.OPTIMAL, 2: LpSolution.INFEASIBLE,
                 3: LpSolution.UNBOUNDED}
# Column key of a linear system's right-hand side; never a pivot.
RHS = -1


def _highs(norm: LinProgram, options: Optional[dict] = None
           ) -> tuple[Optional[LpSolution], str, Optional[tuple[list, list]]]:
    """One HiGHS solve of the normalized LP, with ``linprog``'s
    ``options`` if given.

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
    m = len(norm.rhs)
    flip = np.where(norm.rel == _GE, -1.0, 1.0)
    row = np.repeat(np.arange(m), np.diff(norm.indptr))
    a = sparse.csr_matrix((flip[row] * _floats(norm.data, norm.den),
                           norm.indices, norm.indptr), shape=(m, n))
    b = flip * _floats(norm.rhs, norm.rhs_den)
    ub, eq = np.flatnonzero(norm.rel != _EQ), np.flatnonzero(norm.rel == _EQ)

    def part(m, rows):
        return m[rows] if len(rows) else None

    bounds = np.where(_free_columns(norm)[:, None], [-np.inf, np.inf],
                      [0, np.inf])
    method = "highs-ipm" if m > _IPM_ROW_THRESHOLD else "highs-ds"
    res = linprog(c, A_ub=part(a, ub), b_ub=part(b, ub), A_eq=part(a, eq),
                  b_eq=part(b, eq), bounds=bounds, method=method,
                  options=options)
    status = _HIGHS_STATUS.get(res.status)
    if status != LpSolution.OPTIMAL:
        return (None if status is None else
                LpSolution(status, None, [], [], "float")), res.message, None

    # HiGHS marginals belong to the minimised, <=-form problem; undo the
    # objective sign and the row negation.
    dual = np.zeros(m)
    dual[ub], dual[eq] = res.ineqlin.marginals, res.eqlin.marginals
    dual = (sign * flip * dual).tolist()
    slack = np.zeros(m)
    slack[ub], slack[eq] = res.ineqlin.residual, res.eqlin.residual
    value = -res.fun if norm.sense == MAX else res.fun
    return (LpSolution(LpSolution.OPTIMAL, value, list(map(float, res.x)),
                       dual, "float"), res.message,
            (slack.tolist(), res.lower.marginals.tolist()))


def _echelon(rows: list[dict]) -> Optional[dict[int, dict]]:
    """Gauss-Jordan elimination of integer rows {column: value} in their
    order, each pivoting on its lowest nonzero column, fraction-free (cf.
    Bareiss, Math. Comp. 22 (1968)): d row - f pivot_row over its gcd
    stays a nonzero multiple of its rational counterpart, so pivots and
    inconsistency are the rational ones.  Returns the pivot rows by pivot
    column (nonzero there, not 1), or None at a row 0 = nonzero.  Once
    every column has a pivot, the rows left are only checked."""
    pivots: dict[int, dict] = {}
    width = len(set().union(*rows) - {RHS})
    rows = iter(rows)
    for row in rows:
        if len(pivots) == width:
            # x_p = N_p / D; a row holds iff sum_j row_j N_j = row_RHS D.
            den = math.lcm(*(prow[p] for p, prow in pivots.items()))
            x = {p: prow.get(RHS, 0) * (den // prow[p])
                 for p, prow in pivots.items()}
            x[RHS] = -den
            return None if any(sum(map(mul, r.values(), map(x.get, r)))
                               for r in (row, *rows)) else pivots
        row = _reduced(row, [p for p in row if p in pivots], pivots)
        cols = row.keys() - {RHS}
        if not cols:
            if row:
                return None
            continue
        p = min(cols)
        for q, qrow in pivots.items():
            if p in qrow:
                pivots[q] = _reduced(qrow, [p], {p: row})
        pivots[p] = row
    return pivots


def _reduced(row: dict, hits: list, pivots: dict) -> dict:
    """The integer row s row - sum_p f_p pivots[p], 0 at each column p in
    ``hits`` (pivot rows hold no other pivot column), over its gcd and
    without zero entries."""
    scale = math.lcm(*(pivots[p][p] // math.gcd(pivots[p][p], row[p])
                       for p in hits))
    out = {j: scale * c for j, c in row.items()} if scale > 1 else dict(row)
    for p in hits:
        f = out[p] // pivots[p][p]
        for j, c in pivots[p].items():
            out[j] = out.get(j, 0) - f * c
    g = math.gcd(*out.values()) or 1
    return {j: c // g for j, c in out.items() if c}


def _tight_rows(major: np.ndarray, minor: np.ndarray, coeffs: np.ndarray,
                tight: np.ndarray, live: np.ndarray, rhs: list) -> list[dict]:
    """The rows {RHS: rhs[k], minor: coefficient} of the tight keys k of
    ``major`` on its live ``minor`` keys, shortest first; rows 0 = 0 are
    left out."""
    rows = {k: {RHS: rhs[k]} for k in np.flatnonzero(tight).tolist()}
    at = tight[major] & live[minor]
    for k, j, c in zip(*(v[at].tolist() for v in (major, minor, coeffs))):
        rows[k][j] = c
    return sorted((row for row in rows.values() if len(row) > 1 or row[RHS]),
                  key=len)


def _solve_active_set(norm: LinProgram, sol: LpSolution, slack: list,
                      reduced: list) -> Optional[LpSolution]:
    """Solve the basis of HiGHS's float optimum exactly, and verify it.

    The primal solves the tight rows (|slack| at most ``_FLOAT_ZERO_SNAP``;
    every equality row) on the columns with |x_j| above it, the dual the
    tight columns (|reduced cost| at most it; every free column) on the
    rows with |y_k| above it; all else is 0.  Returns the exact optimum
    if its certificate verifies, else None.
    """
    tol, m, n, col = _FLOAT_ZERO_SNAP, len(norm.rhs), norm.num_vars, \
        norm.indices
    row = np.repeat(np.arange(m), np.diff(norm.indptr))
    obj, obj_den = integer_table([norm.objective.get(j, 0) for j in range(n)])
    # The primal is taken times den * rhs_den and the dual times
    # den * obj_den: both are then integer, with the same solutions.
    pivots = [_echelon(_tight_rows(
        row, col, _scaled(norm.data, norm.rhs_den),
        (norm.rel == _EQ) | (np.abs(slack) <= tol),
        np.abs(sol.primal) > tol, _scaled(norm.rhs, norm.den).tolist())),
        _echelon(_tight_rows(
            col, row, _scaled(norm.data, obj_den),
            _free_columns(norm) | (np.abs(reduced) <= tol),
            np.abs(sol.dual) > tol, _scaled(obj, norm.den).tolist()))]
    if None in pivots:
        return None
    zero = Fraction(0)
    x, y = ([Fraction(piv[i][RHS], piv[i][i]) if RHS in piv.get(i, ()) else
             zero for i in range(size)] for piv, size in zip(pivots, (n, m)))
    value = sum((c * x[j] for j, c in norm.objective.items()), start=zero)
    exact = LpSolution(LpSolution.OPTIMAL, value, x, y, "exact")
    exact.certified = bool(verify_certificate(norm, exact))
    return exact if exact.certified else None


def _size(norm: LinProgram) -> str:
    return (f"{len(norm.rhs)} rows x {norm.num_vars} vars, "
            f"{len(norm.indices)} nonzeros")


def _certified_verdict(norm: LinProgram, status: str) -> LpSolution:
    """Prove exactly that an LP without a HiGHS optimum is infeasible or
    unbounded; HiGHS's ``status`` does not decide which (it has called a
    feasible, unbounded LP infeasible).

    Phase one minimises the sum of two artificials per row (a_k+ - a_k-
    added to row k): a certified value above 0 proves infeasibility.  The
    ray LP keeps the homogeneous rows and caps the objective at +1 (max)
    or -1 (min): a certified nonzero value then proves unboundedness.
    Both are feasible and bounded, and ``solve`` proves each optimum.
    CertificationError if neither proof holds.
    """
    n, m, den = norm.num_vars, len(norm.rhs), norm.den
    # Row k's artificials, coefficients +1 and -1 over den, end the row.
    at = np.repeat(norm.indptr[1:], 2)
    data = norm.data if den < 2 ** 63 else norm.data.astype(object)
    phase_one = replace(
        norm, num_vars=n + 2 * m, sense=MIN,
        objective=dict.fromkeys(range(n, n + 2 * m), 1),
        indptr=norm.indptr + 2 * np.arange(m + 1),
        indices=np.insert(norm.indices, at, np.arange(n, n + 2 * m)),
        data=np.insert(data, at, np.tile([den, -den], m)))
    if solve(phase_one).value != 0:
        return LpSolution(LpSolution.INFEASIBLE, None, [], [], "exact", True)
    sign = 1 if norm.sense == MAX else -1
    ray = replace(norm, rhs=np.zeros(m, np.int64), rhs_den=1)
    ray.add({j: sign * c for j, c in norm.objective.items()}, LE, 1)
    if solve(ray).value != 0:
        return LpSolution(LpSolution.UNBOUNDED, None, [], [], "exact", True)
    raise CertificationError(f"HiGHS reports the LP {status}, but it is "
                             f"feasible and bounded")


def solve(lp: LinProgram, mode: str = "exact",
          float_tolerance: float = 1e-9) -> LpSolution:
    """Solve the LP; the one entry to exact mode.

    Both modes start with one HiGHS call (``_highs``): dual simplex, or
    interior point with crossover above ``_IPM_ROW_THRESHOLD`` rows.  An
    LP without variables needs none: its rows are checked at x = [].  A
    float-mode optimum is checked with ``verify_certificate`` at
    ``float_tolerance``; a HiGHS failure, or a tolerance that is not
    finite and positive, raises ``LpError``.  An optimum whose
    certificate fails, in either mode, is solved once more by HiGHS at
    the ``_TIGHT_HIGHS`` tolerances, and that optimum is checked the
    same way; if it fails too, ``CertificationError`` is raised.

    Exact mode refuses an LP over ``_FALLBACK_CELL_LIMIT`` nonzeros
    before HiGHS runs, solves the rows and columns tight at the HiGHS
    optimum exactly and verifies the result (``_solve_active_set``), and
    proves an LP without an optimum infeasible or unbounded by two
    auxiliary LPs, solved here too (``_certified_verdict``).  Every exact
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
                         [zero] * len(norm.rhs), mode, exact)
        if verify_certificate(norm, sol, float_tolerance):
            return sol
        return LpSolution(LpSolution.INFEASIBLE, None, [], [], mode, exact)

    if exact and len(norm.indices) > _FALLBACK_CELL_LIMIT:
        raise CertificationError(
            f"no exact certificate: the exact basis solve is capped at "
            f"{_FALLBACK_CELL_LIMIT} nonzeros ({_size(norm)}); use float mode")
    sol, message, tight = _highs(norm)
    if sol is None:
        raise (CertificationError(f"no exact certificate: HiGHS found no "
                                  f"optimum ({message})") if exact else
               LpError(f"float solver failed: {message}"))
    if sol.status != LpSolution.OPTIMAL:
        return _certified_verdict(norm, sol.status) if exact else sol

    def certified(sol: LpSolution, tight: tuple[list, list]) -> LpSolution:
        if exact:
            sol = _solve_active_set(norm, sol, *tight)
            if sol is None:
                raise CertificationError(
                    f"no exact certificate: the exact basis solve did not "
                    f"verify ({_size(norm)}); use float mode")
            return sol
        report = verify_certificate(norm, sol, float_tolerance)
        if not report:
            raise CertificationError(
                f"float optimum fails its certificate at tolerance "
                f"{float_tolerance:g} ({len(report.reasons)} residuals): "
                + "; ".join(report.reasons[:3]))
        return sol

    try:
        return certified(sol, tight)
    except CertificationError:
        retry, _, tight = _highs(norm, _TIGHT_HIGHS)
        if retry is None or retry.status != LpSolution.OPTIMAL:
            raise
    return certified(retry, tight)


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
