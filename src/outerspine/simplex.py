"""Dense two-phase simplex over exact rationals.

Problems here are tiny (a handful of edge lengths, a couple dozen cycle
rows), so everything runs on Fraction tableaus: no tolerance tuning, and
Bland's rule guarantees termination.  Floats entering through lengths or
weights are converted exactly (Fraction(float) is the exact binary value),
so equal inputs give identical outputs.

The public entry point solves

    minimize    c . x
    subject to  A_eq x = b_eq,  A_ge x >= b_ge,  x >= 0

and returns the optimum, an optimal vertex, and dual values forming an
optimality certificate (the tests check strong duality and dual
feasibility against it).  Which optimal vertex depends on the pivot path;
callers that need one canonical point read it off the region's vertices
(``minima._least_vertex``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence


class Infeasible(Exception):
    """Raised when the constraint system has no solution."""


class Unbounded(Exception):
    """Raised when the objective decreases without bound."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LpSolution(NamedTuple):
    value: Fraction
    x: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]  # one per constraint row, equality rows first


class _Tableau:
    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], basis: list[int]):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = len(rows[0]) if rows else 0

    def pivot(self, r: int, c: int) -> None:
        inv = Fraction(1) / self.rows[r][c]
        self.rows[r] = [v * inv for v in self.rows[r]]
        self.rhs[r] *= inv
        row_r = self.rows[r]
        for i in range(len(self.rows)):
            if i == r:
                continue
            f = self.rows[i][c]
            if f:
                self.rows[i] = [v - f * rv for v, rv in zip(self.rows[i], row_r)]
                self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = c

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        red = list(cost)
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                row = self.rows[r]
                for j in range(self.ncols):
                    if row[j]:
                        red[j] -= cb * row[j]
        return red

    def objective_value(self, cost: list[Fraction]) -> Fraction:
        return sum(cost[b] * self.rhs[r] for r, b in enumerate(self.basis))

    def minimize(self, cost: list[Fraction], frozen: frozenset[int]) -> None:
        """Bland's rule: smallest eligible entering column, smallest basis
        variable on leaving ties.  Terminates on every input."""
        while True:
            red = self.reduced_costs(cost)
            enter = -1
            for j in range(self.ncols):
                if j not in frozen and red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best = None
            for r in range(len(self.rows)):
                a = self.rows[r][enter]
                if a > 0:
                    ratio = self.rhs[r] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[r] < self.basis[leave]
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                raise Unbounded("objective unbounded below")
            self.pivot(leave, enter)


def solve_lp(
    c: Sequence,
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    a_ge: Sequence[Sequence] = (),
    b_ge: Sequence = (),
) -> LpSolution:
    """Solve the LP; see the module docstring for the problem shape."""
    c = [_frac(v) for v in c]
    rows = [[_frac(v) for v in row] for row in a_eq]
    rhs = [_frac(v) for v in b_eq]
    kinds = ["eq"] * len(rows)
    for row, b in zip(a_ge, b_ge):
        rows.append([_frac(v) for v in row])
        rhs.append(_frac(b))
        kinds.append("ge")
    for row in rows:
        if len(row) != len(c):
            raise ValueError("constraint width does not match objective")

    nvars = len(c)
    nrows = len(rows)
    nslack = kinds.count("ge")
    art_lo = nvars + nslack
    ncols = art_lo + nrows
    zero = Fraction(0)

    full: list[list[Fraction]] = []
    b = list(rhs)
    si = 0
    for i in range(nrows):
        row = list(rows[i]) + [zero] * (nslack + nrows)
        if kinds[i] == "ge":
            row[nvars + si] = Fraction(-1)
            si += 1
        full.append(row)
    sign = [Fraction(1)] * nrows
    for i in range(nrows):
        if b[i] < 0:
            full[i] = [-v for v in full[i]]
            b[i] = -b[i]
            sign[i] = Fraction(-1)
    for i in range(nrows):
        full[i][art_lo + i] = Fraction(1)

    tab = _Tableau(full, b, [art_lo + i for i in range(nrows)])

    phase1 = [zero] * art_lo + [Fraction(1)] * nrows
    tab.minimize(phase1, frozen=frozenset())
    if tab.objective_value(phase1) != 0:
        raise Infeasible("no feasible point")
    for r in range(nrows):
        # degenerate artificial left in the basis: swap in any real column
        if tab.basis[r] >= art_lo:
            for j in range(art_lo):
                if tab.rows[r][j] != 0:
                    tab.pivot(r, j)
                    break

    artificials = frozenset(range(art_lo, ncols))
    cost = c + [zero] * (nslack + nrows)
    tab.minimize(cost, artificials)

    value = tab.objective_value(cost)
    x = [zero] * ncols
    for r, bcol in enumerate(tab.basis):
        x[bcol] = tab.rhs[r]

    # dual value of row i is the negated reduced cost of its artificial
    # column (cost 0, original column +-e_i), adjusted for the sign flip
    red = tab.reduced_costs(cost)
    duals = tuple(-red[art_lo + i] * sign[i] for i in range(nrows))
    return LpSolution(value, tuple(x[:nvars]), duals)
