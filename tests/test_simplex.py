"""Exact simplex solver against closed forms and random cross-checks, and
the lexicographic tie-break of the least vertex against a pinning oracle."""

import random
from fractions import Fraction

import pytest

from outerspine.minima import _least_vertex
from outerspine.simplex import Infeasible, Unbounded, solve_lp

from oracles import o_lex_least_point


F = Fraction


def test_volume_objective_is_constant():
    # minimize x+y+z subject to x+y+z = 1, coords >= 0.1: value 1
    sol = solve_lp(
        [1, 1, 1],
        a_eq=[[1, 1, 1]],
        b_eq=[1],
        a_ge=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        b_ge=[F(1, 10)] * 3,
    )
    assert sol.value == 1


def test_single_coordinate_objective():
    sol = solve_lp(
        [1, 0, 0],
        a_eq=[[1, 1, 1]],
        b_eq=[1],
        a_ge=[[1, 0, 0]],
        b_ge=[F(1, 10)],
    )
    assert sol.value == F(1, 10)
    assert sol.x[0] == F(1, 10)


def test_tie_break_is_lexicographic_minimum():
    # the optimal face is y + z = 9/10; the least vertex pushes y to its minimum
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    point = (F(1, 10), F(1, 10), F(8, 10))
    assert o_lex_least_point([1, 0, 0], [[1, 1, 1]], [1], rows, [F(1, 10)] * 3) == point
    assert _least_vertex([1, 0, 0], 1, 3, (1, 2, 4), F(1, 10)) == (F(1, 10), point)


def test_tie_break_independent_of_row_order():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rhs = [F(1, 10)] * 3
    a = o_lex_least_point([1, 0, 0], [[1, 1, 1]], [1], rows, rhs)
    b = o_lex_least_point([1, 0, 0], [[1, 1, 1]], [1], rows[::-1], rhs)
    assert a == b
    masks = (1, 2, 4)
    assert _least_vertex([1, 0, 0], 1, 3, masks, F(1, 10)) == _least_vertex(
        [1, 0, 0], 1, 3, masks[::-1], F(1, 10)
    )


def test_infeasible_raises():
    with pytest.raises(Infeasible):
        solve_lp([1], a_eq=[[1]], b_eq=[1], a_ge=[[1]], b_ge=[2])


def test_unbounded_raises():
    with pytest.raises(Unbounded):
        solve_lp([-1], a_ge=[[1]], b_ge=[0])


def test_duals_certify_value():
    # strong duality: value = b . y with y the returned multipliers
    c = [3, 1, 4]
    a_eq = [[1, 1, 1]]
    b_eq = [1]
    a_ge = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]
    b_ge = [F(1, 20), F(1, 20), F(1, 20), F(1, 5)]
    sol = solve_lp(c, a_eq, b_eq, a_ge, b_ge)
    dual_val = sum(d * b for d, b in zip(sol.duals, list(b_eq) + list(b_ge)))
    assert dual_val == sol.value


def test_random_lps_duality_and_feasibility():
    rng = random.Random(11)
    for trial in range(40):
        m = rng.randrange(3, 6)
        c = [F(rng.randrange(0, 8)) for _ in range(m)]
        a_ge = []
        b_ge = []
        for _ in range(rng.randrange(1, 5)):
            a_ge.append([F(rng.randrange(0, 3)) for _ in range(m)])
            b_ge.append(F(rng.randrange(0, 3), 10))
        # keep coordinates individually bounded below so the eq row can hold
        for i in range(m):
            row = [F(0)] * m
            row[i] = F(1)
            a_ge.append(row)
            b_ge.append(F(0))
        try:
            sol = solve_lp(c, [[1] * m], [1], a_ge, b_ge)
        except Infeasible:
            continue
        assert sum(sol.x) == 1
        for row, b in zip(a_ge, b_ge):
            assert sum(r * v for r, v in zip(row, sol.x)) >= b
        dual_val = sum(d * b for d, b in zip(sol.duals, [F(1)] + b_ge))
        assert dual_val == sol.value


def test_exact_rational_arithmetic():
    sol = solve_lp(
        [F(1, 3), F(1, 7), 0],
        a_eq=[[1, 1, 1]],
        b_eq=[1],
        a_ge=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        b_ge=[F(1, 13), F(1, 13), F(1, 13)],
    )
    assert sol.value == F(1, 3) * F(1, 13) + F(1, 7) * F(1, 13)
