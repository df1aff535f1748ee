import itertools

import numpy as np
import pytest
import scipy.optimize

from hessmg.simplex import simplex_solve
from hessmg.solve import INFEASIBLE, OPTIMAL, UNBOUNDED


def _solve(c, a, b, lo, hi):
    return simplex_solve(np.asarray(c, float), np.asarray(a, float),
                         np.asarray(b, float), np.asarray(lo, float),
                         np.asarray(hi, float))


class TestSmall:
    def test_single_variable_at_bound(self):
        # min x s.t. x = 3 split as x - s = 0 with s in [3, 3]
        status, x, obj, _ = _solve([1.0], np.eye(1), [3.0], [0.0], [np.inf])
        assert status == OPTIMAL
        assert obj == pytest.approx(3.0, abs=1e-9)

    def test_two_variable_vertex(self):
        # min -x - 2y s.t. x + y + s = 4, 0<=x<=3, 0<=y<=3, s>=0
        c = [-1.0, -2.0, 0.0]
        a = [[1.0, 1.0, 1.0]]
        status, x, obj, _ = _solve(c, a, [4.0], [0, 0, 0], [3, 3, np.inf])
        assert status == OPTIMAL
        assert obj == pytest.approx(-7.0, abs=1e-8)  # x=1, y=3
        assert x[1] == pytest.approx(3.0, abs=1e-8)

    def test_free_variable(self):
        # min y s.t. x + y = 1, x in [0, 2], y free -> y = -1 at x = 2
        status, x, obj, _ = _solve([0.0, 1.0], [[1.0, 1.0]], [1.0],
                                   [0.0, -np.inf], [2.0, np.inf])
        assert status == OPTIMAL
        assert obj == pytest.approx(-1.0, abs=1e-8)

    def test_unbounded_detected(self):
        # min -x s.t. x - y = 0, both unbounded above
        status, *_ = _solve([-1.0, 0.0], [[1.0, -1.0]], [0.0],
                            [0.0, 0.0], [np.inf, np.inf])
        assert status == UNBOUNDED

    def test_infeasible_detected(self):
        # x + y = 5 with x, y in [0, 1]
        status, *_ = _solve([1.0, 1.0], [[1.0, 1.0]], [5.0], [0, 0], [1, 1])
        assert status == INFEASIBLE

    def test_degenerate_vertex(self):
        # multiple constraints meet at the optimum; must still terminate
        a = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]]
        c = [-1.0, -1.0, 0.0, 0.0]
        status, _, obj, _ = _solve(c, a, [1.0, 1.0, 2.0],
                                   [0] * 4, [np.inf] * 4)
        assert status == OPTIMAL
        assert obj == pytest.approx(-2.0, abs=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 9))
        b = rng.normal(size=4)
        c = rng.normal(size=9)
        lo, hi = np.zeros(9), np.full(9, 10.0)
        r1 = _solve(c, a, b, lo, hi)
        r2 = _solve(c, a, b, lo, hi)
        assert r1[0] == r2[0] and np.array_equal(r1[1], r2[1])


def _vertex_oracle(c, a, b, lo, hi):
    """Enumerate all basic solutions of Ax=b with bounds; exact for tiny LPs."""
    m, n = a.shape
    best = np.inf
    for basis in itertools.combinations(range(n), m):
        sub = a[:, list(basis)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        nonbasic = [j for j in range(n) if j not in basis]
        for corner in itertools.product(*[
                [v for v in (lo[j], hi[j]) if np.isfinite(v)] or [0.0]
                for j in nonbasic]):
            x = np.empty(n)
            x[nonbasic] = corner
            rhs = b - a[:, nonbasic] @ x[nonbasic]
            x[list(basis)] = np.linalg.solve(sub, rhs)
            if np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9):
                best = min(best, float(c @ x))
    return best


def test_matches_vertex_enumeration():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(30):
        m, n = 2, 5
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        c = rng.normal(size=n)
        lo = np.zeros(n)
        hi = rng.uniform(0.5, 4.0, size=n)
        status, _, obj, _ = _solve(c, a, b, lo, hi)
        oracle = _vertex_oracle(a=a, b=b, c=c, lo=lo, hi=hi)
        if status == INFEASIBLE:
            assert oracle == np.inf
        else:
            assert status == OPTIMAL
            assert obj == pytest.approx(oracle, abs=1e-7)
            checked += 1
    assert checked >= 10  # the fuzz actually exercised optimal instances


def _random_instance(rng):
    m = int(rng.integers(1, 8))
    n = int(rng.integers(m, 14))
    a = rng.normal(size=(m, n))
    a[rng.random(size=a.shape) < 0.3] = 0.0
    b = rng.normal(size=m)
    c = rng.normal(size=n)
    lo = np.where(rng.random(n) < 0.2, -np.inf, rng.uniform(-2, 0, n))
    hi = np.where(rng.random(n) < 0.2, np.inf, rng.uniform(0.5, 5, n))
    return c, a, b, lo, hi


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_against_reference_solver(seed):
    rng = np.random.default_rng((20240101, seed))
    for _ in range(25):
        c, a, b, lo, hi = _random_instance(rng)
        status, _, obj, _ = _solve(c, a, b, lo, hi)
        ref = scipy.optimize.linprog(
            c, A_eq=a, b_eq=b, bounds=np.column_stack([lo, hi]), method="highs")
        ref_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(ref.status)
        assert status == ref_status, (status, ref_status)
        if status == OPTIMAL:
            assert obj == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


def test_solution_is_feasible_not_just_objective():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c, a, b, lo, hi = _random_instance(rng)
        status, x, _, _ = _solve(c, a, b, lo, hi)
        if status == OPTIMAL:
            np.testing.assert_allclose(a @ x, b, rtol=0, atol=1e-7)
            assert np.all(x >= lo - 1e-7) and np.all(x <= hi + 1e-7)
