"""Saturating utilities: the smoothed relaxation and the worst-item heuristic."""

import dataclasses

import numpy as np
import pytest

from budgetcore import saturating
from budgetcore.ballots import gen_synthetic
from budgetcore.lindahl import lindahl_residuals, solve_potential
from budgetcore.model import Instance, SmoothedSaturating
from budgetcore.saturating import HeuristicConfig, heuristic_solve, smoothing_alpha


def approval_instance(n=50, k=8, seed=0, budget=1.0):
    return gen_synthetic("k-approval", n=n, k=k, seed=seed, budget=budget)


def ballot_violation(inst, result):
    """The heuristic's convergence metric at its returned solution, recomputed
    from scratch on the ballots.

    A saturated item is pinned (judged one-sidedly) when the voters who value
    it and no other funded item hold its lhs at 1 or more by themselves:
    (B/n) * solo_j >= s_j.
    """
    u, sizes, scale = inst.utilities, inst.sizes, inst.budget / inst.n
    x, y = result.x.x, result.y
    over = scale * y * (u.T @ (1.0 / (u @ (x * y)))) - 1.0
    valued = u > 0
    funded = valued[:, x > 0].sum(axis=1)
    solo = valued[funded == 1].sum(axis=0)
    pinned = (x == sizes) & (scale * solo >= sizes)
    viol = np.where(x == 0.0, np.maximum(over, 0.0),
                    np.where(pinned, np.maximum(-over, 0.0), np.abs(over)))
    return float(viol.max())


def sparse_trial(t):
    """Trial t of criterion 7's sparse-popularity generator (n=2000, k=10)."""
    rng = np.random.default_rng(10_000 + t)
    p = rng.uniform(0.02, 0.10, 10)
    votes = rng.random((2000, 10)) < p
    empty = ~votes.any(axis=1)
    while empty.any():
        votes[empty] = rng.random((int(empty.sum()), 10)) < p
        empty = ~votes.any(axis=1)
    sizes = rng.uniform(0.08, 0.25, 10)
    return Instance(utilities=votes.astype(float), budget=1.0, sizes=sizes)


class TestConfig:
    def test_defaults_scale_with_instance(self):
        # eps_target defaults to 1/n: the sweep stops at the first violation
        # within it.
        inst = approval_instance(n=40, k=8, seed=1)
        default = heuristic_solve(inst)
        assert default.max_violation_trace == heuristic_solve(
            inst, HeuristicConfig(eps_target=1 / 40)).max_violation_trace
        values = [v for _, v in default.max_violation_trace]
        assert default.converged and values[-1] <= 1 / 40 < min(values[:-1])

    def test_explicit_values_pass_through(self):
        cfg = HeuristicConfig(eps_target=0.01, max_sweeps=3)
        assert dataclasses.astuple(cfg) == (0.01, 3)

    @pytest.mark.parametrize("value", [0, -2, 2.5, "3", None])
    def test_max_sweeps_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="max_sweeps"):
            HeuristicConfig(max_sweeps=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, "0.01"])
    def test_eps_target_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="eps_target"):
            HeuristicConfig(eps_target=value)


class TestSmoothing:
    def test_alpha_formula(self):
        # (1/e)(B/s_min)^e + 1 - 1/e, and -> 1 as the budget/size ratio -> 1.
        assert smoothing_alpha(8.0, 2.0, 0.5) == pytest.approx(2 * 2.0 + 1 - 2)
        assert smoothing_alpha(5.0, 5.0, 0.3) == pytest.approx(1.0)

    def test_solve_smoothed_converges(self):
        inst = approval_instance(n=30, k=5, seed=2)
        model = SmoothedSaturating(inst.utilities, inst.sizes, 0.5)
        result = solve_potential(inst, model)
        assert result.converged
        res = lindahl_residuals(inst, model, result.x.x)
        funded = result.x.x > 1e-9
        viol = np.where(funded, np.abs(res), np.maximum(res, 0.0)).max()
        assert viol <= 1e-8


class TestHeuristic:
    def test_converges_on_approval_profiles(self):
        for seed in range(5):
            inst = approval_instance(n=60, k=8, seed=seed)
            result = heuristic_solve(inst)
            assert result.converged
            assert result.max_violation_trace[-1][1] <= 1.0 / 60
            assert not result.budget_flagged
            # Spend may miss B, but only within the condition tolerance.
            assert result.x.total() <= inst.budget * (1 + 1 / 60)

    def test_trace_describes_returned_solution(self):
        inst = approval_instance(n=60, k=8, seed=0)
        assert inst.sizes.sum() > inst.budget  # the sweep actually runs
        result = heuristic_solve(inst)
        final = result.max_violation_trace[-1][1]
        assert ballot_violation(inst, result) == pytest.approx(final, rel=0, abs=1e-12)

    def test_deterministic_given_seed(self):
        inst = approval_instance(n=30, k=5, seed=1)
        a, b = heuristic_solve(inst), heuristic_solve(inst)
        assert np.array_equal(a.x.x, b.x.x) and np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("t", [14, 15, 39])
    def test_two_pinned_items_both_hold(self, t):
        # Two saturated items are pinned at once here.  Pins that lasted one
        # sweep made the sweep re-pin them in turn forever.
        inst = sparse_trial(t)
        result = heuristic_solve(inst)
        assert result.converged
        assert ballot_violation(inst, result) <= 1.0 / inst.n

    @pytest.mark.parametrize("t", [22, 81])
    def test_worst_item_that_cannot_move_stops_the_sweep(self, t):
        # A cluster of saturated items whose y roots fall toward 0 together:
        # the worst one's root lies below the y bracket, so its re-solve
        # returns it unchanged and the sweep stops instead of repeating it.
        inst = sparse_trial(t)
        result = heuristic_solve(inst)
        assert not result.converged
        assert len(result.max_violation_trace) <= 200
        best = min(v for _, v in result.max_violation_trace)
        assert ballot_violation(inst, result) == pytest.approx(best, rel=0, abs=1e-10)

    def test_everything_fits_is_fully_funded_and_flagged(self):
        # Total project cost is 0.6 of the budget: full funding dominates every
        # alternative, and the 0.4 B shortfall must surface through the flag
        # rather than a silent rescale.
        inst = Instance(
            utilities=np.ones((10, 2)),
            budget=1.0,
            sizes=np.array([0.3, 0.3]),
        )
        result = heuristic_solve(inst)
        assert result.converged
        assert result.x.x == pytest.approx(inst.sizes)
        assert result.budget_flagged

    def test_exact_fit_not_flagged(self):
        inst = Instance(
            utilities=np.ones((10, 2)),
            budget=0.6,
            sizes=np.array([0.3, 0.3]),
        )
        result = heuristic_solve(inst)
        assert result.converged and not result.budget_flagged

    def test_unconverged_reports_best_iterate(self):
        inst = approval_instance(n=60, k=8, seed=4)
        result = heuristic_solve(inst, HeuristicConfig(max_sweeps=1))
        assert not result.converged
        assert len(result.max_violation_trace) == 1
        full = heuristic_solve(inst)
        assert full.max_violation_trace[-1][1] <= result.max_violation_trace[0][1]

    def test_unconverged_budget_miss_is_flagged(self):
        # Cut after 3 sweeps, the returned spend misses B = 1000 by about 83,
        # far beyond eps * B = 25; the flag must say so although the run
        # did not converge.
        inst = approval_instance(n=40, k=8, seed=2, budget=1000.0)
        result = heuristic_solve(inst, HeuristicConfig(max_sweeps=3))
        assert not result.converged
        assert abs(result.x.x.sum() - inst.budget) > inst.budget / 40
        assert result.budget_flagged

    def test_eps_target_override(self):
        inst = approval_instance(n=30, k=6, seed=5)
        tight = heuristic_solve(inst, HeuristicConfig(eps_target=1e-4))
        if tight.converged:
            assert tight.max_violation_trace[-1][1] <= 1e-4

    def test_requires_sizes(self):
        from budgetcore.model import ModelError

        inst = Instance(utilities=np.ones((3, 2)), budget=1.0)
        with pytest.raises(ModelError, match="sizes"):
            heuristic_solve(inst)


def reference_resolve(u_col, s_j, rest, scale, tol):
    """Item re-solve by plain bisection, kept as the reference for the
    safeguarded-Newton ``_resolve_item``."""

    def lhs(y, own):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(u_col > 0, u_col / (rest + own), 0.0)
        return scale * y * float(terms.sum())

    slope = 1.0 / s_j
    lhs_x = lambda xj: lhs(slope, u_col * xj * slope)  # noqa: E731
    if lhs_x(0.0) <= 1.0:
        return 0.0, slope
    if lhs_x(s_j) >= 1.0:
        lhs_y = lambda yj: lhs(yj, u_col * s_j * yj)  # noqa: E731
        lo, hi = 1e-12 * slope, slope
        if lhs_y(lo) >= 1.0:
            return s_j, slope
        while hi - lo > tol * slope:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if lhs_y(mid) < 1.0 else (lo, mid)
        return s_j, 0.5 * (lo + hi)
    lo, hi = 0.0, s_j
    while hi - lo > tol * max(s_j, 1.0):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if lhs_x(mid) > 1.0 else (lo, mid)
    return 0.5 * (lo + hi), slope


def branch(x, y, s_j):
    if x == 0.0:
        return "unfunded"
    if x < s_j:
        return "interior"
    # Full funding at the slope: the condition is out of the y bracket's reach.
    return "at floor" if y == 1.0 / s_j else "saturating"


class TestItemResolve:
    def test_matches_bisection_reference(self):
        rng = np.random.default_rng(11)
        tol = 1e-10
        seen = set()
        for _ in range(400):
            n = int(rng.integers(1, 40))
            u = rng.exponential(size=n) * (rng.random(n) < 0.7)  # zero utilities
            rest = rng.exponential(size=n) * rng.choice([1e-3, 1.0, 10.0])
            rest[rng.random(n) < 0.1] = 0.0  # voters who back only this item
            s_j = float(rng.choice([0.05, 1.0, 40.0]) * rng.uniform(0.5, 2.0))
            scale = float(np.exp(rng.uniform(-4, 3)))
            want = reference_resolve(u, s_j, rest, scale, tol)
            # The sweep passes only the supporters, u_ij > 0.
            got = saturating._resolve_item(u[u > 0], s_j, rest[u > 0], scale, tol)
            assert branch(*got, s_j) == branch(*want, s_j)
            assert abs(got[0] - want[0]) <= tol * max(s_j, 1.0)
            assert abs(got[1] - want[1]) <= tol / s_j
            seen.add(branch(*want, s_j))
        assert seen == {"unfunded", "interior", "saturating", "at floor"}

    def test_newton_needs_few_evaluations(self, monkeypatch):
        evals, per_item = [0], []
        evaluate, resolve = saturating._gaps, saturating._resolve_item

        def counting_evaluate(*args):
            evals[0] += 1
            return evaluate(*args)

        def counting_resolve(*args):
            before = evals[0]
            out = resolve(*args)
            per_item.append(evals[0] - before)
            return out

        monkeypatch.setattr(saturating, "_gaps", counting_evaluate)
        monkeypatch.setattr(saturating, "_resolve_item", counting_resolve)
        result = heuristic_solve(gen_synthetic("k-approval", n=2000, k=10, seed=0))
        assert result.converged and len(per_item) > 10
        # Bisection to the 1e-10 bracket takes about 35 evaluations an item.
        assert np.mean(per_item) <= 12 and max(per_item) <= 12


def reference_gaps(u, rest, x, y, scale):
    """The item gaps of ``saturating._gaps`` in the direct form
    u / (rest + u x y), over the voters with u_ij > 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = u / (rest + u * x * y)
        s1, s2 = float(t.sum()), float(t @ t)
    lhs = scale * y * s1
    if lhs == 0.0:
        return -np.inf, np.nan, 1.0, np.nan
    return 1.0 - 1.0 / lhs, -s2 / (scale * s1 * s1), 1.0 - lhs, scale * (x * y * s2 - s1)


def direct_resolve(u_col, s_j, rest, scale, tol):
    """``saturating._resolve_item`` with the gaps in direct form on the
    gathered support of u_ij > 0; the same branches and root finder."""
    support = u_col > 0
    u, rest = u_col[support], rest[support]
    gaps = lambda x, y: reference_gaps(u, rest, x, y, scale)  # noqa: E731
    slope = 1.0 / s_j
    at_zero = gaps(0.0, slope)[:2]
    if at_zero[0] <= 0.0:
        return 0.0, slope
    if gaps(s_j, slope)[0] < 0.0:
        xj = saturating._decreasing_root(lambda x: gaps(x, slope)[:2], 0.0, s_j, at_zero,
                                         tol * max(s_j, 1.0))
        return xj, slope
    lo = saturating._Y_BRACKET_FLOOR * slope
    at_lo = gaps(s_j, lo)[2:]
    if at_lo[0] <= 0.0:
        return s_j, slope
    yj = saturating._decreasing_root(lambda y: gaps(s_j, y)[2:], lo, slope, at_lo, tol * slope)
    return s_j, yj


def reference_heuristic(inst, cfg):
    """The worst-item sweep with every quantity recomputed from scratch, kept
    as the reference for ``heuristic_solve``'s carried denominators, carried
    pin counts and reciprocal-form item re-solve.

    Every sweep forms u @ (x*y), each item's rest without it and the voters'
    funded-item counts afresh, and every root evaluation u / (rest + u x y)
    on the gathered support; the root finder and the stop when the worst
    item cannot move are the same.  Returns (x, trace, converged).
    """
    u, sizes, n, k, B = inst.utilities, inst.sizes, inst.n, inst.k, inst.budget
    eps_target = 1.0 / n if cfg.eps_target is None else cfg.eps_target
    scale = B / n
    x, y = np.minimum(sizes, B / k), 1.0 / sizes
    trace, best, converged = [], (np.inf, x.copy(), y.copy()), False
    for sweep in range(1, cfg.max_sweeps + 1):
        contrib = x * y
        with np.errstate(divide="ignore"):
            over = scale * y * (u.T @ (1.0 / (u @ contrib))) - 1.0
        valued = u > 0
        funded = valued[:, x > 0].sum(axis=1)
        pinned = (x == sizes) & (scale * valued[funded == 1].sum(axis=0) >= sizes)
        viol = np.where(x == 0.0, np.maximum(over, 0.0),
                        np.where(pinned, np.maximum(-over, 0.0), np.abs(over)))
        trace.append((sweep, float(viol.max())))
        if trace[-1][1] < best[0]:
            best = (trace[-1][1], x.copy(), y.copy())
        if trace[-1][1] <= eps_target:
            converged = True
            break
        j = int(np.argmax(viol))
        others = np.arange(k) != j
        rest = u[:, others] @ contrib[others]
        xj, yj = direct_resolve(u[:, j], float(sizes[j]), rest, scale, saturating._ROOT_TOL)
        if (xj, yj) == (x[j], y[j]):
            break
        x[j], y[j] = xj, yj
    if not converged:
        _, x, y = best
    return x, trace, converged


def float_ballots(n, k, seed):
    """Exponential utilities with about half the cells zero, budget binding."""
    rng = np.random.default_rng(seed)
    u = rng.exponential(size=(n, k)) * (rng.random((n, k)) < 0.5)
    u[~(u > 0).any(axis=1), 0] = 1.0  # every voter values something
    return Instance(utilities=u, budget=1.0, sizes=rng.uniform(0.08, 0.4, k))


def few_item_ballots(seed):
    """Approval ballots on 2-6 items with uneven popularity: many voters back
    a single item, so unfunding one item changes which others are pinned."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(5, 60)), int(rng.integers(2, 7))
    u = (rng.random((n, k)) < rng.uniform(0.1, 0.5, k)).astype(float)
    u[~(u > 0).any(axis=1), 0] = 1.0  # every voter values something
    sizes = rng.uniform(0.1, 0.7, k)
    return Instance(utilities=u, budget=min(1.0, 0.9 * sizes.sum()), sizes=sizes)


class TestReferenceSweep:
    @staticmethod
    def assert_matches_reference(inst):
        got = heuristic_solve(inst)
        x, trace, converged = reference_heuristic(inst, HeuristicConfig())
        assert len(got.max_violation_trace) == len(trace)
        assert got.converged == converged
        assert np.abs(got.x.x - x).max() <= 1e-9 * inst.budget

    @pytest.mark.parametrize("n", [200, 2000])
    def test_matches_from_scratch_reference(self, n):
        for seed in range(5):
            self.assert_matches_reference(gen_synthetic("k-approval", n=n, k=10, seed=seed))

    def test_kept_denominators_do_not_drift(self):
        # 2000 unconverged sweeps each update the denominators in place; the
        # violation they report for the returned iterate must still be the
        # one recomputed from scratch on the ballots.
        inst = gen_synthetic("k-approval", n=6, k=8, seed=5)
        result = heuristic_solve(inst, HeuristicConfig(eps_target=1e-13, max_sweeps=2000))
        assert not result.converged and len(result.max_violation_trace) == 2000
        reported = min(v for _, v in result.max_violation_trace)
        assert abs(ballot_violation(inst, result) - reported) <= 1e-12

    def test_benchmark_shaped_instance(self):
        # k=30 items, 4 approvals a voter: each item has about n/7.5 supporters.
        for seed in range(2):
            self.assert_matches_reference(gen_synthetic("k-approval", n=3000, k=30, seed=seed))

    def test_float_ballots(self):
        for seed in range(5):
            self.assert_matches_reference(float_ballots(400, 12, seed))

    def test_few_item_ballots(self):
        for seed in range(100):
            self.assert_matches_reference(few_item_ballots(seed))

    def test_unvalued_item_and_universal_voter(self):
        # Nobody values item 0 while voter 0 values every other item; then
        # voter 0 values every item, the only supporter of item 0.
        for seed in range(3):
            inst = gen_synthetic("k-approval", n=300, k=8, seed=seed)
            u = inst.utilities.copy()
            u[:, 0], u[0] = 0.0, np.r_[0.0, np.linspace(0.5, 2.0, 7)]
            self.assert_matches_reference(Instance(utilities=u, budget=1.0, sizes=inst.sizes))
            u[0, 0] = 1.0
            self.assert_matches_reference(Instance(utilities=u, budget=1.0, sizes=inst.sizes))
