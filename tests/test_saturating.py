"""Saturating utilities: the smoothed relaxation and the capped proportional-response solver."""

import dataclasses

import numpy as np
import pytest

from budgetcore.ballots import gen_synthetic
from budgetcore.coreverify import find_deviation_continuous
from budgetcore.lindahl import lindahl_residuals, solve_potential
from budgetcore.model import Instance, Linear, Saturating, SmoothedSaturating
from budgetcore.saturating import HeuristicConfig, heuristic_solve, smoothing_alpha
from corpora import saturating as saturating_corpus
from corpora import sweep as sweep_corpus


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


def overfilled_cluster(inst, result, eps):
    """Whether the fully funded items that no solo supporters pin, S, take
    more than (1 + eps) times their total size from the voters who value no
    item outside S.

    Those voters spend all of B/n on S, so some item of S collects more than
    (1 + eps) times its size: at these spends ``ballot_violation`` exceeds eps
    whatever the prices.
    """
    u, sizes, scale, x = inst.utilities, inst.sizes, inst.budget / inst.n, result.x.x
    funded = (u[:, x > 0] > 0).sum(axis=1)
    solo = (u[funded == 1] > 0).sum(axis=0)
    cluster = (x >= sizes * (1 - 1e-9)) & (scale * solo < sizes)
    inside = ~(u[:, ~cluster] > 0).any(axis=1)
    return scale * np.count_nonzero(inside) > (1 + eps) * sizes[cluster].sum()


# The seed-11 saturating set's first 40 binding draws, and five draws past them
# where a solve that keeps a pinned item at full price leaves budget that a
# coalition could use unspent, so the continuous oracle blocks its output.
SATURATING_11 = dict(saturating_corpus(11))
SWEEP_BLOCKED = (238, 349, 408, 415, 531)


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
        # eps_target defaults to 1/n: the solve stops at the first violation
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
        assert inst.sizes.sum() > inst.budget  # the iteration actually runs
        result = heuristic_solve(inst)
        final = result.max_violation_trace[-1][1]
        assert ballot_violation(inst, result) == pytest.approx(final, rel=0, abs=1e-12)

    def test_deterministic_given_seed(self):
        inst = approval_instance(n=30, k=5, seed=1)
        a, b = heuristic_solve(inst), heuristic_solve(inst)
        assert np.array_equal(a.x.x, b.x.x) and np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("t", [14, 15, 39])
    def test_two_pinned_items_both_hold(self, t):
        # Two saturated items are pinned at once here.
        inst = sparse_trial(t)
        result = heuristic_solve(inst)
        assert result.converged
        assert ballot_violation(inst, result) <= 1.0 / inst.n

    @pytest.mark.parametrize("t", [22, 81])
    def test_overfilled_cluster_stops_at_a_fixed_point(self, t):
        # Voters who value only items 6 and 9 (trial 22; 0, 1 and 7 in trial
        # 81) hold 0.4 % (1.0 %) more budget than those items cost, so those
        # items go to the price floor, and the ballots' per-item rule cannot
        # hold within 1/n.  The solve stops there, well before the cap.
        inst = sparse_trial(t)
        result = heuristic_solve(inst)
        assert not result.converged and len(result.max_violation_trace) < 3000
        assert min(v for _, v in result.max_violation_trace[:-1]) <= 1e-12
        assert overfilled_cluster(inst, result, 1.0 / inst.n)
        final = result.max_violation_trace[-1][1]
        assert ballot_violation(inst, result) == pytest.approx(final, rel=0, abs=1e-12)

    def test_a_drop_at_the_rounding_level_is_no_progress(self):
        # Fourteen solo supporters overfill item 1, so max |r| stays at 0.47
        # until the item reaches the floor.  Line-search trials that lowered it
        # by rounding alone undid the CPR passes toward the floor, and this
        # draw cycled for 10,000 evaluations.
        inst = dict(saturating_corpus(23))[158]
        result = heuristic_solve(inst, HeuristicConfig(eps_target=1e-9))
        assert result.converged and len(result.max_violation_trace) < 200

    def test_trials_stay_between_the_floor_and_the_sizes(self):
        # Every fixed point has q <= log s.  A Newton step here overshoots far
        # past it, where exp(q) overflows; kept in [floor, log s], every
        # evaluation stays finite.
        inst = gen_synthetic("k-approval", n=200, k=10, seed=6)
        result = heuristic_solve(inst)
        assert result.converged
        assert np.all(np.isfinite([v for _, v in result.max_violation_trace]))

    def test_converged_six_by_four_is_unblocked(self):
        # A solve that keeps item 0's price at 1/s_0 can claim convergence at
        # x = [0.3017, 0, 0.2506, 0.4161], spending 0.968 of B; voters 0 and 1
        # then buy [0.3056, 0.0278, 0, 0] and both gain x1.0151.
        u = np.array([[0.4517, 0.2761, 0, 0], [0.8131, 0.1568, 0, 0], [0, 0, 0, 1],
                      [0, 0, 1, 0], [0, 0.2524, 0.2773, 0.5163], [0, 0, 0, 0.394]])
        sizes = np.array([0.3017, 0.3537, 0.4145, 0.4161])
        inst = Instance(utilities=u, budget=1.0, sizes=sizes)
        result = heuristic_solve(inst, HeuristicConfig(eps_target=1e-9))
        assert result.converged
        assert find_deviation_continuous(inst, Saturating(u, sizes), result.x, grid_steps=60,
                                         mode="multiplicative", threshold=1e-3) is None

    @pytest.mark.parametrize("t", list(SATURATING_11)[:40] + list(SWEEP_BLOCKED))
    def test_converged_saturating_draw_is_unblocked(self, t):
        # Draw 46 does not converge: an overfilled cluster, as above.  Its
        # output is refereed all the same.
        inst = SATURATING_11[t]
        result = heuristic_solve(inst, HeuristicConfig(eps_target=1e-9))
        assert result.converged or overfilled_cluster(inst, result, 1e-9)
        model = Saturating(inst.utilities, inst.sizes)
        assert find_deviation_continuous(inst, model, result.x, grid_steps=20,
                                         mode="multiplicative", threshold=1e-3) is None

    def test_matches_solve_potential_at_linear_utilities(self):
        # Sizes all equal to B make saturating utilities linear / B, whose
        # equilibrium solve_potential computes with no code in common.  With
        # k > n a linear equilibrium need not be unique, so those draws sit out.
        checked = 0
        for inst, model in sweep_corpus(1):
            if not isinstance(model, Linear) or inst.k > inst.n:
                continue
            B = inst.budget
            capped = Instance(utilities=inst.utilities, budget=B, sizes=np.full(inst.k, B))
            result = heuristic_solve(capped, HeuristicConfig(eps_target=1e-9))
            assert result.converged
            np.testing.assert_allclose(result.x.x, solve_potential(inst, model).x.x,
                                       rtol=0, atol=1e-7 * B)
            checked += 1
        assert checked == 104

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
        # 0.1 + 0.2 rounds to one ulp above 0.3 and still fits.
        for sizes, budget in (([0.3, 0.3], 0.6), ([0.1, 0.2], 0.3)):
            inst = Instance(utilities=np.ones((10, 2)), budget=budget, sizes=np.array(sizes))
            result = heuristic_solve(inst)
            assert result.converged and not result.budget_flagged
            assert result.max_violation_trace == [(1, 0.0)]  # no iteration ran
            assert result.x.x.tolist() == sizes

    @pytest.mark.parametrize("cut", [1, 5, 11])
    def test_unconverged_reports_the_returned_iterate(self, cut):
        # Cut at the start, among the first CPR passes, and at the last of
        # them (this run converges on its first Newton step).
        inst = approval_instance(n=60, k=8, seed=4)
        result = heuristic_solve(inst, HeuristicConfig(max_sweeps=cut))
        assert not result.converged
        assert len(result.max_violation_trace) == cut
        final = result.max_violation_trace[-1][1]
        assert ballot_violation(inst, result) == pytest.approx(final, rel=0, abs=1e-12)

    def test_refused_trials_are_counted_not_returned(self):
        # Trial 81 stops after a line search that refuses all 8 trials; a cut
        # among them returns the iterate that the line search started from.
        inst = sparse_trial(81)
        full = heuristic_solve(inst)
        at = len(full.max_violation_trace) - 4
        cut = heuristic_solve(inst, HeuristicConfig(max_sweeps=at))
        assert np.array_equal(cut.x.x, full.x.x) and np.array_equal(cut.y, full.y)
        assert cut.max_violation_trace[-1] == (at, full.max_violation_trace[-1][1])

    def test_unconverged_budget_miss_is_flagged(self):
        # Uncapped proportional response spends exactly B.  Cut after 3
        # evaluations, five items are clipped at their sizes and the returned
        # spend misses B = 1000 by about 120, far beyond eps * B = 25; the flag
        # must say so although the run did not converge.
        inst = approval_instance(n=40, k=8, seed=2, budget=1000.0)
        result = heuristic_solve(inst, HeuristicConfig(max_sweeps=3))
        assert not result.converged
        assert np.count_nonzero(result.x.x == inst.sizes) == 5
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
