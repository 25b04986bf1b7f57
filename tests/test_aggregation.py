"""Ranking/rounding schemes, scheme similarity, and the statistical analyses.

The Boston 2016 youth-budgeting election (vote counts and project costs are
public) pins down the Welfare ranking end to end: the greedy funded set, the
partial fill of the first item that no longer fits, and the exact budget
exhaustion of the fractional pass.
"""

import math
import warnings

import numpy as np
import pytest

from budgetcore.aggregation import (
    AggregationError,
    Scheme,
    budget_similarity,
    chi2_pairwise,
    jaccard,
    random_model_trial,
    rank_and_round,
    vote_counts,
)
from budgetcore.ballots import gen_synthetic
from budgetcore.model import Allocation, AllocationKind, Instance

from conftest import BOSTON_BUDGET, BOSTON_ROWS


class TestVoteCounts:
    def test_boston_counts_recovered(self, boston):
        assert list(vote_counts(boston)) == [votes for _, _, votes in BOSTON_ROWS]


class TestWelfareRanking:
    def test_boston_funded_set(self, boston):
        ranked = rank_and_round(boston, "welfare")
        assert ranked.funded_names(boston) == (
            "Wicked Free Wifi 2.0",
            "Water Bottle Refill Stations at Parks",
            "Hubway Extensions",
            "Bowdoin St. Roadway Resurfacing",
            "Bike Lane Installation",
        )
        assert ranked.integral.total() == pytest.approx(780_600.0)

    def test_boston_rank_order(self, boston):
        # Approvals per dollar: wifi first, then Hubway edges out the water
        # stations despite fewer raw votes.
        assert list(ranked_order := rank_and_round(boston, "welfare").order) == [
            0, 2, 1, 3, 4, 5, 6, 7, 8, 9,
        ]

    def test_boston_fractional_fill(self, boston):
        ranked = rank_and_round(boston, "welfare")
        frac = ranked.fractional
        # The track is the first project that no longer fits; it gets the
        # leftover $219,400 of its $240,000 cost and the budget closes exactly.
        track = 5
        assert frac.x[track] == pytest.approx(219_400.0)
        assert frac.x[track] / boston.sizes[track] == pytest.approx(0.9142, abs=5e-4)
        assert frac.total() == pytest.approx(BOSTON_BUDGET, abs=1e-6)
        later = [6, 7, 8, 9]
        assert np.all(frac.x[later] == 0.0)

    def test_scheme_accepts_enum_and_string(self, boston):
        a = rank_and_round(boston, Scheme.WELFARE)
        b = rank_and_round(boston, "welfare")
        assert np.array_equal(a.order, b.order)


class TestCoreRanking:
    def small(self):
        return Instance(
            utilities=np.ones((4, 3)),
            budget=3.0,
            sizes=np.array([2.0, 1.0, 1.0]),
            item_names=("a", "b", "c"),
        )

    def test_scores_and_tiebreak(self):
        inst = self.small()
        ranked = rank_and_round(inst, "core", fractional_core=np.array([1.0, 1.0, 0.5]))
        assert ranked.scores == pytest.approx([0.5, 1.0, 0.5])
        # Equal fill-per-dollar ties break toward the lower item index.
        assert list(ranked.order) == [1, 0, 2]
        assert ranked.integral.funded_set() == frozenset({0, 1})
        # Also past 16 items, where an unstable sort reorders ties.
        u = np.ones((2, 40))
        u[1, :20] = 0.0  # items 20-39 get two votes, 0-19 one
        many = Instance(utilities=u, budget=1.0, sizes=np.ones(40))
        assert list(rank_and_round(many, "welfare").order) == [*range(20, 40), *range(20)]

    def test_fractional_partial_then_stop(self):
        inst = Instance(
            utilities=np.ones((4, 3)),
            budget=2.5,
            sizes=np.array([2.0, 1.0, 1.0]),
        )
        ranked = rank_and_round(inst, "core", fractional_core=np.array([1.0, 1.0, 0.2]))
        # Order b, a, c: b fits, a gets the remaining 1.5 of its 2.0, c nothing.
        assert ranked.fractional.x == pytest.approx([1.5, 1.0, 0.0])
        assert ranked.integral.x == pytest.approx([0.0, 1.0, 1.0])

    def test_an_exact_fill_is_funded(self):
        # 0.1 + 0.2 is one ulp over 0.3: the fit test's slack funds both.
        inst = Instance(utilities=np.ones((4, 2)), budget=0.3, sizes=np.array([0.1, 0.2]))
        assert rank_and_round(inst, "welfare").integral.x.tolist() == [0.1, 0.2]

    def test_core_requires_allocation(self):
        with pytest.raises(AggregationError, match="fractional core"):
            rank_and_round(self.small(), "core")
        with pytest.raises(AggregationError, match="expected 3"):
            rank_and_round(self.small(), "core", fractional_core=np.ones(2))

    def test_accepts_allocation_object(self):
        inst = self.small()
        alloc = Allocation(x=np.array([1.0, 1.0, 0.5]), kind=AllocationKind.FRACTIONAL)
        a = rank_and_round(inst, "core", fractional_core=alloc)
        b = rank_and_round(inst, "core", fractional_core=alloc.x)
        assert np.array_equal(a.order, b.order)


class TestSimilarity:
    def test_jaccard_basics(self):
        def funding(*items):
            return Allocation(x=np.isin(np.arange(4), items).astype(float))

        assert jaccard(funding(0, 1), funding(0, 1)) == 1.0
        assert jaccard(funding(0, 1), funding(2, 3)) == 0.0
        assert jaccard(funding(0, 1, 2), funding(1, 2, 3)) == pytest.approx(0.5)
        assert jaccard(funding(), funding()) == 1.0

    def test_jaccard_accepts_allocations(self):
        a = Allocation(x=np.array([1.0, 0.0, 2.0]))
        b = Allocation(x=np.array([1.0, 3.0, 0.0]))
        assert jaccard(a, b) == pytest.approx(1 / 3)

    def test_budget_similarity(self):
        x = np.array([2.0, 1.0, 0.0])
        z = np.array([1.0, 1.0, 1.0])
        assert budget_similarity(x, z, 3.0) == pytest.approx(2 / 3)
        assert budget_similarity(x, x, 3.0) == pytest.approx(1.0)
        with pytest.raises(AggregationError, match="positive"):
            budget_similarity(x, z, 0.0)


class TestIndependenceAnalysis:
    def approvals(self, cols):
        """Stack approval columns behind an always-approved anchor item.

        The anchor keeps every voter row non-empty without conditioning the
        tested columns on "approved something", which would correlate them.
        """
        cols = [np.ones(len(cols[0]))] + [np.asarray(c, dtype=float) for c in cols]
        return Instance(utilities=np.column_stack(cols), budget=1.0)

    def analyze(self, cols, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # anchor column
            return chi2_pairwise(self.approvals(cols), **kw)

    def test_identical_and_opposite_columns_flagged(self):
        rng = np.random.default_rng(0)
        a = (rng.random(60) < 0.5).astype(float)
        rep = self.analyze([a, a, 1.0 - a])
        assert rep.p_values[1, 2] < 1e-6      # duplicates
        assert rep.p_values[1, 3] < 1e-6      # perfect anti-correlation
        assert rep.correlated[1, 2] and rep.correlated[2, 1]
        assert rep.dof == 2 and rep.alpha == 0.1
        assert np.isnan(rep.p_values[1, 1])

    def test_independent_columns_pass(self):
        rng = np.random.default_rng(3)
        rep = self.analyze([rng.random(400) < 0.5 for _ in range(3)])
        kept = np.ix_([1, 2, 3], [1, 2, 3])
        off = rep.p_values[kept][np.triu_indices(3, k=1)]
        assert np.all(off > rep.alpha)
        assert not rep.correlated.any()

    def test_p_value_at_alpha_is_not_correlated(self):
        rng = np.random.default_rng(3)
        cols = [rng.random(100) < 0.5 for _ in range(2)]
        p = self.analyze(cols).p_values[1, 2]
        assert 0.0 < p < 1.0
        assert not self.analyze(cols, alpha=p).correlated[1, 2]
        assert self.analyze(cols, alpha=np.nextafter(p, 1.0)).correlated[1, 2]

    def test_dof_one_calibration(self):
        # Under independence the statistic is asymptotically chi2(1), so at
        # dof=1 the flag rate should track alpha; the dof=2 default is
        # deliberately conservative and must flag no more often.
        rng = np.random.default_rng(9)
        flagged1 = flagged2 = 0
        trials = 300
        for _ in range(trials):
            cols = [rng.random(200) < 0.5 for _ in range(2)]
            flagged1 += self.analyze(cols, dof=1).correlated[1, 2]
            flagged2 += self.analyze(cols, dof=2).correlated[1, 2]
        assert 0.05 <= flagged1 / trials <= 0.15
        assert flagged2 <= flagged1

    def test_constant_column_excluded(self):
        rng = np.random.default_rng(1)
        a = (rng.random(50) < 0.5).astype(float)
        inst = self.approvals([a, a])
        with pytest.warns(RuntimeWarning, match="constant approval columns"):
            rep = chi2_pairwise(inst)
        assert rep.degenerate_items == (0,)
        assert rep.clustered_items == (1, 2)
        assert np.isnan(rep.p_values[0]).all()
        assert rep.correlated[1, 2]
        # One merge over two kept leaves, at distance 0 (correlated pair).
        assert rep.merges == ((0, 1, 0.0),)
        # A column nobody approves is constant too.  One kept column leaves
        # nothing to cluster, and no error.
        with pytest.warns(RuntimeWarning, match="constant approval columns"):
            rep = chi2_pairwise(self.approvals([a, 0.0 * a]))
        assert rep.degenerate_items == (0, 2)
        assert rep.clustered_items == (1,) and rep.merges == ()

    def test_block_profile_dendrogram(self):
        inst = gen_synthetic("block-correlated", n=120, k=7, seed=0)
        with pytest.warns(RuntimeWarning, match="constant approval columns"):
            rep = chi2_pairwise(inst)
        # The always-approved anchor item is untestable.
        assert rep.degenerate_items == (0,)
        assert rep.clustered_items == (1, 2, 3, 4, 5, 6)
        # Within-block pairs are perfectly correlated, cross-block pairs are
        # draws of two independent coins.
        for j in (1, 2):
            for m in range(j + 1, 4):
                assert rep.p_values[j, m] < 1e-20
        for j in (1, 2, 3):
            for m in (4, 5, 6):
                assert rep.p_values[j, m] > rep.alpha
        heights = sorted(h for _, _, h in rep.merges)
        # Two tight blocks of three (heights 0), joined last at height 1.
        assert heights == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert rep.merges[-1][2] == 1.0

    @pytest.mark.parametrize("dof", [1, 2, 3])
    def test_matches_per_pair_reference(self, dof):
        # Reference: each pair's 2x2 table by boolean reductions, Pearson's
        # statistic in exact integers, and scipy's chi2.sf, one pair at a
        # time.  The arithmetic is the same, so the p-values must be equal.
        from scipy.stats import chi2

        rng = np.random.default_rng(dof)
        n = 300
        cols = [rng.random(n) < p for p in (0.1, 0.5, 0.5, 0.8, 0.97)]
        cols.insert(2, np.ones(n, dtype=bool))  # constant: untestable
        inst = Instance(utilities=np.column_stack(cols).astype(float), budget=1.0)
        with pytest.warns(RuntimeWarning, match="constant approval columns"):
            rep = chi2_pairwise(inst, dof=dof)
        want = np.full((6, 6), np.nan)
        for j in range(6):
            for m in range(j + 1, 6):
                a, b = cols[j], cols[m]
                t = [[int(np.sum(a & b)), int(np.sum(a & ~b))],
                     [int(np.sum(~a & b)), int(np.sum(~a & ~b))]]
                rows, sums = [sum(r) for r in t], [t[0][c] + t[1][c] for c in (0, 1)]
                if 0 in rows or 0 in sums:
                    continue
                stat = n * (t[0][0] * t[1][1] - t[0][1] * t[1][0]) ** 2 / (
                    rows[0] * rows[1] * sums[0] * sums[1])
                want[j, m] = want[m, j] = chi2.sf(stat, dof)
        assert rep.degenerate_items == (2,)
        np.testing.assert_array_equal(rep.p_values, want)

    def test_sample_size_flag(self):
        rng = np.random.default_rng(2)
        assert not self.analyze([rng.random(19) < 0.7 for _ in range(2)]).sample_ok
        assert self.analyze([rng.random(20) < 0.7 for _ in range(2)]).sample_ok

    def test_dof_validation(self):
        inst = Instance(utilities=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], budget=1.0)
        with pytest.raises(AggregationError, match="dof"):
            chi2_pairwise(inst, dof=0)

    @pytest.mark.parametrize("alpha", [float("nan"), -1.0, 0.0, 1.0, 2.0, float("inf")])
    def test_alpha_validation(self, alpha):
        # NaN flagged no pair and alpha >= 1 every pair, with no error.
        inst = Instance(utilities=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], budget=1.0)
        with pytest.raises(AggregationError, match=r"alpha must lie in \(0, 1\)"):
            chi2_pairwise(inst, alpha=alpha)


class TestRandomModel:
    def test_validation(self):
        p = np.full(4, 0.5)
        u = np.ones(4)
        with pytest.raises(AggregationError, match="matching length"):
            random_model_trial(p, np.ones(3), 2, 10, 1.0)
        for bad in ([0.5, 1.5, 0.5, 0.5], [0.5, np.nan, 0.5, 0.5], [0.0] * 4):
            with pytest.raises(AggregationError, match="probabilities"):
                random_model_trial(np.array(bad), u, 2, 10, 1.0)
        with pytest.raises(AggregationError, match="positive"):
            random_model_trial(p, np.array([1.0, 0.0, 1.0, 1.0]), 2, 10, 1.0)
        with pytest.raises(AggregationError, match="budget_items"):
            random_model_trial(p, u, 5, 10, 1.0)
        with pytest.raises(AggregationError, match="eps"):
            random_model_trial(p, u, 2, 10, 0.0)

    def test_selected_set_and_threshold(self):
        p = np.array([0.9, 0.2, 0.6, 0.5])
        u = np.array([1.0, 4.0, 1.0, 1.0])
        out = random_model_trial(p, u, budget_items=2, n=15, eps=0.5, seed=0)
        # p*u = [0.9, 0.8, 0.6, 0.5]: top two by expected welfare.
        assert out.selected == (0, 1)
        assert out.expected_welfare == pytest.approx(1.7)
        assert out.threshold == pytest.approx(np.sqrt(2 * np.log(2)) / 0.5)
        # At eps = sqrt(B ln B) the threshold is 1.0 exactly, as is the expected
        # welfare of two items at p = 0.5: equal does not clear it.
        out = random_model_trial(np.full(3, 0.5), np.ones(3), 2, 10, math.sqrt(2 * math.log(2)))
        assert out.expected_welfare == out.threshold == 1.0 and not out.precondition_ok

    def test_deterministic_in_seed(self):
        p = np.full(6, 0.6)
        u = np.linspace(1.0, 2.0, 6)
        a = random_model_trial(p, u, 3, 18, 1.0, seed=42)
        b = random_model_trial(p, u, 3, 18, 1.0, seed=42)
        assert a.selected == b.selected
        assert a.expected_welfare == b.expected_welfare
        assert (a.deviation is None) == (b.deviation is None)

    def test_welfare_sets_survive_when_signal_is_strong(self):
        deviations = 0
        for t in range(50):
            rng = np.random.default_rng(1000 + t)
            p = rng.uniform(0.6, 1.0, 12)
            u = rng.uniform(0.5, 1.0, 12)
            out = random_model_trial(p, u, budget_items=4, n=20, eps=1.0,
                                     seed=2000 + t)
            assert out.precondition_ok
            deviations += out.deviation is not None
        assert deviations == 0

    def test_decoy_items_break_the_welfare_set(self):
        # Two decoys look great in expectation (huge utility, tiny approval
        # odds) and crowd out items everyone approves; the starved majority
        # then blocks with infinite multiplicative gain, and the theory's
        # precondition correctly refuses to vouch for this configuration.
        out = random_model_trial(
            np.array([1.0, 1.0, 0.03, 0.03]),
            np.array([1.0, 1.0, 50.0, 50.0]),
            budget_items=2, n=20, eps=0.1, seed=5,
        )
        assert out.selected == (2, 3)
        assert not out.precondition_ok
        assert out.deviation is not None
        assert out.deviation.min_gain == np.inf
        assert out.deviation.y.kind is AllocationKind.INTEGRAL
