"""Deviation oracles and residual certificates.

The continuous oracle is validated against an explicit full-simplex grid
(interior points included) on small cases, since its own enumeration only
walks the budget surface; the integral oracle against hand-built instances
where the blocking coalition is known.  Both are cross-checked against the
plain scans they replaced (a full grid scan per coalition size, a Python loop
over bundles), kept below as reference implementations.
"""

from itertools import combinations_with_replacement, product
from math import comb

import numpy as np
import pytest

from budgetcore.ballots import gen_synthetic
from budgetcore.coreverify import (
    CoreCertificate,
    InstanceTooLarge,
    budget_grid,
    certify_from_residual,
    find_deviation_continuous,
    find_deviation_integral,
)
from budgetcore.lindahl import solve_potential
from budgetcore.model import (
    Allocation,
    CobbDouglas,
    Instance,
    Linear,
    ModelError,
    PowerSum,
    Saturating,
)


def reference_continuous(inst, model, x, grid_steps, mode, threshold, budget_slack):
    """Every grid point for every coalition size: the unpruned scan."""
    n, B = inst.n, inst.budget
    bar = threshold if mode == "additive" else 1.0 + threshold
    Ux = model.utilities_all(np.asarray(x, dtype=float))
    unit = budget_grid(inst.k, grid_steps)
    best, best_gain = None, -np.inf
    for s in range(1, n + 1):
        b = (s / n - budget_slack) * B
        if b <= 0:
            continue
        Uy = model.utilities_batch(unit * b)
        if mode == "additive":
            gains = Uy - Ux[None, :]
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = np.where(Ux[None, :] > 0, Uy / Ux[None, :],
                                 np.where(Uy > 0, np.inf, -np.inf))
        kth = np.partition(gains, n - s, axis=1)[:, n - s]
        idx = int(np.argmax(kth))
        if kth[idx] > bar and kth[idx] > best_gain:
            members = np.argsort(-gains[idx], kind="stable")[:s]
            best_gain = float(kth[idx])
            best = (tuple(sorted(int(i) for i in members)), unit[idx] * b, best_gain)
    return best


def reference_integral(inst, x, epsilon_mult):
    """One bundle at a time, in bitmask order."""
    sizes, n, k, B = inst.sizes, inst.n, inst.k, inst.budget
    Ux = Saturating(inst.utilities, sizes).utilities_all(np.asarray(x, dtype=float))
    best, best_gain = None, -np.inf
    for bits in range(1, 1 << k):
        bundle = np.array([(bits >> j) & 1 for j in range(k)], dtype=float)
        cost = float(bundle @ sizes)
        if cost > B:
            continue
        Ut = inst.utilities @ bundle
        improvers = np.flatnonzero(Ut > (1.0 + epsilon_mult) * Ux)
        if improvers.size == 0 or (improvers.size / n) * B < cost:
            continue
        with np.errstate(divide="ignore"):
            ratios = np.where(Ux[improvers] > 0, Ut[improvers] / Ux[improvers], np.inf)
        if ratios.min() > best_gain:
            best_gain = float(ratios.min())
            best = (tuple(int(i) for i in improvers), bundle * sizes, best_gain)
    return best


def minority_instance(n=5, budget=1.0):
    """n-1 voters want item 0 only, one voter wants item 1 only."""
    u = np.zeros((n, 2))
    u[:-1, 0] = 1.0
    u[-1, 1] = 1.0
    return Instance(utilities=u, budget=budget)


class TestBudgetGrid:
    def test_rows_sum_to_one(self):
        g = budget_grid(3, 8)
        assert g.shape == (comb(8 + 2, 2), 3)
        assert np.allclose(g.sum(axis=1), 1.0)
        assert np.all(g >= 0)

    def test_rows_unique(self):
        g = budget_grid(2, 10)
        assert g.shape == (11, 2)
        assert len({tuple(r) for r in g}) == 11

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_row_order_matches_itertools(self, k):
        # The oracle reports the first best row (np.argmax), so ties between
        # equally good deviations follow this order.
        for steps in (1, 2, 3, 7, 10, 40):
            combos = combinations_with_replacement(range(k), steps)
            want = np.array([np.bincount(c, minlength=k) for c in combos]) / steps
            assert budget_grid(k, steps).tobytes() == want.tobytes()

    def test_cached_and_read_only(self):
        a, b = budget_grid(3, 12), budget_grid(3, 12)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 9.0


class TestCertificate:
    def test_near_zero_epsilon_at_equilibrium(self):
        inst = minority_instance()
        model = Linear(inst.utilities)
        result = solve_potential(inst, model)
        cert = certify_from_residual(inst, model, result.x)
        assert isinstance(cert, CoreCertificate)
        assert cert.epsilon <= 1e-8
        assert cert.budget_ok
        assert f"{cert.epsilon:.3g}" in cert.guarantee

    def test_large_epsilon_off_equilibrium(self):
        inst = minority_instance()
        model = Linear(inst.utilities)
        cert = certify_from_residual(inst, model, np.array([0.2, 0.8]))
        assert cert.epsilon > 0.5

    def test_budget_cap_scales_with_epsilon(self):
        inst = minority_instance()
        model = Linear(inst.utilities)
        cert = certify_from_residual(inst, model, np.array([0.7, 0.2]))
        assert cert.budget_cap == pytest.approx(inst.budget / (1 - cert.epsilon))

    def test_vacuous_epsilon_is_not_ok(self):
        # Majority-heavy funding of figure 1a's profile: eps ~ 47 >= 1 leaves
        # every coalition budget (|S|/n - eps) B empty, so nothing is certified.
        inst = gen_synthetic("figure1a", n=101)
        cert = certify_from_residual(inst, Linear(inst.utilities), np.array([0.99, 0.01]))
        assert 1.0 <= cert.epsilon < np.inf
        assert cert.budget_cap == np.inf
        assert not cert.budget_ok
        assert cert.guarantee.startswith("none: eps 47.5 >= 1")

    @pytest.mark.parametrize("x, eps", [
        ((0.5, 0.5), 1 / 3),  # residuals (-1/3, +1/3)
        ((0.45, 0.55), 1 - 1 / 1.35),  # (-0.259, +0.212): the funded item's deficit sets eps
    ])
    def test_funded_item_negative_residual_counts(self, x, eps):
        # Item 0 is clearly funded, so its negative residual is judged
        # two-sided: the certificate is not loosened to one-sided tests.
        inst = Instance(utilities=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), budget=1.0)
        cert = certify_from_residual(inst, Linear(inst.utilities), np.array(x))
        assert cert.epsilon == pytest.approx(eps, rel=1e-12)

    def test_degenerate_voter_certifies_nothing(self):
        # Voter 4 values only item 1, which gets nothing: its residual is
        # undefined, so the certificate is unavailable and names the voter.
        inst = minority_instance()
        cert = certify_from_residual(inst, Linear(inst.utilities), np.array([1.0, 0.0]))
        assert cert.epsilon == np.inf
        assert cert.budget_total == 1.0
        assert not cert.budget_ok
        assert cert.guarantee.startswith("unavailable: voter 4 ")

    def test_non_finite_residual_certifies_nothing(self):
        # x_2 = 0 with alpha < 1 puts 0 * inf = NaN into voter 0's gradient.
        inst = Instance(utilities=np.array([[1.0, 0.0], [0.5, 0.5]]), budget=1.0)
        model = PowerSum(inst.utilities, 0.5)
        with np.errstate(invalid="ignore"):
            cert = certify_from_residual(inst, model, np.array([1.0, 0.0]))
        assert cert.epsilon == np.inf
        assert not cert.budget_ok


class TestContinuousOracle:
    def test_equilibrium_is_clean(self):
        inst = minority_instance(n=5)
        model = Linear(inst.utilities)
        x = solve_potential(inst, model).x
        assert find_deviation_continuous(inst, model, x, grid_steps=100) is None

    def test_starved_majority_blocks(self):
        inst = minority_instance(n=5)
        model = Linear(inst.utilities)
        dev = find_deviation_continuous(inst, model, np.array([0.0, 1.0]), grid_steps=100)
        assert dev is not None
        assert dev.coalition == (0, 1, 2, 3)
        # Four voters pool 4/5 of the budget onto their item.
        assert dev.y.x == pytest.approx([0.8, 0.0])
        assert dev.min_gain == pytest.approx(0.8)
        assert dev.mode == "additive"

    def test_multiplicative_mode(self):
        inst = minority_instance(n=5)
        model = Linear(inst.utilities)
        dev = find_deviation_continuous(
            inst, model, np.array([0.0, 1.0]), mode="multiplicative", threshold=0.05
        )
        assert dev is not None and dev.min_gain == np.inf
        with pytest.raises(ValueError, match="mode"):
            find_deviation_continuous(inst, model, np.array([0.5, 0.5]), mode="ratio")

    @pytest.mark.parametrize("kw, match", [
        (dict(grid_steps=0), "grid_steps"),
        (dict(grid_steps=-1), "grid_steps"),
        (dict(threshold=np.nan), "threshold nan"),
        (dict(threshold=np.inf), "threshold inf"),
        (dict(budget_slack=np.nan), "budget_slack nan"),
        (dict(budget_slack=-np.inf), "budget_slack -inf"),
    ])
    def test_invalid_search_parameters_rejected(self, kw, match):
        # None of these may come back as "no deviation".
        inst = minority_instance(n=5)
        with pytest.raises(ValueError, match=match):
            find_deviation_continuous(inst, Linear(inst.utilities), np.array([0.0, 1.0]), **kw)

    def test_spending_nothing_is_blocked_below_any_ratio(self):
        # U(x) = 0 for everyone, so any spend a voter values is an infinite
        # ratio, whatever the threshold (here -inf, where threshold * U(x)
        # is undefined).
        inst = minority_instance(n=5)
        model, x = Linear(inst.utilities), np.zeros(2)
        kw = dict(grid_steps=10, mode="multiplicative", threshold=-np.inf, budget_slack=0.0)
        dev = find_deviation_continuous(inst, model, x, **kw)
        assert dev is not None and dev.min_gain == np.inf
        want = reference_continuous(inst, model, x, **kw)
        assert (dev.coalition, dev.min_gain) == (want[0], want[2])
        assert np.array_equal(dev.y.x, want[1])

    def test_budget_slack_shrinks_the_pool(self):
        inst = minority_instance(n=5)
        model = Linear(inst.utilities)
        dev = find_deviation_continuous(
            inst, model, np.array([0.0, 1.0]), grid_steps=100, budget_slack=0.2
        )
        assert dev is not None
        assert dev.min_gain == pytest.approx(0.6)

    def test_matches_full_grid_search(self):
        # The oracle enumerates the budget surface only; nondecreasing
        # utilities make that lossless.  Check against every grid point of the
        # full simplex, interior included.
        rng = np.random.default_rng(8)
        steps = 12
        for trial in range(5):
            u = rng.uniform(0.05, 1.0, size=(4, 2))
            inst = Instance(utilities=u, budget=1.0)
            model = Linear(u)
            x = rng.dirichlet(np.ones(2)) * rng.uniform(0.4, 1.0)
            best = -np.inf
            for s in range(1, 5):
                b = (s / 4) * 1.0
                for i, j in product(range(steps + 1), repeat=2):
                    if i + j > steps:
                        continue
                    y = np.array([i, j]) / steps * b
                    gains = u @ y - u @ x
                    best = max(best, float(np.sort(gains)[-s]))
            dev = find_deviation_continuous(
                inst, model, x, grid_steps=steps, threshold=-np.inf
            )
            assert dev is not None
            assert dev.min_gain == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("family", ["linear", "cobb-douglas", "powersum-1", "powersum-0.5"])
    def test_matches_reference_scan(self, family):
        # Seeded random cases over both modes, budget slack, thresholds down to
        # -inf, tied and zero utilities, zero spends; powersum with alpha < 1
        # is not degree-1 homogeneous and takes the unpruned path.  The kept
        # gains are computed exactly as the full scan computes them, so the
        # results must be identical, not merely close.
        rng = np.random.default_rng(["linear", "cobb-douglas", "powersum-1",
                                     "powersum-0.5"].index(family))
        blocked = 0
        for trial in range(60):
            n, k = int(rng.integers(1, 25)), int(rng.integers(1, 5))
            u = rng.uniform(0.0, 1.0, (n, k))
            if trial % 3 == 0:
                u = np.round(u * 2) / 2  # ties and zeros
                u[n // 2:] = u[0]  # identical voters
            u[u.max(axis=1) == 0, 0] = 1.0
            if family == "cobb-douglas":
                u = (u + 0.01) / (u + 0.01).sum(axis=1, keepdims=True)
                model = CobbDouglas(u)
            elif family == "linear":
                model = Linear(u)
            else:
                model = PowerSum(u, float(family.split("-")[1]))
            inst = Instance(utilities=u, budget=float(rng.choice([1.0, 3.0, 0.01])))
            x = rng.dirichlet(np.ones(k)) * inst.budget * rng.uniform(0.3, 1.0)
            if trial % 4 == 0:
                x[rng.integers(k)] = 0.0  # zero spends, zero utilities
            mode = ("additive", "multiplicative")[trial % 2]
            thresholds = ([-np.inf, -0.1, 0.0, 1e-3, 0.05] if mode == "additive"
                          else [-np.inf, -0.5, 0.0, 1e-3, 0.2])
            kw = dict(grid_steps=int(rng.integers(2, 30)), mode=mode,
                      threshold=float(rng.choice(thresholds)),
                      budget_slack=float(rng.choice([0.0, 0.0, 0.1])))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                want = reference_continuous(inst, model, x, **kw)
                got = find_deviation_continuous(inst, model, x, **kw)
            if want is None:
                assert got is None, (trial, kw)
                continue
            blocked += 1
            assert got is not None, (trial, kw)
            assert got.coalition == want[0], (trial, kw)
            assert np.array_equal(got.y.x, want[1]), (trial, kw)
            assert got.min_gain == want[2], (trial, kw)
        assert 10 <= blocked <= 55  # both outcomes well represented

    def test_cobb_douglas_log_zero_stand_in_is_not_pruned(self):
        # log(0) is a finite stand-in, so with an exponent of 3e-7 on an
        # unfunded item U(b y) = b^(1 - 3e-7) U(y), not b U(y).  At b = 1e-8
        # that bends the crossing budget by 6e-6, more than rounding slack
        # would cover.  The slack leaves only the pair's budget 1e-8, and only
        # its point (1e-8, 0) beats the ratio.
        u = np.array([[1.0 - 3e-7, 3e-7], [1.0, 0.0]])
        inst = Instance(utilities=u, budget=2e-8)
        model, x = CobbDouglas(u), np.array([5e-9, 0.0])
        kw = dict(grid_steps=50, mode="multiplicative", threshold=1 - 2e-6,
                  budget_slack=0.5)
        want = reference_continuous(inst, model, x, **kw)
        got = find_deviation_continuous(inst, model, x, **kw)
        assert want is not None and np.array_equal(want[1], [1e-8, 0.0])
        assert (got.coalition, got.min_gain) == (want[0], want[2])
        assert np.array_equal(got.y.x, want[1])

    def test_size_guards(self):
        big_k = Instance(utilities=np.ones((3, 5)), budget=1.0)
        with pytest.raises(InstanceTooLarge, match="k <= 4"):
            find_deviation_continuous(big_k, Linear(big_k.utilities), np.ones(5) / 5)
        big_n = Instance(utilities=np.ones((501, 2)), budget=1.0)
        with pytest.raises(InstanceTooLarge, match="n <= 500"):
            find_deviation_continuous(big_n, Linear(big_n.utilities), np.ones(2) / 2)
        fine = Instance(utilities=np.ones((3, 4)), budget=1.0)
        with pytest.raises(InstanceTooLarge, match="grid"):
            find_deviation_continuous(fine, Linear(fine.utilities), np.ones(4) / 4,
                                      grid_steps=300)


class TestIntegralOracle:
    def split_instance(self):
        """Majority approves items 0-2, minority items 3-5; budget funds three."""
        u = np.zeros((10, 6))
        u[:6, :3] = 1.0
        u[6:, 3:] = 1.0
        return Instance(utilities=u, budget=3.0, sizes=np.ones(6))

    def test_welfare_set_is_blocked_by_minority(self):
        inst = self.split_instance()
        x = Allocation(x=[1, 1, 1, 0, 0, 0], kind="integral")
        dev = find_deviation_integral(inst, x)
        assert dev is not None
        assert dev.coalition == (6, 7, 8, 9)
        assert dev.min_gain == np.inf
        assert dev.mode == "multiplicative"
        assert dev.y.kind.value == "integral"
        # The minority's 4/10 of the budget covers the bundle it buys.
        assert dev.y.total() <= (4 / 10) * 3.0 + 1e-12

    def test_mixed_set_is_stable(self):
        inst = self.split_instance()
        x = Allocation(x=[1, 1, 0, 1, 0, 0], kind="integral")
        assert find_deviation_integral(inst, x) is None

    def test_epsilon_mult_filters_small_gains(self):
        # One project funded; a cheaper rival gives three of four voters a
        # 1.05x gain.  The deviation exists under a 1% bar, not under 10%.
        u = np.array([[1.0, 1.05]] * 3 + [[1.0, 0.5]])
        inst = Instance(utilities=u, budget=1.0, sizes=np.array([1.0, 0.7]))
        x = Allocation(x=[1.0, 0.0], kind="integral")
        dev = find_deviation_integral(inst, x, epsilon_mult=0.01)
        assert dev is not None
        assert dev.coalition == (0, 1, 2)
        assert dev.min_gain == pytest.approx(1.05)
        assert find_deviation_integral(inst, x, epsilon_mult=0.1) is None

    def test_matches_reference_loop(self):
        # Seeded random cases: integral and fractional x, ties (0/1 and
        # quarter utilities), epsilon from -0.5 to 1, and fractional sizes
        # with n and B such that a coalition's budget often equals a bundle's
        # cost exactly.  Utility ratios are summed in another order than the
        # loop's, so min_gain may differ in the last bits; nothing else may.
        rng = np.random.default_rng(12)
        blocked = 0
        for trial in range(300):
            k = int(rng.integers(1, 13))
            if trial % 2:
                n, k = int(rng.choice([10, 20])), min(k, 8)
                sizes = rng.choice([0.1, 0.2, 0.3, 0.6, 0.7], k)
                budget = float(rng.choice([1.0, 2.0]))
            else:
                n, sizes, budget = int(rng.integers(1, 21)), np.ones(k), 0.5 * int(rng.integers(1, k + 1))
            u = rng.uniform(0.0, 1.0, (n, k))
            if trial % 3 == 0:
                u = (u > 0.5).astype(float)
            elif trial % 3 == 1:
                u = np.round(u * 4) / 4
            u[u.max(axis=1) == 0, 0] = 1.0
            inst = Instance(utilities=u, budget=budget, sizes=sizes)
            x = np.where(rng.random(k) < 0.4, sizes, 0.0)
            if trial % 4 == 0:
                x = x * rng.uniform(0.0, 1.0, k)
            eps = float(rng.choice([0.0, 0.0, 0.1, 1.0, -0.5]))
            want = reference_integral(inst, x, eps)
            got = find_deviation_integral(inst, x, epsilon_mult=eps)
            if want is None:
                assert got is None, trial
                continue
            blocked += 1
            assert got.coalition == want[0], trial
            assert np.array_equal(got.y.x, want[1]), trial
            assert got.min_gain == pytest.approx(want[2], rel=1e-12, abs=0), trial
        assert 60 <= blocked <= 270

    def test_bundle_worth_exactly_x_is_no_improvement(self):
        # x funds S; every bundle T containing S is worth exactly U_i(x) to a
        # voter who values nothing outside S.  Summing bundles and x in one
        # fixed order keeps that an exact tie, so no such voter joins.
        rng = np.random.default_rng(4)
        for _ in range(100):
            n, k = int(rng.integers(2, 21)), int(rng.integers(3, 13))
            u = rng.uniform(0.1, 1.0, (n, k))
            chosen = rng.random(k) < 0.5
            chosen[0] = True
            u[: n // 2, ~chosen] = 0.0
            inst = Instance(utilities=u, budget=float(k), sizes=np.ones(k))
            dev = find_deviation_integral(inst, chosen.astype(float))
            want = reference_integral(inst, chosen.astype(float), 0.0)
            assert (dev is None) == (want is None)
            if dev is not None:
                assert min(dev.coalition) >= n // 2 and dev.coalition == want[0]

    def test_size_guards_and_requirements(self):
        big = Instance(utilities=np.ones((3, 13)), budget=1.0, sizes=np.ones(13))
        with pytest.raises(InstanceTooLarge, match="bundles"):
            find_deviation_integral(big, np.zeros(13))
        no_sizes = Instance(utilities=np.ones((3, 2)), budget=1.0)
        with pytest.raises(ModelError, match="sizes"):
            find_deviation_integral(no_sizes, np.zeros(2))
