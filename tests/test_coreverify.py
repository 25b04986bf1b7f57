"""Deviation oracles and residual certificates.

The continuous oracle is validated against an explicit full-simplex grid
(interior points included) on small cases, since its own enumeration only
walks the budget surface; the integral oracle against hand-built instances
where the blocking coalition is known.
"""

from itertools import product
from math import comb

import numpy as np
import pytest

from budgetcore.coreverify import (
    CoreCertificate,
    InstanceTooLarge,
    budget_grid,
    certify_from_residual,
    find_deviation_continuous,
    find_deviation_integral,
)
from budgetcore.lindahl import solve_proportional_fairness
from budgetcore.model import Allocation, Instance, Linear, ModelError, PowerSum


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

    def test_cached_and_read_only(self):
        a, b = budget_grid(3, 12), budget_grid(3, 12)
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 9.0


class TestCertificate:
    def test_near_zero_epsilon_at_equilibrium(self):
        inst = minority_instance()
        model = Linear(inst.utilities)
        result = solve_proportional_fairness(inst, model)
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
        x = solve_proportional_fairness(inst, model).x
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
            inst, model, np.array([0.0, 1.0]), mode="multiplicative", threshold=1.05
        )
        assert dev is not None and dev.min_gain == np.inf
        with pytest.raises(ValueError, match="mode"):
            find_deviation_continuous(inst, model, np.array([0.5, 0.5]), mode="ratio")

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

    def test_size_guards_and_requirements(self):
        big = Instance(utilities=np.ones((3, 13)), budget=1.0, sizes=np.ones(13))
        with pytest.raises(InstanceTooLarge, match="bundles"):
            find_deviation_integral(big, np.zeros(13))
        no_sizes = Instance(utilities=np.ones((3, 2)), budget=1.0)
        with pytest.raises(ModelError, match="sizes"):
            find_deviation_integral(no_sizes, np.zeros(2))
