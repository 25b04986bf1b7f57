"""Utility families: values, gradients, and the marginal-spend transform.

Gradients are checked against central finite differences, and each transform's
antiderivative against numerical quadrature of its ratio, so the analytic
kernels and the oracles fail independently.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from budgetcore.lindahl import solve_potential
from budgetcore.model import (
    Allocation,
    AllocationKind,
    CobbDouglas,
    Instance,
    Linear,
    ModelError,
    PowerSum,
    Saturating,
    SmoothedSaturating,
    allocation_vector,
    make_model,
)

from test_lindahl import supporting_prices

RNG = np.random.default_rng(42)


def fd_gradient(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def random_instance(n=6, k=4, seed=0, sizes=False):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.1, 1.0, size=(n, k))
    s = rng.uniform(0.5, 2.0, size=k) if sizes else None
    return Instance(utilities=u, budget=3.0, sizes=s)


# ---------------------------------------------------------------------------
# Instance / Allocation containers
# ---------------------------------------------------------------------------


class TestInstance:
    def test_basic_shape(self):
        inst = random_instance()
        assert inst.n == 6 and inst.k == 4
        assert inst.item_names == tuple(f"item_{j}" for j in range(4))

    def test_rejects_zero_voter(self):
        u = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="voter 1"):
            Instance(utilities=u, budget=1.0)

    def test_rejects_negative_utilities(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Instance(utilities=[[1.0, -0.1]], budget=1.0)

    def test_rejects_bad_budget(self):
        for b in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="budget"):
                Instance(utilities=[[1.0]], budget=b)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="length"):
            Instance(utilities=[[1.0, 1.0]], budget=1.0, sizes=[1.0])
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                Instance(utilities=[[1.0, 1.0]], budget=1.0, sizes=[1.0, bad])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            Instance(utilities=[[1.0, 1.0]], budget=1.0, item_names=("a", "a"))

    def test_utilities_read_only(self):
        inst = random_instance()
        with pytest.raises(ValueError):
            inst.utilities[0, 0] = 5.0

    def test_require_sizes(self):
        with pytest.raises(ModelError, match="sizes"):
            random_instance().require_sizes()
        assert random_instance(sizes=True).require_sizes().shape == (4,)


class TestAllocation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Allocation(x=[0.5, -0.1])

    def test_funded_sets(self):
        a = Allocation(x=[0.0, 0.4, 0.0, 1.2])
        assert list(a.funded()) == [1, 3]
        assert a.funded_set() == frozenset({1, 3})
        assert a.total() == pytest.approx(1.6)

    def test_kind_coercion(self):
        a = Allocation(x=[1.0], kind="integral")
        assert a.kind is AllocationKind.INTEGRAL

    def test_allocation_vector_passthrough(self):
        assert np.array_equal(allocation_vector([1, 2]), [1.0, 2.0])
        a = Allocation(x=[1.0, 2.0])
        assert allocation_vector(a) is a.x


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------


class TestLinear:
    def test_values_and_gradients(self):
        inst = random_instance()
        model = Linear(inst.utilities)
        x = RNG.uniform(0.0, 1.0, size=4)
        assert model.utilities_all(x) == pytest.approx(inst.utilities @ x)
        assert model.gradients_all(x)[2] == pytest.approx(inst.utilities[2])
        assert model.homogeneous

    def test_transform_is_identity(self):
        m = Linear(np.ones((2, 3)))
        z = np.array([0.2, 0.0, 1.5])
        assert m.zvec(z) == pytest.approx(z)
        assert m.x_of_z(z) == pytest.approx(z)
        assert m.ratio(z) == pytest.approx(np.ones(3))
        assert m.integral(z) == pytest.approx(z)
        assert m.ratio_prime(z) == pytest.approx(np.zeros(3))


# ---------------------------------------------------------------------------
# PowerSum
# ---------------------------------------------------------------------------


class TestPowerSum:
    alpha = np.array([0.3, 0.5, 0.8, 1.0])

    def model(self):
        return PowerSum(random_instance().utilities, self.alpha)

    def test_parameter_validation(self):
        u = np.ones((2, 4))
        with pytest.raises(ModelError, match="length"):
            PowerSum(u, [0.5, 0.8])
        for bad in ([0.0, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 1.2]):
            with pytest.raises(ModelError, match="exponents"):
                PowerSum(u, bad)

    def test_scalar_alpha_broadcasts(self):
        u = np.ones((2, 4))
        x = np.array([0.2, 0.7, 1.1, 0.4])
        scalar = PowerSum(u, 0.5)
        vector = PowerSum(u, [0.5] * 4)
        assert scalar.utilities_all(x) == pytest.approx(vector.utilities_all(x))

    def test_value_formula(self):
        m = self.model()
        x = np.array([0.2, 0.7, 1.1, 0.4])
        manual = m.u @ (x ** self.alpha)
        assert m.utilities_all(x) == pytest.approx(manual)

    def test_gradient_matches_finite_differences(self):
        m = self.model()
        for _ in range(5):
            x = RNG.uniform(0.2, 1.5, size=4)
            for agent in (0, 3):
                g = m.gradients_all(x)[agent]
                g_fd = fd_gradient(lambda v: m.utilities_all(v)[agent], x)
                assert g == pytest.approx(g_fd, rel=1e-5)

    def test_alpha_one_matches_linear(self):
        u = random_instance().utilities
        x = RNG.uniform(0.0, 1.0, size=4)
        assert PowerSum(u, np.ones(4)).utilities_all(x) == pytest.approx(
            Linear(u).utilities_all(x)
        )
        assert PowerSum(u, np.ones(4)).homogeneous

    def test_transform_inverts(self):
        m = self.model()
        x = RNG.uniform(0.05, 2.0, size=(10, 4))
        assert m.x_of_z(m.zvec(x)) == pytest.approx(x, rel=1e-10)

    def test_ratio_is_nondecreasing(self):
        z = np.linspace(1e-4, 2.0, 200)[:, None] * np.ones(4)
        r = self.model().ratio(z)
        assert np.all(np.diff(r, axis=0) >= -1e-12)

    def test_integral_matches_quadrature(self):
        # R_j(z) must be the antiderivative of ratio_j with R_j(0) = 0.
        m = self.model()
        for j, a in enumerate(self.alpha):
            for z_hi in (0.3, 0.9, 1.7):
                ref, err = quad(
                    lambda t: float(m.ratio(np.full(4, max(t, 1e-300)))[j]), 0.0, z_hi
                )
                got = float(m.integral(np.full(4, z_hi))[j])
                assert got == pytest.approx(ref, abs=max(1e-8, 10 * err))

    def test_ratio_prime_matches_finite_differences(self):
        m = self.model()
        z = RNG.uniform(0.2, 1.5, size=4)
        h = 1e-6
        fd = (m.ratio(z + h) - m.ratio(z - h)) / (2 * h)
        assert m.ratio_prime(z) == pytest.approx(fd, rel=1e-4)


# ---------------------------------------------------------------------------
# Cobb-Douglas
# ---------------------------------------------------------------------------


class TestCobbDouglas:
    def exponents(self, n=5, k=4, seed=1):
        rng = np.random.default_rng(seed)
        e = rng.uniform(0.2, 1.0, size=(n, k))
        return e / e.sum(axis=1, keepdims=True)

    def test_row_sum_enforced(self):
        with pytest.raises(ModelError, match="sum to 1"):
            CobbDouglas(np.array([[0.5, 0.6]]))

    def test_value_is_product_form(self):
        e = self.exponents()
        m = CobbDouglas(e)
        x = RNG.uniform(0.1, 2.0, size=4)
        manual = np.prod(x[None, :] ** e, axis=1)
        assert m.utilities_all(x) == pytest.approx(manual)

    def test_zero_exponent_ignores_zero_spend(self):
        m = CobbDouglas(np.array([[1.0, 0.0]]))
        assert m.utilities_all(np.array([2.0, 0.0])) == pytest.approx([2.0])

    def test_zero_spend_with_positive_exponent(self):
        # Exactly 0 at any positive exponent, however small.
        for a in (0.5, 1e-5, 1e-12):
            m = CobbDouglas(np.array([[1.0 - a, a]]))
            assert m.utilities_all(np.array([1.0, 0.0])).tolist() == [0.0]

    def test_gradient_matches_finite_differences(self):
        m = CobbDouglas(self.exponents())
        x = RNG.uniform(0.3, 1.5, size=4)
        for agent in (0, 4):
            g = m.gradients_all(x)[agent]
            g_fd = fd_gradient(lambda v: m.utilities_all(v)[agent], x)
            assert g == pytest.approx(g_fd, rel=1e-5)

    def test_gradient_requires_positive_x(self):
        m = CobbDouglas(self.exponents())
        with pytest.raises(ModelError, match="positive"):
            m.gradients_all(np.array([1.0, 0.0, 1.0, 1.0]))

    def test_euler_identity(self):
        # Degree-1 homogeneity: sum_j x_j dU/dx_j == U.  The log-separable maps
        # (f' = 1/x, z = 1) give log U's marginal spend, sum_j a_ij = 1.
        m = CobbDouglas(self.exponents())
        x = RNG.uniform(0.2, 1.2, size=4)
        assert m.u @ m.zvec(x) == pytest.approx(
            (m.gradients_all(x) * x).sum(axis=1) / m.utilities_all(x))
        assert (m.gradients_all(x) * x).sum(axis=1) == pytest.approx(m.utilities_all(x))

    def test_batch_matches_single(self):
        m = CobbDouglas(self.exponents())
        X = RNG.uniform(0.1, 1.0, size=(7, 4))
        batch = m.utilities_batch(X)
        for r in range(7):
            assert batch[r] == pytest.approx(m.utilities_all(X[r]))


# ---------------------------------------------------------------------------
# Saturating and its smoothed relaxation
# ---------------------------------------------------------------------------


class TestSaturating:
    sizes = np.array([0.5, 1.0, 2.0])

    def model(self):
        u = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        return Saturating(u, self.sizes)

    def test_value_caps_at_full_funding(self):
        m = self.model()
        x = np.array([0.25, 3.0, 2.0])
        # item 0 half funded, item 1 capped at 1, item 2 exactly full
        assert m.f(x) == pytest.approx([0.5, 1.0, 1.0])
        assert m.utilities_all(x) == pytest.approx([1.5, 2.0])

    def test_gradient_zero_past_cap(self):
        m = self.model()
        g = m.fprime(np.array([0.25, 3.0, 1.0]))
        assert g == pytest.approx([2.0, 0.0, 0.5])

    def test_kink_detection_and_warning(self):
        m = self.model()
        x = np.array([0.5, 0.2, 1.0])
        assert m.gradients_all(x)[0, 0] == 2.0  # left derivative 1/s_0
        # A spend computed to land on s_0 may overshoot it by rounding.
        x[0] = 0.5 * (1.0 + 1e-12)
        assert m.gradients_all(x)[0, 0] == 2.0

    def test_marginal_spend_is_zero_past_cap(self):
        # x f'(x) vanishes past the cap, so marginal spends match the gradients
        # and each voter's bundle costs B/n at the supporting prices.
        u = np.array([[1.0, 0.5], [0.2, 1.0], [1.0, 1.0]])
        inst = Instance(utilities=u, budget=3.0, sizes=np.ones(2))
        m, x = Saturating(u, inst.sizes), np.array([2.0, 1.0])
        assert m.u @ m.zvec(x) == pytest.approx((m.gradients_all(x) * x).sum(1))
        assert supporting_prices(inst, m, x) @ x == pytest.approx(np.full(3, 1.0))

    def test_no_transform(self):
        inst = Instance(utilities=self.model().u, budget=1.0, sizes=self.sizes)
        with pytest.raises(ModelError, match="non-satiating"):
            solve_potential(inst, self.model())


class TestSmoothedSaturating:
    sizes = np.array([0.5, 1.0, 2.0])
    eps = 0.2

    def model(self):
        u = np.array([[1.0, 0.5, 1.0]])
        return SmoothedSaturating(u, self.sizes, self.eps)

    def test_eps_validation(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ModelError, match="smoothing"):
                SmoothedSaturating(np.ones((1, 3)), self.sizes, bad)

    def test_matches_hard_curve_below_cap(self):
        m = self.model()
        hard = Saturating(m.u, self.sizes)
        x = self.sizes * 0.6
        assert m.f(x) == pytest.approx(hard.f(x))
        assert m.fprime(x) == pytest.approx(hard.fprime(x))

    def test_c1_at_the_cap(self):
        m = self.model()
        h = 1e-9
        below, above = self.sizes * (1 - h), self.sizes * (1 + h)
        assert m.f(below) == pytest.approx(m.f(above), abs=1e-7)
        assert m.fprime(below) == pytest.approx(m.fprime(above), rel=1e-6)

    def test_strictly_increasing_past_cap(self):
        m = self.model()
        x = self.sizes * 5.0
        assert np.all(m.fprime(x) > 0)

    def test_transform_inverts(self):
        m = self.model()
        x = RNG.uniform(0.1, 6.0, size=(20, 3))
        assert m.x_of_z(m.zvec(x)) == pytest.approx(x, rel=1e-9)

    def test_integral_matches_quadrature(self):
        m = self.model()
        for j in range(3):
            for z_hi in (0.5, 1.0, 2.5):
                ref, err = quad(lambda t: float(m.ratio(np.full(3, t))[j]), 0.0, z_hi)
                got = float(m.integral(np.full(3, z_hi))[j])
                assert got == pytest.approx(ref, abs=max(1e-8, 10 * err))

    def test_ratio_prime_matches_finite_differences(self):
        # Flat below the cap z = 1 (ratio = s), a power of z beyond it.
        m = self.model()
        h = 1e-6
        for z in (np.array([0.2, 0.6, 0.95]), np.array([1.05, 1.7, 3.0])):
            fd = (m.ratio(z + h) - m.ratio(z - h)) / (2 * h)
            assert m.ratio_prime(z) == pytest.approx(fd, rel=1e-4)
        assert np.all(m.ratio_prime(np.array([0.2, 0.6, 0.95])) == 0.0)


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


class TestMakeModel:
    def test_families_dispatch(self):
        inst = random_instance(sizes=True)
        assert isinstance(make_model(inst, "linear"), Linear)
        assert isinstance(make_model(inst, "power-sum", alpha=np.full(4, 0.5)), PowerSum)
        assert isinstance(make_model(inst, "saturating"), Saturating)
        got = make_model(inst, "smoothed", eps_smooth=0.3)
        assert isinstance(got, SmoothedSaturating)
        with pytest.raises(ModelError, match="unknown utility family"):
            make_model(inst, "smoothed_saturating", eps_smooth=0.3)  # no alias

    def test_cobb_douglas_dispatch(self):
        e = np.full((3, 4), 0.25)
        inst = Instance(utilities=e, budget=1.0)
        assert isinstance(make_model(inst, "cobb-douglas"), CobbDouglas)

    def test_missing_requirements(self):
        inst = random_instance()  # no sizes
        with pytest.raises(ModelError, match="sizes"):
            make_model(inst, "saturating")
        with pytest.raises(ModelError, match="alpha"):
            make_model(inst, "powersum")
        with pytest.raises(ModelError, match="eps_smooth"):
            make_model(random_instance(sizes=True), "smoothed")

    def test_unknown_family(self):
        with pytest.raises(ModelError, match="unknown"):
            make_model(random_instance(), "quadratic")

    @pytest.mark.parametrize("family, params, stray", [
        ("linear", {"alpah": 0.5}, "alpah"),
        ("linear", {"alpha": 0.5}, "alpha"),
        ("powersum", {"alpha": 0.5, "eps_smooth": 0.1}, "eps_smooth"),
        ("cobb-douglas", {"alpha": 0.5}, "alpha"),
        ("saturating", {"eps_smooth": 0.1}, "eps_smooth"),
        ("smoothed", {"eps_smooth": 0.1, "alpha": 0.5}, "alpha"),
    ])
    def test_unknown_parameter_named(self, family, params, stray):
        # Each family takes only its own parameter; a stray key (a typo, or
        # another family's knob) is an error naming it, never silently dropped.
        inst = Instance(utilities=np.full((3, 4), 0.25), budget=1.0, sizes=np.ones(4))
        with pytest.raises(ModelError, match=f"unknown parameter '{stray}'"):
            make_model(inst, family, **params)
