"""Equilibrium solvers against closed forms and each other.

Reference points used here, all derivable by hand:

* disjoint voter groups with linear utilities -> x_j = B * n_j / n;
* Cobb-Douglas -> x_j = (B/n) * sum_i a_ij (first-order condition of the
  proportional-fairness program is separable in log x);
* a single voter with power utilities -> x_j proportional to u_j^{1/(1-a)};
* 4 voters on item 0, 2 on item 1, 3 valuing items 0 and 1 alike and 1 on
  item 2, linear -> x = B * (0.6, 0.3, 0.1) (the first two first-order
  conditions give x_0 = 2 x_1, the third x_2 = x_1 / 3).

``solve_potential``, the one equilibrium entry point, must reach each of them.
"""

import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from budgetcore.coreverify import certify_from_residual
from budgetcore.lindahl import (
    DegenerateAgentError,
    SolverConfig,
    lindahl_residuals,
    solve_potential,
)
from budgetcore.model import (
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

from corpora import CORPORA, SOLVER_CORPORA, family, scaled, smoothed, solve_counted


def disjoint_instance(counts, budget=1.0):
    """Voters in disjoint groups, each approving one item."""
    rows = []
    for j, c in enumerate(counts):
        row = np.zeros(len(counts))
        row[j] = 1.0
        rows.extend([row] * c)
    return Instance(utilities=np.array(rows), budget=budget)


def cd_instance(n, k, seed, budget=2.0):
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.1, 1.0, size=(n, k))
    e /= e.sum(axis=1, keepdims=True)
    return Instance(utilities=e, budget=budget)


def max_condition_violation(inst, model, x, floor=1e-9):
    res = lindahl_residuals(inst, model, x)
    funded = np.asarray(x, dtype=float) > floor
    return float(np.where(funded, np.abs(res), np.maximum(res, 0.0)).max())


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


class TestResiduals:
    def test_zero_at_group_proportional_split(self):
        inst = disjoint_instance([3, 2, 5], budget=4.0)
        model = Linear(inst.utilities)
        x = 4.0 * np.array([0.3, 0.2, 0.5])
        assert lindahl_residuals(inst, model, x) == pytest.approx(np.zeros(3), abs=1e-12)

    def test_sign_structure_off_equilibrium(self):
        inst = disjoint_instance([5, 5], budget=1.0)
        model = Linear(inst.utilities)
        res = lindahl_residuals(inst, model, np.array([0.8, 0.2]))
        # Overfunded item shows negative residual, underfunded positive.
        assert res[0] < 0 < res[1]

    def test_shape_check(self):
        inst = disjoint_instance([2, 2])
        with pytest.raises(ValueError, match="expected 2"):
            lindahl_residuals(inst, Linear(inst.utilities), np.array([1.0]))

    def test_degenerate_agent(self):
        inst = Instance(utilities=[[1.0, 0.0], [0.0, 1.0]], budget=1.0)
        with pytest.raises(DegenerateAgentError, match="voter 1"):
            lindahl_residuals(inst, Linear(inst.utilities), np.array([1.0, 0.0]))
        # An infinite spend leaves u_i . z no finite value to divide by either.
        inst = Instance(utilities=[[1.0, 0.5], [0.5, 1.0]], budget=1.0)
        with pytest.raises(DegenerateAgentError, match="voter 0"):
            lindahl_residuals(inst, Linear(inst.utilities), np.array([np.inf, 1.0]))

    def test_power_sum_zero_spend_is_infinite_not_nan(self):
        # Voter 1's marginal value of the unfunded item is infinite; voter 0
        # puts no weight on it, which must not make 0 * inf = NaN.
        inst = Instance(utilities=[[1.0, 0.0], [0.5, 0.5]], budget=1.0)
        model = PowerSum(inst.utilities, 0.5)
        x = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lindahl_residuals(inst, model, x).tolist() == [0.0, np.inf]
            assert model.gradients_all(x)[0].tolist() == [0.5, 0.0]


def gradient_reference(inst, model, x):
    """Residuals and prices from the n x k gradient matrix:
    (B/n) grad_ij / (sum_m x_m grad_im)."""
    grad = model.gradients_all(x)
    prices = (inst.budget / inst.n) * grad / (grad @ x)[:, None]
    return prices.sum(axis=0) - 1.0, prices


def supporting_prices(inst, model, x):
    """Per-voter prices (B/n) u_ij f_j'(x_j) / (u_i . z(x)), shape (n, k),
    from the item vectors: item j's total is 1 plus residual j."""
    xv = allocation_vector(x)
    slopes = np.where(model.u > 0, model.u * model.fprime(xv), 0.0)
    return (inst.budget / inst.n) * slopes / (model.u @ model.zvec(xv))[:, None]


def five_families():
    """(model, x) on every family, with spends that reach each branch."""
    rng = np.random.default_rng(7)
    u = rng.uniform(0.1, 1.0, size=(30, 4)) * (rng.uniform(size=(30, 4)) < 0.7)
    u[:, 0] = rng.uniform(0.1, 1.0, size=30)  # every voter values an uncapped item
    sizes = np.array([2.0, 0.5, 0.8, 0.3])
    cd = u / u.sum(axis=1, keepdims=True)
    x = np.array([1.3, 0.4, 0.9, 0.7])  # below, below, past and past the sizes
    band = np.array([1.3, 0.5, 0.8 * (1.0 + 1e-13), 1.2])  # at, inside, past the kink
    return [
        pytest.param(Linear(u), x, id="linear"),
        pytest.param(PowerSum(u, 0.5), x, id="powersum"),
        pytest.param(PowerSum(u, [0.3, 0.5, 0.8, 1.0]), x, id="powersum-per-item"),
        pytest.param(Saturating(u, sizes), x, id="saturating"),
        pytest.param(Saturating(u, sizes), band, id="saturating-kink"),
        pytest.param(SmoothedSaturating(u, sizes, 0.1), x, id="smoothed"),
        pytest.param(CobbDouglas(cd), x, id="cobbdouglas"),
    ]


class TestGradientFreeCondition:
    @pytest.mark.parametrize("model, x", five_families())
    def test_matches_gradient_matrix(self, model, x):
        inst = Instance(utilities=model.u, budget=3.0)
        res_ref, prices_ref = gradient_reference(inst, model, x)
        res = lindahl_residuals(inst, model, x)
        assert np.max(np.abs(res - res_ref)) <= 1e-12 * np.max(np.abs(res_ref + 1.0))
        prices = supporting_prices(inst, model, x)
        assert np.max(np.abs(prices - prices_ref)) <= 1e-12 * np.max(prices_ref)
        totals = prices.sum(axis=0)
        assert np.max(np.abs(res - (totals - 1.0))) <= 1e-12 * np.max(totals)

    @pytest.mark.parametrize("model, x", five_families())
    def test_never_builds_gradients(self, model, x, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "gradients_all", lambda *a: calls.append(a))
        inst = Instance(utilities=model.u, budget=3.0)
        lindahl_residuals(inst, model, x)
        assert calls == []


# ---------------------------------------------------------------------------
# Proportional-fairness instances (linear, Cobb-Douglas)
# ---------------------------------------------------------------------------


class TestProportionalFairness:
    def test_disjoint_groups_closed_form(self):
        counts = [7, 2, 1, 10]
        inst = disjoint_instance(counts, budget=5.0)
        result = solve_potential(inst, Linear(inst.utilities))
        expect = 5.0 * np.array(counts) / sum(counts)
        assert result.converged
        assert np.max(np.abs(result.x.x - expect)) <= 1e-6

    def test_cobb_douglas_closed_form(self):
        for seed in range(5):
            inst = cd_instance(n=20, k=6, seed=seed)
            model = CobbDouglas(inst.utilities)
            result = solve_potential(inst, model)
            expect = (inst.budget / inst.n) * inst.utilities.sum(axis=0)
            assert result.converged
            assert np.max(np.abs(result.x.x - expect)) <= 1e-6

    def test_cobb_douglas_unweighted_item_sits_at_floor(self):
        e = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [0.7, 0.3, 0.0]])
        inst = Instance(utilities=e, budget=3.0)
        cfg = SolverConfig()
        result = solve_potential(inst, CobbDouglas(e), cfg)
        assert result.converged and result.iterations == 0
        assert result.x.x[:2] == pytest.approx([1.4, 1.6], abs=1e-12)
        assert result.x.x[2] == 1e-12 * 3.0  # the solvers' spend floor, 1e-12 * B
        assert result.residuals[2] == -1.0

    def test_residual_tolerance_met(self):
        inst = disjoint_instance([4, 3, 3], budget=1.0)
        result = solve_potential(inst, Linear(inst.utilities))
        assert max_condition_violation(inst, Linear(inst.utilities), result.x.x) <= 1e-8

    def test_budget_exhausted(self):
        inst = cd_instance(n=10, k=4, seed=3, budget=7.0)
        result = solve_potential(inst, CobbDouglas(inst.utilities))
        assert result.x.total() == pytest.approx(7.0, rel=1e-9)

    def test_trace_records_violation_decay(self):
        # Linear solves iterate; the Cobb-Douglas closed form records one entry.
        rng = np.random.default_rng(1)
        u = rng.uniform(0.05, 1.0, size=(30, 5))
        result = solve_potential(Instance(utilities=u, budget=2.0), Linear(u))
        trace = result.objective_trace
        assert len(trace) > 1 and all(len(row) == 2 for row in trace)
        iters = [it for it, _ in trace]
        assert iters == sorted(iters)
        assert trace[-1][1] <= 1e-8 < trace[0][1]
        inst = cd_instance(n=30, k=5, seed=1)
        result = solve_potential(inst, CobbDouglas(inst.utilities))
        assert result.objective_trace == [(0, result.objective_trace[0][1])]
        assert result.objective_trace[0][1] <= 1e-8

    def test_moderately_large_instance_is_fast(self):
        import time

        rng = np.random.default_rng(0)
        u = rng.uniform(0.1, 1.0, size=(3000, 10))
        inst = Instance(utilities=u, budget=1.0)
        t0 = time.perf_counter()
        result = solve_potential(inst, Linear(u))
        elapsed = time.perf_counter() - t0
        assert result.converged and elapsed < 2.0


# ---------------------------------------------------------------------------
# Potential (marginal-spend) route
# ---------------------------------------------------------------------------


class TestPotentialSolver:
    def test_agrees_with_fast_path_on_linear(self):
        # The hand-derived overlapping-groups equilibrium B * (0.6, 0.3, 0.1)
        # from the module docstring.
        rows = [[1, 0, 0]] * 4 + [[0, 1, 0]] * 2 + [[1, 1, 0]] * 3 + [[0, 0, 1]]
        u = np.array(rows, dtype=float)
        inst = Instance(utilities=u, budget=3.0)
        expect = 3.0 * np.array([0.6, 0.3, 0.1])
        result = solve_potential(inst, Linear(u))
        assert result.converged
        assert np.max(np.abs(result.x.x - expect)) <= 1e-6

    def test_single_voter_power_closed_form(self):
        # One voter, equal exponents a: the equilibrium maximizes the voter's
        # utility, so x_j is proportional to u_j^{1/(1-a)}.
        u = np.array([[0.6, 0.3, 0.1]])
        a = 0.5
        inst = Instance(utilities=u, budget=2.0)
        model = PowerSum(u, np.full(3, a))
        result = solve_potential(inst, model)
        w = u[0] ** (1.0 / (1.0 - a))
        expect = 2.0 * w / w.sum()
        assert result.converged
        assert np.max(np.abs(result.x.x - expect)) <= 1e-6

    def test_power_sum_residuals_meet_tolerance(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(0.1, 1.0, size=(25, 4))
        inst = Instance(utilities=u, budget=1.5)
        model = PowerSum(u, np.array([0.4, 0.6, 0.8, 0.9]))
        result = solve_potential(inst, model)
        assert result.converged
        assert max_condition_violation(inst, model, result.x.x, floor=1e-10) <= 1e-8

    def test_hard_saturating_has_no_route(self):
        inst = Instance(
            utilities=[[1.0, 1.0]], budget=1.0, sizes=np.array([0.6, 0.6])
        )
        with pytest.raises(ModelError, match="non-satiating"):
            solve_potential(inst, Saturating(inst.utilities, inst.sizes))

    def test_unvalued_item_with_small_exponent_reaches_the_floor(self):
        # Item 2 is valued by nobody.  With alpha < 1 its spend must fall
        # by orders of magnitude to clear the funded rule (10 * 1e-12 * B).
        u = np.array([[1, 0, 0, 0, 0], [0, 1, 0, 1, 1]], dtype=float)
        inst = Instance(utilities=u, budget=1000.0)
        model = PowerSum(u, 0.31)
        cfg = SolverConfig()
        result = solve_potential(inst, model, cfg)
        assert result.converged
        assert certify_from_residual(inst, model, result.x).epsilon <= cfg.residual_tol
        assert result.x.x[2] <= 10 * 1e-12 * inst.budget

    def test_respects_custom_tolerance(self):
        inst = cd_instance(n=15, k=4, seed=9, budget=1.0)
        model = make_model(inst, "linear")
        loose = solve_potential(inst, model, SolverConfig(residual_tol=1e-4))
        assert loose.converged
        assert max_condition_violation(inst, model, loose.x.x) <= 1e-4

    @pytest.mark.parametrize("budget", [1.0, 1e3, 1e6, 1e9])
    def test_more_items_than_voters_at_every_budget(self, budget):
        # Item 5 is every voter's best value per dollar, so the equilibrium
        # spends all of B on it.  The cap keeps a stalled solve short.
        u = np.array([[0.53, 0.17, 0.32, 0.32, 0.42, 0.70, 0.30],
                      [0.32, 0.13, 0.56, 0.42, 0.93, 0.90, 0.82],
                      [0.75, 0.98, 0.15, 0.21, 0.58, 0.77, 0.29],
                      [1.00, 0.68, 0.30, 0.86, 0.70, 0.65, 0.61]])
        result = solve_potential(Instance(utilities=u, budget=budget), Linear(u),
                                 SolverConfig(max_iters=100))
        assert result.converged
        assert result.iterations <= 20
        np.testing.assert_allclose(result.x.x / budget, np.eye(7)[5], rtol=0, atol=1e-9)

    def test_smoothed_steps_stay_within_the_budget(self):
        # Draw 21 of the smoothed corpus (n=18, k=42, B = 0.2715): past its cap
        # a smoothed item's spend grows like z^(1/eps), and a step that sent
        # one far past B once took over 200 iterations to drain.
        inst, model = next(itertools.islice(smoothed(1), 21, None))
        assert (inst.n, inst.k) == (18, 42)
        result = solve_potential(inst, model)
        assert result.converged
        assert result.iterations <= 60

    def test_a_step_that_leaves_phi_unchanged_is_refused(self):
        # Draw 232 of scaled(0) (n=54, k=6, one exponent per item): a step
        # accepted with Phi unchanged is tried again from the same point until
        # max_iters.
        inst, model = next(itertools.islice(scaled(0), 232, None))
        assert (inst.n, inst.k) == (54, 6)
        result = solve_potential(inst, model, SolverConfig(max_iters=100))
        assert result.converged


# Draws 100-149 of each stress corpus at its first seed, and their ratio
# calls per family when this slice was committed.  Judging steps by Phi down
# to a violation of 1e-1 stops smoothed draw 110 unconverged; never judging
# them by the violation above 1e-3 stops scaled draw 112; judging every step
# by Phi first more than doubles the power-sum calls.
CORPUS_SLICE = (100, 150)
SLICE_RATIO_CALLS = {"linear": 4_646, "powersum": 445, "smoothed": 6_768}


def test_corpus_slice_converges_within_its_work():
    calls = dict.fromkeys(SLICE_RATIO_CALLS, 0)
    for corpus in SOLVER_CORPORA:
        draw, seeds = CORPORA[corpus]
        for inst, model in itertools.islice(draw(seeds[0]), *CORPUS_SLICE):
            result, made = solve_counted(inst, model)
            assert result.converged
            calls[family(model)] += made
    over = {f: calls[f] for f, bound in SLICE_RATIO_CALLS.items() if calls[f] > 1.25 * bound}
    assert over == {}


# ---------------------------------------------------------------------------
# Price recovery
# ---------------------------------------------------------------------------


class TestPrices:
    def test_rows_cost_equal_share(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.1, 1.0, size=(12, 4))
        inst = Instance(utilities=u, budget=3.0)
        result = solve_potential(inst, Linear(u))
        prices = supporting_prices(inst, Linear(u), result.x)
        spend = prices @ result.x.x
        assert spend == pytest.approx(np.full(12, 3.0 / 12), rel=1e-9)

    def test_item_price_sums_near_one(self):
        inst = disjoint_instance([4, 6], budget=1.0)
        result = solve_potential(inst, Linear(inst.utilities))
        prices = supporting_prices(inst, Linear(inst.utilities), result.x)
        assert prices.sum(axis=0) == pytest.approx(np.ones(2), abs=1e-7)


# ---------------------------------------------------------------------------
# Determinism across BLAS thread counts
# ---------------------------------------------------------------------------

BLAS_PROBE = """
from budgetcore.ballots import gen_synthetic
from budgetcore.lindahl import solve_potential
from budgetcore.model import make_model
inst = gen_synthetic("k-approval", n=20000, k=30, seed=1, budget=1e6)
for family, params in (("linear", {}), ("powersum", {"alpha": 0.5}),
                       ("smoothed", {"eps_smooth": 0.1})):
    r = solve_potential(inst, make_model(inst, family, **params))
    print(family, r.x.x.tobytes().hex(), r.residuals.tobytes().hex())
"""


def test_solve_is_identical_across_blas_thread_counts():
    """x and the residuals carry the same bits with 1 and 2 OpenBLAS threads.

    OpenBLAS splits a reduction over 20000 voters across its threads, which
    moves the last bits of the sum, so a solver that summed over voters with
    BLAS fails here, but only where OpenBLAS gets at least 2 CPUs.  The
    thread count is set in each child's environment only.
    """
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        outputs.append(subprocess.run(
            [sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True,
            env=env, check=True, timeout=120,
        ).stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]
