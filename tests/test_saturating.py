"""Saturating utilities: the smoothed relaxation and the worst-item heuristic."""

import numpy as np
import pytest

from budgetcore import saturating
from budgetcore.ballots import gen_synthetic
from budgetcore.lindahl import lindahl_residuals, solve_potential
from budgetcore.model import Instance, SmoothedSaturating
from budgetcore.saturating import HeuristicConfig, heuristic_solve, smoothing_alpha


def approval_instance(n=50, k=8, seed=0, budget=1.0):
    return gen_synthetic("k-approval", n=n, k=k, seed=seed, budget=budget)


def heuristic_bounds(inst, result):
    """Bracket the heuristic's convergence metric from its returned solution.

    Saturated items are judged one-sidedly only while pinned, and pin state is
    internal; treating all saturated items one-sidedly (lower) and none
    (upper) brackets whatever the solver reported.
    """
    u = result.perturbed_utilities
    x, y = result.x.x, result.y
    sizes = inst.sizes
    denom = u @ (x * y)
    lhs = (inst.budget / inst.n) * y * (u.T @ (1.0 / denom))
    over = lhs - 1.0
    unfunded = x == 0.0
    saturated = np.abs(x - sizes) <= 1e-12 * sizes
    upper = np.where(unfunded, np.maximum(over, 0.0), np.abs(over))
    lower = np.where(
        unfunded,
        np.maximum(over, 0.0),
        np.where(saturated, np.maximum(-over, 0.0), np.abs(over)),
    )
    return float(lower.max()), float(upper.max())


class TestConfig:
    def test_defaults_scale_with_instance(self):
        eps, pert = HeuristicConfig().resolve(n=40, k=5)
        assert eps == pytest.approx(1.0 / 40)
        assert pert == pytest.approx(1.0 / 25)

    def test_explicit_values_pass_through(self):
        cfg = HeuristicConfig(eps_target=0.01, perturb_alpha=0.0)
        assert cfg.resolve(10, 10) == (0.01, 0.0)

    @pytest.mark.parametrize("value", [0, -2, 2.5, "3", None])
    def test_max_sweeps_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="max_sweeps"):
            HeuristicConfig(max_sweeps=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, "0.01"])
    def test_eps_target_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="eps_target"):
            HeuristicConfig(eps_target=value)

    @pytest.mark.parametrize("value", [-1e-3, np.nan, np.inf, -np.inf, "0"])
    def test_perturb_alpha_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="perturb_alpha"):
            HeuristicConfig(perturb_alpha=value)


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
        lower, upper = heuristic_bounds(inst, result)
        final = result.max_violation_trace[-1][1]
        assert lower - 1e-12 <= final <= upper + 1e-12

    def test_deterministic_given_seed(self):
        inst = approval_instance(n=30, k=5, seed=1)
        a = heuristic_solve(inst, HeuristicConfig(seed=7))
        b = heuristic_solve(inst, HeuristicConfig(seed=7))
        assert np.array_equal(a.x.x, b.x.x) and np.array_equal(a.y, b.y)

    def test_perturbation_is_bounded(self):
        inst = approval_instance(n=20, k=5, seed=0)
        result = heuristic_solve(inst)
        delta = result.perturbed_utilities - inst.utilities
        assert np.all(delta >= 0.0) and np.all(delta <= 1.0 / 25 + 1e-12)

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
        return 0.0, slope, False
    if lhs_x(s_j) >= 1.0:
        lhs_y = lambda yj: lhs(yj, u_col * s_j * yj)  # noqa: E731
        lo, hi = 1e-12 * slope, slope
        if lhs_y(lo) >= 1.0:
            return s_j, slope, True
        while hi - lo > tol * slope:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if lhs_y(mid) < 1.0 else (lo, mid)
        return s_j, 0.5 * (lo + hi), False
    lo, hi = 0.0, s_j
    while hi - lo > tol * max(s_j, 1.0):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if lhs_x(mid) > 1.0 else (lo, mid)
    return 0.5 * (lo + hi), slope, False


def branch(x, s_j, pinned):
    if x == 0.0:
        return "unfunded"
    if x < s_j:
        return "interior"
    return "pinned" if pinned else "saturating"


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
            got = saturating._resolve_item(u, s_j, rest, scale, tol)
            assert branch(got[0], s_j, got[2]) == branch(want[0], s_j, want[2])
            assert abs(got[0] - want[0]) <= tol * max(s_j, 1.0)
            assert abs(got[1] - want[1]) <= tol / s_j
            seen.add(branch(want[0], s_j, want[2]))
        assert seen == {"unfunded", "interior", "saturating", "pinned"}

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
        return 0.0, slope, False
    if gaps(s_j, slope)[0] < 0.0:
        xj = saturating._decreasing_root(lambda x: gaps(x, slope)[:2], 0.0, s_j, at_zero,
                                         tol * max(s_j, 1.0))
        return xj, slope, False
    lo = saturating._Y_BRACKET_FLOOR * slope
    at_lo = gaps(s_j, lo)[2:]
    if at_lo[0] <= 0.0:
        return s_j, slope, True
    yj = saturating._decreasing_root(lambda y: gaps(s_j, y)[2:], lo, slope, at_lo, tol * slope)
    return s_j, yj, False


def reference_heuristic(inst, cfg):
    """The worst-item sweep with every quantity recomputed from scratch, kept
    as the reference for ``heuristic_solve``'s carried denominators and
    reciprocal-form item re-solve.

    Every sweep forms u @ (x*y) afresh and every root evaluation
    u / (rest + u x y) on the gathered support; the root finder is the same
    safeguarded Newton.  Returns (x, trace, converged).
    """
    sizes, n, k, B = inst.sizes, inst.n, inst.k, inst.budget
    eps_target, perturb = cfg.resolve(n, k)
    rng = np.random.default_rng(cfg.seed)
    u = inst.utilities.copy()
    if perturb > 0:
        u = u + rng.uniform(0.0, perturb, size=u.shape)
    scale = B / n
    x, y = np.minimum(sizes, B / k), 1.0 / sizes
    pinned = np.zeros(k, dtype=bool)
    trace, best, converged = [], (np.inf, x.copy(), y.copy()), False
    for sweep in range(1, cfg.max_sweeps + 1):
        contrib = x * y
        denom = u @ contrib
        with np.errstate(divide="ignore"):
            over = scale * y * (u.T @ (1.0 / denom)) - 1.0
        viol = np.where(x == 0.0, np.maximum(over, 0.0),
                        np.where(pinned, np.maximum(-over, 0.0), np.abs(over)))
        trace.append((sweep, float(viol.max())))
        if trace[-1][1] < best[0]:
            best = (trace[-1][1], x.copy(), y.copy())
        if trace[-1][1] <= eps_target:
            converged = True
            break
        j = int(np.argmax(viol))
        rest = denom - u[:, j] * contrib[j]
        x[j], y[j], pin = direct_resolve(u[:, j], float(sizes[j]), rest, scale,
                                         saturating._ROOT_TOL)
        pinned[:] = False
        pinned[j] = pin
    if not converged:
        _, x, y = best
    return x, trace, converged


class TestReferenceSweep:
    @pytest.mark.parametrize("n", [200, 2000])
    def test_matches_from_scratch_reference(self, n):
        for seed in range(5):
            inst = gen_synthetic("k-approval", n=n, k=10, seed=seed)
            cfg = HeuristicConfig(seed=seed)
            got = heuristic_solve(inst, cfg)
            x, trace, converged = reference_heuristic(inst, cfg)
            assert len(got.max_violation_trace) == len(trace)
            assert got.converged == converged
            assert np.abs(got.x.x - x).max() <= 1e-9 * inst.budget

    def test_kept_denominators_do_not_drift(self):
        # 2000 unconverged sweeps each update the denominators in place; the
        # violation they report for the returned iterate must still be the
        # one recomputed from scratch.  At most one saturated item is pinned
        # (one-sided), and which one is internal, so every choice is tried.
        inst = gen_synthetic("k-approval", n=2000, k=10, seed=5)
        result = heuristic_solve(inst, HeuristicConfig(eps_target=1e-13, max_sweeps=2000, seed=5))
        assert not result.converged and len(result.max_violation_trace) == 2000
        u, x, y = result.perturbed_utilities, result.x.x, result.y
        over = (inst.budget / inst.n) * y * (u.T @ (1.0 / (u @ (x * y)))) - 1.0
        viol = np.where(x == 0.0, np.maximum(over, 0.0), np.abs(over))
        saturated = np.flatnonzero(x == inst.sizes)
        candidates = [viol.max()] + [
            np.where(np.arange(inst.k) == j, max(-over[j], 0.0), viol).max() for j in saturated
        ]
        reported = min(v for _, v in result.max_violation_trace)
        assert min(abs(reported - c) for c in candidates) <= 1e-12
