"""Randomized mechanism: feasible geometry, scoring, sampling, manipulation.

The sampler is validated in total variation against the target density
discretized by brute-force cell integration (k=2 keeps that tractable), at
k=3 against the moments and a marginal of its uniform limit, and
the manipulation harness against the design property that identical reports
produce bitwise-identical chains (so the truth-vs-truth gain is exactly zero).
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from budgetcore import mechanism
from budgetcore.mechanism import (
    FeasibleSet,
    InfeasibleError,
    MechanismConfig,
    MechanismError,
    RejectionCapError,
    approximation_certificate,
    manipulation_sweep,
    normalize_instance,
    privacy_precondition_ok,
    proportional_fairness_point,
    sample_chain,
    sample_mechanism,
    score_q,
)
from budgetcore.ballots import gen_synthetic
from budgetcore.lindahl import lindahl_residuals
from budgetcore.model import Instance, Linear


def normalized_instance(u, budget=1.0):
    u = np.asarray(u, dtype=float)
    u = u / u.sum(axis=1, keepdims=True)
    return Instance(utilities=u, budget=budget)


def inner_value(inst, x, cfg):
    """max_y sum_i U_i(y)/U_i(x) over the floored simplex, read off the score
    q = n - n^(-gamma) * max."""
    return (inst.n - score_q(inst, x, cfg)) / inst.n ** -cfg.gamma


def row_wise_chord(fs, X, D):
    """The chord with its k+1 constraints along axis 1 and a masked max and min
    per row: the reference that ``FeasibleSet.chord`` must match bit for bit."""
    H = np.concatenate([D, -D.sum(axis=1, keepdims=True)], axis=1)
    num = np.concatenate([fs.lower_bound - X, X.sum(axis=1, keepdims=True) - 1.0], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / H
    t_lo = r.max(axis=1, where=H > 0, initial=-np.inf)
    t_hi = r.min(axis=1, where=H < 0, initial=np.inf)
    return t_lo, np.maximum(t_hi, t_lo)


def per_voter_q(u, fs, X, agent=None, reports=None):
    """q(x) = n - lb * max_j sum_i (lb + slack * u_ij) / (u_i . x), one voter at a
    time; with an ``agent``, chain c's copy of u holds ``reports[c]`` in its row.
    The reference that ``_Scorer.q``, which scores distinct rows, must match."""
    out = []
    for c, x in enumerate(X):
        rows = u.copy()
        if agent is not None:
            rows[agent] = reports[c]
        inner = sum((fs.lower_bound + fs.slack * row) / (row @ x) for row in rows)
        out.append(fs.n - fs.lower_bound * inner.max())
    return np.array(out)


TV_INSTANCE = normalized_instance([[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]])
TV_CFG = MechanismConfig(gamma=0.8, epsilon_priv=1.0, chain_steps=1000, burn_in=300, seed=7)


def tv_against_target(inst, cfg, n_samples, n_chains, thin, grid=50, sub=8):
    """Total variation between pooled samples and the brute-force target.

    Discretizes the k=2 feasible triangle into ``grid`` x ``grid`` cells over
    [lb, 1-lb]^2, integrates exp(eps * q) by midpoint subsampling each cell,
    and compares cell masses with the empirical histogram.
    """
    fs = FeasibleSet(inst.n, inst.k, cfg.gamma)
    lb = fs.lower_bound
    lo, hi = lb, 1.0 - lb
    edges = np.linspace(lo, hi, grid + 1)
    width = (hi - lo) / grid

    # Midpoint subsample grid for every cell at once.
    off = (np.arange(sub) + 0.5) / sub * width
    cell_x = edges[:-1][:, None] + off[None, :]          # (grid, sub)
    pts1 = cell_x.reshape(-1)
    P1, P2 = np.meshgrid(pts1, pts1, indexing="ij")
    pts = np.column_stack([P1.ravel(), P2.ravel()])
    inside = pts.sum(axis=1) <= 1.0
    q = np.full(pts.shape[0], -np.inf)
    q[inside] = mechanism._Scorer(inst.utilities, fs).q(pts[inside])  # score_q, batched
    dens = np.where(inside, np.exp(cfg.epsilon_priv * (q - q[inside].max())), 0.0)
    cells = dens.reshape(grid, sub, grid, sub).sum(axis=(1, 3))
    target = (cells / cells.sum()).ravel()

    samples, _ = sample_chain(inst, cfg, n_samples, n_chains=n_chains, thin=thin)
    i = np.clip(((samples[:, 0] - lo) / width).astype(int), 0, grid - 1)
    j = np.clip(((samples[:, 1] - lo) / width).astype(int), 0, grid - 1)
    hist = np.zeros((grid, grid))
    np.add.at(hist, (i, j), 1.0)
    emp = (hist / hist.sum()).ravel()
    return 0.5 * float(np.abs(target - emp).sum())


# ---------------------------------------------------------------------------
# Configuration and geometry
# ---------------------------------------------------------------------------


class TestConfig:
    def test_validation(self):
        for kw in (
            dict(gamma=0.0),
            dict(gamma=1.0),
            dict(epsilon_priv=0.0),
            dict(chain_steps=0),
            dict(burn_in=-1),
        ):
            with pytest.raises(MechanismError):
                MechanismConfig(**kw)

    def test_burn_in_checked_only_where_chain_steps_bounds_it(self):
        # The single draw and sample_chain never compare burn_in with
        # chain_steps; manipulation_sweep runs chain_steps steps and averages
        # those after burn_in, so it needs at least one.
        cfg = MechanismConfig(gamma=0.8, chain_steps=50, burn_in=50, seed=1)
        sample_mechanism(TV_INSTANCE, cfg)
        sample_chain(TV_INSTANCE, cfg, 10, n_chains=5)
        with pytest.raises(MechanismError, match="burn_in must be below chain_steps"):
            manipulation_sweep(TV_INSTANCE, 0, TV_INSTANCE.utilities[1], cfg, trials=2)


class TestFeasibleSet:
    def test_floor_and_slack(self):
        fs = FeasibleSet(n=100, k=3, gamma=0.5)
        assert fs.lower_bound == pytest.approx(0.1)
        assert fs.slack == pytest.approx(0.7)
        assert fs.center() == pytest.approx(np.full(3, 0.1 + 0.7 / 3))

    def test_infeasible_floor(self):
        # 2 * 3^-0.5 = 1.155 > 1: the floor alone overruns the budget.
        with pytest.raises(InfeasibleError, match="exceeds the unit budget"):
            FeasibleSet(n=3, k=2, gamma=0.5)
        FeasibleSet(n=3, k=2, gamma=0.8)  # 2 * 3^-0.8 = 0.83: fine

    def test_degenerate_interior(self):
        fs = FeasibleSet(n=4, k=2, gamma=0.5)  # floor exactly fills the budget
        assert fs.slack == pytest.approx(0.0)
        with pytest.raises(InfeasibleError, match="single point"):
            fs.require_interior()
        # A floor over the budget by less than the tolerance leaves no slack,
        # not a negative one.
        fs = FeasibleSet(n=4, k=2, gamma=0.5 - 3e-10)
        assert 1.0 < 2 * fs.lower_bound <= 1.0 + 1e-9
        assert fs.slack == 0.0

    @pytest.mark.parametrize("n, k, gamma, match", [
        (0, 2, 0.5, "at least one voter"), (5, 0, 0.5, "at least one voter"),
        (5, 2, 0.0, "gamma must lie"), (5, 2, 1.0, "gamma must lie"),
    ])
    def test_rejects_empty_sets_and_gamma_outside_unit_interval(self, n, k, gamma, match):
        with pytest.raises(MechanismError, match=match):
            FeasibleSet(n=n, k=k, gamma=gamma)

    def test_contains(self):
        fs = FeasibleSet(n=100, k=2, gamma=0.5)
        assert fs.contains(np.array([0.4, 0.4]))
        assert not fs.contains(np.array([0.05, 0.4]))   # below floor
        assert not fs.contains(np.array([0.6, 0.5]))    # over budget
        batch = np.array([[0.3, 0.3], [0.99, 0.99]])
        assert list(fs.contains(batch)) == [True, False]

    def test_uniform_draws_inside(self):
        fs = FeasibleSet(n=50, k=3, gamma=0.6)
        rng = np.random.default_rng(0)
        X = fs.uniform(rng, 500)
        assert X.shape == (500, 3)
        assert fs.contains(X).all()
        Y = fs.uniform(np.random.default_rng(0), 500)
        assert np.array_equal(X, Y)

    def test_chord_endpoints(self):
        fs = FeasibleSet(n=80, k=3, gamma=0.5)
        rng = np.random.default_rng(4)
        X = fs.uniform(rng, 200)
        D = rng.normal(size=(200, 3))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        t_lo, t_hi = fs.chord(X, D)
        assert np.all(t_lo <= 1e-12) and np.all(t_hi >= -1e-12)
        for t in (t_lo, t_hi):
            at_edge = X + t[:, None] * D
            assert fs.contains(at_edge, tol=1e-7).all()
        # Stepping past either endpoint must leave the set.
        past_hi = X + (t_hi[:, None] + 1e-6) * D
        past_lo = X + (t_lo[:, None] - 1e-6) * D
        assert not fs.contains(past_hi, tol=1e-9).any()
        assert not fs.contains(past_lo, tol=1e-9).any()

    @pytest.mark.parametrize("k", [2, 3, 6, 12])
    def test_chord_matches_row_wise_reference_bitwise(self, k):
        fs = FeasibleSet(n=400, k=k, gamma=0.5)
        rng = np.random.default_rng(k)
        X = fs.uniform(rng, 300)
        D = rng.normal(size=(300, k))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        X[:40, 0] = fs.lower_bound             # one coordinate on the floor
        X[40:50] = fs.lower_bound              # the all-floor vertex
        D[50:100, k - 1] = 0.0                 # an exact zero component
        D[100:110] = 0.0                       # no direction at all
        D[110:120] = 0.0
        D[110:120, 0], D[110:120, 1] = 1.0, -1.0  # sum(x) stays fixed: H[k] = 0
        t_lo, t_hi = fs.chord(X, D)
        want_lo, want_hi = row_wise_chord(fs, X, D)
        assert t_lo.tobytes() == want_lo.tobytes()
        assert t_hi.tobytes() == want_hi.tobytes()
        assert np.all(t_lo[100:110] == -np.inf) and np.all(t_hi[100:110] == np.inf)
        assert np.isfinite(t_lo[110:120]).all() and np.isfinite(t_hi[110:120]).all()


class TestNormalization:
    def test_normalize_instance(self):
        inst = Instance(utilities=[[2.0, 2.0], [1.0, 3.0]], budget=5.0)
        norm = normalize_instance(inst)
        assert norm.budget == 1.0
        assert np.allclose(norm.utilities.sum(axis=1), 1.0)
        assert norm.utilities[1] == pytest.approx([0.25, 0.75])

    def test_raw_instance_rejected_by_scoring(self):
        inst = Instance(utilities=[[2.0, 2.0]], budget=5.0)
        with pytest.raises(MechanismError, match="normalized"):
            score_q(inst, np.array([0.4, 0.4]), MechanismConfig())
        for raw in (Instance(utilities=[[0.5, 0.5]], budget=2.0),
                    Instance(utilities=[[2.0, 2.0]], budget=1.0)):
            with pytest.raises(MechanismError, match="normalized"):
                score_q(raw, np.array([0.4, 0.4]), MechanismConfig())


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


class TestScore:
    cfg = MechanismConfig(gamma=0.5, epsilon_priv=1.0)

    def test_single_voter_single_item(self):
        inst = normalized_instance([[1.0]])
        assert inner_value(inst, np.array([1.0]), self.cfg) == pytest.approx(1.0)

    def test_inner_max_matches_vertex_enumeration(self):
        # The inner objective is linear in y, so its maximum sits at one of
        # the k+1 polytope vertices; enumerate them directly.
        rng = np.random.default_rng(5)
        for trial in range(20):
            n, k = int(rng.integers(9, 60)), int(rng.integers(2, 4))
            u = rng.uniform(0.01, 1.0, size=(n, k))
            inst = normalized_instance(u)
            fs = FeasibleSet(n, k, 0.5)
            x = fs.uniform(rng, 1)[0]
            value = inner_value(inst, x, self.cfg)
            U = inst.utilities @ x
            vertices = [np.full(k, fs.lower_bound)]
            for j in range(k):
                v = np.full(k, fs.lower_bound)
                v[j] += fs.slack
                vertices.append(v)
            brute = max(float((inst.utilities @ v / U).sum()) for v in vertices)
            assert value == pytest.approx(brute, rel=1e-12)

    # k-approval ballots repeat (15 distinct rows among 200); uniform rows do not.
    KAPPROVAL = normalize_instance(gen_synthetic("k-approval", n=200, k=6, seed=3))
    DISTINCT = normalized_instance(np.random.default_rng(6).uniform(0.05, 1.0, (60, 4)))

    @pytest.mark.parametrize("inst, agent, shared", [
        (KAPPROVAL, None, None),
        (DISTINCT, None, None),
        (KAPPROVAL, 0, True),
        (DISTINCT, 7, False),  # the agent's row loses its only count
    ])
    def test_distinct_row_scores_match_the_per_voter_formula(self, inst, agent, shared):
        u = inst.utilities
        if agent is not None:
            assert ((u == u[agent]).all(axis=1).sum() > 1) == shared
        fs = FeasibleSet(inst.n, inst.k, 0.5)
        rng = np.random.default_rng(9)
        X = fs.uniform(rng, 30)
        reports = None if agent is None else rng.dirichlet(np.ones(inst.k), 30)
        q = mechanism._Scorer(u, fs, agent=agent, override=reports).q(X)
        assert q == pytest.approx(per_voter_q(u, fs, X, agent, reports), rel=1e-12)

    def test_score_range(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(0.05, 1.0, size=(40, 3))
        inst = normalized_instance(u)
        fs = FeasibleSet(40, 3, 0.5)
        X = fs.uniform(rng, 1000)
        qmax = 40 - 40**0.5
        for x in X:
            q = score_q(inst, x, self.cfg)
            assert -1e-9 <= q <= qmax + 1e-9

    def test_score_concave_on_chords(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.05, 1.0, size=(25, 3))
        inst = normalized_instance(u)
        fs = FeasibleSet(25, 3, 0.5)
        A, B = fs.uniform(rng, 200), fs.uniform(rng, 200)
        lam = rng.uniform(0.0, 1.0, size=200)
        for a, b, t in zip(A, B, lam):
            mid = t * a + (1 - t) * b
            q_mid = score_q(inst, mid, self.cfg)
            bound = t * score_q(inst, a, self.cfg) + (1 - t) * score_q(inst, b, self.cfg)
            assert q_mid >= bound - 1e-9

    def test_unit_sensitivity_in_one_report(self):
        # Swapping a single voter's report moves q by at most 1.
        rng = np.random.default_rng(3)
        n, k = 30, 3
        u = rng.uniform(0.05, 1.0, size=(n, k))
        inst = normalized_instance(u)
        u2 = inst.utilities.copy()
        u2[0] = rng.dirichlet(np.ones(k))
        inst2 = Instance(utilities=u2, budget=1.0)
        fs = FeasibleSet(n, k, 0.5)
        X = fs.uniform(rng, 300)
        for x in X:
            d = abs(score_q(inst, x, self.cfg) - score_q(inst2, x, self.cfg))
            assert d <= 1.0 + 1e-9

    def test_membership_enforced(self):
        inst = normalized_instance([[0.6, 0.4]] * 30)
        with pytest.raises(MechanismError, match="floored simplex"):
            score_q(inst, np.array([0.001, 0.5]), self.cfg)


class TestPrecondition:
    def test_threshold(self):
        assert privacy_precondition_ok(100, 3, 1.0)
        assert not privacy_precondition_ok(100, 3, 2.0)
        assert not privacy_precondition_ok(9, 3, 0.1)   # n <= k^2
        assert not privacy_precondition_ok(10, 3, 0.1)  # n - k^2 = 1: too tight
        assert privacy_precondition_ok(10, 3, 0.01)

    def test_certificate_at_fairness_point(self):
        inst = normalized_instance(np.random.default_rng(0).uniform(0.1, 1, (100, 3)))
        cfg = MechanismConfig(gamma=0.5, epsilon_priv=1.0)
        x = proportional_fairness_point(inst, cfg)
        bound = approximation_certificate(inst, x, cfg)
        lb = 100**-0.5
        assert bound == pytest.approx((3 - 1) * lb / (1 - 3 * lb), abs=1e-9)

    def test_certificate_rejects_large_epsilon(self):
        inst = normalized_instance(np.ones((100, 3)))
        cfg = MechanismConfig(gamma=0.5, epsilon_priv=5.0)
        with pytest.raises(MechanismError, match="epsilon_priv too large"):
            approximation_certificate(inst, np.full(3, 0.3), cfg)

    def test_certificate_accepts_budget_units(self):
        u = np.random.default_rng(1).uniform(0.1, 1, (64, 2))
        inst_unit = normalized_instance(u, budget=1.0)
        inst_money = Instance(utilities=inst_unit.utilities, budget=250.0)
        cfg = MechanismConfig(gamma=0.5, epsilon_priv=0.5)
        x = proportional_fairness_point(inst_unit, cfg)
        a = approximation_certificate(inst_unit, x, cfg)
        b = approximation_certificate(inst_money, x * 250.0, cfg)
        assert a == pytest.approx(b, rel=1e-12)


class TestFairnessPoint:
    def test_score_reaches_maximum(self):
        rng = np.random.default_rng(6)
        cfg = MechanismConfig(gamma=0.5, epsilon_priv=1.0)
        for n, k in ((16, 2), (50, 2), (100, 3), (60, 4)):
            inst = normalized_instance(rng.uniform(0.05, 1.0, size=(n, k)))
            x = proportional_fairness_point(inst, cfg)
            value = inner_value(inst, x, cfg)
            # Certified gap: q is within lb * (value - n) of its max.
            assert value - n <= 1e-6
            q = score_q(inst, x, cfg)
            assert q == pytest.approx(n - n ** 0.5, abs=1e-6)

    def test_zero_slack_returns_the_floor(self):
        # n=4, k=2, gamma=0.5: the floor 4^-0.5 = 0.5 fills the budget.
        inst = normalized_instance(np.random.default_rng(3).uniform(0.1, 1.0, (4, 2)))
        x = proportional_fairness_point(inst, MechanismConfig(gamma=0.5))
        assert x.tolist() == [0.5, 0.5]

    def test_majority_profile(self):
        inst = gen_synthetic("figure2a", n=50)
        x = proportional_fairness_point(inst, MechanismConfig(gamma=0.5))
        value = inner_value(inst, x, MechanismConfig(gamma=0.5))
        assert value - 50 <= 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_meets_documented_tol_at_boston_scale(self, seed):
        # The default tol is 1e-8 * n^gamma on the inner-max gap.
        n, gamma = 2054, 0.5
        inst = normalize_instance(gen_synthetic("k-approval", n=n, k=10, seed=seed))
        cfg = MechanismConfig(gamma=gamma)
        x = proportional_fairness_point(inst, cfg)
        value = inner_value(inst, x, cfg)
        assert value - n <= 1e-8 * n**gamma

    def test_unreachable_tol_raises(self):
        # 1e-13 on the inner-max gap is below what float64 reaches at this
        # size; the point must not come back silently above it.
        inst = normalize_instance(gen_synthetic("k-approval", n=2054, k=10, seed=3))
        with pytest.raises(MechanismError, match=r"short of tol 1e-13; the inner-max gap"):
            proportional_fairness_point(inst, MechanismConfig(gamma=0.5), tol=1e-13)

    def test_inner_gap_is_n_times_shifted_residual(self):
        # On the face sum(x) = 1, x = lb + w, the inner-max gap equals n times
        # the largest equilibrium residual of the instance u + lb/slack with
        # budget slack at w: the identity the fairness point's stopping rule uses.
        rng = np.random.default_rng(11)
        for n, k, gamma in ((40, 3, 0.5), (200, 6, 0.5), (30, 2, 0.8)):
            inst = normalized_instance(rng.uniform(0.0, 1.0, size=(n, k)))
            cfg = MechanismConfig(gamma=gamma)
            fs = FeasibleSet(n, k, gamma)
            lb, slack = fs.lower_bound, fs.slack
            shifted = Instance(utilities=inst.utilities + lb / slack, budget=slack)
            for _ in range(20):
                w = slack * rng.dirichlet(np.ones(k))
                value = inner_value(inst, lb + w, cfg)
                r = lindahl_residuals(shifted, Linear(shifted.utilities), w)
                assert value - n == pytest.approx(n * r.max(), rel=1e-9, abs=1e-9 * n)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_single_draw_deterministic(self):
        cfg = MechanismConfig(gamma=0.8, epsilon_priv=1.0, chain_steps=300,
                              burn_in=100, seed=5)
        a, diag_a = sample_mechanism(TV_INSTANCE, cfg)
        b, _ = sample_mechanism(TV_INSTANCE, cfg)
        assert np.array_equal(a.x, b.x)
        c, _ = sample_mechanism(TV_INSTANCE, MechanismConfig(
            gamma=0.8, epsilon_priv=1.0, chain_steps=300, burn_in=100, seed=6))
        assert not np.array_equal(a.x, c.x)
        assert diag_a["chains"] == 1
        assert {"score", "accept_rate", "epsilon_priv", "gamma", "seed"} <= set(diag_a)

    def test_draw_respects_budget_units(self):
        inst = Instance(utilities=TV_INSTANCE.utilities, budget=400.0)
        cfg = MechanismConfig(gamma=0.8, epsilon_priv=1.0, chain_steps=200,
                              burn_in=50, seed=2)
        a, _ = sample_mechanism(inst, cfg)
        fs = FeasibleSet(3, 2, 0.8)
        assert fs.contains(a.x / 400.0, tol=1e-9)

    def test_chain_shapes_and_determinism(self):
        samples, diag = sample_chain(TV_INSTANCE, TV_CFG, 900, n_chains=40, thin=2)
        assert samples.shape == (900, 2)
        assert diag["collected"] == 900 and diag["thin"] == 2
        again, _ = sample_chain(TV_INSTANCE, TV_CFG, 900, n_chains=40, thin=2)
        assert np.array_equal(samples, again)
        fs = FeasibleSet(3, 2, 0.8)
        assert fs.contains(samples).all()

    def test_sampler_matches_target_tv(self):
        tv = tv_against_target(TV_INSTANCE, TV_CFG, n_samples=100_000,
                               n_chains=200, thin=3, grid=50)
        assert tv <= 0.05

    def test_uniform_limit(self):
        # epsilon -> 0 makes the density flat; compare against the exact
        # uniform cell areas of the feasible triangle.
        cfg = MechanismConfig(gamma=0.8, epsilon_priv=1e-9, chain_steps=1000,
                              burn_in=300, seed=11)
        tv = tv_against_target(TV_INSTANCE, cfg, n_samples=60_000,
                               n_chains=150, thin=3, grid=30)
        assert tv <= 0.05

    def test_uniform_limit_k3(self):
        # epsilon -> 0 makes the density flat.  On the k=3 floored simplex the
        # slack shares w = (x - lb) / slack are then Dirichlet(1, 1, 1, 1):
        # each has mean 1/4 and the unspent share 1 - sum(w) is Beta(1, 3).
        u = np.random.default_rng(0).uniform(0.1, 1.0, (100, 3))
        inst = normalized_instance(u)
        cfg = MechanismConfig(gamma=0.5, epsilon_priv=1e-9, chain_steps=1000,
                              burn_in=300, seed=29)
        samples, _ = sample_chain(inst, cfg, 20_000, n_chains=100, thin=2)
        fs = FeasibleSet(100, 3, 0.5)
        w = (samples - fs.lower_bound) / fs.slack
        assert np.abs(w.mean(axis=0) - 0.25).max() <= 0.02
        ks = kstest(1.0 - w.sum(axis=1), lambda t: 1.0 - (1.0 - t) ** 3).statistic
        assert ks <= 0.03

    def test_proposals_count_pending_chains(self, monkeypatch):
        calls = []
        score = mechanism._Scorer.q

        def counting_score(self, X):
            calls.append(len(X))
            return score(self, X)

        monkeypatch.setattr(mechanism._Scorer, "q", counting_score)
        # One chain: the start state is scored once, then each proposal once
        # (the accepted proposal's score is the next step's level).
        _, diag = sample_chain(TV_INSTANCE, TV_CFG, 200, n_chains=1)
        assert len(calls) == 1 + diag["proposals"]
        # Many chains: chains that have already settled are not counted, so
        # the total lies strictly below chains x lockstep rounds.
        calls.clear()
        cfg = replace(TV_CFG, epsilon_priv=50.0)
        _, diag = sample_chain(TV_INSTANCE, cfg, 400, n_chains=40)
        chain_steps = diag["chains"] * diag["steps"]
        assert chain_steps <= diag["proposals"] <= chain_steps * diag["worst_rejection_rounds"]
        assert diag["proposals"] < diag["chains"] * (len(calls) - 1)
        assert 0.0 < diag["accept_rate"] <= 1.0
        assert diag["accept_rate"] == chain_steps / diag["proposals"]

    def test_peaked_limit_concentrates_near_optimum(self):
        cfg = MechanismConfig(gamma=0.8, epsilon_priv=400.0, chain_steps=1500,
                              burn_in=500, seed=3)
        x_star = proportional_fairness_point(TV_INSTANCE, cfg)
        samples, diag = sample_chain(TV_INSTANCE, cfg, 4000, n_chains=50, thin=2)
        dist = np.abs(samples - x_star[None, :]).max(axis=1)
        assert np.mean(dist <= 0.1) >= 0.99
        # Each miss shrinks the bracket toward the current point: 3.2
        # proposals a step here, and 14 if misses below it did not shrink.
        assert diag["proposals"] < 5 * diag["chains"] * diag["steps"]

    def test_rejection_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mechanism, "_PROPOSAL_CAP", 1)
        cfg = MechanismConfig(gamma=0.8, epsilon_priv=200.0, chain_steps=2000,
                              burn_in=500, seed=0)
        with pytest.raises(RejectionCapError, match="exceeded 1 proposals"):
            sample_chain(TV_INSTANCE, cfg, 2000, n_chains=20)
        # The cap also holds in rounds past the block's shrink uniforms.
        cap = mechanism._ROUNDS + 2
        monkeypatch.setattr(mechanism, "_PROPOSAL_CAP", cap)
        with pytest.raises(RejectionCapError, match=f"exceeded {cap} proposals"):
            sample_chain(TV_INSTANCE, cfg, 2000, n_chains=20)

    @pytest.mark.parametrize("n_chains", [1, 10])
    def test_chain_prefix_does_not_depend_on_length(self, n_chains):
        # A chain's randomness is drawn in whole blocks of steps (256), so a
        # shorter chain is a prefix of a longer one with the same seed,
        # across the block boundary too.
        cfg = replace(TV_CFG, burn_in=0)
        short, _ = sample_chain(TV_INSTANCE, cfg, 300 * n_chains, n_chains=n_chains)
        long, _ = sample_chain(TV_INSTANCE, cfg, 600 * n_chains, n_chains=n_chains)
        assert np.array_equal(short, long[: 300 * n_chains])

    def test_single_draw_is_last_state_of_one_chain(self):
        # Both entry points share one set-up and one driver: the same seed
        # gives the same start and stream, so the draw is the chain's final
        # state bit for bit.
        cfg = MechanismConfig(gamma=0.8, epsilon_priv=3.0, chain_steps=400,
                              burn_in=399, seed=4)
        draw, diag = sample_mechanism(TV_INSTANCE, cfg)
        samples, chain_diag = sample_chain(TV_INSTANCE, cfg, 1, n_chains=1)
        assert samples.shape == (1, 2)
        assert np.array_equal(draw.x, samples[0])
        assert diag["steps"] == chain_diag["steps"] == 400
        assert diag["proposals"] == chain_diag["proposals"]
        assert "burn_in" not in diag and chain_diag["burn_in"] == 399

    def test_single_point_set_is_not_sampled(self):
        inst = normalized_instance(np.random.default_rng(3).uniform(0.1, 1.0, (4, 2)))
        with pytest.raises(InfeasibleError, match="single point"):
            sample_mechanism(inst, MechanismConfig(gamma=0.5, chain_steps=10))

    def test_bad_sample_arguments(self):
        with pytest.raises(MechanismError):
            sample_chain(TV_INSTANCE, TV_CFG, 0)


class TestCarriedScore:
    """The driver scores the start states once and then carries each chain's
    accepted score; what it returns must be the bits of a fresh score."""

    inst = normalized_instance(np.random.default_rng(8).uniform(0.1, 1.0, (120, 4)))
    cfg = MechanismConfig(gamma=0.5, epsilon_priv=2.0, chain_steps=300, burn_in=0, seed=3)

    @staticmethod
    def carried_and_fresh(scorer, cfg, X0, crn_width=None):
        _, X, q, _ = mechanism._hit_and_run(scorer, cfg, X0, cfg.chain_steps,
                                            np.random.default_rng(cfg.seed),
                                            crn_width=crn_width)
        return q.tobytes(), scorer.q(X).tobytes()

    @pytest.mark.parametrize("chains", [1, 40])
    @pytest.mark.parametrize("steps", [1, 300])
    def test_carried_score_is_a_fresh_score(self, chains, steps):
        fs = FeasibleSet(self.inst.n, self.inst.k, self.cfg.gamma)
        scorer = mechanism._Scorer(self.inst.utilities, fs)
        X0 = fs.uniform(np.random.default_rng(1), chains)
        carried, fresh = self.carried_and_fresh(scorer, replace(self.cfg, chain_steps=steps), X0)
        assert carried == fresh

    def test_paired_sweep_carried_score_is_a_fresh_score(self):
        inst, trials = normalize_instance(gen_synthetic("figure2a", n=30)), 5
        reports = np.array([inst.utilities[0], [1.0, 0.0], [0.3, 0.7]])
        fs = FeasibleSet(inst.n, inst.k, self.cfg.gamma)
        scorer = mechanism._Scorer(inst.utilities, fs, agent=0,
                                   override=np.repeat(reports, trials, axis=0))
        X0 = np.tile(fs.uniform(np.random.default_rng(2), trials), (len(reports), 1))
        carried, fresh = self.carried_and_fresh(scorer, self.cfg, X0, crn_width=trials)
        assert carried == fresh

    def test_clipped_steps_are_scored_again(self, monkeypatch):
        # A chord that overshoots its upper end by 1e-2 of its length lets some
        # accepted proposals leave the set, so the floor clip or the budget
        # rescale moves them and the batch must be scored afresh.
        chord = FeasibleSet.chord

        def overshooting(self, X, D):
            t_lo, t_hi = chord(self, X, D)
            return t_lo, t_hi + 1e-2 * (t_hi - t_lo)

        calls = []
        score = mechanism._Scorer.q

        def counting_score(self, X):
            calls.append(len(X))
            return score(self, X)

        monkeypatch.setattr(FeasibleSet, "chord", overshooting)
        monkeypatch.setattr(mechanism._Scorer, "q", counting_score)
        # A peaked density sits at the budget face, where overshoots are accepted.
        cfg = MechanismConfig(gamma=0.8, epsilon_priv=50.0, chain_steps=400, seed=5)
        draw, diag = sample_mechanism(TV_INSTANCE, cfg)
        rescored = len(calls) - 1 - diag["proposals"]
        assert rescored > 0, rescored
        assert diag["score"] == score_q(TV_INSTANCE, draw.x, cfg)
        fs = FeasibleSet(self.inst.n, self.inst.k, self.cfg.gamma)
        scorer = mechanism._Scorer(self.inst.utilities, fs)
        X0 = fs.uniform(np.random.default_rng(4), 40)
        carried, fresh = self.carried_and_fresh(scorer, self.cfg, X0)
        assert carried == fresh

    def test_floor_clipped_steps_are_scored_again(self, monkeypatch):
        # Undershooting t_lo instead takes some accepted proposals below a
        # floor, where the clip alone may move them.
        chord = FeasibleSet.chord

        def undershooting(self, X, D):
            t_lo, t_hi = chord(self, X, D)
            return t_lo - 1e-2 * (t_hi - t_lo), t_hi

        monkeypatch.setattr(FeasibleSet, "chord", undershooting)
        fs = FeasibleSet(self.inst.n, self.inst.k, self.cfg.gamma)
        scorer = mechanism._Scorer(self.inst.utilities, fs)
        X0 = fs.uniform(np.random.default_rng(4), 40)
        carried, fresh = self.carried_and_fresh(scorer, self.cfg, X0)
        assert carried == fresh


# ---------------------------------------------------------------------------
# Manipulation experiments
# ---------------------------------------------------------------------------


class TestManipulation:
    inst = gen_synthetic("figure2a", n=30)
    cfg = MechanismConfig(gamma=0.5, epsilon_priv=0.2, chain_steps=300,
                          burn_in=100, seed=13)

    def test_truthful_report_gains_exactly_zero(self):
        # Identical reports share identical chains (common random numbers),
        # so the paired difference is exactly zero, not just small.
        truth = self.inst.utilities[0] / self.inst.utilities[0].sum()
        gains, ses = manipulation_sweep(self.inst, 0, truth, self.cfg, trials=4)
        assert gains.shape == (1,)
        assert gains[0] == 0.0 and ses[0] == 0.0

    def test_a_swapped_report_scores_as_the_misreported_instance(self):
        inst = normalize_instance(gen_synthetic("k-approval", n=12, k=3, seed=1, approvals=2))
        fs = FeasibleSet(inst.n, inst.k, 0.8)
        reports = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        X = fs.uniform(np.random.default_rng(0), len(reports))
        swapped = mechanism._Scorer(inst.utilities, fs, agent=4, override=reports).q(X)
        for c, report in enumerate(reports):
            u = inst.utilities.copy()
            u[4] = report
            plain = mechanism._Scorer(u, fs).q(X[c:c + 1])[0]
            assert swapped[c] == pytest.approx(plain, rel=1e-12)

    def test_sweep_shapes_and_se(self, monkeypatch):
        kept = []
        run = mechanism._hit_and_run

        def spy(*args, **kwargs):
            out = run(*args, **kwargs)
            kept.append(out[0])
            return out

        monkeypatch.setattr(mechanism, "_hit_and_run", spy)
        mis = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        gains, ses = manipulation_sweep(self.inst, 0, mis, self.cfg, trials=5)
        assert gains.shape == (3,) and ses.shape == (3,)
        # Each misreport's chains against the truthful ones, trial by trial:
        # the mean difference and its standard error, with n - 1 in the variance.
        truth = normalize_instance(self.inst).utilities[0]
        per = (kept[0] @ truth).mean(axis=0).reshape(4, 5)
        diffs = per[1:] - per[0]
        assert gains == pytest.approx(diffs.mean(axis=1), rel=1e-12)
        assert ses == pytest.approx(diffs.std(axis=1, ddof=1) / np.sqrt(5), rel=1e-12)

    def test_report_validation(self):
        with pytest.raises(MechanismError, match="unit l1 norm"):
            manipulation_sweep(self.inst, 0, np.array([0.9, 0.2]), self.cfg)
        with pytest.raises(MechanismError, match="nonnegative"):
            manipulation_sweep(self.inst, 0, np.array([1.5, -0.5]), self.cfg)
        with pytest.raises(MechanismError, match="agent"):
            manipulation_sweep(self.inst, 99, np.array([0.5, 0.5]), self.cfg)
        with pytest.raises(MechanismError, match="must have 2 columns"):
            manipulation_sweep(self.inst, 0, np.array([0.2, 0.3, 0.5]), self.cfg)
        with pytest.raises(MechanismError, match="at least 2 trials"):
            manipulation_sweep(self.inst, 0, np.array([0.5, 0.5]), self.cfg, trials=1)

    def test_gain_independent_of_other_reports(self):
        # A report's chains see the same random numbers whatever other reports
        # share the sweep, however many shrink rounds their chains need.
        lie = np.array([[1.0, 0.0]])
        batch = np.vstack([lie, [[0.0, 1.0], [0.5, 0.5], [0.25, 0.75]]])
        for eps in (0.05, 0.2, 1.0):
            for seed in range(5):
                cfg = replace(self.cfg, epsilon_priv=eps, seed=seed)
                alone, _ = manipulation_sweep(self.inst, 0, lie, cfg, trials=5)
                shared, _ = manipulation_sweep(self.inst, 0, batch, cfg, trials=5)
                assert alone[0] == shared[0], (eps, seed)

    def test_pairing_holds_past_the_block_shrink_rounds(self, monkeypatch):
        # Steps needing more shrink rounds than a block holds draw the rest
        # from their own seeded stream; a report's gain must not depend on
        # which other reports share the sweep there either.
        diags = []
        run = mechanism._hit_and_run

        def spy(*args, **kwargs):
            out = run(*args, **kwargs)
            diags.append(out[3])
            return out

        monkeypatch.setattr(mechanism, "_hit_and_run", spy)
        cfg = replace(self.cfg, epsilon_priv=5.0)
        lie = np.array([[1.0, 0.0]])
        batch = np.vstack([[[0.0, 1.0], [0.5, 0.5]], lie])
        alone, _ = manipulation_sweep(self.inst, 0, lie, cfg, trials=5)
        shared, _ = manipulation_sweep(self.inst, 0, batch, cfg, trials=5)
        assert min(d["worst_rejection_rounds"] for d in diags) > mechanism._ROUNDS
        assert alone[0] == shared[2]

    def test_voter_order_changes_no_bit(self):
        # The scorer sorts the distinct rows, so permuting the voters (with the
        # agent's index moved along) leaves every score and gain bitwise alone.
        inst = normalize_instance(gen_synthetic("k-approval", n=60, k=4, seed=2, approvals=2))
        perm = np.random.default_rng(4).permutation(inst.n)
        shuffled = Instance(utilities=inst.utilities[perm], budget=1.0)
        agent, moved = 5, int(np.flatnonzero(perm == 5)[0])
        fs = FeasibleSet(inst.n, inst.k, 0.5)
        X = fs.uniform(np.random.default_rng(1), 20)
        reports = np.random.default_rng(2).dirichlet(np.ones(inst.k), 20)
        for a, b in ((None, None), (agent, moved)):
            q = mechanism._Scorer(inst.utilities, fs, agent=a, override=reports).q(X)
            q_perm = mechanism._Scorer(shuffled.utilities, fs, agent=b, override=reports).q(X)
            assert q.tobytes() == q_perm.tobytes()
        lies = reports[:3]
        gains = manipulation_sweep(inst, agent, lies, self.cfg, trials=4)
        gains_perm = manipulation_sweep(shuffled, moved, lies, self.cfg, trials=4)
        assert np.asarray(gains).tobytes() == np.asarray(gains_perm).tobytes()

    def test_gain_is_deterministic(self):
        mis = np.array([[1.0, 0.0], [0.0, 1.0]])
        a = manipulation_sweep(self.inst, 0, mis, self.cfg, trials=4)
        b = manipulation_sweep(self.inst, 0, mis, self.cfg, trials=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
