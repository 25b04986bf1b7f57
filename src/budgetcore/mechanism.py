"""Randomized, approximately truthful selection for linear utilities.

Deterministic core-style solvers are manipulable: a voter can misreport to
drag the allocation toward their favorite item.  This module trades a little
allocation quality for a bounded incentive to lie.  It scores each feasible
allocation by how far it is from proportional fairness, then draws an
allocation with probability proportional to ``exp(epsilon * score)`` -- large
``epsilon`` concentrates near the fair point, small ``epsilon`` approaches a
uniform draw and makes misreporting nearly useless.

Everything here is specific to linear utilities ``U_i(x) = u_i . x``, with the
budget normalized to 1 and every utility row normalized to unit l1 norm
(:func:`normalize_instance`).  Allocations live in the "floored simplex"

    P = { x : x_j >= n^(-gamma),  sum_j x_j <= 1 }

whose floor keeps every voter's utility bounded away from zero, which is what
caps the score's sensitivity to any single report.

The score peaks at the proportional-fairness point of ``P``.  Shifting every
utility by n^(-gamma) / slack turns that point into the unconstrained
proportional-fairness point of a budget-``slack`` instance, so
:func:`proportional_fairness_point` solves it with
:func:`budgetcore.lindahl.solve_potential` instead of an optimizer of its own.

The sampler is hit-and-run: pick a random direction, intersect it with ``P``,
and resample the position along that chord from the restricted density.  The
score is concave, so the chord density is log-concave: each of its slices is
one interval, and shrinkage slice sampling on the chord (Neal 2003) draws from
it exactly, with no envelope.  One lockstep driver runs the chains of all
three samplers: the single draw (the final state of one chain), pooled draws
from many chains, and manipulation experiments, whose report variants share
one stream of randomness so that identical reports yield identical chains.
The driver draws that stream a block of steps at a time, in array work.
A score sums over the distinct ballots, each weighted by its count.  Each
step's slice level reuses the score each chain accepted; only a floor clip
or budget rescale that moved a chain makes it score the batch again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .lindahl import SolverConfig, solve_potential
from .model import Allocation, Instance, Linear, allocation_vector, reject_bools

__all__ = [
    "MechanismError",
    "InfeasibleError",
    "RejectionCapError",
    "MechanismConfig",
    "FeasibleSet",
    "normalize_instance",
    "score_q",
    "proportional_fairness_point",
    "sample_mechanism",
    "sample_chain",
    "approximation_certificate",
    "privacy_precondition_ok",
    "manipulation_sweep",
]

_FEAS_TOL = 1e-9
# Proposals one chord slice step may make before it raises RejectionCapError.
_PROPOSAL_CAP = 10_000
_BLOCK, _ROUNDS = 256, 4  # sampler steps drawn at once; shrink uniforms per step


class MechanismError(ValueError):
    """Invalid input to the randomized mechanism."""


class InfeasibleError(MechanismError):
    """The floored simplex is empty (or has no volume when volume is needed)."""


class RejectionCapError(MechanismError):
    """A chord slice step exhausted its proposal budget; diagnostic, not fatal math."""


@dataclass(frozen=True)
class MechanismConfig:
    """Knobs for the exponential-weighting mechanism and its sampler.

    ``gamma`` sets the allocation floor n^(-gamma).  ``epsilon_priv`` is the
    exponential weight on the score; it doubles as the truthfulness parameter
    (misreporting can gain at most ``exp(2*epsilon_priv) - 1`` in expectation).
    ``chain_steps`` is the length of the single draw's chain, whose final
    state is the draw, and of the manipulation chains.  :func:`sample_chain`
    and :func:`manipulation_sweep` discard the first ``burn_in`` states.
    A value of the wrong type or out of range raises ``MechanismError``.
    """

    gamma: float = 0.5
    epsilon_priv: float = 1.0
    chain_steps: int = 20_000
    burn_in: int = 5_000
    seed: int = 0

    def __post_init__(self) -> None:
        reject_bools(MechanismError, **vars(self))
        gamma, eps = self.gamma, self.epsilon_priv
        if not (isinstance(gamma, numbers.Real) and 0.0 < gamma < 1.0):
            raise MechanismError(f"gamma must lie in (0, 1), got {gamma!r}")
        if not (isinstance(eps, numbers.Real) and eps > 0.0):
            raise MechanismError(f"epsilon_priv must be positive, got {eps!r}")
        steps, burn = self.chain_steps, self.burn_in
        if not (isinstance(steps, numbers.Integral) and steps > 0):
            raise MechanismError(f"chain_steps must be a positive integer, got {steps!r}")
        if not (isinstance(burn, numbers.Integral) and burn >= 0):
            raise MechanismError(f"burn_in must be a nonnegative integer, got {burn!r}")


@dataclass(frozen=True)
class FeasibleSet:
    """The floored simplex { x >= n^(-gamma), sum(x) <= 1 } for n voters, k items."""

    n: int
    k: int
    gamma: float

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise MechanismError("need at least one voter and one item")
        if not 0.0 < self.gamma < 1.0:
            raise MechanismError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.k * self.lower_bound > 1.0 + _FEAS_TOL:
            raise InfeasibleError(
                f"floor {self.k} * {self.n}^-{self.gamma} = "
                f"{self.k * self.lower_bound:.6g} exceeds the unit budget; "
                "increase gamma or the voter count"
            )

    @cached_property
    def lower_bound(self) -> float:
        return float(self.n ** -self.gamma)

    @cached_property
    def slack(self) -> float:
        """Budget left over after every item is funded at the floor."""
        return max(1.0 - self.k * self.lower_bound, 0.0)

    def require_interior(self) -> None:
        if self.slack <= _FEAS_TOL:
            raise InfeasibleError(
                "the floored simplex is a single point; nothing to sample"
            )

    def center(self) -> np.ndarray:
        return np.full(self.k, self.lower_bound + self.slack / self.k)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> Union[bool, np.ndarray]:
        """Membership test; accepts one point (k,) or a batch (m, k)."""
        X = np.atleast_2d(np.asarray(x, dtype=float))
        ok = (X >= self.lower_bound - tol).all(axis=1) & (X.sum(axis=1) <= 1.0 + tol)
        return ok if np.asarray(x).ndim == 2 else bool(ok[0])

    def uniform(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform draws from the set, via a flat Dirichlet over the slack."""
        w = rng.dirichlet(np.ones(self.k + 1), size=size)
        return self.lower_bound + self.slack * w[:, : self.k]

    def chord(self, X: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Parameter interval [t_lo, t_hi] with X + t*D inside the set, per row."""
        # Row c of t*H >= r is x_c >= lb (c < k) or sum(x) <= 1 (c = k).  Along axis 0,
        # max and min are k elementwise passes; being exact, any order gives the same bits.
        k = D.shape[1]
        H, r = np.empty((2, k + 1, len(D)))
        H[:k], H[k] = D.T, -D.sum(axis=1)
        np.subtract(self.lower_bound, X.T, out=r[:k])
        np.subtract(X.sum(axis=1), 1.0, out=r[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(r, H, out=r)
        t_lo = np.maximum.reduce(np.where(H > 0, r, -np.inf), axis=0)
        t_hi = np.minimum.reduce(np.where(H < 0, r, np.inf), axis=0)
        return t_lo, np.maximum(t_hi, t_lo)


def normalize_instance(inst: Instance) -> Instance:
    """Rescale to the mechanism's convention: unit budget, unit-l1 utility rows."""
    u = inst.utilities
    return Instance(
        utilities=u / u.sum(axis=1, keepdims=True),
        budget=1.0,
        item_names=inst.item_names,
    )


def _require_normalized(inst: Instance) -> None:
    if abs(inst.budget - 1.0) > 1e-9 or np.abs(inst.utilities.sum(axis=1) - 1.0).max() > 1e-9:
        raise MechanismError(
            "expected a normalized instance (unit budget, unit-sum utility rows); "
            "run normalize_instance first"
        )


@dataclass(frozen=True, eq=False)
class _Scorer:
    """Vectorized score evaluation, optionally with one report row swapped per chain.

    The score of an allocation x is

        q(x) = n - n^(-gamma) * max_{y in P} sum_i U_i(y) / U_i(x)

    and the inner maximum is linear in y, so it is attained at a vertex of P:
    everything at the floor plus all slack on the single best item, which makes
    it max_j sum_i (lb + slack * u_ij) / U_i(x).  Voters with equal rows enter
    that sum once, weighted by their count, so scoring is one pass over the
    distinct report rows.  With an ``agent``, its true row loses one count and
    each chain adds the term of its own report, ``override``.
    """

    nu: np.ndarray
    fs: FeasibleSet
    agent: Optional[int] = None
    override: Optional[np.ndarray] = None

    @cached_property
    def _weighted(self) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The distinct rows, transposed (k, d), their weights m_t * (lb + slack * row_t),
        and with an agent, each chain's own weight lb + slack * override."""
        lb, slack, own = self.fs.lower_bound, self.fs.slack, None
        rows, inverse, counts = np.unique(self.nu, axis=0, return_inverse=True, return_counts=True)
        if self.agent is not None:
            counts[inverse[self.agent]] -= 1
            own = lb + slack * self.override
        return np.ascontiguousarray(rows.T), counts[:, None] * (lb + slack * rows), own

    def inner_terms(self, X: np.ndarray) -> np.ndarray:
        """Inner maximum value for each row of X."""
        rows_t, weights, own = self._weighted
        per_item = np.divide(1.0, X @ rows_t) @ weights
        if self.agent is not None:
            per_item += own / np.einsum("ck,ck->c", X, self.override)[:, None]
        return np.maximum.reduce(per_item.T.copy(), axis=0)  # along axis 0, as in chord

    def q(self, X: np.ndarray) -> np.ndarray:
        return self.fs.n - self.fs.lower_bound * self.inner_terms(X)


def _inner_at(
    inst: Instance, x: Union[Allocation, np.ndarray], cfg: MechanismConfig
) -> tuple[FeasibleSet, float]:
    """The floored simplex and the inner maximum at one allocation in it."""
    _require_normalized(inst)
    fs = FeasibleSet(inst.n, inst.k, cfg.gamma)
    xv = allocation_vector(x)
    if not fs.contains(xv, tol=1e-7):
        raise MechanismError(
            "allocation lies outside the floored simplex "
            f"(floor {fs.lower_bound:.6g}, total {xv.sum():.6g})"
        )
    return fs, float(_Scorer(inst.utilities, fs).inner_terms(xv[None, :])[0])


def score_q(inst: Instance, x: Union[Allocation, np.ndarray], cfg: MechanismConfig) -> float:
    """The mechanism's concave quality score; 0 <= q <= n - n^(1-gamma)."""
    fs, value = _inner_at(inst, x, cfg)
    return inst.n - fs.lower_bound * value


def privacy_precondition_ok(n: int, k: int, epsilon: float) -> bool:
    """Whether epsilon is small enough for the sampled-score utility guarantee.

    The high-probability bound on the sampled allocation's quality needs
    1/epsilon > k*n / ((n - k^2) * ln n); in particular n must exceed k^2.
    """
    if n <= k * k:
        return False
    return 1.0 / epsilon > k * n / ((n - k * k) * math.log(n))


def approximation_certificate(
    inst: Instance, x: Union[Allocation, np.ndarray], cfg: MechanismConfig
) -> float:
    """Additive blocking-margin bound implied by x's score gap.

    If the inner maximum at x is n + alpha, no coalition deviating with its
    proportional budget share can raise every member's (normalized) utility by
    more than ((k-1) n^-gamma + alpha/n) / (1 - k n^-gamma).  Accepts x in the
    instance's own budget units.
    """
    if not privacy_precondition_ok(inst.n, inst.k, cfg.epsilon_priv):
        raise MechanismError(
            "epsilon_priv too large for the sampled-score guarantee: need "
            f"1/eps > k*n/((n-k^2)*ln n) with n={inst.n}, k={inst.k}, "
            f"eps={cfg.epsilon_priv:g}"
        )
    norm = normalize_instance(inst)
    fs, value = _inner_at(norm, allocation_vector(x) / inst.budget, cfg)
    alpha = max(value - norm.n, 0.0)
    lb = fs.lower_bound
    return ((norm.k - 1) * lb + alpha / norm.n) / (1.0 - norm.k * lb)


# ---------------------------------------------------------------------------
# Proportional fairness restricted to the floored simplex
# ---------------------------------------------------------------------------


def proportional_fairness_point(
    inst: Instance, cfg: MechanismConfig, tol: Optional[float] = None
) -> np.ndarray:
    """Maximize sum_i log U_i over the floored simplex.

    Write x = lb + w with w >= 0.  On the face sum(w) = slack, where the
    maximizer lies, each voter's utility is (u_i + lb/slack) . w, so the
    maximizer is lb plus the proportional-fairness point of that shifted
    instance with budget ``slack``, which :func:`solve_potential` computes
    (for linear utilities its marginal spends are the allocation itself).  On
    the face the inner maximum equals n + n * max_j r_j, with r the shifted
    instance's equilibrium residuals, so stopping the solver at
    residual tolerance ``tol / n`` stops it once the inner maximum at x is
    within ``tol`` of n.  That certifies the score is within n^(-gamma) * tol
    of its maximum value n - n^(1-gamma).  A solver that stops short of that
    raises :class:`MechanismError` rather than return an uncertified point.
    """
    _require_normalized(inst)
    fs = FeasibleSet(inst.n, inst.k, cfg.gamma)
    if fs.slack <= _FEAS_TOL:
        return fs.center()
    if tol is None:
        tol = 1e-8 * inst.n ** cfg.gamma
    lb, slack = fs.lower_bound, fs.slack
    shifted = Instance(utilities=inst.utilities + lb / slack, budget=slack)
    res = solve_potential(
        shifted, Linear(shifted.utilities), SolverConfig(residual_tol=tol / inst.n)
    )
    if not res.converged:
        raise MechanismError(
            f"fairness-point solver stopped short of tol {tol:.3g}; the inner-max "
            f"gap there is {inst.n * float(res.residuals.max()):.3g}"
        )
    return lb + res.x.x


# ---------------------------------------------------------------------------
# Hit-and-run sampling
# ---------------------------------------------------------------------------


def _hit_and_run(
    scorer: _Scorer,
    cfg: MechanismConfig,
    X0: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
    keep: range = range(0),
    crn_width: Optional[int] = None,
):
    """Advance all chains in lockstep; stack the states after the steps in ``keep``.

    Returns (kept states or None, final states, their scores, diagnostics).
    Each step draws a direction and a slice level ``q(X) - Exponential(1)/eps``
    per chain, then proposes uniformly on the chord, shrinking its bracket
    toward the current point after each miss, until the proposal clears the
    level.  ``proposals`` counts the proposals of chains still pending.  q(X)
    is each chain's accepted score, from a batch of the same shape and so the
    same bits; the batch is scored afresh only if the clip or rescale moved one.

    ``crn_width`` < chains means random draws are made at that width and tiled,
    so chains that differ only in block index consume identical randomness --
    the pairing that makes misreport experiments exactly reproducible.  Draws
    come from ``rng`` in whole blocks of _BLOCK steps, even past ``n_steps``, so
    a chain's first s states do not depend on its length.  A step's share of a
    block is fixed (direction, level, _ROUNDS shrink uniforms, and a seed for
    any later rounds), so no chain's path depends on other chains' rounds.
    """
    fs = scorer.fs
    eps = cfg.epsilon_priv
    X = np.array(X0, dtype=float)
    chains, k = X.shape
    width = crn_width or chains
    lb = fs.lower_bound
    reps, all_chains = chains // width, np.ones(chains, dtype=bool)
    kept: list[np.ndarray] = []
    proposals = worst_round = 0
    q_x = scorer.q(X)
    for step in range(n_steps):
        s = step % _BLOCK
        if s == 0:  # drawn at width; np.tile repeats the chain axis to chains
            Ds = rng.standard_normal((_BLOCK, width, k))
            Ds = np.tile(Ds / np.linalg.norm(Ds, axis=2, keepdims=True), (reps, 1))
            Es = np.tile(rng.standard_exponential((_BLOCK, width)) / eps, reps)
            Us = np.tile(rng.random((_BLOCK, _ROUNDS, width)), reps)
            seeds = rng.integers(2**63, size=_BLOCK)
        D = Ds[s]
        level = q_x - Es[s]
        a, b = fs.chord(X, D)
        t_new, q_new = np.zeros(chains), np.empty(chains)
        pending, n_pending, rounds = all_chains.copy(), chains, 0
        while n_pending:
            if rounds >= _PROPOSAL_CAP:
                raise RejectionCapError(
                    f"chord slice sampling exceeded {_PROPOSAL_CAP} proposals at step {step} "
                    f"({n_pending} of {chains} chains pending, "
                    f"epsilon={eps:g}); lower epsilon"
                )
            if rounds == _ROUNDS:  # past the block's uniforms: the step's own stream
                step_rng = np.random.default_rng(seeds[s])
            u = Us[s, rounds] if rounds < _ROUNDS else np.tile(step_rng.random(width), reps)
            t = a + u * (b - a)
            # Score every chain, settled or not: paired chains must see
            # bitwise-identical arithmetic.
            q_t = scorer.q(X + t[:, None] * D)
            ok = pending & (q_t > level)
            proposals += n_pending
            np.copyto(t_new, t, where=ok)
            np.copyto(q_new, q_t, where=ok)
            pending ^= ok  # ok holds pending chains only
            n_pending = np.count_nonzero(pending)
            rounds += 1
            if n_pending:  # shrink the bracket toward the current point, t = 0
                below = t < 0.0
                a = np.where(below, t, a)
                b = np.where(below, b, t)
        worst_round = max(worst_round, rounds)

        X = X + t_new[:, None] * D
        moved = X.min() < lb
        np.maximum(X, lb, out=X)
        totals = X.sum(axis=1)
        over = totals > 1.0
        if over.any():
            scale = (1.0 - k * lb) / (totals[over] - k * lb)
            X[over] = lb + (X[over] - lb) * scale[:, None]
        q_x = scorer.q(X) if moved or over.any() else q_new

        if step in keep:
            kept.append(X.copy())

    diag = {
        "chains": int(chains),
        "steps": int(n_steps),
        "proposals": int(proposals),
        "accept_rate": float(n_steps * chains / max(proposals, 1)),
        "worst_rejection_rounds": int(worst_round),
    }
    samples = np.stack(kept) if kept else None
    return samples, X, q_x, diag


def _start(inst: Instance, cfg: MechanismConfig, chains: int):
    """The normalized instance, its floored simplex, the seeded stream and
    ``chains`` uniform starting states drawn from that stream."""
    norm = normalize_instance(inst)
    fs = FeasibleSet(norm.n, norm.k, cfg.gamma)
    fs.require_interior()
    rng = np.random.default_rng(cfg.seed)
    return norm, fs, rng, fs.uniform(rng, chains)


def sample_mechanism(inst: Instance, cfg: MechanismConfig) -> tuple[Allocation, dict]:
    """One draw with probability density proportional to exp(epsilon * q(x)).

    Runs a single seeded hit-and-run chain for ``cfg.chain_steps`` steps and
    returns the final state, rescaled to the instance's budget units.
    """
    norm, fs, rng, X0 = _start(inst, cfg, 1)
    scorer = _Scorer(norm.utilities, fs)
    _, X, q, diag = _hit_and_run(scorer, cfg, X0, cfg.chain_steps, rng)
    diag["score"] = float(q[0])
    diag["epsilon_priv"] = float(cfg.epsilon_priv)
    diag["gamma"] = float(cfg.gamma)
    diag["seed"] = int(cfg.seed)
    return Allocation(x=X[0] * inst.budget), diag


def sample_chain(
    inst: Instance,
    cfg: MechanismConfig,
    n_samples: int,
    n_chains: int = 50,
    thin: int = 1,
) -> tuple[np.ndarray, dict]:
    """Pooled draws from many parallel chains, in normalized (unit-budget) units.

    Each chain burns in for ``cfg.burn_in`` steps, then contributes every
    ``thin``-th state until ``n_samples`` total are collected.  Returns an
    (n_samples, k) array ordered step-major, so consecutive rows come from
    different chains.
    """
    if n_samples <= 0 or n_chains <= 0 or thin <= 0:
        raise MechanismError("n_samples, n_chains and thin must be positive")
    norm, fs, rng, X0 = _start(inst, cfg, n_chains)
    per_chain = -(-n_samples // n_chains)
    n_steps = cfg.burn_in + (per_chain - 1) * thin + 1
    samples, _, _, diag = _hit_and_run(
        _Scorer(norm.utilities, fs), cfg, X0, n_steps, rng,
        keep=range(cfg.burn_in, n_steps, thin),
    )
    flat = samples.reshape(-1, norm.k)[:n_samples]
    diag["burn_in"] = int(cfg.burn_in)
    diag["thin"] = int(thin)
    diag["collected"] = int(flat.shape[0])
    return flat, diag


# ---------------------------------------------------------------------------
# Manipulation experiments
# ---------------------------------------------------------------------------


def _prepare_reports(inst: Instance, agent: int, misreports: np.ndarray) -> np.ndarray:
    R = np.atleast_2d(np.asarray(misreports, dtype=float))
    if R.shape[1] != inst.k:
        raise MechanismError(f"misreports must have {inst.k} columns")
    if not np.all(np.isfinite(R)) or np.any(R < 0):
        raise MechanismError("misreports must be finite and nonnegative")
    if np.abs(R.sum(axis=1) - 1.0).max() > 1e-9:
        raise MechanismError("misreports must be normalized to unit l1 norm")
    if not 0 <= agent < inst.n:
        raise MechanismError(f"agent index {agent} out of range")
    return R


def manipulation_sweep(
    inst: Instance,
    agent: int,
    misreports: np.ndarray,
    cfg: MechanismConfig,
    trials: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected-utility gains and paired standard errors for a batch of misreports.

    ``misreports`` is one report (k,) or a batch (m, k) of unit-l1 rows.  Runs
    one chain block per report variant (truth first), all blocks seeing the
    same random draws, and compares per-chain time averages of the agent's
    true utility.  Identical reports therefore produce identical chains and an
    exactly zero gain estimate.  Returns (m,) gains and (m,) standard errors.
    """
    if trials < 2:
        raise MechanismError("need at least 2 trials for a standard error")
    if cfg.burn_in >= cfg.chain_steps:
        raise MechanismError("burn_in must be below chain_steps")
    R = _prepare_reports(inst, agent, misreports)
    norm, fs, rng, X0 = _start(inst, cfg, trials)
    reports = np.vstack([norm.utilities[agent][None, :], R])
    variants = reports.shape[0]
    scorer = _Scorer(
        norm.utilities, fs, agent=agent, override=np.repeat(reports, trials, axis=0)
    )
    samples, _, _, _ = _hit_and_run(
        scorer, cfg, np.tile(X0, (variants, 1)), cfg.chain_steps, rng,
        keep=range(cfg.burn_in, cfg.chain_steps), crn_width=trials,
    )
    # samples: (kept_steps, variants * trials, k); average the agent's true
    # utility over each chain's trajectory.
    per_chain = (samples @ norm.utilities[agent]).mean(axis=0)
    per = per_chain.reshape(variants, trials)
    diffs = per[1:] - per[0][None, :]
    gains = diffs.mean(axis=1)
    ses = diffs.std(axis=1, ddof=1) / math.sqrt(trials)
    return gains, ses
