"""Equilibrium solvers driven by the allocation-only optimality condition.

The fair (core) allocation is characterized item-by-item: for every item j,

    (B/n) * sum_i [ u_ij f_j'(x_j) / sum_m u_im x_m f_m'(x_m) ]  <=  1,

with equality whenever x_j > 0.  ``lindahl_residuals`` reports the signed gap
of that condition per item; the solvers drive it to zero.  ``condition_violation``
holds the one funded rule, in spend space (x_j > 10 * 1e-12 * B, a decade above
the solvers' spend floor), for every solver and the core certificate alike.

``solve_potential`` is the one numerical route.  It works in marginal-spend
space, maximizing the concave potential

    Phi(z) = sum_i log(u_i . z) - (n/B) sum_j R_j(z_j),

whose stationary points satisfy the condition above.  For linear utilities
z = x and Phi is the proportional-fairness objective, so
``solve_proportional_fairness`` (degree-1 homogeneous families) hands linear
instances to it and returns Cobb-Douglas equilibria in closed form.
``sgd_elicitation`` is the query-limited variant: each round asks one sampled
voter only for the *direction* of their utility gradient (the unit-ball best
response) and takes an unbiased stochastic ascent step.  ``recover_prices``
turns a solution into supporting per-voter price vectors.

The randomized mechanism's fairness point over its floored simplex is also
found by ``solve_potential``: shifting every linear utility by floor/slack
turns it into the proportional-fairness point of a budget-slack instance (see
``budgetcore.mechanism.proportional_fairness_point``), so this module holds the
package's one projected-ascent engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .model import (
    Allocation,
    CobbDouglas,
    Instance,
    ModelError,
    UtilityModel,
    allocation_vector,
)

__all__ = [
    "SolverConfig",
    "LindahlResult",
    "PriceVectors",
    "DegenerateAgentError",
    "lindahl_residuals",
    "condition_violation",
    "solve_proportional_fairness",
    "solve_potential",
    "sgd_elicitation",
    "recover_prices",
]

_STEP_INIT = 1.0  # first trial step of the ascent's Armijo line search
_ARMIJO_SLOPE = 1e-4
_ARMIJO_SHRINK = 0.5
_MIN_STEP = 1e-16
# Solver spend floor, as a fraction of B: iterates stay at or above it, so logs
# stay finite.  An item is funded when its spend is more than a decade above it.
_SPEND_FLOOR = 1e-12
_FUNDED_FLOOR_MULT = 10.0
# First-order iterations hand over to the second-order polish below this
# violation (or when they visibly stall above it).
_POLISH_TRIGGER_MULT = 1e4
_STALL_WINDOW = 50
_POLISH_MAX_ITERS = 200


class DegenerateAgentError(ValueError):
    """A voter has zero marginal spend everywhere, so the condition is undefined."""

    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(
            f"voter {agent} has sum_m u_im x_m f_m'(x_m) = 0; "
            "the equilibrium condition is undefined at this allocation"
        )


@dataclass
class SolverConfig:
    """Knobs for the deterministic solvers.

    The spend floor (1e-12 * B) and the funded rule are not knobs: the core
    certificate has no config, yet must judge the same items funded.
    """

    residual_tol: float = 1e-8
    max_iters: int = 50_000


@dataclass
class LindahlResult:
    x: Allocation
    residuals: np.ndarray
    iterations: int
    converged: bool
    objective_trace: list = field(default_factory=list)


@dataclass(frozen=True)
class PriceVectors:
    """Per-voter, per-item prices supporting an allocation; rows cost B/n."""

    p: np.ndarray


def _grads_per_spend(model: UtilityModel, xv: np.ndarray) -> np.ndarray:
    """grad_ij / (sum_m x_m grad_im), the matrix behind residuals and prices."""
    denom = model.marginal_spend_all(xv)
    bad = ~(denom > 0) | ~np.isfinite(denom)
    if np.any(bad):
        raise DegenerateAgentError(int(np.flatnonzero(bad)[0]))
    return model.gradients_all(xv) / denom[:, None]


def _funded(x, budget: float) -> np.ndarray:
    """The one funded-item rule: spend x_j > 10 * 1e-12 * B."""
    return allocation_vector(x) > _FUNDED_FLOOR_MULT * _SPEND_FLOOR * budget


def condition_violation(res: np.ndarray, x, budget: float) -> float:
    """Violation of the condition at spend x: |res| if funded, else its positive part."""
    return float(np.where(_funded(x, budget), np.abs(res), np.maximum(res, 0.0)).max())


def lindahl_residuals(inst: Instance, model: UtilityModel, x) -> np.ndarray:
    """Signed per-item gap of the equilibrium condition, scaled by B/n.

    Component j is (B/n) * sum_i grad_ij / (sum_m x_m grad_im) - 1: zero on
    funded items and <= 0 on unfunded items at an exact solution.
    """
    xv = allocation_vector(x)
    if xv.size != inst.k:
        raise ValueError(f"allocation has {xv.size} items, expected {inst.k}")
    lhs = _grads_per_spend(model, xv).sum(axis=0)
    return (inst.budget / inst.n) * lhs - 1.0


def recover_prices(inst: Instance, model: UtilityModel, x) -> PriceVectors:
    """Supporting prices p_ij = (B/n) grad_ij / (sum_m x_m grad_im).

    Each voter's bundle costs exactly B/n under their prices, and the per-item
    price totals exceed 1 by at most the residual certificate.
    """
    return PriceVectors(p=(inst.budget / inst.n) * _grads_per_spend(model, allocation_vector(x)))


# ---------------------------------------------------------------------------
# Projected gradient ascent core
# ---------------------------------------------------------------------------


@dataclass
class _Ascent:
    """One concave maximization over {v >= floor}: callbacks plus bookkeeping."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    violation: Callable[[np.ndarray], float]
    floor: np.ndarray
    funded: Callable[[np.ndarray], np.ndarray]
    # Optimal multiplier for the ray search max_c value(c * v).
    ray_scale: Callable[[np.ndarray], float]
    # Negated-curvature matrix -H(v) (positive semidefinite), for the polish.
    neg_hessian: Callable[[np.ndarray], np.ndarray]


def _polish(prob: _Ascent, v: np.ndarray, it: int, trace: list, cfg: SolverConfig):
    """Damped Newton on the optimality system, judged by the violation alone.

    Near the optimum the potential's floating-point value can no longer
    register the remaining improvements (its magnitude grows with n while the
    useful increments shrink), so first-order Armijo steps stall around 1e-7.
    The violation is a relative quantity and stays comparable, so the polish
    backtracks on it instead, with the Newton direction restricted to
    coordinates that are off the floor or pushing away from it.
    """
    viol = prob.violation(v)
    for _ in range(_POLISH_MAX_ITERS):
        if viol <= cfg.residual_tol or it >= cfg.max_iters:
            break
        it += 1
        g = prob.grad(v)
        free = prob.funded(v) | (g > 0)
        d = np.zeros_like(v)
        solved = False
        if np.any(free):
            A = prob.neg_hessian(v)[np.ix_(free, free)]
            damp = 1e-14 * max(np.trace(A) / A.shape[0], 1.0)
            try:
                df = np.linalg.solve(A + damp * np.eye(A.shape[0]), g[free])
                if np.all(np.isfinite(df)) and float(df @ g[free]) > 0:
                    d[free] = df
                    solved = True
            except np.linalg.LinAlgError:
                pass
        if not solved:
            d = np.where(free, g, 0.0)
        eta, improved = 1.0, False
        for _ in range(30):
            v_new = np.maximum(v + eta * d, prob.floor)
            viol_new = prob.violation(v_new)
            if viol_new < viol:
                v, viol = v_new, viol_new
                improved = True
                break
            eta *= 0.5
        trace.append((it, viol))
        if not improved:
            break
    return v, it, viol <= cfg.residual_tol, trace


def _run_ascent(prob: _Ascent, v0: np.ndarray, cfg: SolverConfig):
    v = np.maximum(v0, prob.floor)
    val = prob.value(v)
    step = _STEP_INIT
    trace = []
    it = 0
    polish_trigger = _POLISH_TRIGGER_MULT * cfg.residual_tol
    best_recent = np.inf
    since_progress = 0
    while it < cfg.max_iters:
        it += 1
        c = prob.ray_scale(v)
        if np.isfinite(c) and c > 0:
            vc = np.maximum(c * v, prob.floor)
            valc = prob.value(vc)
            if valc >= val:
                v, val = vc, valc
        viol = prob.violation(v)
        trace.append((it, viol))
        if viol <= cfg.residual_tol:
            return v, it, True, trace
        # Hand over once first-order steps are in the polish basin or stalled.
        if viol < best_recent * 0.999:
            best_recent, since_progress = viol, 0
        else:
            since_progress += 1
        if viol <= polish_trigger or since_progress >= _STALL_WINDOW:
            return _polish(prob, v, it, trace, cfg)
        g = prob.grad(v)
        eta = step
        while True:
            v_new = np.maximum(v + eta * g, prob.floor)
            delta = v_new - v
            val_new = prob.value(v_new)
            if val_new >= val + _ARMIJO_SLOPE * float(g @ delta):
                break
            eta *= _ARMIJO_SHRINK
            if eta < _MIN_STEP:
                return _polish(prob, v, it, trace, cfg)
        step = eta * 2.0
        v, val = v_new, val_new
    return v, it, False, trace


def solve_proportional_fairness(
    inst: Instance, model: UtilityModel, cfg: Optional[SolverConfig] = None
) -> LindahlResult:
    """Equilibrium for degree-1 homogeneous families (linear, Cobb-Douglas).

    Here the equilibrium is the proportional-fairness point, the maximizer of
    sum_i log U_i(x) over {x >= 0, sum x <= B}.  For Cobb-Douglas it has the
    closed form x_j = (B/n) sum_i a_ij (floored at 1e-12 * B; no iterations);
    linear utilities are the case z = x of :func:`solve_potential`.
    """
    cfg = cfg or SolverConfig()
    if not model.homogeneous:
        raise ModelError(
            "proportional fairness equals the equilibrium only for degree-1 "
            "homogeneous families; use solve_potential for this model"
        )
    if not isinstance(model, CobbDouglas):
        return solve_potential(inst, model, cfg)
    xv = np.maximum((inst.budget / inst.n) * model.u.sum(axis=0), _SPEND_FLOOR * inst.budget)
    res = lindahl_residuals(inst, model, xv)
    viol = condition_violation(res, xv, inst.budget)
    return LindahlResult(
        x=Allocation(xv), residuals=res, iterations=0,
        converged=viol <= cfg.residual_tol, objective_trace=[(0, viol)],
    )


def solve_potential(
    inst: Instance, model: UtilityModel, cfg: Optional[SolverConfig] = None
) -> LindahlResult:
    """Equilibrium via the concave potential in marginal-spend space.

    Maximizes Phi(z) = sum_i log(u_i . z) - (n/B) sum_j R_j(z_j) over z at or
    above the spend floor mapped through z_of_x, by projected gradient ascent
    with Armijo backtracking, plus an exact 1-D ray search (the scalar c
    solving (c/B) sum_j c-scaled spend = 1) accepted only when it improves Phi.
    Converged means the equilibrium condition holds to ``residual_tol``
    (two-sided on funded items, one-sided on unfunded ones).
    """
    cfg = cfg or SolverConfig()
    zt = model.z_transform()
    n, k, B = inst.n, inst.k, inst.budget
    floor = zt.z_of_x(np.full(k, _SPEND_FLOOR * B))
    u = model.u

    def value(z):
        return float(np.log(u @ z).sum() - (n / B) * zt.integral(z).sum())

    def weights(z):
        return u.T @ (1.0 / (u @ z))

    def grad(z):
        return weights(z) - (n / B) * zt.ratio(z)

    def violation(z):
        r = zt.ratio(z)
        res = (B / n) * weights(z) / r - 1.0
        return condition_violation(res, zt.x_of_z(z), B)

    def funded(z):
        return _funded(zt.x_of_z(z), B)

    def ray_scale(z):
        # Root of the 1-D optimality condition (c/B) * sum_j ratio(c z) z = 1.
        # Degree-1 homogeneous utilities have a constant ratio, so the root is
        # closed-form; otherwise the left side is nondecreasing in c, so
        # bisect after bracketing.
        if model.homogeneous:
            return B / float(zt.ratio(z) @ z)

        def lhs(c):
            return (c / B) * float(zt.ratio(c * z) @ z)

        lo, hi = 1.0, 1.0
        if lhs(1.0) < 1.0:
            while lhs(hi) < 1.0:
                hi *= 2.0
                if hi > 1e12:
                    return 1.0
        else:
            while lhs(lo) > 1.0:
                lo *= 0.5
                if lo < 1e-12:
                    return 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # adjacent floats: no halving can move the bracket
                break
            if lhs(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def neg_hessian(z):
        uw = u / (u @ z)[:, None]
        return uw.T @ uw + (n / B) * np.diag(zt.ratio_prime(z))

    prob = _Ascent(value=value, grad=grad, violation=violation, floor=floor,
                   funded=funded, ray_scale=ray_scale, neg_hessian=neg_hessian)
    z0 = zt.z_of_x(np.full(k, B / k))
    z, iters, converged, trace = _run_ascent(prob, z0, cfg)
    xv = zt.x_of_z(z)
    return LindahlResult(x=Allocation(xv), residuals=lindahl_residuals(inst, model, xv),
                         iterations=iters, converged=converged, objective_trace=trace)


def _project_budget_box(v: np.ndarray, floor: float, cap: float) -> np.ndarray:
    """Euclidean projection onto { x >= floor, sum(x) <= cap }."""
    w = np.maximum(v - floor, 0.0)
    c = cap - floor * v.size
    if w.sum() > c:
        u = np.sort(w)[::-1]
        css = np.cumsum(u) - c
        idx = np.arange(1, w.size + 1)
        rho = np.flatnonzero(u - css / idx > 0)[-1]
        w = np.maximum(w - css[rho] / (rho + 1), 0.0)
    return w + floor


def sgd_elicitation(
    inst: Instance,
    model: UtilityModel,
    rounds: int,
    step_schedule: Union[float, Callable[[int], float]] = 1.0,
    seed: int = 0,
    cfg: Optional[SolverConfig] = None,
) -> LindahlResult:
    """Query-limited stochastic ascent on F(x) = (1/n) sum log U_i - |x|_1 / B.

    Each round samples one voter uniformly, asks only for their normalized
    utility-gradient direction (the unit-ball best response), and forms the
    gradient estimate d/(x . d) - 1/B (the normalization cancels, which is why
    the direction is a sufficient answer).  Iterates are projected onto
    { x >= floor, sum(x) <= B }, and the denominator is clamped below by
    B/(100 k) so a voter whose current value is near zero cannot blow the step
    up; the estimate is unbiased wherever the clamp is inactive.  A float
    ``step_schedule`` c means steps c/sqrt(t).
    """
    cfg = cfg or SolverConfig()
    if rounds < 1:
        raise ValueError("rounds must be positive")
    n, k, B = inst.n, inst.k, inst.budget
    floor = _SPEND_FLOOR * B
    clamp = B / (100.0 * k)
    if callable(step_schedule):
        step_of = step_schedule
    else:
        c = float(step_schedule)
        step_of = lambda t: c / np.sqrt(t)
    rng = np.random.default_rng(seed)
    x = np.full(k, B / k)
    trace = []
    checkpoint = max(1, rounds // 250)
    for t in range(1, rounds + 1):
        i = int(rng.integers(n))
        d = model.gradient(i, x)
        norm = float(np.linalg.norm(d))
        if norm <= 0:
            raise DegenerateAgentError(i)
        d = d / norm
        g = d / max(float(x @ d), clamp) - 1.0 / B
        x = _project_budget_box(x + step_of(t) * g, floor, B)
        if t % checkpoint == 0 or t == rounds:
            res = lindahl_residuals(inst, model, x)
            trace.append((t, condition_violation(res, x, B)))
    # The last round is always a checkpoint, so ``res`` belongs to the final x.
    return LindahlResult(x=Allocation(x), residuals=res, iterations=rounds,
                         converged=trace[-1][1] <= cfg.residual_tol, objective_trace=trace)
