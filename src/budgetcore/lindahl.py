"""Equilibrium solvers driven by the allocation-only optimality condition.

The fair (core) allocation is characterized item-by-item: for every item j,

    (B/n) * f_j'(x_j) * sum_i [ u_ij / (u_i . z(x)) ]  <=  1,   z_m = x_m f_m'(x_m),

with equality whenever x_j > 0.  ``lindahl_residuals`` reports the signed gap
of that condition per item from the model's item vectors f'(x) and z(x), with
no voter-by-item gradient matrix, summing over voters in one fixed order
whatever the BLAS thread count; the solvers drive it to zero.
``condition_violation`` holds the one funded rule, in spend space (x_j > 10 *
1e-12 * B, a decade above the solvers' spend floor), for every solver and the
core certificate alike.

``solve_potential`` is the one equilibrium entry point.  Cobb-Douglas
equilibria have the closed form x_j = (B/n) sum_i a_ij; every other
non-satiating family is solved in marginal-spend space, maximizing the concave
potential

    Phi(z) = sum_i log(u_i . z) - (n/B) sum_j R_j(z_j),

whose stationary points satisfy the condition above; z_j = x_j f_j'(x_j) and
R_j are the model's own maps (see ``budgetcore.model``).  Every step has z's
units at any budget scale and stays within [zvec(floor), zvec(B)], which no
equilibrium leaves.  For linear utilities z = x and Phi is the
proportional-fairness objective.  Smoothed saturating models are solved the
same way; their approximation factor is
``budgetcore.saturating.smoothing_alpha``.

The randomized mechanism's fairness point over its floored simplex is also
found by ``solve_potential``: shifting every linear utility by floor/slack
turns it into the proportional-fairness point of a budget-slack instance (see
``budgetcore.mechanism.proportional_fairness_point``), so this module holds the
package's one optimization engine, a projected damped Newton method.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import (
    Allocation,
    CobbDouglas,
    Instance,
    ModelError,
    UtilityModel,
    _weighted_slopes,
    allocation_vector,
    reject_bools,
)

__all__ = [
    "SolverConfig",
    "LindahlResult",
    "DegenerateAgentError",
    "lindahl_residuals",
    "condition_violation",
    "solve_potential",
]

# Steps are judged by Phi above this violation and by the violation below it.
_HANDOVER = 1e-3
_MAX_HALVINGS = 60
# Largest first-order fall of any voter's u_i . z that one step may take.
_TO_BOUNDARY = 0.99
# Solver spend floor, as a fraction of B: iterates stay at or above it, so logs
# stay finite.  An item is funded when its spend is more than a decade above it.
_SPEND_FLOOR = 1e-12
_FUNDED_FLOOR_MULT = 10.0


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
    ``residual_tol`` is finite and >= 0 and ``max_iters`` an integer >= 0;
    anything else raises ``ValueError``.
    """

    residual_tol: float = 1e-8
    max_iters: int = 50_000

    def __post_init__(self) -> None:
        reject_bools(**vars(self))
        tol = self.residual_tol
        if not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):
            raise ValueError(f"residual_tol must be finite and >= 0, got {tol!r}")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0:
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")


@dataclass
class LindahlResult:
    x: Allocation
    residuals: np.ndarray
    iterations: int
    converged: bool
    objective_trace: list = field(default_factory=list)


def _column_sums(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u^T w.  BLAS splits this reduction over voters across threads, which
    moves its last bits with the thread count; einsum sums in one fixed order."""
    return np.einsum("ij,i->j", u, w)


def _funded(x, budget: float) -> np.ndarray:
    """The one funded-item rule: spend x_j > 10 * 1e-12 * B."""
    return allocation_vector(x) > _FUNDED_FLOOR_MULT * _SPEND_FLOOR * budget


def condition_violation(res: np.ndarray, x, budget: float) -> float:
    """Violation of the condition at spend x: |res| if funded, else its positive part."""
    return float(np.where(_funded(x, budget), np.abs(res), np.maximum(res, 0.0)).max())


def lindahl_residuals(inst: Instance, model: UtilityModel, x) -> np.ndarray:
    """Signed per-item gap of the equilibrium condition, scaled by B/n.

    Component j is (B/n) f_j'(x_j) sum_i u_ij / (u_i . z(x)) - 1: zero on
    funded items and <= 0 on unfunded items at an exact solution.
    """
    xv = allocation_vector(x)
    if xv.size != inst.k:
        raise ValueError(f"allocation has {xv.size} items, expected {inst.k}")
    denom = model.u @ model.zvec(xv)
    bad = ~(denom > 0) | ~np.isfinite(denom)
    if np.any(bad):
        raise DegenerateAgentError(int(np.flatnonzero(bad)[0]))
    lhs = _weighted_slopes(_column_sums(model.u, 1.0 / denom), model.fprime(xv))
    return (inst.budget / inst.n) * lhs - 1.0


def solve_potential(
    inst: Instance, model: UtilityModel, cfg: Optional[SolverConfig] = None
) -> LindahlResult:
    """The equilibrium of a non-satiating family.

    Cobb-Douglas equilibria are proportional-fairness points with the closed
    form x_j = (B/n) sum_i a_ij (floored at 1e-12 * B; no iterations, one trace
    entry).  Every other family is solved in marginal-spend space: maximize
    Phi(z) = sum_i log(u_i . z) - (n/B) sum_j R_j(z_j) over z between the
    spend floor and B, both mapped through zvec, by projected damped Newton
    (Bertsekas 1982) from the even split B/k.  With w = 1/(u z), the gradient
    is g = u^T w - (n/B) ratio(z) and the negated Hessian is
    u^T diag(w^2) u + (n/B) diag(ratio'(z)); the Newton direction is solved on
    the free items (funded, or pushed off the floor by g > 0) and the others
    stay put.  The first trial step lets no voter's u_i . z fall by more than
    99% to first order, and is halved up to 60 times.  While the violation is
    above 1e-3 the first step that raises Phi is taken; below that, or when
    Phi cannot tell a step from rounding (its magnitude grows with n while the
    gains shrink), the first step that lowers the violation.  When no Newton
    step is accepted g/h is tried, h the negated Hessian's diagonal (g has
    units 1/B and h 1/B^2, so g/h has z's units at any B), and when that fails
    too the solve stops.  The bound at B keeps a smoothed item, whose spend
    grows like z^(1/eps) past its cap, from leaping far beyond the budget.
    Converged means the equilibrium condition holds to ``residual_tol``
    (two-sided on funded items, one-sided on unfunded ones).  Hard saturating
    models have no marginal-spend maps and raise :class:`ModelError` before
    any work.
    """
    cfg = cfg or SolverConfig()
    n, k, B = inst.n, inst.k, inst.budget
    if isinstance(model, CobbDouglas):
        xv = np.maximum((B / n) * model.u.sum(axis=0), _SPEND_FLOOR * B)
        res = lindahl_residuals(inst, model, xv)
        viol = condition_violation(res, xv, B)
        return LindahlResult(x=Allocation(xv), residuals=res, iterations=0,
                             converged=viol <= cfg.residual_tol, objective_trace=[(0, viol)])
    if not hasattr(model, "x_of_z"):
        raise ModelError(
            f"{type(model).__name__} has no marginal-spend transform "
            "(the family is not non-satiating)"
        )
    u, c = model.u, n / B
    floor = model.zvec(np.full(k, _SPEND_FLOOR * B))
    ceiling = model.zvec(np.full(k, B))  # no equilibrium spends more on one item

    def evaluate(z):
        """(Phi, violation, w, g) at z."""
        w = 1.0 / (u @ z)
        r = model.ratio(z)
        uw = _column_sums(u, w)
        viol = condition_violation(uw / (c * r) - 1.0, model.x_of_z(z), B)
        return float(-np.log(w).sum() - c * model.integral(z).sum()), viol, w, uw - c * r

    def line_search(d, by_phi):
        """The accepted projected step along d, as (z, evaluate(z)), or None."""
        # Fraction to the boundary of log's domain: a long step must not strand
        # a voter near the floor, from where Newton only doubles u_i . z.
        drop = (u @ d) * w
        eta = float((_TO_BOUNDARY / -drop[drop < -_TO_BOUNDARY]).min(initial=1.0))
        for _ in range(_MAX_HALVINGS):
            z_new = np.clip(z + eta * d, floor, ceiling)
            trial = evaluate(z_new)
            phi_new, viol_new = trial[:2]
            if by_phi:
                ok = phi_new > phi
            else:
                ok = viol_new < viol
            if ok and np.isfinite(phi_new) and np.isfinite(viol_new):
                return z_new, trial
            eta *= 0.5
        return None

    z = np.maximum(model.zvec(np.full(k, B / k)), floor)
    phi, viol, w, g = evaluate(z)
    trace, it = [(0, viol)], 0
    while viol > cfg.residual_tol and it < cfg.max_iters:
        M = (u.T * (w * w)) @ u
        h = np.diag(M) + c * model.ratio_prime(z)
        directions = [g / np.where(h > 0, h, h[h > 0].min())]  # tried when Newton fails
        free = _funded(model.x_of_z(z), B) | (g > 0)
        if np.any(free):
            A = M[np.ix_(free, free)]
            A[np.diag_indices_from(A)] = h[free]
            try:
                df = np.linalg.solve(A, g[free])
                if np.all(np.isfinite(df)) and float(df @ g[free]) > 0:
                    d = np.zeros(k)
                    d[free] = df
                    directions.insert(0, d)
            except np.linalg.LinAlgError:
                pass
        # A step that Phi cannot tell from rounding is judged by the violation.
        rules = (True, False) if viol > _HANDOVER else (False,)
        step = next(filter(None, (line_search(d, by_phi)
                                  for d in directions for by_phi in rules)), None)
        if step is None:
            break
        z, (phi, viol, w, g) = step
        it += 1
        trace.append((it, viol))
    xv = model.x_of_z(z)
    return LindahlResult(x=Allocation(xv), residuals=lindahl_residuals(inst, model, xv),
                         iterations=it, converged=viol <= cfg.residual_tol, objective_trace=trace)

