"""Saturating-utility solvers: the smoothed relaxation and the direct heuristic.

Hard saturating value curves min(x_j/s_j, 1) violate non-satiation, so the
convex-program route does not apply directly.  Two workarounds:

* ``solve_smoothed`` swaps in the concave power tail past the cliff
  (:class:`~budgetcore.model.SmoothedSaturating`), solves the resulting convex
  program exactly, and reports the multiplicative approximation factor
  (1/eps)(B/s_min)^eps + 1 - 1/eps paid for the smoothing.

* ``heuristic_solve`` works on the hard curves.  It maintains spends x_j and
  subgradient choices y_j in [0, 1/s_j] (y_j = 1/s_j wherever x_j < s_j), and
  repeatedly re-solves the single worst item: the equilibrium condition

      lhs_j = (B/n) * sum_i u_ij y_j / (sum_m u_im x_m y_m)  vs  1

  should hold with equality on funded items, one-sidedly (<=) on unfunded
  ones.  Each sweep picks the item with the largest violation and restores its
  condition exactly by bisection, first in x_j at y_j = 1/s_j, then in y_j at
  x_j = s_j if the spend saturates.  Utilities are jittered once up front to
  break degeneracies; convergence is not guaranteed and is reported honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .lindahl import LindahlResult, SolverConfig, solve_potential
from .model import (
    Allocation,
    Instance,
    Saturating,
    SmoothedSaturating,
)

__all__ = [
    "HeuristicConfig",
    "HeuristicResult",
    "smooth_relax",
    "smoothing_alpha",
    "solve_smoothed",
    "heuristic_solve",
]

# Lower end of the bisection bracket for the subgradient, as a fraction of the
# slope 1/s_j.  Below this the condition is judged unreachable and the item is
# pinned at full funding.
_Y_BRACKET_FLOOR = 1e-12
_BISECT_MAX_ITERS = 200


@dataclass
class HeuristicConfig:
    """Knobs for ``heuristic_solve``.

    ``eps_target`` defaults to 1/n and ``perturb_alpha`` to 1/k^2 at solve
    time (both depend on the instance, hence the None sentinel).
    """

    eps_target: Optional[float] = None
    perturb_alpha: Optional[float] = None
    max_sweeps: int = 10_000
    bisection_tol: float = 1e-10
    seed: int = 0

    def resolve(self, n: int, k: int) -> Tuple[float, float]:
        eps = 1.0 / n if self.eps_target is None else self.eps_target
        pert = 1.0 / k**2 if self.perturb_alpha is None else self.perturb_alpha
        return eps, pert


@dataclass
class HeuristicResult:
    x: Allocation
    y: np.ndarray
    max_violation_trace: list = field(default_factory=list)
    converged: bool = False
    perturbed_utilities: Optional[np.ndarray] = None
    # True when the converged spend misses the budget by more than eps * B
    # (reported, never silently rescaled).
    budget_flagged: bool = False


def smooth_relax(model: Saturating, eps_smooth: float) -> SmoothedSaturating:
    """The concave-tail relaxation of a hard saturating model."""
    return SmoothedSaturating(model.u, model.sizes, eps_smooth)


def smoothing_alpha(budget: float, s_min: float, eps_smooth: float) -> float:
    """Multiplicative approximation factor of the smoothed program:
    (1/eps)(B/s_min)^eps + 1 - 1/eps."""
    e = eps_smooth
    return (budget / s_min) ** e / e + 1.0 - 1.0 / e


def solve_smoothed(
    inst: Instance, eps_smooth: float, cfg: Optional[SolverConfig] = None
) -> Tuple[LindahlResult, float]:
    """Solve the smoothed relaxation exactly; return (result, approximation factor)."""
    sizes = inst.require_sizes()
    model = SmoothedSaturating(inst.utilities, sizes, eps_smooth)
    result = solve_potential(inst, model, cfg)
    return result, smoothing_alpha(inst.budget, float(sizes.min()), eps_smooth)


def _condition_lhs(u_col: np.ndarray, y: float, own: np.ndarray, rest: np.ndarray,
                   scale: float) -> float:
    """lhs_j as a function of this item's (x_j y_j) contribution ``own``."""
    denom = rest + own
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(u_col > 0, u_col / denom, 0.0)
    return scale * y * float(terms.sum())


def _resolve_item(u_col: np.ndarray, s_j: float, rest: np.ndarray, scale: float,
                  tol: float) -> Tuple[float, float, bool]:
    """Restore item j's condition given everybody else's contributions ``rest``.

    Returns (x_j, y_j, pinned); pinned means the item saturates and no
    subgradient choice can reach equality (its lhs is then judged one-sidedly).
    """
    slope = 1.0 / s_j

    def lhs_at_x(xj: float) -> float:
        return _condition_lhs(u_col, slope, u_col * xj * slope, rest, scale)

    if lhs_at_x(0.0) <= 1.0:
        # Equality would need negative spend; the inequality holds at zero.
        return 0.0, slope, False
    if lhs_at_x(s_j) >= 1.0:
        # Saturates: clamp the spend and search the subgradient instead.
        def lhs_at_y(yj: float) -> float:
            return _condition_lhs(u_col, yj, u_col * s_j * yj, rest, scale)

        lo, hi = _Y_BRACKET_FLOOR * slope, slope
        if lhs_at_y(lo) >= 1.0:
            return s_j, slope, True
        for _ in range(_BISECT_MAX_ITERS):
            if hi - lo <= tol * slope:
                break
            mid = 0.5 * (lo + hi)
            if lhs_at_y(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        return s_j, 0.5 * (lo + hi), False
    lo, hi = 0.0, s_j
    for _ in range(_BISECT_MAX_ITERS):
        if hi - lo <= tol * max(s_j, 1.0):
            break
        mid = 0.5 * (lo + hi)
        if lhs_at_x(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), slope, False


def heuristic_solve(inst: Instance, cfg: Optional[HeuristicConfig] = None) -> HeuristicResult:
    """Worst-item sweep heuristic for hard saturating utilities.

    Deterministic given the seed.  May fail to converge (``converged=False``
    with the best iterate found); never rescales the spend to force budget
    feasibility — a miss beyond eps * B is flagged instead.
    """
    cfg = cfg or HeuristicConfig()
    sizes = inst.require_sizes()
    n, k, B = inst.n, inst.k, inst.budget
    eps_target, perturb = cfg.resolve(n, k)

    if sizes.sum() <= B * (1.0 + 1e-12):
        # Everything fits: full funding puts every voter at maximum utility
        # simultaneously, so no coalition can improve anyone and the sweep
        # condition (which presumes the budget binds) is moot.
        return HeuristicResult(
            x=Allocation(sizes.copy()),
            y=1.0 / sizes,
            max_violation_trace=[(1, 0.0)],
            converged=True,
            perturbed_utilities=inst.utilities.copy(),
            budget_flagged=abs(float(sizes.sum()) - B) > eps_target * B,
        )

    rng = np.random.default_rng(cfg.seed)
    u = inst.utilities.copy()
    if perturb > 0:
        u = u + rng.uniform(0.0, perturb, size=u.shape)
    scale = B / n

    x = np.minimum(sizes, B / k)
    y = 1.0 / sizes
    pinned = np.zeros(k, dtype=bool)
    trace = []
    best = (np.inf, x.copy(), y.copy())
    converged = False

    for sweep in range(1, cfg.max_sweeps + 1):
        contrib = x * y
        denom = u @ contrib
        with np.errstate(divide="ignore"):
            inv = 1.0 / denom
        lhs = scale * y * (u.T @ inv)
        over = lhs - 1.0
        viol = np.where(
            x == 0.0,
            np.maximum(over, 0.0),
            np.where(pinned, np.maximum(-over, 0.0), np.abs(over)),
        )
        max_viol = float(viol.max())
        trace.append((sweep, max_viol))
        if max_viol < best[0]:
            best = (max_viol, x.copy(), y.copy())
        if max_viol <= eps_target:
            converged = True
            break
        j = int(np.argmax(viol))
        rest = denom - u[:, j] * contrib[j]
        xj, yj, pin = _resolve_item(u[:, j], float(sizes[j]), rest, scale,
                                    cfg.bisection_tol)
        x[j], y[j] = xj, yj
        # Any move elsewhere can unpin an item, so pins survive one sweep only.
        pinned[:] = False
        pinned[j] = pin

    if not converged:
        _, x, y = best
    budget_flagged = converged and abs(x.sum() - B) > eps_target * B
    return HeuristicResult(
        x=Allocation(x),
        y=y,
        max_violation_trace=trace,
        converged=converged,
        perturbed_utilities=u,
        budget_flagged=budget_flagged,
    )
