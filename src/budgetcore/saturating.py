"""Saturating utilities: the smoothing factor and the direct heuristic.

Hard saturating value curves min(x_j/s_j, 1) violate non-satiation, so the
convex-program route does not apply directly.  Two workarounds:

* the smoothed relaxation swaps in the concave power tail past the cliff
  (:class:`~budgetcore.model.SmoothedSaturating`, or ``make_model(inst,
  "smoothed", eps_smooth=...)``), which ``budgetcore.lindahl.solve_potential``
  solves exactly; ``smoothing_alpha`` is the multiplicative approximation
  factor (1/eps)(B/s_min)^eps + 1 - 1/eps paid for the smoothing.

* ``heuristic_solve`` works on the hard curves.  It maintains spends x_j and
  subgradient choices y_j in [0, 1/s_j] (y_j = 1/s_j wherever x_j < s_j), and
  repeatedly re-solves the single worst item: the equilibrium condition

      lhs_j = (B/n) * sum_i u_ij y_j / (sum_m u_im x_m y_m)  vs  1

  should hold with equality on funded items, one-sidedly (<=) on unfunded
  ones and (>=) on pinned ones, saturated items whose lhs stays >= 1 however
  small y_j gets.  Each sweep picks the item with the largest violation and
  restores its condition by safeguarded Newton (bisection where a Newton step
  is unusable) on a bracket around the root, first in x_j at y_j = 1/s_j, then
  in y_j at x_j = s_j if the spend saturates.  Convergence, judged on the
  ballots as given, is not guaranteed and is reported honestly.  A sweep costs
  one n x k product (every lhs_j) plus work on the re-solved item's supporters
  alone: their denominators are carried, and updated in place for item j.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .model import Allocation, Instance, reject_bools

__all__ = [
    "HeuristicConfig",
    "HeuristicResult",
    "smoothing_alpha",
    "heuristic_solve",
]

# Lower end of the root bracket for the subgradient, as a fraction of the
# slope 1/s_j.  Where the condition is still unreachable there, the re-solve
# leaves the item at full funding and the slope.
_Y_BRACKET_FLOOR = 1e-12
_ROOT_MAX_ITERS = 200
_ROOT_TOL = 1e-10  # accepted root bracket, relative to max(s_j, 1) in x_j, 1/s_j in y_j


@dataclass
class HeuristicConfig:
    """Knobs for ``heuristic_solve``.

    ``eps_target`` defaults to 1/n at solve time (it depends on the instance,
    hence the None sentinel); otherwise it is finite and > 0.  ``max_sweeps``
    is an integer >= 1.  Anything else raises ``ValueError``.
    """

    eps_target: Optional[float] = None
    max_sweeps: int = 10_000

    def __post_init__(self) -> None:
        reject_bools(**vars(self))
        if not isinstance(self.max_sweeps, numbers.Integral) or self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be an integer >= 1, got {self.max_sweeps!r}")
        eps = self.eps_target
        if eps is not None and not (isinstance(eps, numbers.Real) and 0 < eps < math.inf):
            raise ValueError(f"eps_target must be None or finite and > 0, got {eps!r}")


@dataclass
class HeuristicResult:
    x: Allocation
    y: np.ndarray
    max_violation_trace: list = field(default_factory=list)
    converged: bool = False
    # True when the returned spend, converged or not, misses the budget by
    # more than eps * B (reported, never silently rescaled).
    budget_flagged: bool = False


def smoothing_alpha(budget: float, s_min: float, eps_smooth: float) -> float:
    """Multiplicative approximation factor of the smoothed program:
    (1/eps)(B/s_min)^eps + 1 - 1/eps."""
    e = eps_smooth
    return (budget / s_min) ** e / e + 1.0 - 1.0 / e


def _gaps(w: np.ndarray, x: float, y: float, scale: float) -> Tuple[float, float, float, float]:
    """(1 - 1/lhs_j, its x_j-derivative, 1 - lhs_j, its y_j-derivative) at (x, y).

    ``w`` holds rest_i / u_ij over the voters with u_ij > 0 (the others add 0),
    so voter i's term u_ij / (rest_i + u_ij x y) is 1 / (w_i + x y).  Each gap
    is decreasing and convex in its variable: 1/lhs_j is a harmonic mean of affine functions
    of x_j (linear for one voter), and lhs_j is increasing and concave in y_j.
    """
    t = 1.0 / (w + x * y)  # +inf at x = 0 for a voter with rest 0; callers silence it
    s1, s2 = float(t.sum()), float(t @ t)
    lhs = scale * y * s1
    if lhs == 0.0:
        return -math.inf, math.nan, 1.0, math.nan
    return 1.0 - 1.0 / lhs, -s2 / (scale * s1 * s1), 1.0 - lhs, scale * (x * y * s2 - s1)


def _decreasing_root(h, lo: float, hi: float, at_lo: Tuple[float, float],
                     width: float) -> float:
    """Root of h, from a bracket around it no wider than ``width``.

    h(v) -> (value, slope) is decreasing and convex, h(lo) = ``at_lo`` > 0 >=
    h(hi), so Newton steps from lo stop at or short of the root; one that is
    not finite or leaves the bracket anyway becomes a bisection.  A step under
    half the width is lengthened by half a width, past the root, to close it.
    """
    v, (hv, dv) = lo, at_lo
    for _ in range(_ROOT_MAX_ITERS):
        step = -hv / dv if dv < 0.0 and math.isfinite(hv) else math.nan
        if hi - lo <= width:
            # Accepted: one more Newton step estimates the root inside it.
            return v + step if lo <= v + step <= hi else 0.5 * (lo + hi)
        if abs(step) < 0.5 * width:
            step += 0.5 * width if hv > 0.0 else -0.5 * width
        v = v + step if lo < v + step < hi else 0.5 * (lo + hi)
        hv, dv = h(v)
        lo, hi = (v, hi) if hv > 0.0 else (lo, v)
    return 0.5 * (lo + hi)


def _resolve_item(u_on: np.ndarray, s_j: float, rest_on: np.ndarray, scale: float,
                  tol: float) -> Tuple[float, float]:
    """Restore item j's condition given its supporters' utilities ``u_on`` > 0
    and everybody else's contributions to their denominators, ``rest_on``.

    Returns (x_j, y_j).  A saturated item whose condition the y bracket cannot
    reach keeps (s_j, 1/s_j).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        w = rest_on / u_on
        slope = 1.0 / s_j
        at_zero = _gaps(w, 0.0, slope, scale)[:2]
        if at_zero[0] <= 0.0:
            # Equality would need negative spend; the inequality holds at zero.
            return 0.0, slope
        if _gaps(w, s_j, slope, scale)[0] < 0.0:
            xj = _decreasing_root(lambda x: _gaps(w, x, slope, scale)[:2],
                                  0.0, s_j, at_zero, tol * max(s_j, 1.0))
            return xj, slope
        # Saturates: clamp the spend and search the subgradient instead.
        lo = _Y_BRACKET_FLOOR * slope
        at_lo = _gaps(w, s_j, lo, scale)[2:]
        if at_lo[0] <= 0.0:
            return s_j, slope
        yj = _decreasing_root(lambda y: _gaps(w, s_j, y, scale)[2:],
                              lo, slope, at_lo, tol * slope)
        return s_j, yj


def heuristic_solve(inst: Instance, cfg: Optional[HeuristicConfig] = None) -> HeuristicResult:
    """Worst-item sweep heuristic for hard saturating utilities.

    Deterministic.  May fail to converge (``converged=False`` with the best
    iterate found), and stops when the worst item's re-solve returns it
    unchanged; never rescales the spend to force budget feasibility -- a miss
    beyond eps * B is flagged instead.
    """
    cfg = cfg or HeuristicConfig()
    sizes = inst.require_sizes()
    n, k, B = inst.n, inst.k, inst.budget
    eps_target = 1.0 / n if cfg.eps_target is None else cfg.eps_target

    if sizes.sum() <= B * (1.0 + 1e-12):
        # Everything fits: full funding puts every voter at maximum utility
        # simultaneously, so no coalition can improve anyone and the sweep
        # condition (which presumes the budget binds) is moot.
        return HeuristicResult(
            x=Allocation(sizes.copy()),
            y=1.0 / sizes,
            max_violation_trace=[(1, 0.0)],
            converged=True,
            budget_flagged=abs(float(sizes.sum()) - B) > eps_target * B,
        )

    u = np.asfortranarray(inst.utilities)  # columns u[:, j] are contiguous
    scale = B / n
    # Each item's supporters (u_ij > 0): the only voters that moving it touches.
    valued = u > 0
    support = [np.flatnonzero(valued[:, j]) for j in range(k)]
    u_support = [u[on, j] for j, on in enumerate(support)]

    x = np.minimum(sizes, B / k)
    y = 1.0 / sizes
    # A saturated item is pinned when (B/n) solo_j >= s_j, the y_j -> 0 limit
    # of lhs_j: solo_j counts the voters who value j and no other funded item.
    funded = np.count_nonzero(valued[:, x > 0], axis=1)
    solo = [np.count_nonzero(funded[ids] == 1) for ids in support]
    pinnable = scale * np.array(solo) >= sizes
    trace = []
    best = (np.inf, x.copy(), y.copy())
    converged = False
    contrib = x * y
    denom = u @ contrib  # kept up to date item by item below

    for sweep in range(1, cfg.max_sweeps + 1):
        with np.errstate(divide="ignore"):
            inv = 1.0 / denom
        over = scale * y * (u.T @ inv) - 1.0
        pinned = (x == sizes) & pinnable
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
        on, u_on = support[j], u_support[j]
        rest = denom[on] - u_on * contrib[j]
        xj, yj = _resolve_item(u_on, float(sizes[j]), rest, scale, _ROOT_TOL)
        if xj == x[j] and yj == y[j]:
            break  # the worst item cannot move, so every later sweep repeats this one
        if (xj > 0.0) != (x[j] > 0.0):
            funded[on] += 1 if xj > 0.0 else -1
            solo = [np.count_nonzero(funded[ids] == 1) for ids in support]
            pinnable = scale * np.array(solo) >= sizes
        x[j], y[j], contrib[j] = xj, yj, xj * yj
        denom[on] = rest + u_on * contrib[j]

    if not converged:
        _, x, y = best
    return HeuristicResult(
        x=Allocation(x),
        y=y,
        max_violation_trace=trace,
        converged=converged,
        budget_flagged=bool(abs(x.sum() - B) > eps_target * B),
    )
