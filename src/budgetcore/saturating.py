"""Saturating utilities: the smoothing factor and the direct equilibrium solver.

Hard saturating value curves min(x_j/s_j, 1) violate non-satiation, so the
convex-program route does not apply directly.  Two workarounds:

* the smoothed relaxation swaps in the concave power tail past the cliff
  (:class:`~budgetcore.model.SmoothedSaturating`, or ``make_model(inst,
  "smoothed", eps_smooth=...)``), which ``budgetcore.lindahl.solve_potential``
  solves exactly; ``smoothing_alpha`` is the multiplicative approximation
  factor (1/eps)(B/s_min)^eps + 1 - 1/eps paid for the smoothing.

* ``heuristic_solve`` works on the hard curves by capped proportional response
  (CPR; Birnbaum, Devanur and Xiao, EC 2011; Kroer and Peters, 2025).  With
  v = u/s, prices y_j = w_j/s_j (w_j in [1e-12, 1]) and z = x w, voters split
  B/n in proportion to v_ij z_j, so item j collects z_j G_j, G = v^T ((B/n)/(v z)).
  A CPR pass is q <- T(q) = max(min(q + log G, log s - log G), log(s 1e-12)) in
  q = log z: an item keeps what it collects at w_j = 1 (branch F), is funded to
  its size at w_j = 1/G_j (branch S), or sits on the floor.  A fixed point is
  read as x = min(z G, s), 0 on the floor's F side, and y = clip(1/G, 1e-12,
  1)/s.  After 10 passes, each round takes a semismooth Newton step on
  r = q - T(q) (Qi and Sun, 1993), each row on the branch T took, through one
  k x k product for d log G/d q; a halving line search takes the first of 8
  trials in [floor, log s] that lowers max |r| by 1e-4 of itself, or else 10
  more CPR passes (q - r) run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import Allocation, Instance, _column_sums, reject_bools

__all__ = ["HeuristicConfig", "HeuristicResult", "smoothing_alpha", "heuristic_solve"]

_FLOOR = 1e-12  # least price weight w_j, and least z_j as a fraction of s_j
_CPR_PASSES = 10  # plain passes at the start and after a refused Newton step
_TRIALS = 8  # line-search trials, halving the step each time
_DECREASE = 1e-4  # least relative drop in max |r| that accepts a trial; rounding cycles


@dataclass
class HeuristicConfig:
    """Knobs for ``heuristic_solve``.

    ``eps_target`` defaults to 1/n at solve time (it depends on the instance,
    hence the None sentinel); otherwise it is finite and > 0.  ``max_sweeps``,
    the cap on evaluations of G, is an integer >= 1.  Else ``ValueError``.
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
    budget_flagged: bool = False  # the spend misses B by more than eps * B


def smoothing_alpha(budget: float, s_min: float, eps_smooth: float) -> float:
    """Multiplicative approximation factor of the smoothed program:
    (1/eps)(B/s_min)^eps + 1 - 1/eps."""
    e = eps_smooth
    return (budget / s_min) ** e / e + 1.0 - 1.0 / e


def _violation(u: np.ndarray, sizes: np.ndarray, scale: float, x: np.ndarray,
                      y: np.ndarray) -> float:
    """Largest gap between lhs_j = (B/n) y_j sum_i u_ij / (u_i . (x y)) and 1:
    one-sided for unfunded items (lhs_j <= 1) and for pinned ones (lhs_j >= 1),
    fully funded items whose solo supporters (who value no other funded item)
    hold lhs_j at 1 or more by themselves, (B/n) solo_j >= s_j."""
    with np.errstate(divide="ignore"):
        over = scale * y * _column_sums(u, 1.0 / (u @ (x * y))) - 1.0
    valued = u > 0
    funded = np.count_nonzero(valued[:, x > 0], axis=1)
    solo = np.count_nonzero(valued[funded == 1], axis=0)
    pinned = (x == sizes) & (scale * solo >= sizes)
    viol = np.where(x == 0.0, np.maximum(over, 0.0),
                    np.where(pinned, np.maximum(-over, 0.0), np.abs(over)))
    return float(viol.max())


def heuristic_solve(inst: Instance, cfg: Optional[HeuristicConfig] = None) -> HeuristicResult:
    """CPR with semismooth Newton steps for hard saturating utilities.

    Deterministic.  Stops once the ballots as given accept the returned (x, y)
    within ``eps_target``, after ``max_sweeps`` evaluations of G, or near a
    fixed point that no trial improves and the ballots reject (voters who value
    only some fully funded items overfill them at the price floor).  The trace
    holds max |r| per evaluation, but last the ballots' violation at (x, y),
    which decides ``converged``.  A missed budget is flagged, never rescaled.
    """
    cfg = cfg or HeuristicConfig()
    sizes = inst.require_sizes()
    B = inst.budget
    eps_target = 1.0 / inst.n if cfg.eps_target is None else cfg.eps_target

    if sizes.sum() <= B * (1.0 + 1e-12):
        # Everything fits: full funding gives every voter maximum utility at
        # once, so no coalition can improve anyone; the condition is moot.
        x, y, trace, viol = sizes.copy(), 1.0 / sizes, [(1, 0.0)], 0.0
    else:
        x, y, trace, viol = _iterate(inst.utilities, sizes, B, eps_target, cfg.max_sweeps)
    return HeuristicResult(x=Allocation(x), y=y, max_violation_trace=trace,
                           converged=viol <= eps_target,
                           budget_flagged=bool(abs(x.sum() - B) > eps_target * B))


def _iterate(u: np.ndarray, sizes: np.ndarray, B: float, eps_target: float, max_sweeps: int):
    """(x, y, trace, violation at (x, y)) of the iteration, for a binding budget."""
    n, k = u.shape
    v = np.divide(u, sizes, order="F")  # column-major: both products of G read it faster
    scale = B / n
    log_s = np.log(sizes)
    floor = log_s + math.log(_FLOOR)
    trace = []

    def evaluate(q):
        """(q, r, z, d, G, F side, on the floor) at q: one evaluation of G."""
        z = np.exp(q)
        d = v @ z
        g = _column_sums(v, scale / d)
        with np.errstate(divide="ignore"):
            log_g = np.log(g)
        f_side = q + 2.0 * log_g <= log_s
        t = np.where(f_side, q + log_g, log_s - log_g)
        on_floor = t < floor
        r = q - np.maximum(t, floor)
        trace.append((len(trace) + 1, float(np.abs(r).max())))
        return q, r, z, d, g, f_side, on_floor

    eye = np.eye(k)
    state = evaluate(np.log(np.minimum(sizes, B / k)))
    passes = _CPR_PASSES
    while True:
        q, r, z, d, g, f_side, on_floor = state
        worst = float(np.abs(r).max())
        with np.errstate(divide="ignore"):
            y = np.clip(1.0 / g, _FLOOR, 1.0) / sizes
        x = np.where(f_side & on_floor, 0.0, np.minimum(z * g, sizes))
        capped = len(trace) >= max_sweeps
        viol = _violation(u, sizes, scale, x, y) if worst <= eps_target or capped else math.inf
        if viol <= eps_target or capped:
            break
        if passes:
            passes -= 1
            state = evaluate(q - r)
            continue
        passes = _CPR_PASSES  # unless a trial is accepted below
        w = math.sqrt(scale) / d  # v^T diag(w^2) v by row blocks: no n x k temporary
        h = sum(b.T @ b for b in (v[i:i + 4096] * w[i:i + 4096, None] for i in range(0, n, 4096)))
        with np.errstate(divide="ignore", invalid="ignore"):  # G_j = 0: a floor row
            dlog_g = h * z / -g[:, None]
        jac = np.where(f_side[:, None], -dlog_g, eye + dlog_g)
        jac[on_floor] = eye[on_floor]
        try:
            step, trials = np.linalg.solve(jac, -r), _TRIALS
        except np.linalg.LinAlgError:
            step, trials = None, 0
        for eta in 0.5 ** np.arange(min(trials, max_sweeps - len(trace))):
            trial = evaluate(np.clip(q + eta * step, floor, log_s))
            if trace[-1][1] < (1.0 - _DECREASE) * worst:
                state, passes = trial, 0
                break
        if passes and viol < math.inf:
            break  # a fixed point within eps_target that no step improves and the ballots reject

    trace[-1] = (len(trace), viol)
    return x, y, trace, viol
