"""Core membership: residual certificates and brute-force deviation oracles.

An allocation is blocked if some coalition S could take its proportional slice
(|S|/n) * B of the budget and spend it so that *every* member strictly gains.
``residual_certificate`` turns solver residuals into an approximation bound,
and ``certify_from_residual`` evaluates the residuals at x first; the two
``find_deviation_*`` oracles search for explicit blocking coalitions by
exhaustive enumeration and are deliberately independent of the solvers (grid
search over spends, subset search over item bundles), so they can referee them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional

import numpy as np

from .lindahl import DegenerateAgentError, condition_violation, lindahl_residuals
from .model import Allocation, Instance, UtilityModel, allocation_vector

__all__ = [
    "CoreCertificate",
    "Deviation",
    "InstanceTooLarge",
    "certify_from_residual",
    "residual_certificate",
    "find_deviation_continuous",
    "find_deviation_integral",
    "budget_grid",
]

# Enumeration guards: the continuous oracle is exponential in k through the
# spend grid (size-s coalitions are handled by rank statistics, so n may be
# moderately large); the integral oracle is exponential in k outright.
_MAX_K_CONTINUOUS = 4
_MAX_N_CONTINUOUS = 500
_MAX_GRID_POINTS = 2_000_000
_MAX_K_INTEGRAL = 12
_MAX_N_INTEGRAL = 20
# Relative slack of the continuous oracle's crossing-budget test, far above
# rounding.  Cobb-Douglas has U(b y) = b^m U(y), m the exponent mass on funded
# items, and its log(0) stand-in lets m miss 1 by up to 7.5e-7 before U
# underflows to 0; b^(m - 1) stays within 1e-3 of 1 for every b >= 1e-200.
_PRUNE_RTOL = 1e-3


class InstanceTooLarge(ValueError):
    """The requested enumeration would be astronomically large."""


@dataclass(frozen=True)
class CoreCertificate:
    """Residual-based guarantee: no coalition S gains with budget (|S|/n - eps) B.

    ``budget_total`` is the certified spend and ``budget_cap`` the B/(1 - eps)
    ceiling it must stay under for the guarantee to be meaningful.
    """

    epsilon: float
    budget_total: float
    budget_cap: float
    guarantee: str

    @property
    def budget_ok(self) -> bool:
        """Certified spend under the cap; never True unless eps < 1, since at
        eps >= 1 every coalition budget (|S|/n - eps) B is empty."""
        return bool(self.epsilon < 1.0 and self.budget_total <= self.budget_cap * (1 + 1e-12))


@dataclass(frozen=True)
class Deviation:
    """A blocking move: ``coalition`` pools (|S|/n - slack) B and buys ``y``.

    ``min_gain`` is the worst member's improvement — additive difference or
    multiplicative ratio depending on the oracle mode; above the threshold
    (resp. 1 + threshold) for a valid refutation.
    """

    coalition: tuple
    y: Allocation
    min_gain: float
    mode: str


def certify_from_residual(inst: Instance, model: UtilityModel, x) -> CoreCertificate:
    """The :func:`residual_certificate` of x's equilibrium residuals, or none
    (naming the voter) when a voter has zero marginal spend and its residual
    is undefined."""
    xv = allocation_vector(x)
    try:
        res = lindahl_residuals(inst, model, xv)
    except DegenerateAgentError as e:
        return CoreCertificate(np.inf, float(xv.sum()), np.inf, f"unavailable: {e}")
    return residual_certificate(res, xv, inst.budget)


def residual_certificate(res: np.ndarray, x, budget: float) -> CoreCertificate:
    """Approximation bound from the equilibrium residuals ``res`` at x: eps is
    the largest two-sided residual on funded items / positive part on unfunded
    ones, under the solvers' own funded rule
    (:func:`budgetcore.lindahl.condition_violation`).

    eps >= 1 certifies nothing, since every budget (|S|/n - eps) B is empty;
    nor does a non-finite residual (say, 0 * inf in a gradient at a zero
    spend), which gives eps = inf."""
    xv = allocation_vector(x)
    total = float(xv.sum())
    eps = condition_violation(res, xv, budget)
    if not np.isfinite(eps):
        eps = np.inf
    if eps >= 1.0:
        return CoreCertificate(eps, total, np.inf, f"none: eps {eps:.3g} >= 1 empties every budget")
    cap = budget / (1.0 - eps)
    return CoreCertificate(
        epsilon=eps,
        budget_total=total,
        budget_cap=cap,
        guarantee=(
            f"no coalition S strictly improves all members using budget "
            f"(|S|/n - {eps:.3g}) * B; certified spend {total:.6g} <= {cap:.6g}"
        ),
    )


@lru_cache(maxsize=8)
def _budget_grid_cached(k: int, grid_steps: int) -> np.ndarray:
    # Item by item, a row with `rest` steps left splits into one row per count
    # the next item can take, largest first; the last item takes the rest.
    counts, rest = np.zeros((1, 0), dtype=np.int64), np.array([grid_steps])
    for _ in range(k - 1):
        row = np.repeat(np.arange(rest.size), rest + 1)  # the row each new row splits
        take = rest[row] - (np.arange(row.size) - np.searchsorted(row, row))
        counts, rest = np.column_stack([counts[row], take]), rest[row] - take
    out = np.column_stack([counts, rest]) / grid_steps
    out.setflags(write=False)
    return out


def budget_grid(k: int, grid_steps: int) -> np.ndarray:
    """All spend profiles on the budget simplex surface, as fractions.

    Rows are k-vectors of multiples of 1/grid_steps summing to exactly 1.
    Utilities are nondecreasing per coordinate, so any profile spending less
    than the full budget is dominated by one of these; enumerating the surface
    only is therefore lossless for the oracle's max-min question.
    """
    return _budget_grid_cached(int(k), int(grid_steps))


def find_deviation_continuous(
    inst: Instance,
    model: UtilityModel,
    x,
    grid_steps: int = 100,
    mode: str = "additive",
    threshold: float = 1e-3,
    budget_slack: float = 0.0,
) -> Optional[Deviation]:
    """Exhaustive blocking-coalition search over a spend grid.

    For every coalition size s, candidate spends are the grid points of the
    coalition budget (s/n - budget_slack) * B; a coalition of size s blocks a
    candidate y exactly when the s-th largest gain at y clears the threshold
    (so the best coalition for any y is the top-s gainers — this is equivalent
    to enumerating all 2^n coalitions).  ``threshold`` is the blocking margin t
    in both modes: gains are additive differences (``mode="additive"``,
    deviation when gain > t) or ratios (``mode="multiplicative"``, deviation
    when ratio > 1 + t).  Returns the deviation with maximal worst-member
    gain, or None.

    For degree-1 homogeneous families U_i(b p) = b U_i(p), so voter i clears
    the threshold at grid direction p iff b exceeds a crossing budget c_pi
    computed once from U(p); size s can block at p only if the s-th smallest
    c_pi is below its coalition budget, and other (p, s) pairs are skipped.
    The test's slack is far above rounding, so no pair that clears is skipped,
    and kept pairs' gains are computed as in the full scan: the search stays
    exhaustive and its result unchanged.  Other families scan every pair.
    """
    if mode not in ("additive", "multiplicative"):
        raise ValueError(f"unknown mode {mode!r}")
    if grid_steps < 1:
        raise ValueError(f"grid_steps must be at least 1, got {grid_steps!r}")
    # NaN or +inf would read as "no deviation"; -inf asks for the best deviation at any gain.
    if not (threshold < np.inf and np.isfinite(budget_slack)):
        raise ValueError(f"threshold {threshold!r} or budget_slack {budget_slack!r} out of range")
    bar = threshold if mode == "additive" else 1.0 + threshold  # what a gain must exceed
    n, k, B = inst.n, inst.k, inst.budget
    if k > _MAX_K_CONTINUOUS or n > _MAX_N_CONTINUOUS:
        raise InstanceTooLarge(
            f"continuous oracle enumerates a {k}-dim grid for {n} coalition sizes; "
            f"limits are k <= {_MAX_K_CONTINUOUS}, n <= {_MAX_N_CONTINUOUS}"
        )
    if comb(grid_steps + k - 1, k - 1) > _MAX_GRID_POINTS:
        raise InstanceTooLarge("spend grid too fine for this many items")

    xv = allocation_vector(x)
    Ux = model.utilities_all(xv)
    unit = budget_grid(k, grid_steps)
    crossing = np.broadcast_to(-np.inf, (unit.shape[0], n))  # admits every pair
    if model.homogeneous:
        # Voter i clears at b * p iff b * U_i(p) > need_i, i.e. iff b exceeds
        # c = need / U(p), less slack (+inf where U_i(p) = 0 and need_i >= 0).
        with np.errstate(divide="ignore", invalid="ignore"):
            need = bar + Ux if mode == "additive" else np.where(Ux > 0, bar * Ux, 0.0)
            slack = _PRUNE_RTOL * (abs(bar) * (1 + Ux) + Ux)
            c = (need - slack) / model.utilities_batch(unit)
        crossing = np.sort(np.where(np.isnan(c), np.inf, c), axis=1)
    best: Optional[Deviation] = None
    best_gain = -np.inf

    for s in range(1, n + 1):
        b = (s / n - budget_slack) * B
        rows = np.flatnonzero(crossing[:, s - 1] < b * (1 + _PRUNE_RTOL))
        if b <= 0 or rows.size == 0:
            continue
        # Evaluate every grid point, then keep the admitted rows: the kept
        # gains are bitwise those of the full scan, whatever rows BLAS gets.
        Uy = model.utilities_batch(unit * b)  # (points, n)
        if rows.size < unit.shape[0]:
            Uy = Uy[rows]
        if mode == "additive":
            gains = np.subtract(Uy, Ux[None, :], out=Uy)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = np.where(
                    Ux[None, :] > 0,
                    Uy / Ux[None, :],
                    np.where(Uy > 0, np.inf, -np.inf),
                )
        # s-th largest gain per candidate spend profile.
        kth = np.partition(gains, n - s, axis=1)[:, n - s]
        idx = int(np.argmax(kth))
        if kth[idx] > bar and kth[idx] > best_gain:
            row = gains[idx]
            members = np.argsort(-row, kind="stable")[:s]
            best_gain = float(kth[idx])
            best = Deviation(
                coalition=tuple(sorted(int(i) for i in members)),
                y=Allocation(unit[rows[idx]] * b),
                min_gain=best_gain,
                mode=mode,
            )
    return best


def find_deviation_integral(
    inst: Instance, x, epsilon_mult: float = 0.0
) -> Optional[Deviation]:
    """Blocking search over all-or-nothing bundles under saturating utilities.

    Enumerates item bundles T with cost(T) <= B; the candidate coalition is
    every voter with U_i(T) > (1 + epsilon_mult) U_i(x), and T blocks when that
    coalition's proportional budget covers cost(T).  (Taking all improvers
    maximizes the available budget, so this finds a deviation iff one exists.)
    All 2^k - 1 bundles are scored at once in array operations; ties go to
    the lowest bundle bitmask.
    """
    sizes = inst.require_sizes()
    n, k, B = inst.n, inst.k, inst.budget
    if k > _MAX_K_INTEGRAL or n > _MAX_N_INTEGRAL:
        raise InstanceTooLarge(
            f"integral oracle enumerates 2^{k} bundles over {n} voters; "
            f"limits are k <= {_MAX_K_INTEGRAL}, n <= {_MAX_N_INTEGRAL}"
        )
    # U(T) and cost(T) for every bitmask T (item j is bit j), value 1 per fully
    # funded item, built by adding items in index order as U(x) is: a bundle
    # worth exactly U_i(x) to voter i stays a tie, never an improvement.
    Ut, cost = np.zeros((1 << k, n)), np.zeros(1 << k)
    for j in range(k):
        Ut[1 << j : 2 << j] = Ut[: 1 << j] + inst.utilities[:, j]
        cost[1 << j : 2 << j] = cost[: 1 << j] + sizes[j]
    fx = np.minimum(allocation_vector(x) / sizes, 1.0)
    Ux = sum(fx[j] * inst.utilities[:, j] for j in range(k))
    improves = Ut > (1.0 + epsilon_mult) * Ux
    count = improves.sum(axis=1)
    # cost > 0 drops the empty bundle, and then (count / n) B >= cost needs
    # at least one improver.
    rows = np.flatnonzero((cost > 0) & (cost <= B) & ((count / n) * B >= cost))
    if rows.size == 0:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(Ux > 0, Ut[rows] / Ux, np.inf)
    gain = np.where(improves[rows], ratios, np.inf).min(axis=1)
    i = int(np.argmax(gain))
    return Deviation(
        coalition=tuple(int(v) for v in np.flatnonzero(improves[rows[i]])),
        y=Allocation(((rows[i] >> np.arange(k)) & 1) * sizes, kind="integral"),
        min_gain=float(gain[i]),
        mode="multiplicative",
    )
