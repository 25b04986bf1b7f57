"""Core membership: residual certificates and brute-force deviation oracles.

An allocation is blocked if some coalition S could take its proportional slice
(|S|/n) * B of the budget and spend it so that *every* member strictly gains.
``certify_from_residual`` turns solver residuals into an approximation bound;
the two ``find_deviation_*`` oracles search for explicit blocking coalitions by
exhaustive enumeration and are deliberately independent of the solvers (grid
search over spends, subset search over item bundles), so they can referee them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .lindahl import lindahl_residuals
from .model import Allocation, Instance, Saturating, UtilityModel, allocation_vector

__all__ = [
    "CoreCertificate",
    "Deviation",
    "InstanceTooLarge",
    "certify_from_residual",
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
        """Certified spend under the cap; never True without a finite epsilon."""
        if not np.isfinite(self.epsilon):
            return False
        return self.budget_total <= self.budget_cap * (1 + 1e-12)


@dataclass(frozen=True)
class Deviation:
    """A blocking move: ``coalition`` pools (|S|/n - slack) B and buys ``y``.

    ``min_gain`` is the worst member's improvement — additive difference or
    multiplicative ratio depending on the oracle mode; positive (resp. above
    the ratio threshold) for a valid refutation.
    """

    coalition: tuple
    y: Allocation
    min_gain: float
    mode: str


def certify_from_residual(
    inst: Instance, model: UtilityModel, x, funded_tol: Optional[float] = None
) -> CoreCertificate:
    """Approximation bound from the equilibrium residuals: eps is the largest
    two-sided residual on funded items / positive part on unfunded ones.

    A non-finite residual (say, 0 * inf in a gradient at a zero spend) gives
    eps = inf, which certifies nothing."""
    xv = allocation_vector(x)
    tol = 1e-11 * inst.budget if funded_tol is None else funded_tol
    res = lindahl_residuals(inst, model, xv)
    funded = xv > tol
    eps = float(np.where(funded, np.abs(res), np.maximum(res, 0.0)).max())
    if not np.isfinite(eps):
        eps = np.inf
    total = float(xv.sum())
    cap = inst.budget / (1.0 - eps) if eps < 1.0 else np.inf
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
    flat = np.fromiter(
        (j for combo in combinations_with_replacement(range(k), grid_steps) for j in combo),
        dtype=np.int64,
    )
    rows = np.repeat(np.arange(flat.size // grid_steps), grid_steps)
    out = np.zeros((flat.size // grid_steps, k), dtype=float)
    np.add.at(out, (rows, flat), 1.0)
    out /= grid_steps
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


def _n_compositions(total: int, parts: int) -> int:
    from math import comb

    return comb(total + parts - 1, parts - 1)


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
    to enumerating all 2^n coalitions).  Gains are additive differences
    (``mode="additive"``, deviation when gain > threshold) or ratios
    (``mode="multiplicative"``, deviation when ratio > threshold).  Returns the
    deviation with maximal worst-member gain, or None.
    """
    if mode not in ("additive", "multiplicative"):
        raise ValueError(f"unknown mode {mode!r}")
    n, k, B = inst.n, inst.k, inst.budget
    if k > _MAX_K_CONTINUOUS or n > _MAX_N_CONTINUOUS:
        raise InstanceTooLarge(
            f"continuous oracle enumerates a {k}-dim grid for {n} coalition sizes; "
            f"limits are k <= {_MAX_K_CONTINUOUS}, n <= {_MAX_N_CONTINUOUS}"
        )
    if _n_compositions(grid_steps, k) > _MAX_GRID_POINTS:
        raise InstanceTooLarge("spend grid too fine for this many items")

    xv = allocation_vector(x)
    Ux = model.utilities_all(xv)
    unit = budget_grid(k, grid_steps)
    best: Optional[Deviation] = None
    best_gain = -np.inf

    for s in range(1, n + 1):
        b = (s / n - budget_slack) * B
        if b <= 0:
            continue
        Uy = model.utilities_batch(unit * b)  # (points, n)
        if mode == "additive":
            gains = Uy - Ux[None, :]
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
        if kth[idx] > threshold and kth[idx] > best_gain:
            row = gains[idx]
            members = np.argsort(-row, kind="stable")[:s]
            best_gain = float(kth[idx])
            best = Deviation(
                coalition=tuple(sorted(int(i) for i in members)),
                y=Allocation(unit[idx] * b),
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
    """
    sizes = inst.require_sizes()
    n, k, B = inst.n, inst.k, inst.budget
    if k > _MAX_K_INTEGRAL or n > _MAX_N_INTEGRAL:
        raise InstanceTooLarge(
            f"integral oracle enumerates 2^{k} bundles over {n} voters; "
            f"limits are k <= {_MAX_K_INTEGRAL}, n <= {_MAX_N_INTEGRAL}"
        )
    model = Saturating(inst.utilities, sizes)
    Ux = model.utilities_all(allocation_vector(x))
    factor = 1.0 + epsilon_mult

    best: Optional[Deviation] = None
    best_gain = -np.inf
    for bits in range(1, 1 << k):
        bundle = np.array([(bits >> j) & 1 for j in range(k)], dtype=float)
        cost = float(bundle @ sizes)
        if cost > B:
            continue
        # Full funding of the bundle: value 1 per bundled item.
        Ut = inst.utilities @ bundle
        improvers = np.flatnonzero(Ut > factor * Ux)
        if improvers.size == 0 or (improvers.size / n) * B < cost:
            continue
        with np.errstate(divide="ignore"):
            ratios = np.where(Ux[improvers] > 0, Ut[improvers] / Ux[improvers], np.inf)
        gain = float(ratios.min())
        if gain > best_gain:
            best_gain = gain
            best = Deviation(
                coalition=tuple(int(i) for i in improvers),
                y=Allocation(bundle * sizes, kind="integral"),
                min_gain=gain,
                mode="multiplicative",
            )
    return best
