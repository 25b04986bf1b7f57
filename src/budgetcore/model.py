"""Problem instances, utility families, and the marginal-spend change of variables.

Everything downstream consumes the same primitives: a voter/item matrix wrapped
in :class:`Instance` and a utility family layered on top of it.  Every family
carries the per-item slope ``fprime`` and marginal spend ``zvec``, z_j = x_j *
f_j'(x_j), the two vectors of the equilibrium condition (Cobb-Douglas those of
its log-separable form).  The non-satiating families (linear, power-sum,
smoothed-saturating) also carry the solver's maps back from z: ``x_of_z``;
``ratio(z) = x/z = 1/f'(x)``, nondecreasing (this is exactly non-satiation);
``integral``, its antiderivative R with R(0) = 0, which makes the solver's
potential concave; and ``ratio_prime``, the potential's per-item curvature.
All are vectorized over item vectors.

Utilities are additive across items, ``U_i(x) = sum_j u_ij * f_j(x_j)``, except
for the Cobb-Douglas family which is the product form ``prod_j x_j^{a_ij}``
(degree-1 homogeneous; its equilibrium has a closed form).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

__all__ = [
    "ModelError",
    "AllocationKind",
    "Allocation",
    "Instance",
    "UtilityModel",
    "Linear",
    "PowerSum",
    "CobbDouglas",
    "Saturating",
    "SmoothedSaturating",
    "make_model",
    "allocation_vector",
]

# Relative half-width of the band around x_j = s_j that the saturating family
# treats as its kink and differentiates from the left (exact float equality is
# too brittle for callers that compute x_j = s_j arithmetically).
_KINK_RTOL = 1e-9


class ModelError(ValueError):
    """A utility family was used outside its domain (missing sizes, bad params...)."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class AllocationKind(str, Enum):
    FRACTIONAL = "fractional"
    INTEGRAL = "integral"


@dataclass(frozen=True)
class Allocation:
    """A nonnegative spend vector, tagged fractional or integral (all-or-nothing)."""

    x: np.ndarray
    kind: AllocationKind = AllocationKind.FRACTIONAL

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float).reshape(-1)
        if x.size == 0:
            raise ValueError("allocation must have at least one item")
        if not np.all(np.isfinite(x)):
            raise ValueError("allocation entries must be finite")
        if np.any(x < 0):
            raise ValueError("allocation entries must be nonnegative")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "kind", AllocationKind(self.kind))

    def total(self) -> float:
        return float(self.x.sum())

    def funded(self) -> np.ndarray:
        """Indices of items with positive spend."""
        return np.flatnonzero(self.x > 0.0)

    def funded_set(self) -> frozenset:
        return frozenset(int(j) for j in self.funded())


def allocation_vector(x: Union[Allocation, np.ndarray, list]) -> np.ndarray:
    """Accept an :class:`Allocation` or a raw vector; return a float array."""
    if isinstance(x, Allocation):
        return x.x
    return np.asarray(x, dtype=float).reshape(-1)


def reject_bools(error: type = ValueError, **values) -> None:
    """Raise ``error`` for a bool in ``values`` or their entries: JSON's true
    passes ``isinstance(v, numbers.Integral)``, but no knob is a flag."""
    for name, value in values.items():
        if any(isinstance(v, bool) for v in np.ravel(np.asarray(value, dtype=object))):
            raise error(f"{name} must be a number, got {value!r}")


def _item_sizes(sizes, k: int) -> np.ndarray:
    """Validated, read-only item sizes for instances and the size-based families."""
    s = np.asarray(sizes, dtype=float).reshape(-1)
    if s.size != k:
        raise ModelError(f"sizes has length {s.size}, expected {k}")
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ModelError("sizes must be positive and finite")
    return _readonly(s)


@dataclass(frozen=True)
class Instance:
    """n voters, k items, a budget, and (optionally) item sizes.

    Invariants enforced here: utilities nonnegative and finite with at least one
    positive entry per voter, budget positive, sizes (when present) positive and
    of length k, item names unique.
    """

    utilities: np.ndarray
    budget: float
    sizes: Optional[np.ndarray] = None
    item_names: tuple = ()

    def __post_init__(self) -> None:
        u = np.atleast_2d(np.asarray(self.utilities, dtype=float))
        if u.ndim != 2 or u.size == 0:
            raise ValueError("utilities must be a nonempty (n, k) matrix")
        if not np.all(np.isfinite(u)):
            raise ValueError("utilities must be finite")
        if np.any(u < 0):
            raise ValueError("utilities must be nonnegative")
        row_max = u.max(axis=1)
        if np.any(row_max <= 0):
            i = int(np.flatnonzero(row_max <= 0)[0])
            raise ValueError(f"voter {i} has no positive utility entry")
        if not (np.isfinite(self.budget) and self.budget > 0):
            raise ValueError("budget must be a positive real")
        object.__setattr__(self, "utilities", _readonly(u))
        object.__setattr__(self, "budget", float(self.budget))

        if self.sizes is not None:
            object.__setattr__(self, "sizes", _item_sizes(self.sizes, u.shape[1]))

        names = tuple(self.item_names) or tuple(f"item_{j}" for j in range(u.shape[1]))
        if len(names) != u.shape[1]:
            raise ValueError(f"{len(names)} item names for {u.shape[1]} items")
        if len(set(names)) != len(names):
            raise ValueError("item names must be unique")
        object.__setattr__(self, "item_names", names)

    @property
    def n(self) -> int:
        return self.utilities.shape[0]

    @property
    def k(self) -> int:
        return self.utilities.shape[1]

    def require_sizes(self) -> np.ndarray:
        if self.sizes is None:
            raise ModelError("this model requires item sizes, but the instance has none")
        return self.sizes


class UtilityModel(abc.ABC):
    """Base for utility families; concrete families fill in the array kernels."""

    #: True when U_i(b x) = b U_i(x).  Read only by the continuous oracle's
    #: crossing-budget pruning.
    homogeneous = False

    def __init__(self, utilities: np.ndarray):
        u = np.atleast_2d(np.asarray(utilities, dtype=float))
        if np.any(u < 0) or not np.all(np.isfinite(u)):
            raise ModelError("utility matrix must be nonnegative and finite")
        self.u = _readonly(u)

    @property
    def k(self) -> int:
        return self.u.shape[1]

    def utilities_all(self, x: np.ndarray) -> np.ndarray:
        """U_i(x) for every voter, shape (n,): one row of :meth:`utilities_batch`."""
        return self.utilities_batch(allocation_vector(x)[None, :])[0]

    @abc.abstractmethod
    def utilities_batch(self, X: np.ndarray) -> np.ndarray:
        """U_i(row) for a batch of allocations, shape (m, k) -> (m, n)."""

    @abc.abstractmethod
    def gradients_all(self, x: np.ndarray) -> np.ndarray:
        """dU_i/dx_j for every voter, shape (n, k)."""

    @abc.abstractmethod
    def fprime(self, x: np.ndarray) -> np.ndarray:
        """Per-item slope f_j'(x_j) of the separable form, shape (k,)."""

    @abc.abstractmethod
    def zvec(self, x: np.ndarray) -> np.ndarray:
        """Per-item marginal spend x_j f_j'(x_j), written so x = 0 never gives 0 * inf."""


def _weighted_slopes(u: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """u * f'(x), with 0 where u is 0 even if f'(x) is inf (x^a, a < 1, at x = 0)."""
    with np.errstate(invalid="ignore"):
        return np.where(u > 0, u * fp, 0.0)


class _ScalarSeparable(UtilityModel):
    """U_i(x) = sum_j u_ij f_j(x_j); families supply f, f', and x f'(x)."""

    @abc.abstractmethod
    def f(self, x: np.ndarray) -> np.ndarray:
        """Item value curve, broadcast over trailing item axis."""

    def utilities_batch(self, X: np.ndarray) -> np.ndarray:
        return self.f(np.asarray(X, dtype=float)) @ self.u.T

    def gradients_all(self, x: np.ndarray) -> np.ndarray:
        return _weighted_slopes(self.u, self.fprime(allocation_vector(x)))


class PowerSum(_ScalarSeparable):
    """f_j(x) = x^{a_j} with a_j in (0, 1]; concave diminishing returns per item."""

    def __init__(self, utilities: np.ndarray, alpha: np.ndarray):
        super().__init__(utilities)
        a = np.asarray(alpha, dtype=float).reshape(-1)
        if a.size == 1:
            a = np.full(self.k, a[0])
        if a.size != self.k:
            raise ModelError(f"alpha has length {a.size}, expected {self.k}")
        if not np.all((a > 0) & (a <= 1)):  # NaN fails both comparisons
            raise ModelError("power exponents must lie in (0, 1]")
        self.alpha = _readonly(a)
        self.homogeneous = bool(np.all(a == 1.0))

    def f(self, x):
        return np.asarray(x, dtype=float) ** self.alpha

    def fprime(self, x):
        xv = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return self.alpha * xv ** (self.alpha - 1.0)

    def zvec(self, x):
        return self.alpha * np.asarray(x, dtype=float) ** self.alpha

    def x_of_z(self, z):
        a = self.alpha
        return (np.asarray(z, dtype=float) / a) ** (1.0 / a)

    def ratio(self, z):
        # x_of_z(z)/z in the algebraically stable form a^{-1/a} z^{1/a - 1};
        # at z = 0 this is 0 for a < 1 and 1 for a = 1, the f'(x) limits.
        a = self.alpha
        return a ** (-1.0 / a) * np.asarray(z, dtype=float) ** (1.0 / a - 1.0)

    def integral(self, z):
        return self.alpha * self.x_of_z(z)

    def ratio_prime(self, z):
        a = self.alpha
        coef = a ** (-1.0 / a) * (1.0 / a - 1.0)
        with np.errstate(divide="ignore"):
            pow_term = np.asarray(z, dtype=float) ** (1.0 / a - 2.0)
        # At a = 1, coef is 0 and z^{-1} is inf at z = 0: np.where drops 0 * inf's NaN.
        with np.errstate(invalid="ignore"):
            return np.where(coef == 0.0, 0.0, coef * pow_term)


class Linear(PowerSum):
    """f_j(x) = x: utilities are just vote-weighted spend, the power sum at exponent 1."""

    def __init__(self, utilities: np.ndarray):
        super().__init__(utilities, 1.0)


class CobbDouglas(UtilityModel):
    """U_i(x) = prod_j x_j^{a_ij} with rows of a summing to one.

    The exponent matrix doubles as the instance's utility matrix. The core is
    invariant under monotone transforms, so solvers work on the separable
    log U_i = sum_j a_ij log x_j, whose slope f' is 1/x and marginal spend z is 1.
    """

    _ROW_SUM_TOL = 1e-9
    homogeneous = True

    def __init__(self, exponents: np.ndarray):
        super().__init__(exponents)
        rows = self.u.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > self._ROW_SUM_TOL):
            i = int(np.argmax(np.abs(rows - 1.0)))
            raise ModelError(
                f"Cobb-Douglas exponent rows must sum to 1; row {i} sums to {rows[i]:.12g}"
            )

    def utilities_batch(self, X: np.ndarray) -> np.ndarray:
        # 0^a is 0 for a > 0 and 1 for a = 0.  In the rows with a zero spend,
        # u >= 0 makes the product positive exactly where a voter's U is 0.
        X = np.asarray(X, dtype=float)
        pos = X > 0
        with np.errstate(divide="ignore"):
            U = np.exp(np.where(pos, np.log(X), 0.0) @ self.u.T)
        rows = np.flatnonzero(~pos.all(axis=1))
        U[rows] = np.where(~pos[rows] @ self.u.T > 0, 0.0, U[rows])
        return U

    def gradients_all(self, x) -> np.ndarray:
        xv = allocation_vector(x)
        if np.any(xv <= 0):
            raise ModelError("Cobb-Douglas gradient needs strictly positive x")
        U = self.utilities_all(xv)
        return self.u * (U[:, None] / xv[None, :])

    def fprime(self, x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(x, dtype=float)

    def zvec(self, x):
        return np.ones_like(np.asarray(x, dtype=float))


class Saturating(_ScalarSeparable):
    """f_j(x) = min(x/s_j, 1): value accrues linearly until the item is fully funded.

    At the kink x_j = s_j the gradient is the left derivative 1/s_j.
    """

    def __init__(self, utilities: np.ndarray, sizes: np.ndarray):
        super().__init__(utilities)
        self.sizes = _item_sizes(sizes, self.k)

    def f(self, x):
        return np.minimum(np.asarray(x, dtype=float) / self.sizes, 1.0)

    def fprime(self, x):
        rel = np.asarray(x, dtype=float) / self.sizes
        return np.where(rel <= 1.0 + _KINK_RTOL, 1.0 / self.sizes, 0.0)

    def zvec(self, x):
        # x f'(x): the full x/s_j up to the cap, 0 past fprime's kink band.
        rel = np.asarray(x, dtype=float) / self.sizes
        return np.where(rel <= 1.0 + _KINK_RTOL, np.minimum(rel, 1.0), 0.0)


class SmoothedSaturating(_ScalarSeparable):
    """Saturating value curve continued past the cliff with a concave power tail.

    g_j(x) = x/s_j for x <= s_j and (1/eps)(x/s_j)^eps + 1 - 1/eps beyond, which
    is C^1, strictly increasing (hence admits the marginal-spend transform), and
    collapses to the hard saturating curve as eps -> 0.
    """

    def __init__(self, utilities: np.ndarray, sizes: np.ndarray, eps_smooth: float):
        super().__init__(utilities)
        self.sizes = _item_sizes(sizes, self.k)
        if not (0 < eps_smooth <= 1):
            raise ModelError("smoothing exponent must lie in (0, 1]")
        self.eps_smooth = float(eps_smooth)

    def f(self, x):
        rel = np.asarray(x, dtype=float) / self.sizes
        e = self.eps_smooth
        return np.where(rel <= 1.0, rel, rel ** e / e + 1.0 - 1.0 / e)

    def fprime(self, x):
        rel = np.asarray(x, dtype=float) / self.sizes
        e = self.eps_smooth
        return np.where(rel <= 1.0, 1.0, rel ** (e - 1.0)) / self.sizes

    def zvec(self, x):
        rel = np.asarray(x, dtype=float) / self.sizes
        return np.where(rel <= 1.0, rel, rel ** self.eps_smooth)

    def x_of_z(self, z):
        z, e = np.asarray(z, dtype=float), self.eps_smooth
        return self.sizes * np.where(z <= 1.0, z, z ** (1.0 / e))

    def ratio(self, z):
        z, e = np.asarray(z, dtype=float), self.eps_smooth
        return self.sizes * np.where(z <= 1.0, 1.0, z ** (1.0 / e - 1.0))

    def integral(self, z):
        z, e = np.asarray(z, dtype=float), self.eps_smooth
        return self.sizes * np.where(z <= 1.0, z, 1.0 + e * (z ** (1.0 / e) - 1.0))

    def ratio_prime(self, z):
        z, e = np.asarray(z, dtype=float), self.eps_smooth
        return self.sizes * np.where(z <= 1.0, 0.0, (1.0 / e - 1.0) * z ** (1.0 / e - 2.0))


# The one parameter each family takes (None: it takes none).
_FAMILY_PARAM = {"linear": None, "powersum": "alpha", "cobbdouglas": None, "saturating": None,
                 "smoothed": "eps_smooth"}


def make_model(inst: Instance, family: str, **params) -> UtilityModel:
    """Build a utility family from an instance. Size-based families pull
    ``inst.sizes`` and raise :class:`ModelError` when the instance has none; a
    missing parameter, or one the family does not take, is a ModelError too."""
    family = family.lower().replace("-", "").replace("_", "")
    if family not in _FAMILY_PARAM:
        raise ModelError(f"unknown utility family {family!r}")
    allowed = _FAMILY_PARAM[family]
    for key in sorted(set(params) - {allowed}):
        takes = f"takes only {allowed!r}" if allowed else "takes no parameters"
        raise ModelError(f"unknown parameter {key!r} for utility family {family!r}, which {takes}")
    reject_bools(ModelError, **params)
    value = params.get(allowed)
    if allowed and value is None:
        raise ModelError(f"utility family {family!r} needs the parameter {allowed!r}")
    if family == "linear":
        return Linear(inst.utilities)
    if family == "powersum":
        return PowerSum(inst.utilities, value)
    if family == "cobbdouglas":
        return CobbDouglas(inst.utilities)
    if family == "saturating":
        return Saturating(inst.utilities, inst.require_sizes())
    return SmoothedSaturating(inst.utilities, inst.require_sizes(), value)

