"""Turning fractional spends into funded-project lists, and comparing schemes.

Two ranking schemes, both "value per dollar" orderings over items with sizes:

* Core   -- score ``x_j / s_j`` from a fractional core allocation: how fully
  the equilibrium funds each item.
* Welfare -- score ``votes_j / s_j``: approvals per dollar, which for
  saturating 0/1 utilities is the exact greedy for total-utility maximization.

Each scheme yields an integral allocation (walk the ranking, fund whatever
still fits) and a fractional one (fund fully in order, give the first
non-fitting item the leftover).  Similarity between schemes is measured by the
Jaccard index of the funded sets and by budget overlap of the fractional
spends.

The module also hosts the statistical side: pairwise chi-squared independence
tests over approval columns with average-linkage clustering of the resulting
correlated/independent distance matrix, and a Monte-Carlo harness for the
random-preferences model in which welfare-optimal sets are approximately
core-stable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .ballots import _redraw_empty
from .coreverify import Deviation, find_deviation_integral
from .model import Allocation, AllocationKind, Instance, allocation_vector

__all__ = [
    "AggregationError",
    "Scheme",
    "RankedScheme",
    "IndependenceReport",
    "TrialOutcome",
    "vote_counts",
    "rank_and_round",
    "jaccard",
    "budget_similarity",
    "chi2_pairwise",
    "random_model_trial",
]

# Absolute slack (relative to budget scale) when testing whether an item still
# fits under the remaining budget, so cent-exact fills survive float rounding.
_FIT_RTOL = 1e-9


class AggregationError(ValueError):
    """Invalid input to ranking, similarity, or analysis routines."""


class Scheme(str, Enum):
    CORE = "core"
    WELFARE = "welfare"


@dataclass(frozen=True)
class RankedScheme:
    """A scheme's ranking plus its rounded outcomes."""

    scheme: Scheme
    order: np.ndarray
    scores: np.ndarray
    fractional: Allocation
    integral: Allocation

    def funded_names(self, inst: Instance) -> tuple:
        return tuple(inst.item_names[j] for j in self.integral.funded())


def vote_counts(inst: Instance) -> np.ndarray:
    """Number of voters with positive utility for each item."""
    return (inst.utilities > 0).sum(axis=0)


def rank_and_round(
    inst: Instance,
    scheme: Union[Scheme, str],
    fractional_core: Optional[Union[Allocation, np.ndarray]] = None,
) -> RankedScheme:
    """Rank items under a scheme and greedily round to funded sets.

    The integral pass skips items that no longer fit and keeps going down the
    list; the fractional pass funds items fully in order and hands the first
    item that does not fit all of the remaining budget.
    """
    scheme = Scheme(scheme)
    sizes = inst.require_sizes()
    if scheme is Scheme.CORE:
        if fractional_core is None:
            raise AggregationError("Core ranking needs the fractional core allocation")
        x = allocation_vector(fractional_core)
        if x.size != inst.k:
            raise AggregationError(f"core allocation has {x.size} items, expected {inst.k}")
        scores = x / sizes
    else:
        scores = vote_counts(inst) / sizes

    order = np.argsort(-scores, kind="stable")  # equal scores keep the lower index first
    budget = inst.budget
    slack = _FIT_RTOL * max(budget, 1.0)

    x_int = np.zeros(inst.k)
    x_frac = None  # branches off at the first item that does not fit
    remaining = budget
    for j in order:
        if sizes[j] <= remaining + slack:
            x_int[j] = sizes[j]
            remaining -= sizes[j]
        elif x_frac is None:
            x_frac = x_int.copy()
            x_frac[j] = remaining

    return RankedScheme(
        scheme=scheme,
        order=order,
        scores=scores,
        fractional=Allocation(x=x_int if x_frac is None else x_frac,
                              kind=AllocationKind.FRACTIONAL),
        integral=Allocation(x=x_int, kind=AllocationKind.INTEGRAL),
    )


def jaccard(a: Allocation, b: Allocation) -> float:
    """Overlap of funded sets: |A & B| / |A | B|, with 1.0 when both are empty."""
    A, B = a.funded_set(), b.funded_set()
    union = A | B
    if not union:
        return 1.0
    return len(A & B) / len(union)


def budget_similarity(
    x: Union[Allocation, np.ndarray], z: Union[Allocation, np.ndarray], budget: float
) -> float:
    """Shared spend between two fractional allocations, as a fraction of budget."""
    if budget <= 0:
        raise AggregationError("budget must be positive")
    xv, zv = allocation_vector(x), allocation_vector(z)
    return float(np.minimum(xv, zv).sum() / budget)


# ---------------------------------------------------------------------------
# Independence analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceReport:
    """Pairwise chi-squared results and the clustering they induce.

    ``merges`` follows the usual agglomerative convention over the
    ``clustered_items`` subset: leaves are numbered 0..m-1 in that order, the
    t-th merge creates cluster m+t, and each entry is
    (cluster_a, cluster_b, height).
    """

    p_values: np.ndarray
    correlated: np.ndarray
    merges: tuple
    clustered_items: tuple
    degenerate_items: tuple
    dof: int
    alpha: float
    sample_ok: bool


def chi2_pairwise(inst: Instance, dof: int = 2, alpha: float = 0.1) -> IndependenceReport:
    """Pairwise independence tests over approval columns, plus clustering.

    Approval is ``u_ij > 0``.  Each pair gets a Pearson chi-squared statistic
    on its 2x2 contingency table (no continuity correction) and a p-value at
    the configured degrees of freedom; pairs with p < ``alpha`` count as
    correlated and get distance 0, others distance 1.  Average-linkage
    clustering of that matrix gives the merge sequence.  Constant columns
    cannot be tested; they are reported separately and left out of the
    clustering.
    """
    # Lazy: over half a second to import.  chdtrc(dof, x) is chi2.sf(x, dof).
    from scipy.cluster.hierarchy import linkage
    from scipy.special import chdtrc

    if dof < 1:
        raise AggregationError("dof must be at least 1")
    if not 0 < alpha < 1:  # NaN would flag no pair, and alpha >= 1 every one
        raise AggregationError(f"alpha must lie in (0, 1), got {alpha!r}")
    votes = inst.utilities > 0
    n, k = votes.shape
    col_sum = votes.sum(axis=0)
    degenerate = (col_sum == 0) | (col_sum == n)
    if degenerate.any():
        names = [inst.item_names[j] for j in np.flatnonzero(degenerate)]
        warnings.warn(
            f"constant approval columns excluded from independence analysis: {names}",
            RuntimeWarning,
            stacklevel=2,
        )

    # Each pair's both-approve count c comes from one Gram product (exact in
    # float below 2**53).  With column counts a, b it fixes the 2x2 table, and
    # Pearson's statistic stays in exact integers: n11 n00 - n10 n01 = n c - a b.
    v = votes.astype(float)
    both = v.T @ v
    j, m = np.triu_indices(k, 1)
    tested = ~(degenerate[j] | degenerate[m])
    j, m = j[tested], m[tested]
    counts = zip(both[j, m].astype(int).tolist(), col_sum[j].tolist(), col_sum[m].tolist())
    stats = [n * (n * c - a * b) ** 2 / (a * (n - a) * b * (n - b)) for c, a, b in counts]
    p_values = np.full((k, k), np.nan)
    p_values[j, m] = p_values[m, j] = chdtrc(dof, np.array(stats, dtype=float))

    with np.errstate(invalid="ignore"):  # an untested pair's NaN compares False
        correlated = p_values < alpha

    kept = np.flatnonzero(~degenerate)
    merges: list = []
    if kept.size >= 2:
        sub = correlated[np.ix_(kept, kept)]
        dist = 1.0 - sub.astype(float)
        condensed = dist[np.triu_indices(kept.size, k=1)]
        Z = linkage(condensed, method="average")
        merges = [(int(a), int(b), float(h)) for a, b, h, _ in Z]

    p_values.setflags(write=False)
    correlated.setflags(write=False)
    return IndependenceReport(
        p_values=p_values,
        correlated=correlated,
        merges=tuple(merges),
        clustered_items=tuple(int(j) for j in kept),
        degenerate_items=tuple(int(j) for j in np.flatnonzero(degenerate)),
        dof=dof,
        alpha=alpha,
        sample_ok=bool(n >= 20),
    )


# ---------------------------------------------------------------------------
# Random-preferences model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialOutcome:
    """One draw of the random-approval model and its core check."""

    selected: tuple
    expected_welfare: float
    threshold: float
    precondition_ok: bool
    deviation: Optional[Deviation]


def random_model_trial(
    p: np.ndarray,
    u: np.ndarray,
    budget_items: int,
    n: int,
    eps: float,
    seed: int = 0,
) -> TrialOutcome:
    """Sample unit-cost approvals, fund the expected-welfare top set, test the core.

    Approvals are independent Bernoulli(p_j); a voter's utility for funded set
    S is the sum of u_j over approved members of S.  The welfare set S* takes
    the ``budget_items`` largest p_j * u_j.  When the per-agent expectation
    E[U(S*)] clears (1/eps) * sqrt(B ln B), such sets should essentially never
    admit a coalition improving every member by a factor above 1 + eps; the
    returned outcome lets callers tally how often one exists anyway.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    k = p.size
    if u.shape != (k,):
        raise AggregationError("p and u must have matching length")
    if not (np.all((p >= 0) & (p <= 1)) and np.any(p > 0)):  # all 0: no ballot ever fills
        raise AggregationError("approval probabilities must lie in [0, 1], not all 0")
    if np.any(u <= 0):
        raise AggregationError("item utilities must be positive")
    if not 1 <= budget_items <= k:
        raise AggregationError("budget_items must lie in [1, k]")
    if eps <= 0:
        raise AggregationError("eps must be positive")

    rng = np.random.default_rng(seed)
    # Voters approving nothing have identically zero utility and can neither
    # gain nor block; redraw them so the instance stays well-formed at fixed n.
    votes = _redraw_empty(rng.random((n, k)) < p, rng, p)

    selected = np.argsort(-(p * u), kind="stable")[:budget_items]
    x = np.zeros(k)
    x[selected] = 1.0
    inst = Instance(
        utilities=votes * u[None, :],
        budget=float(budget_items),
        sizes=np.ones(k),
    )
    deviation = find_deviation_integral(
        inst, Allocation(x=x, kind=AllocationKind.INTEGRAL), epsilon_mult=eps
    )
    expected = float((p * u)[selected].sum())
    threshold = math.sqrt(budget_items * math.log(budget_items)) / eps
    return TrialOutcome(
        selected=tuple(int(j) for j in selected),
        expected_welfare=expected,
        threshold=threshold,
        precondition_ok=bool(expected > threshold),
        deviation=deviation,
    )
