"""Seeded stress corpora for ``solve_potential``, as code.

* ``sweep(seed)``: 1,000 draws with n in [2, 30), k in [2, 60), utilities
  U(0, 1) on a density U(0.3, 0.9) (a voter left with none gets one positive
  entry) and B = 10^U(-3, 9); linear on even draws, power-sum with one
  exponent alpha ~ U(0.2, 1) on odd ones.  Seeds 1 and 2 are the two sets.
* ``smoothed(seed)``: 500 draws of the same (u, B), with sizes B U(0.02, 0.5)
  and the smoothed saturating family at eps 0.1.  Seed 1 is the set.
* ``scaled(seed)``: 1,000 draws with n in [1, 60), k in [1, 12), the same
  utility draw on a density U(0.3, 1), times voter scales 10^U(-6, 6) and item
  scales 10^U(-4, 4), B = 10^U(-3, 9) and sizes B U(0.02, 0.5); linear,
  power-sum (one exponent, or one per item, each U(0.2, 1)) and smoothed 0.1
  in turn.  Seeds 0-2 are the set.
* ``saturating(seed)``: 600 draws for ``heuristic_solve`` with n in [5, 60),
  k in [2, 5), 0/1 approvals on a density U(0.2, 0.8) (on half the draws
  times U(0.1, 1) weights; a voter left with none approves one item), sizes
  U(0.05, 0.5) and B = 1.  It yields only the draws whose sizes overfill the
  budget, with their draw index.  Seed 11 is the set.
* ``elections()``: ``gen`` k-approval elections, the README demo (n=40, k=8),
  n=2054 k=10 and n=20000 k=30 (seeds 1-3), each under linear, power-sum 0.5
  and smoothed 0.1: the 15 solves of the benchmark's ``election`` workload.

``solve_counted`` runs one solve and counts its ``ratio`` calls, the solver's
unit of work.  ``python tests/corpora.py`` solves every set and prints, per
corpus and family, the unconverged count, iteration percentiles and ``ratio``
calls, and each election solve's iterations.  For the saturating set it runs
``heuristic_solve`` at ``eps_target`` 1e-9 and prints the binding, converged
and blocked counts, the blocked draws (continuous oracle, saturating,
multiplicative, threshold 1e-3, grid 40), and each unconverged draw's
evaluations of G and final violation.  It takes about 30 s.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script: import the package of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from budgetcore.ballots import gen_synthetic
from budgetcore.coreverify import find_deviation_continuous
from budgetcore.lindahl import solve_potential
from budgetcore.model import (
    Instance, Linear, PowerSum, Saturating, SmoothedSaturating, make_model,
)
from budgetcore.saturating import HeuristicConfig, heuristic_solve

SWEEP_DRAWS = 1000
SMOOTHED_DRAWS = 500
SCALED_DRAWS = 1000
SATURATING_DRAWS = 600


def _draw(rng):
    n, k = int(rng.integers(2, 30)), int(rng.integers(2, 60))
    u = rng.random((n, k)) * (rng.random((n, k)) < rng.uniform(0.3, 0.9))
    for i in np.flatnonzero(u.max(axis=1) == 0):
        u[i, rng.integers(k)] = rng.random() + 0.1
    return u, 10 ** rng.uniform(-3, 9)


def sweep(seed: int):
    """(instance, model) pairs: linear on even draws, power-sum on odd ones."""
    rng = np.random.default_rng(seed)
    for t in range(SWEEP_DRAWS):
        u, budget = _draw(rng)
        model = Linear(u) if t % 2 == 0 else PowerSum(u, rng.uniform(0.2, 1.0))
        yield Instance(utilities=u, budget=budget), model


def smoothed(seed: int):
    """(instance, smoothed model) pairs with sizes B U(0.02, 0.5), eps 0.1."""
    rng = np.random.default_rng(seed)
    for _ in range(SMOOTHED_DRAWS):
        u, budget = _draw(rng)
        sizes = budget * rng.uniform(0.02, 0.5, u.shape[1])
        yield (Instance(utilities=u, budget=budget, sizes=sizes),
               SmoothedSaturating(u, sizes, 0.1))


def scaled(seed: int):
    """(instance, model) pairs whose voters and items differ in scale by 1e12
    and 1e8."""
    rng = np.random.default_rng(seed)
    for t in range(SCALED_DRAWS):
        n, k = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        u = rng.random((n, k)) * (rng.random((n, k)) < rng.uniform(0.3, 1.0))
        for i in np.flatnonzero(u.max(axis=1) == 0):
            u[i, rng.integers(k)] = rng.random() + 0.1
        u *= 10 ** rng.uniform(-6, 6, (n, 1)) * 10 ** rng.uniform(-4, 4, (1, k))
        budget = 10 ** rng.uniform(-3, 9)
        sizes = budget * rng.uniform(0.02, 0.5, k)
        if t % 3 == 0:
            model = Linear(u)
        elif t % 3 == 1:
            model = PowerSum(u, rng.uniform(0.2, 1.0, k if rng.random() < 0.5 else 1))
        else:
            model = SmoothedSaturating(u, sizes, 0.1)
        yield Instance(utilities=u, budget=budget, sizes=sizes), model


def saturating(seed: int):
    """(draw index, instance) for the draws whose sizes overfill B = 1."""
    rng = np.random.default_rng(seed)
    for t in range(SATURATING_DRAWS):
        n, k = int(rng.integers(5, 60)), int(rng.integers(2, 5))
        u = (rng.random((n, k)) < rng.uniform(0.2, 0.8)).astype(float)
        if rng.random() < 0.5:
            u *= rng.uniform(0.1, 1.0, size=(n, k))
        for i in np.flatnonzero(u.max(axis=1) == 0):
            u[i, rng.integers(k)] = 1.0
        sizes = rng.uniform(0.05, 0.5, size=k)
        if sizes.sum() > 1.0:
            yield t, Instance(utilities=u, budget=1.0, sizes=sizes)


ELECTIONS = [(40, 8, 2, 1000.0), (2054, 10, 2, 1e6)] + [(20000, 30, s, 1e6) for s in (1, 2, 3)]
FAMILIES = [("linear", {}), ("powersum", {"alpha": 0.5}), ("smoothed", {"eps_smooth": 0.1})]


def elections():
    """(label, instance, model) for every election and family."""
    for n, k, seed, budget in ELECTIONS:
        inst = gen_synthetic("k-approval", n=n, k=k, seed=seed, budget=budget)
        for name, params in FAMILIES:
            yield f"n={n} k={k} seed={seed} {name}", inst, make_model(inst, name, **params)


def family(model) -> str:
    return {Linear: "linear", PowerSum: "powersum"}.get(type(model), "smoothed")


def solve_counted(inst, model):
    """``solve_potential``'s result and the number of ``ratio`` calls it made."""
    calls = 0
    ratio = model.ratio

    def counted(z):
        nonlocal calls
        calls += 1
        return ratio(z)

    model.ratio = counted
    try:
        result = solve_potential(inst, model)
    finally:
        del model.ratio
    return result, calls


# Each corpus: its generator and seeds.  The saturating set is for
# heuristic_solve; the others are for solve_potential.
CORPORA = {"sweep": (sweep, (1, 2)), "smoothed": (smoothed, (1,)), "scaled": (scaled, (0, 1, 2)),
           "saturating": (saturating, (11,))}
SOLVER_CORPORA = ("sweep", "smoothed", "scaled")


def saturating_table(seed: int) -> None:
    """The saturating set at ``eps_target`` 1e-9: binding, converged and
    blocked counts, and each unconverged draw's evaluations and violation."""
    binding, converged, blocked, stalls = 0, 0, [], []
    for t, inst in saturating(seed):
        binding += 1
        result = heuristic_solve(inst, HeuristicConfig(eps_target=1e-9))
        if not result.converged:
            passes, final = result.max_violation_trace[-1]
            stalls.append(f"draw {t}: {passes} evaluations, violation {final:.3g}")
            continue
        converged += 1
        model = Saturating(inst.utilities, inst.sizes)
        if find_deviation_continuous(inst, model, result.x, grid_steps=40,
                                     mode="multiplicative", threshold=1e-3) is not None:
            blocked.append(t)
    print(f"saturating seed {seed}: {binding} binding, {converged} converged, "
          f"{len(blocked)} blocked {blocked}")
    for line in stalls:
        print(f"  unconverged {line}")


def main() -> None:
    print("corpus   family     draws  unconverged  iterations p50/p90/p99/max  ratio calls")
    for corpus in SOLVER_CORPORA:
        draw, seeds = CORPORA[corpus]
        runs = {}  # family -> [(converged, iterations, ratio calls)]
        for inst, model in (pair for seed in seeds for pair in draw(seed)):
            result, calls = solve_counted(inst, model)
            runs.setdefault(family(model), []).append(
                (result.converged, result.iterations, calls))
        for name, rows in runs.items():
            ok, iters, calls = map(np.array, zip(*rows))
            pct = "/".join(f"{int(np.percentile(iters, q))}" for q in (50, 90, 99, 100))
            print(f"{corpus:<8} {name:<10} {ok.size:>5}  {ok.size - ok.sum():>11}  "
                  f"{pct:>26}  {calls.sum():>11}")
    print("election solves (iterations, converged):")
    for label, inst, model in elections():
        result = solve_potential(inst, model)
        print(f"  {label:<36} {result.iterations:>4}  {result.converged}")
    for seed in CORPORA["saturating"][1]:
        saturating_table(seed)


if __name__ == "__main__":
    main()
