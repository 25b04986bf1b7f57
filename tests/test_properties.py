"""Property tests: the solver converges, its claim and the core certificate
agree, its outputs pass the continuous oracle, the saturating heuristic's
convergence claim holds on the ballots, both solvers are invariant under
permuting voters or items and under repeating every voter, both scale with
budget and sizes (the equilibrium solver also where items outnumber voters),
both deviation oracles block the same allocations and the core certificate
gives the same bound whatever the voter and item order and with every voter
repeated, votes files round-trip, and sampler states stay feasible.

Instances are small approval-style profiles, some with items nobody values,
so that solver outputs keep items at the spend floor; the examples are
derandomized, so every run checks the same cases.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetcore.ballots import parse_votes, write_votes
from budgetcore.coreverify import (
    certify_from_residual,
    find_deviation_continuous,
    find_deviation_integral,
)
from budgetcore.lindahl import SolverConfig, solve_potential
from budgetcore.mechanism import FeasibleSet, MechanismConfig, sample_chain
from budgetcore.model import Instance, Linear, PowerSum, SmoothedSaturating
from budgetcore.saturating import HeuristicConfig, heuristic_solve
from test_saturating import ballot_violation

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None, database=None)


@st.composite
def instances(draw, max_n=10, max_k=5):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(2, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = (rng.random((n, k)) < draw(st.floats(0.2, 0.8))).astype(float)
    if draw(st.booleans()):
        u *= rng.uniform(0.1, 1.0, size=(n, k))
    if draw(st.booleans()):
        u[:, rng.integers(k)] = 0.0  # an item nobody values sits at the floor
    for i in np.flatnonzero(u.max(axis=1) == 0):
        u[i, rng.integers(k)] = 1.0
    budget = draw(st.sampled_from([1.0, 1000.0, 1e6]))
    sizes = budget * rng.uniform(0.05, 0.5, size=k)
    return Instance(utilities=u, budget=budget, sizes=sizes)


@st.composite
def models(draw, inst):
    family = draw(st.sampled_from(["linear", "powersum", "smoothed"]))
    if family == "linear":
        return Linear(inst.utilities)
    if family == "powersum":
        return PowerSum(inst.utilities, draw(st.floats(0.2, 1.0)))
    return SmoothedSaturating(inst.utilities, inst.sizes, draw(st.floats(0.05, 1.0)))


def reindexed(inst, voters, items):
    """``inst`` over the utility rows ``voters`` and the item columns ``items``."""
    return Instance(utilities=inst.utilities[np.ix_(voters, items)], budget=inst.budget,
                    sizes=inst.sizes[items])


def same_family(model, sub, items):
    """``model``'s family and parameter on ``sub``, whose items are ``model``'s ``items``."""
    if isinstance(model, SmoothedSaturating):
        return SmoothedSaturating(sub.utilities, sub.sizes, model.eps_smooth)
    if isinstance(model, Linear):
        return Linear(sub.utilities)
    return PowerSum(sub.utilities, model.alpha[items])


def relabelings(data, inst):
    """(voters, items) index arrays: a voter permutation, an item permutation
    and every voter twice."""
    voters, items = np.arange(inst.n), np.arange(inst.k)
    return [(np.array(data.draw(st.permutations(voters))), items),
            (voters, np.array(data.draw(st.permutations(items)))),
            (np.tile(voters, 2), items)]


@PROPERTY
@given(data=st.data())
def test_solve_is_invariant_under_relabeling_and_repetition(data):
    # A linear equilibrium's x need not be unique, but its utilities are.
    inst = data.draw(instances())
    model = data.draw(models(inst))
    base = model.utilities_all(solve_potential(inst, model).x)
    for voters, items in relabelings(data, inst):
        sub = reindexed(inst, voters, items)
        sub_model = same_family(model, sub, items)
        result = solve_potential(sub, sub_model)
        assert result.converged
        np.testing.assert_allclose(sub_model.utilities_all(result.x), base[voters], rtol=1e-6)


@settings(PROPERTY, max_examples=100)
@given(data=st.data())
def test_solve_scales_with_the_budget(data):
    # x(cB) = c x(B), so utilities scale by c^alpha; k may exceed n, where a
    # linear x need not be unique but its utilities are.
    inst = data.draw(instances(max_k=40))
    alpha = data.draw(st.sampled_from([1.0, 0.5]))
    c = data.draw(st.sampled_from([2.0**-20, 1e6, 2.0**30]))
    model = PowerSum(inst.utilities, alpha)
    cfg = SolverConfig(max_iters=500)
    base = solve_potential(inst, model, cfg)
    scaled = solve_potential(Instance(utilities=inst.utilities, budget=c * inst.budget,
                                      sizes=c * inst.sizes), model, cfg)
    assert base.converged and scaled.converged
    np.testing.assert_allclose(model.utilities_all(scaled.x) / c**alpha,
                               model.utilities_all(base.x), rtol=1e-6)


@PROPERTY
@given(data=st.data())
def test_heuristic_is_invariant_under_relabeling_repetition_and_scale(data):
    inst = data.draw(instances())
    cost = data.draw(st.floats(1.05, 3.0)) * inst.budget  # so the sweep runs
    inst = Instance(utilities=inst.utilities, budget=inst.budget,
                    sizes=inst.sizes * (cost / inst.sizes.sum()))
    cfg = HeuristicConfig(eps_target=1e-9, max_sweeps=1000)
    x = heuristic_solve(inst, cfg).x.x
    cases = [(reindexed(inst, voters, items), x[items])
             for voters, items in relabelings(data, inst)]
    cases.append((Instance(utilities=inst.utilities, budget=1e6 * inst.budget,
                           sizes=1e6 * inst.sizes), 1e6 * x))
    for sub, want in cases:
        np.testing.assert_allclose(heuristic_solve(sub, cfg).x.x, want, rtol=0,
                                   atol=1e-7 * sub.budget)


def in_original_labels(dev, voters, items):
    """A deviation found on ``reindexed(inst, voters, items)``: its coalition
    and its spend vector in ``inst``'s own labels."""
    y = np.empty(len(items))
    y[items] = dev.y.x
    return voters[list(dev.coalition)], y


@PROPERTY
@given(data=st.data())
def test_continuous_oracle_is_invariant_under_relabeling(data):
    inst = data.draw(instances(max_k=4))
    model = data.draw(models(inst))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = inst.budget * rng.dirichlet(np.full(inst.k, data.draw(st.sampled_from([0.3, 3.0]))))
    Ux = model.utilities_all(x)
    mode = data.draw(st.sampled_from(["additive", "multiplicative"]))
    threshold = data.draw(st.sampled_from([1e-3, 0.3, 1.0])) * (
        Ux.max() if mode == "additive" else 1.0)
    kw = dict(grid_steps=12, mode=mode, threshold=threshold)
    blocked = find_deviation_continuous(inst, model, x, **kw) is not None
    for voters, items in relabelings(data, inst):
        sub = reindexed(inst, voters, items)
        dev = find_deviation_continuous(sub, same_family(model, sub, items), x[items], **kw)
        assert (dev is not None) == blocked
        if dev is not None:
            members, y = in_original_labels(dev, voters, items)
            assert y.sum() <= len(members) / sub.n * inst.budget * (1 + 1e-12)
            Uy = model.utilities_all(y)[members]
            if mode == "additive":
                assert np.all(Uy - Ux[members] > threshold)
            else:
                assert np.all(Uy > (1 + threshold) * Ux[members])


@PROPERTY
@given(data=st.data())
def test_integral_oracle_is_invariant_under_relabeling(data):
    inst = data.draw(instances(max_n=10, max_k=8))  # n <= 20 with every voter twice
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = inst.sizes * np.minimum(rng.uniform(0.0, 1.5, inst.k), 1.0)
    eps = data.draw(st.sampled_from([0.0, 0.05, 0.5]))
    blocked = find_deviation_integral(inst, x, eps) is not None
    Ux = inst.utilities @ np.minimum(x / inst.sizes, 1.0)
    for voters, items in relabelings(data, inst):
        dev = find_deviation_integral(reindexed(inst, voters, items), x[items], eps)
        assert (dev is not None) == blocked
        if dev is not None:
            members, y = in_original_labels(dev, voters, items)
            assert y.sum() <= len(members) / len(voters) * inst.budget
            Uy = inst.utilities[members] @ (y > 0)
            assert np.all(Uy > (1 + eps) * Ux[members])


@PROPERTY
@given(data=st.data())
def test_certificate_is_invariant_under_relabeling_and_repetition(data):
    # At the solver's output and at a random spend, where eps is often >= 1.
    inst = data.draw(instances())
    model = data.draw(models(inst))
    if data.draw(st.booleans()):
        x = solve_potential(inst, model).x.x
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = inst.budget * rng.dirichlet(np.full(inst.k, data.draw(st.sampled_from([0.3, 3.0]))))
    cert = certify_from_residual(inst, model, x)
    for voters, items in relabelings(data, inst):
        sub = reindexed(inst, voters, items)
        got = certify_from_residual(sub, same_family(model, sub, items), x[items])
        assert got.budget_ok == cert.budget_ok
        assert got.epsilon == pytest.approx(cert.epsilon, rel=1e-9, abs=1e-12)
        assert [got.budget_total, got.budget_cap] == pytest.approx(
            [cert.budget_total, cert.budget_cap], rel=1e-12)


@PROPERTY
@given(data=st.data())
def test_converged_solve_certifies_its_tolerance(data):
    inst = data.draw(instances())
    model = data.draw(models(inst))
    cfg = SolverConfig()
    result = solve_potential(inst, model, cfg)
    assert result.converged
    assert certify_from_residual(inst, model, result.x).epsilon <= cfg.residual_tol
    # Items the funded rule calls unfunded only need the one-sided condition.
    unfunded = result.x.x <= 10 * 1e-12 * inst.budget
    assert np.all(result.residuals[unfunded] <= cfg.residual_tol)


@settings(PROPERTY, max_examples=200)
@given(data=st.data())
def test_linear_solution_is_unblocked(data):
    # Every family the solver handles, refereed by the continuous oracle.
    inst = data.draw(instances(max_n=8, max_k=3))
    model = data.draw(models(inst))
    result = solve_potential(inst, model)
    assert result.converged
    # Additive gains scale with B; 1e-6 * B is far above what eps <= 1e-8 allows.
    assert find_deviation_continuous(inst, model, result.x, threshold=1e-6 * inst.budget) is None
    assert find_deviation_continuous(inst, model, result.x, threshold=1e-6,
                                     mode="multiplicative") is None


@settings(PROPERTY, max_examples=400)
@given(data=st.data())
def test_converged_heuristic_meets_its_target_on_the_ballots(data):
    inst = data.draw(instances())
    # Scale the projects to cost more than the budget, so the sweep runs.
    cost = data.draw(st.floats(1.05, 3.0)) * inst.budget
    inst = Instance(utilities=inst.utilities, budget=inst.budget,
                    sizes=inst.sizes * (cost / inst.sizes.sum()))
    # A few of these instances cycle among three items without converging;
    # the converged runs need fewer than 20 sweeps, so 1000 loses none.
    result = heuristic_solve(inst, HeuristicConfig(max_sweeps=1000))
    if result.converged:
        # Recomputed from scratch, so equal to the reported value up to rounding.
        assert ballot_violation(inst, result) <= 1.0 / inst.n + 1e-12


# Names and ids from the second alphabet are quoted on write (a comma, a
# quote or a line break) or hold \x1c, where str.splitlines breaks a line.
LABELS = st.one_of(
    st.text(st.sampled_from("ab7_ -."), max_size=6),
    st.text(st.sampled_from('ab ,"\t\r\n\x1c\u00e9'), max_size=6),
)
CELLS = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
)


@PROPERTY
@given(data=st.data())
def test_votes_round_trip(data):
    n, k = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 5))
    M = np.array(data.draw(st.lists(st.lists(CELLS, min_size=k, max_size=k),
                                    min_size=n, max_size=n)))
    M[M.max(axis=1) == 0, 0] = 1.0
    names = data.draw(st.lists(LABELS.filter(str.strip), min_size=k, max_size=k,
                               unique_by=str.strip))
    ids = data.draw(st.lists(LABELS, min_size=n, max_size=n))
    buf = io.StringIO()
    write_votes(buf, M, names)
    buf.seek(0)
    got, got_names = parse_votes(buf)
    want = np.array([[float(f"{v:.10g}") for v in row] for row in M])
    assert got.tobytes() == want.tobytes()
    assert got_names == [name.strip() for name in names]
    # The same rows under the drawn ids, written as write_votes writes its own.
    buf = io.StringIO()
    csv.writer(buf).writerows([["voter_id", *names],
                               *([vid, *(f"{v:.10g}" for v in row)] for vid, row in zip(ids, M))])
    buf.seek(0)
    assert parse_votes(buf)[0].tobytes() == want.tobytes()  # one row per id, however it is quoted


@PROPERTY
@given(data=st.data())
def test_sample_chain_stays_feasible(data):
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(2 * k, 30))
    gamma = data.draw(st.floats(math.log(k) / math.log(n) + 0.02, 0.95))
    u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random((n, k)) + 0.01
    cfg = MechanismConfig(gamma=gamma, epsilon_priv=data.draw(st.floats(0.1, 5.0)),
                          burn_in=20, seed=data.draw(st.integers(0, 2**16)))
    samples, _ = sample_chain(Instance(utilities=u, budget=1.0), cfg, 60, n_chains=4)
    assert samples.shape == (60, k)
    assert FeasibleSet(n, k, gamma).contains(samples).all()
