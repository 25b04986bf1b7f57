"""The three benchmark workloads: their inputs, op cycles and output checks.

Each workload builds its inputs from the workload seed, runs one warm-up op of
every op type, and exposes ``cycle``: a fixed list of ops that the runner
repeats back to back (one client, closed loop).  Every cycle does identical
work, so work counts per cycle repeat exactly for a fixed seed.

CLI subcommands run in-process through ``budgetcore.cli.main(argv)`` with
stdout captured; library layers are called through their module attributes
(``mechanism.sample_chain``, ...) so that the traced run can wrap them.

Checks test properties that any correct implementation keeps (convergence,
ranges, feasibility, truthfulness bounds, re-verified deviations,
reproducibility), never digests of today's outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from budgetcore import aggregation, cli, coreverify, mechanism
from budgetcore.ballots import gen_synthetic, write_votes
from budgetcore.model import Instance

# Report blocks that legitimately differ between reruns: wall-clock timing,
# and the per-stage profile that ROADMAP reserves beside it.
_VOLATILE_REPORT_KEYS = ("timing", "profile")

# Float slack for range and feasibility checks; far below any real violation.
_TOL = 1e-9

# The README's own demo election: `gen --profile k-approval --n 40 --k 8
# --seed 2 --budget 1000`.
README_DEMO = ("k-approval", 40, 8, 2, 1000)

# Utility families that `solve` rotates through, with their config blocks.
FAMILIES = {
    "linear": {"family": "linear"},
    "powersum": {"family": "powersum", "alpha": 0.5},
    "smoothed": {"family": "smoothed", "eps_smooth": 0.1},
}


class CheckFailed(Exception):
    """An op's output broke a property every correct run must have."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation and the check applied to its output (untimed)."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def cli_call(argv) -> tuple[int, dict]:
    """Run one CLI subcommand in-process; returns (exit code, parsed report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, json.loads(buf.getvalue())


def _finite(value) -> bool:
    # Reports encode non-finite floats as strings ("nan", "inf").
    return isinstance(value, (int, float)) and math.isfinite(value)


def _read_matrix(path: Path) -> np.ndarray:
    """Votes CSV as a matrix, parsed here rather than by the program under test."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(c) for c in row[1:]] for row in rows if row])


def _write_json(path: Path, obj) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


class Workload:
    """Shared plumbing: a work directory, sub-seeds, and the rerun check."""

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self._rng = np.random.default_rng(self.seed)
        self._digests: dict = {}
        self.cycle: list[Op] = []

    def sub_seed(self) -> int:
        return int(self._rng.integers(1, 2**31 - 1))

    def dir(self, name: str) -> Path:
        path = self.work_dir / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def same_as_before(self, key, payload: bytes) -> None:
        """A repeated (command, input) pair must give byte-identical output."""
        digest = hashlib.sha256(payload).hexdigest()
        first = self._digests.setdefault(key, digest)
        require(first == digest, f"output of {key} changed between identical runs")

    def cli_op(self, kind: str, argv, check: Callable[[dict], None]) -> Op:
        """An op running one CLI subcommand.  ``argv`` is a list, or a callable
        that builds it when the op runs (for ops fed by the previous op)."""
        build = argv if callable(argv) else (lambda: argv)

        def run():
            args = [str(a) for a in build()]
            return args, cli_call(args)

        def checked(result):
            args, (code, report) = result
            require(code == 0, f"{kind}: exit code {code}: {report.get('error')}")
            stable = {k: v for k, v in report.items() if k not in _VOLATILE_REPORT_KEYS}
            self.same_as_before(tuple(args), json.dumps(stable, sort_keys=True).encode())
            check(report["result"])

        return Op(kind, run, checked)

    def warm_up(self) -> None:
        """Run one op of every type, untimed, and check it."""
        for op in self.warm_up_ops():
            op.check(op.run())

    def warm_up_ops(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# election: the CLI analysis path at realistic election sizes
# ---------------------------------------------------------------------------


def check_solve(result: dict) -> None:
    cert = result["certificate"]
    require(result["converged"] is True, "solve did not converge")
    require(_finite(cert["epsilon"]), f"certificate epsilon not finite: {cert['epsilon']}")
    require(cert["budget_ok"] is True, "certificate budget check failed")


def check_solve_sat(result: dict, sizes: np.ndarray) -> None:
    x = np.asarray(result["allocation"]["x"], dtype=float)
    require(np.all(np.isfinite(x)) and np.all(x >= 0), "solve-sat spend not finite/nonnegative")
    require(np.all(x <= sizes * (1 + _TOL)), "solve-sat spends past an item's size")
    require(result["sweeps"] >= 1, "solve-sat ran no sweeps")
    require(_finite(result["max_violation"]), "solve-sat violation not finite")


def _in_unit_interval(values) -> bool:
    return all(_finite(v) and -_TOL <= v <= 1 + _TOL for v in values)


def check_compare(result: dict) -> None:
    sim = result["similarity"]
    require(_in_unit_interval([sim["jaccard"], sim["budget_similarity"]]),
            f"compare similarity outside [0, 1]: {sim}")


def check_analyze(result: dict) -> None:
    p = [v for row in result["p_values"] for v in row if v is not None]
    heights = [h for _, _, h in result["merges"]]
    require(_in_unit_interval(p), "analyze p-value outside [0, 1]")
    require(_in_unit_interval(heights), "analyze merge height outside [0, 1]")


class Election(Workload):
    """Pool of three k-approval elections (the README demo, n=2054 k=10 and
    n=20000 k=30); ops cycle through solve-sat, compare, analyze and solve,
    with solve rotating the utility family."""

    name = "election"
    COMMANDS = ("solve-sat", "compare", "analyze", "solve")

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        profile, n, k, demo_seed, budget = README_DEMO
        # The Boston-scale election is fixed like the demo: op_p50_s falls
        # among its solve-sat/compare ops, whose heuristic sweep count moves
        # by about 20% from one generated instance to the next.  The seed
        # drives the large election.
        specs = [
            ("demo", n, k, demo_seed, budget),
            ("boston", 2054, 10, demo_seed, 1_000_000),
            ("large", 20_000, 30, self.sub_seed(), 1_000_000),
        ]
        self.elections = []
        for label, n, k, gen_seed, budget in specs:
            out = self.dir(label)
            code, report = cli_call(["gen", "--profile", profile, "--n", n, "--k", k,
                                     "--seed", gen_seed, "--budget", budget, "--out", out])
            require(code == 0, f"gen {label} failed: {report}")
            base = json.loads((out / "config.json").read_text(encoding="utf-8"))
            for family, block in FAMILIES.items():
                _write_json(out / f"config.{family}.json", dict(base, utility_model=block))
            sizes = np.array([item["size"] for item in base["items"]])
            self.elections.append((label, out, sizes))
        self.cycle = self._cycle()

    def _op(self, command: str, election, family: str = "linear") -> Op:
        label, out, sizes = election
        argv = [command, "--votes", out / "votes.csv", "--out", out]
        if command == "solve":
            argv += ["--config", out / f"config.{family}.json"]
            return self.cli_op(f"solve.{family}", argv, check_solve)
        if command == "analyze":
            return self.cli_op(command, argv, check_analyze)
        argv += ["--config", out / "config.json"]
        if command == "compare":
            return self.cli_op(command, argv, check_compare)
        return self.cli_op(command, argv, lambda r: check_solve_sat(r, sizes))

    def _cycle(self) -> list[Op]:
        # Three rounds of every command on every election; over the rounds
        # each larger election is solved once under every family.  The README
        # demo sits out the first round: with 8 demo ops against 12 from each
        # larger election, the median op falls mid-way through the
        # Boston-scale solve-sat/compare ops instead of at the gap just below
        # them, which keeps op_p50_s steady from run to run.
        families = list(FAMILIES)
        ops = []
        for rnd in range(len(families)):
            for command in self.COMMANDS:
                for e, election in enumerate(self.elections):
                    if rnd == 0 and e == 0:
                        continue
                    ops.append(self._op(command, election, families[(rnd + e) % len(families)]))
        return ops

    def warm_up_ops(self) -> list[Op]:
        demo = self.elections[0]
        ops = [self._op(c, demo) for c in self.COMMANDS if c != "solve"]
        return ops + [self._op("solve", demo, family) for family in FAMILIES]


# ---------------------------------------------------------------------------
# sweep: lockstep many-chain sampling
# ---------------------------------------------------------------------------


def in_floored_simplex(X: np.ndarray, n: int, gamma: float) -> bool:
    """Every row has x_j >= n^-gamma and sum(x) <= 1 (unit budget)."""
    X = np.atleast_2d(X)
    floor = n ** -gamma
    return bool(np.all(np.isfinite(X)) and np.all(X >= floor - _TOL)
                and np.all(X.sum(axis=1) <= 1 + _TOL))


def check_gains(gains, ses, truthful: int, eps: float) -> None:
    gains, ses = np.asarray(gains), np.asarray(ses)
    require(np.all(np.isfinite(gains)) and np.all(np.isfinite(ses)), "non-finite gain")
    require(gains[truthful] == 0.0, f"truthful report gains {gains[truthful]!r}, not exactly 0")
    bound = math.expm1(2 * eps) + 3 * ses
    worst = int(np.argmax(gains - bound))
    require(gains[worst] <= bound[worst],
            f"misreport {worst} gains {gains[worst]:.4g} > exp(2 eps) - 1 + 3 se "
            f"= {bound[worst]:.4g}")


class Sweep(Workload):
    """Manipulation sweeps and pooled multi-chain draws (no CLI, no oracles)."""

    name = "sweep"
    REPORTS = 20          # misreport rows per sweep, the truthful one included
    TRIALS = 5
    STEPS = 400
    BURN_IN = 120
    EPSILONS = (0.05, 0.2)
    GAMMA = 0.5
    # Criterion-11 shape for sample_chain: n=100 voters, k=3 items, 50 chains.
    CHAIN_SHAPE = (100, 3, 50)
    CHAIN_BURN_IN = 400
    CHAIN_SAMPLES = 100

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        rng = self._rng
        self.instances = {}
        for profile in ("figure2a", "figure2b"):
            self.instances[profile] = gen_synthetic(profile, n=50)
        kapp = gen_synthetic("k-approval", n=200, k=6, seed=self.sub_seed())
        self.instances["kapproval"] = mechanism.normalize_instance(kapp)
        self.reports = {}
        for label, inst in self.instances.items():
            k = inst.k
            lies = (np.column_stack([a := rng.uniform(0, 1, self.REPORTS - 1), 1 - a])
                    if k == 2 else rng.dirichlet(np.ones(k), self.REPORTS - 1))
            truthful = int(rng.integers(self.REPORTS))
            truth = mechanism.normalize_instance(inst).utilities[0]
            self.reports[label] = (np.insert(lies, truthful, truth, axis=0), truthful)
        n, k, _ = self.CHAIN_SHAPE
        self.chain_instances = []
        for _ in range(2):
            u = rng.uniform(0.1, 1.0, (n, k))
            self.chain_instances.append(
                (Instance(utilities=u / u.sum(axis=1, keepdims=True), budget=1.0),
                 self.sub_seed()))
        self.sweep_seed = self.sub_seed()
        self.cycle = self._cycle()

    def sweep_op(self, label: str, eps: float, steps: int = STEPS, burn_in: int = BURN_IN) -> Op:
        inst = self.instances[label]
        reports, truthful = self.reports[label]
        cfg = mechanism.MechanismConfig(gamma=self.GAMMA, epsilon_priv=eps, chain_steps=steps,
                                        burn_in=burn_in, seed=self.sweep_seed)

        def run():
            return mechanism.manipulation_sweep(inst, 0, reports, cfg, trials=self.TRIALS)

        def check(result):
            gains, ses = result
            self.same_as_before(("sweep", label, eps, steps),
                                np.asarray(gains).tobytes() + np.asarray(ses).tobytes())
            check_gains(gains, ses, truthful, eps)

        return Op("manipulation_sweep", run, check)

    def chain_op(self, index: int, burn_in: int = CHAIN_BURN_IN) -> Op:
        inst, seed = self.chain_instances[index]
        _, _, chains = self.CHAIN_SHAPE
        cfg = mechanism.MechanismConfig(gamma=self.GAMMA, epsilon_priv=1.0,
                                        chain_steps=burn_in + 1, burn_in=burn_in, seed=seed)

        def run():
            return mechanism.sample_chain(inst, cfg, self.CHAIN_SAMPLES, n_chains=chains)

        def check(result):
            samples, _ = result
            samples = np.asarray(samples)
            self.same_as_before(("sample_chain", index, burn_in), samples.tobytes())
            require(samples.shape == (self.CHAIN_SAMPLES, inst.k), "wrong sample count")
            require(in_floored_simplex(samples, inst.n, self.GAMMA),
                    "sample_chain state outside the floored simplex")

        return Op("sample_chain", run, check)

    def _cycle(self) -> list[Op]:
        lo, hi = self.EPSILONS
        return [
            self.sweep_op("figure2a", lo),
            self.sweep_op("kapproval", lo),
            self.chain_op(0),
            self.sweep_op("figure2b", lo),
            self.sweep_op("figure2a", hi),
            self.chain_op(1),
            self.sweep_op("kapproval", hi),
            self.sweep_op("figure2b", hi),
        ]

    def warm_up_ops(self) -> list[Op]:
        # Same code paths at a few steps each.
        return [self.sweep_op("figure2a", self.EPSILONS[0], steps=20, burn_in=5),
                self.chain_op(0, burn_in=10)]


# ---------------------------------------------------------------------------
# referee: the deviation oracles refereeing draws, solver outputs and trials
# ---------------------------------------------------------------------------


def verify_additive_deviation(dev: dict, u: np.ndarray, x: np.ndarray, budget: float,
                              threshold: float) -> None:
    """Re-check a linear-utility deviation without the oracle: every member
    gains more than ``threshold`` and the coalition can afford ``y``."""
    members = np.asarray(dev["coalition"], dtype=int)
    y = np.asarray(dev["y"]["x"], dtype=float)
    n = u.shape[0]
    require(members.size >= 1, "empty blocking coalition")
    require(np.all(y >= -_TOL) and y.sum() <= members.size / n * budget * (1 + _TOL),
            "coalition cannot afford its deviation")
    gains = u[members] @ y - u[members] @ x
    require(np.all(gains > threshold - _TOL), "a coalition member does not gain enough")


def integral_deviation_exists(inst: Instance, x: np.ndarray, eps: float) -> bool:
    """Independent enumeration: is there an affordable bundle whose improvers
    (by more than a factor 1 + eps) can pay for it from their budget share?"""
    k = inst.k
    bundles = (np.arange(1, 2 ** k)[:, None] >> np.arange(k)) & 1
    cost = bundles @ inst.sizes
    value_t = bundles @ inst.utilities.T                  # (bundles, voters)
    value_x = inst.utilities @ np.minimum(x / inst.sizes, 1.0)
    improvers = (value_t > (1 + eps) * value_x).sum(axis=1)
    return bool(np.any((cost <= inst.budget) & (improvers / inst.n * inst.budget >= cost)))


def verify_integral_deviation(dev, inst: Instance, x: np.ndarray, eps: float) -> None:
    """Re-check a random-model deviation: every member improves by more than
    a factor 1 + eps and the coalition's budget share covers the bundle."""
    members = np.asarray(dev.coalition, dtype=int)
    bundle = np.asarray(dev.y.x, dtype=float) > 0
    require(members.size >= 1, "empty blocking coalition")
    cost = float(inst.sizes[bundle].sum())
    require(members.size / inst.n * inst.budget >= cost * (1 - _TOL),
            "coalition share does not cover the bundle")
    u = inst.utilities[members]
    value_t = u[:, bundle].sum(axis=1)
    value_x = u @ np.minimum(x / inst.sizes, 1.0)
    require(np.all(value_t > (1 + eps) * value_x), "a coalition member does not improve by 1+eps")


class Referee(Workload):
    """Single-chain mechanism draws refereed by check-core, solver outputs
    that must pass, constructed allocations that must fail, and batches of
    random-model trials."""

    name = "referee"
    # (voters, items, check-core grid steps)
    SHAPES = ((100, 3, 100), (100, 4, 40), (200, 3, 100))
    MECHANISM = {"gamma": 0.5, "epsilon_priv": 0.9, "chain_steps": 1000, "burn_in": 0}
    FIGURE1A = (101, 200, 0.01)  # voters, grid steps, minority's budget share
    TRIAL_VOTERS = 20
    TRIAL_ITEMS = 12
    # Regular and decoy trials per batch; a batch (~0.35 s) stays below the
    # check-core ops, so the run's median op falls inside the check-core
    # cluster rather than on the edge between two clusters.
    TRIALS_PER_BATCH = (12, 4)

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        rng = self._rng
        self.shapes = []
        for n, k, grid in self.SHAPES:
            out = self.dir(f"n{n}_k{k}")
            u = rng.uniform(0.1, 1.0, (n, k))
            write_votes(out / "votes.csv", u / u.sum(axis=1, keepdims=True),
                        [f"item_{j}" for j in range(k)])
            config = _write_json(out / "config.json", {"budget": 1.0, "seed": self.sub_seed(),
                                                       "mechanism": self.MECHANISM})
            code, report = cli_call(["solve", "--votes", out / "votes.csv", "--config", config,
                                     "--out", out])
            require(code == 0, f"solve for n={n}, k={k} failed: {report}")
            _write_json(out / "solution.json", {"x": report["result"]["allocation"]["x"]})
            self.shapes.append((out, n, k, grid, _read_matrix(out / "votes.csv")))

        n, grid, share = self.FIGURE1A
        out = self.dir("figure1a")
        code, report = cli_call(["gen", "--profile", "figure1a", "--n", n, "--out", out])
        require(code == 0, f"gen figure1a failed: {report}")
        _write_json(out / "majority.json", {"x": [1.0 - share, share]})
        self.figure1a = (out, grid, _read_matrix(out / "votes.csv"))

        self.batches = [self._trial_batch() for _ in self.SHAPES]
        self.draw_bounds: dict = {}
        self.cycle = self._cycle()

    def _trial_batch(self) -> list:
        """Regular trials (criterion-12 distribution) plus decoy trials, where
        two rarely approved, highly valued items usually block the welfare set."""
        rng, k = self._rng, self.TRIAL_ITEMS
        regular, decoys = self.TRIALS_PER_BATCH
        specs = []
        for _ in range(regular):
            specs.append((rng.uniform(0.6, 1.0, k), rng.uniform(0.5, 1.0, k), 4, 1.0,
                          self.sub_seed()))
        for _ in range(decoys):
            p = np.concatenate([rng.uniform(0.6, 1.0, k - 2), [0.05, 0.05]])
            u = np.concatenate([rng.uniform(0.5, 1.0, k - 2), [30.0, 30.0]])
            specs.append((p, u, 3, 0.1, self.sub_seed()))
        return specs

    def mechanism_op(self, shape, chain_steps=None) -> Op:
        out, n, k, _, _ = shape
        config = out / "config.json"
        if chain_steps is not None:
            raw = json.loads(config.read_text(encoding="utf-8"))
            raw["mechanism"] = dict(raw["mechanism"], chain_steps=chain_steps)
            config = _write_json(out / "config.warmup.json", raw)
        gamma = self.MECHANISM["gamma"]

        def check(result):
            x = np.asarray(result["allocation"]["x"], dtype=float)
            require(in_floored_simplex(x, n, gamma), "mechanism draw outside the floored simplex")
            require(_finite(result.get("core_bound")), f"core_bound missing or not finite: "
                    f"{result.get('core_bound', result.get('core_bound_unavailable'))}")
            if chain_steps is None:
                # The next op referees this draw at its certified bound.
                _write_json(out / "draw.json", {"x": x.tolist()})
                self.draw_bounds[out] = result["core_bound"]

        return self.cli_op("mechanism", ["mechanism", "--votes", out / "votes.csv",
                                         "--config", config, "--out", out], check)

    def check_core_op(self, kind: str, target, allocation: Path, expect: str,
                      threshold: Callable[[], float] = lambda: 1e-3) -> Op:
        """check-core on ``allocation``; ``expect`` is "blocked", "unblocked"
        or "either" (a sampled draw may be blocked in rare cases)."""
        out, grid, u = target

        def argv():
            return ["check-core", "--votes", out / "votes.csv", "--allocation", allocation,
                    "--grid", grid, "--threshold", repr(threshold()), "--out", out]

        def check(result):
            require("deviation" in result, f"oracle skipped: {result.get('deviation_search_skipped')}")
            require(_finite(result["certificate"]["budget_total"]), "certificate spend not finite")
            dev = result["deviation"]
            require(expect != "unblocked" or dev is None, f"{kind}: solver allocation is blocked")
            require(expect != "blocked" or dev is not None, f"{kind}: allocation is not blocked")
            if dev is not None:
                x = np.asarray(json.loads(allocation.read_text(encoding="utf-8"))["x"])
                verify_additive_deviation(dev, u, x, 1.0, threshold())

        return self.cli_op(kind, argv, check)

    def trials_op(self, batch: int, count=None) -> Op:
        specs = self.batches[batch][:count]

        def run():
            # Record each oracle call's instance so deviations can be re-verified.
            seen = []
            oracle = aggregation.find_deviation_integral

            def recording(inst, x, *args, **kwargs):
                seen.append((inst, np.asarray(getattr(x, "x", x), dtype=float)))
                return oracle(inst, x, *args, **kwargs)

            aggregation.find_deviation_integral = recording
            try:
                outcomes = [aggregation.random_model_trial(p, u, items, self.TRIAL_VOTERS, eps,
                                                           seed=seed)
                            for p, u, items, eps, seed in specs]
            finally:
                aggregation.find_deviation_integral = oracle
            return outcomes, seen

        def check(result):
            outcomes, seen = result
            require(len(seen) == len(specs), "random_model_trial did not call its oracle once per trial")
            summary = []
            for (p, u, items, eps, seed), out, (inst, x) in zip(specs, outcomes, seen):
                dev = out.deviation
                summary.append((out.selected, None if dev is None else (dev.coalition, dev.min_gain)))
                require((dev is not None) == integral_deviation_exists(inst, x, eps),
                        f"trial seed {seed}: oracle and enumeration disagree on blocking")
                if dev is not None:
                    verify_integral_deviation(dev, inst, x, eps)
            self.same_as_before(("trials", batch, len(specs)), repr(summary).encode())

        return Op("random_model_trial", run, check)

    def _cycle(self) -> list[Op]:
        ops = [self.check_core_op("check-core.figure1a", self.figure1a,
                                  self.figure1a[0] / "majority.json", "blocked")]
        for batch, shape in enumerate(self.shapes):
            out, n, k, grid, u = shape
            ops += [
                self.mechanism_op(shape),
                self.check_core_op("check-core.draw", (out, grid, u), out / "draw.json",
                                   "either", threshold=lambda out=out: self.draw_bounds[out]),
                self.trials_op(batch),
                self.check_core_op("check-core.solver", (out, grid, u), out / "solution.json",
                                   "unblocked"),
            ]
        return ops

    def warm_up_ops(self) -> list[Op]:
        # One op per type.  check-core runs on a five-voter slice of each
        # shape so that the warm-up pays for the spend grids, not the search.
        ops = [self.mechanism_op(self.shapes[0], chain_steps=20)]
        grids = {(k, grid): u for out, n, k, grid, u in self.shapes}
        for (k, grid), u in grids.items():
            small = self.dir(f"warmup_k{k}_g{grid}")
            write_votes(small / "votes.csv", u[:5], [f"item_{j}" for j in range(k)])
            _write_json(small / "solution.json", {"x": [1.0 / k] * k})
            ops.append(self.check_core_op("check-core.solver", (small, grid, u[:5]),
                                          small / "solution.json", "either"))
        ops.append(self.check_core_op("check-core.figure1a", self.figure1a,
                                      self.figure1a[0] / "majority.json", "blocked"))
        ops.append(self.trials_op(0, count=1))
        return ops


def defect_probes(work_dir: Path) -> dict:
    """Known defects, recorded as values outside the timed ops.

    * ``cli.readme_demo_mechanism_ok``: the README's ``mechanism`` command on
      the README demo with its default config exits 0 (1) or not (0);
    * ``lindahl.cert_epsilon_max.<family>``: ``solve``'s certificate epsilon
      on the README demo per family (-1 if solve fails or epsilon is not
      finite); the runner keeps the larger of this and the traced cycle's;
    * ``cli.majority_only_check_core_ok``: check-core on figure1a's exact
      majority-only allocation exits 0 and reports it blocked (1) or not (0).
    """
    demo = Path(work_dir) / "readme_demo"
    demo.mkdir(parents=True, exist_ok=True)
    profile, n, k, seed, budget = README_DEMO
    code, report = cli_call(["gen", "--profile", profile, "--n", n, "--k", k, "--seed", seed,
                             "--budget", budget, "--out", demo])
    require(code == 0, f"gen README demo failed: {report}")
    code, _ = cli_call(["mechanism", "--votes", demo / "votes.csv",
                        "--config", demo / "config.json", "--out", demo])
    values = {"cli.readme_demo_mechanism_ok": int(code == 0)}
    base = json.loads((demo / "config.json").read_text(encoding="utf-8"))
    for family, block in FAMILIES.items():
        config = _write_json(demo / f"config.{family}.json", dict(base, utility_model=block))
        code, report = cli_call(["solve", "--votes", demo / "votes.csv", "--config", config,
                                 "--out", demo])
        eps = report["result"]["certificate"]["epsilon"] if code == 0 else None
        values[f"lindahl.cert_epsilon_max.{family}"] = eps if _finite(eps) else -1.0

    fig = Path(work_dir) / "figure1a"
    fig.mkdir(parents=True, exist_ok=True)
    code, report = cli_call(["gen", "--profile", "figure1a", "--n", Referee.FIGURE1A[0],
                             "--out", fig])
    require(code == 0, f"gen figure1a failed: {report}")
    allocation = _write_json(fig / "majority_only.json", {"x": [1.0, 0.0]})
    code, report = cli_call(["check-core", "--votes", fig / "votes.csv", "--allocation",
                             allocation, "--grid", Referee.FIGURE1A[1], "--out", fig])
    blocked = code == 0 and report["result"].get("deviation") is not None
    values["cli.majority_only_check_core_ok"] = int(blocked)
    return values


WORKLOADS = {cls.name: cls for cls in (Election, Sweep, Referee)}


def clear_program_caches() -> None:
    """Drop the spend-grid cache so that each set-up pays for its first build."""
    cached = getattr(coreverify, "_budget_grid_cached", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()
