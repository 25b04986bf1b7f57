"""Command-line surface: ingest votes, dispatch solvers, emit reports.

Subcommands map one-to-one onto the library layers:

* ``solve``      -- equilibrium solver for smooth families + residual certificate
* ``solve-sat``  -- saturating-utilities heuristic + convergence trace CSV
* ``check-core`` -- residual certificate and (when small enough) the brute-force
                    blocking-coalition search for a given allocation
* ``mechanism``  -- randomized approximately-truthful selection + diagnostics
* ``compare``    -- Core vs Welfare rankings, rounded outcomes, similarity table
* ``analyze``    -- pairwise independence tests + clustering merge list
* ``gen``        -- synthetic votes CSV from a named profile

``run_command`` is the one report pipeline: it loads the votes (every command
but ``gen``), builds the report skeleton, lets the ``_cmd_*`` function fill
``result`` and ``artifacts``, converts library results (dataclasses included,
field by field) to JSON, writes ``report.json`` and returns the text ``main``
prints.  The report is byte-identical across repeat runs with the same inputs,
seed, and config, except for the ``timing`` block.  Failures print a
machine-readable error JSON and exit nonzero.  Money is parsed into
integer cents at the boundary and converted back only for solvers, so repeated
IO round-trips cannot drift budgets.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .aggregation import (
    Scheme,
    budget_similarity,
    chi2_pairwise,
    jaccard,
    rank_and_round,
    vote_counts,
)
from .ballots import gen_synthetic, parse_votes, write_votes
from .coreverify import (
    CoreCertificate,
    InstanceTooLarge,
    certify_from_residual,
    find_deviation_continuous,
    residual_certificate,
)
from .lindahl import SolverConfig, solve_potential
from .mechanism import MechanismConfig, MechanismError, approximation_certificate, sample_mechanism
from .model import Allocation, Instance, make_model
from .saturating import HeuristicConfig, heuristic_solve

__all__ = ["CliError", "ElectionConfig", "main", "run_command"]


class CliError(ValueError):
    """Bad command-line usage or configuration."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors become error reports, in subparsers too
        raise CliError(message)


# Config blocks passed straight to a stage's knobs; keys must be its fields.
_CONFIG_BLOCKS = {
    "solver": SolverConfig,
    "heuristic": HeuristicConfig,
    "mechanism": MechanismConfig,
}


def _to_cents(value, what: str) -> int:
    try:  # JSON's true is a number to float()
        scaled = np.nan if isinstance(value, bool) else float(value) * 100
    except (TypeError, ValueError, OverflowError):
        scaled = np.nan
    if not np.isfinite(scaled):
        raise CliError(f"{what} must be a finite number, got {value!r}")
    cents = round(scaled)
    if cents <= 0:
        raise CliError(f"{what} must be positive, got {value!r}")
    return int(cents)


@dataclass(frozen=True)
class ElectionConfig:
    """Parsed run configuration; money held as integer cents."""

    budget_cents: int = 100
    item_sizes_cents: Optional[dict] = None  # name -> cents
    model_family: str = "linear"
    model_params: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    heuristic: dict = field(default_factory=dict)
    mechanism: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def budget(self) -> float:
        return self.budget_cents / 100.0

    @staticmethod
    def from_file(path) -> "ElectionConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise CliError(f"config {path}: invalid JSON ({e})") from None
        return ElectionConfig.from_dict(raw, source=str(path))

    @staticmethod
    def from_dict(raw: dict, source: str = "<dict>") -> "ElectionConfig":
        if not isinstance(raw, dict):
            raise CliError(f"config {source}: expected a JSON object")
        known = {"budget", "items", "utility_model", "solver", "heuristic", "mechanism", "seed"}
        unknown = set(raw) - known
        if unknown:
            raise CliError(f"config {source}: unknown keys {sorted(unknown)}")
        budget_cents = _to_cents(raw.get("budget", 1.0), "budget")
        sizes = None
        if "items" in raw:
            if not isinstance(raw["items"], list):
                raise CliError(f"config {source}: 'items' must be a JSON list")
            sizes = {}
            for entry in raw["items"]:
                if not isinstance(entry, dict):
                    raise CliError(f"config {source}: item entry {entry!r} is not a JSON object")
                name = entry.get("name")
                if not name:
                    raise CliError(f"config {source}: item entry missing 'name'")
                if not isinstance(name, str):
                    raise CliError(f"config {source}: item name {name!r} must be a string")
                if name in sizes:
                    raise CliError(f"config {source}: duplicate item {name!r}")
                sizes[name] = (
                    _to_cents(entry["size"], f"size of {name!r}") if "size" in entry else None
                )
        model = raw.get("utility_model", {"family": "linear"})
        if not isinstance(model, dict):
            raise CliError(f"config {source}: 'utility_model' must be a JSON object")
        model = dict(model)
        family = model.pop("family", "linear")
        if not isinstance(family, str):
            raise CliError(f"config {source}: utility_model 'family' must be a string")
        blocks = {}
        for name, knobs in _CONFIG_BLOCKS.items():
            block = raw.get(name, {})
            if not isinstance(block, dict):
                raise CliError(f"config {source}: '{name}' must be a JSON object")
            # The top-level seed feeds every stage, so no block takes its own.
            allowed = {f.name for f in fields(knobs)} - {"seed"}
            for key in sorted(set(block) - allowed):
                hint = "; set the top-level 'seed' instead" if key == "seed" else ""
                raise CliError(f"config {source}: unknown key {key!r} in '{name}'{hint}")
            knobs(**block)  # checks the values, also for a command that never reads them
            blocks[name] = dict(block)
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise CliError(f"config {source}: 'seed' must be an integer, got {seed!r}")
        return ElectionConfig(
            budget_cents=budget_cents,
            item_sizes_cents=sizes,
            model_family=family,
            model_params=model,
            seed=seed,
            **blocks,
        )

    def echo(self) -> dict:
        return {
            "budget_cents": self.budget_cents,
            "items": None
            if self.item_sizes_cents is None
            else [{"name": n, "size_cents": c} for n, c in self.item_sizes_cents.items()],
            "utility_model": {"family": self.model_family, **self.model_params},
            "solver": self.solver,
            "heuristic": self.heuristic,
            "mechanism": self.mechanism,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _write_trace(out_dir: Path, trace) -> str:
    path = out_dir / "trace.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,max_violation\n")
        for it, viol in trace:
            fh.write(f"{int(it)},{viol:.12g}\n")
    return str(path)


def _load_instance(args, cfg: ElectionConfig) -> tuple[Instance, dict]:
    if not args.votes:
        raise CliError("this command needs --votes PATH")
    matrix, names = parse_votes(args.votes)
    sizes = None
    if cfg.item_sizes_cents is not None:
        unknown = [n for n in names if n not in cfg.item_sizes_cents]
        if unknown:
            raise CliError(f"unknown item column(s) not in config: {unknown}")
        missing = [n for n in cfg.item_sizes_cents if n not in names]
        if missing:
            raise CliError(f"config item(s) missing from votes file: {missing}")
        cents = [cfg.item_sizes_cents[n] for n in names]
        if all(c is not None for c in cents):
            sizes = np.array([c / 100.0 for c in cents])
        elif any(c is not None for c in cents):
            raise CliError("either all config items need sizes or none")
    inst = Instance(
        utilities=matrix, budget=cfg.budget, sizes=sizes, item_names=tuple(names)
    )
    meta = {
        "votes": str(args.votes),
        "sha256": hashlib.sha256(Path(args.votes).read_bytes()).hexdigest(),
        "voters": inst.n,
        "items": inst.k,
    }
    return inst, meta


def _certificate(cert: CoreCertificate) -> dict:
    return {**asdict(cert), "budget_ok": cert.budget_ok}


# ---------------------------------------------------------------------------
# Commands: each gets the loaded instance (None for ``gen``) and the report
# skeleton, returns the report's ``result`` and may add ``artifacts``
# ---------------------------------------------------------------------------


def _cmd_solve(args, cfg: ElectionConfig, inst, out_dir: Path, report: dict) -> dict:
    model = make_model(inst, cfg.model_family, **cfg.model_params)
    result = solve_potential(inst, model, SolverConfig(**cfg.solver))
    report["artifacts"]["trace_csv"] = _write_trace(out_dir, result.objective_trace)
    return {
        "allocation": result.x,
        "item_names": list(inst.item_names),
        "residuals": result.residuals,
        "max_residual": float(np.max(result.residuals)),
        "iterations": result.iterations,
        "converged": result.converged,
        "certificate": _certificate(
            residual_certificate(result.residuals, result.x, inst.budget)
        ),
    }


def _heuristic_work(result) -> dict:
    return {
        "converged": result.converged,
        "sweeps": len(result.max_violation_trace),
        # The returned iterate is the best sweep's, also when not converged.
        "max_violation": min((float(v) for _, v in result.max_violation_trace), default=None),
    }


def _cmd_solve_sat(args, cfg: ElectionConfig, inst, out_dir: Path, report: dict) -> dict:
    inst.require_sizes()
    heur_cfg = HeuristicConfig(**cfg.heuristic)
    result = heuristic_solve(inst, heur_cfg)
    report["artifacts"]["trace_csv"] = _write_trace(out_dir, result.max_violation_trace)
    return {
        "allocation": result.x,
        "item_names": list(inst.item_names),
        "prices_y": result.y,
        "budget_flagged": result.budget_flagged,
        **_heuristic_work(result),
    }


def _read_allocation(path, k: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):
        raw = raw.get("x")
    try:
        x = Allocation(np.asarray(raw, dtype=float)).x
    except (TypeError, ValueError) as e:
        raise CliError(f"allocation file {path}: {e}") from None
    if x.size != k:
        raise CliError(f"allocation file has {x.size} entries, expected {k}")
    return x


def _cmd_check_core(args, cfg: ElectionConfig, inst, out_dir: Path, report: dict) -> dict:
    if not args.allocation:
        raise CliError("check-core needs --allocation PATH (JSON spend vector)")
    x = _read_allocation(args.allocation, inst.k)
    model = make_model(inst, cfg.model_family, **cfg.model_params)
    # The search settings, so that a null deviation says what was searched.
    report["input"].update(allocation=str(args.allocation), grid=args.grid, mode=args.mode,
                           threshold=args.threshold)
    result = {"allocation": x, "certificate": _certificate(certify_from_residual(inst, model, x))}
    try:
        result["deviation"] = find_deviation_continuous(
            inst, model, x, grid_steps=args.grid, mode=args.mode, threshold=args.threshold
        )
    except InstanceTooLarge as e:
        result["deviation_search_skipped"] = str(e)
    return result


def _cmd_mechanism(args, cfg: ElectionConfig, inst, out_dir: Path, report: dict) -> dict:
    mech_cfg = MechanismConfig(seed=cfg.seed, **cfg.mechanism)
    allocation, diagnostics = sample_mechanism(inst, mech_cfg)
    result = {
        "allocation": allocation,
        "item_names": list(inst.item_names),
        "diagnostics": diagnostics,
    }
    try:
        result["core_bound"] = approximation_certificate(inst, allocation, mech_cfg)
    except MechanismError as e:
        result["core_bound_unavailable"] = str(e)
    return result


def _cmd_compare(args, cfg: ElectionConfig, inst, out_dir: Path, report: dict) -> dict:
    sizes = inst.require_sizes()
    heur_cfg = HeuristicConfig(**cfg.heuristic)
    core_solution = heuristic_solve(inst, heur_cfg)
    core = rank_and_round(inst, Scheme.CORE, fractional_core=core_solution.x)
    welfare = rank_and_round(inst, Scheme.WELFARE)

    votes = vote_counts(inst)
    core_fill = core.fractional.x / sizes
    welfare_fill = welfare.fractional.x / sizes
    table_path = out_dir / "compare.csv"
    order = np.argsort(-core_fill, kind="stable")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("Project,Budget,Votes,Core,Welfare\n")
        for j in order:
            fh.write(
                f"{inst.item_names[j]},{sizes[j]:.2f},{int(votes[j])},"
                f"{core_fill[j]:.2f},{welfare_fill[j]:.2f}\n"
            )

    report["artifacts"]["table_csv"] = str(table_path)
    return {
        "core": {
            "order": core.order,
            "fractional": core.fractional,
            "integral": core.integral,
            **_heuristic_work(core_solution),
        },
        "welfare": {
            "order": welfare.order,
            "fractional": welfare.fractional,
            "integral": welfare.integral,
        },
        "similarity": {
            "jaccard": jaccard(core.integral, welfare.integral),
            "budget_similarity": budget_similarity(core.fractional, welfare.fractional,
                                                   inst.budget),
        },
    }


def _cmd_analyze(args, cfg: ElectionConfig, inst, out_dir: Path, report: dict) -> dict:
    rep = chi2_pairwise(inst, dof=args.dof, alpha=args.alpha)
    dendro_path = out_dir / "dendrogram.csv"
    with open(dendro_path, "w", encoding="utf-8") as fh:
        fh.write("cluster_a,cluster_b,height\n")
        for a, b, h in rep.merges:
            fh.write(f"{a},{b},{h:.6g}\n")
    report["artifacts"]["dendrogram_csv"] = str(dendro_path)
    # Undefined p-values (degenerate items) are null, not "nan".
    p_values = [[None if not np.isfinite(v) else float(v) for v in row] for row in rep.p_values]
    return {**vars(rep), "p_values": p_values}


def _cmd_gen(args, cfg: ElectionConfig, _, out_dir: Path, report: dict) -> dict:
    params = {}
    for pair in args.param or []:
        if "=" not in pair:
            raise CliError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    inst = gen_synthetic(
        args.profile, n=args.n, k=args.k, seed=cfg.seed, budget=cfg.budget, **params
    )
    votes_path = out_dir / "votes.csv"
    write_votes(votes_path, inst.utilities, inst.item_names)
    # Companion config in the same schema --config accepts, so the pair can be
    # fed straight back into the other subcommands.
    config_path = out_dir / "config.json"
    feedback = {"budget": inst.budget, "seed": cfg.seed}
    if inst.sizes is not None:
        feedback["items"] = [
            {"name": name, "size": round(float(size), 2)}
            for name, size in zip(inst.item_names, inst.sizes)
        ]
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(feedback), fh, indent=2, sort_keys=True)
        fh.write("\n")
    report["artifacts"]["votes_csv"] = str(votes_path)
    report["artifacts"]["config_json"] = str(config_path)
    return {
        "profile": args.profile,
        "voters": inst.n,
        "items": inst.k,
        "sha256": hashlib.sha256(votes_path.read_bytes()).hexdigest(),
        "sizes": inst.sizes,
    }


_COMMANDS = {
    "solve": _cmd_solve,
    "solve-sat": _cmd_solve_sat,
    "check-core": _cmd_check_core,
    "mechanism": _cmd_mechanism,
    "compare": _cmd_compare,
    "analyze": _cmd_analyze,
    "gen": _cmd_gen,
}


def run_command(command: str, args, cfg: ElectionConfig, out_dir: Path) -> str:
    """Run one subcommand, write its ``report.json`` and return the report text."""
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    inst, meta = (None, {"generated": True}) if command == "gen" else _load_instance(args, cfg)
    report = {
        "tool": {"name": "budgetcore", "version": __version__},
        "command": command,
        "config": cfg.echo(),
        "input": meta,
        "artifacts": {},
    }
    report["result"] = _COMMANDS[command](args, cfg, inst, out_dir, report)
    report = _jsonable(report)
    report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (out_dir / "report.json").write_text(text, encoding="utf-8")
    return text


@functools.cache  # one parser per process; main reads $BUDGETCORE_OUT per call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="budgetcore",
        description="Fair participatory-budgeting allocations: solvers, "
        "verification, randomized mechanism, aggregation analysis.",
    )
    parser.add_argument("--version", action="version", version=f"budgetcore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, votes=True):
        if votes:
            p.add_argument("--votes", help="votes CSV (header: voter_id,<items...>)")
        p.add_argument("--config", help="election config JSON")
        p.add_argument("--out", help="output directory (default: $BUDGETCORE_OUT or current dir)")
        p.add_argument("--seed", type=int, help="override config seed")

    common(sub.add_parser("solve", help="equilibrium solver + core certificate"))
    common(sub.add_parser("solve-sat", help="saturating-utilities heuristic"))

    p = sub.add_parser("check-core", help="verify an allocation against coalitions")
    common(p)
    p.add_argument("--allocation", help="JSON file with the spend vector")
    p.add_argument("--grid", type=int, default=100, help="deviation search grid steps")
    p.add_argument("--mode", choices=["additive", "multiplicative"], default="additive")
    p.add_argument("--threshold", type=float, default=1e-3,
                   help="blocking margin t: every member gains more than t (additive) "
                   "or has a utility ratio above 1 + t (multiplicative)")

    common(sub.add_parser("mechanism", help="randomized approximately-truthful draw"))
    common(sub.add_parser("compare", help="Core vs Welfare rankings and similarity"))

    p = sub.add_parser("analyze", help="pairwise independence tests + clustering")
    common(p)
    p.add_argument("--dof", type=int, default=2, help="chi-squared degrees of freedom")
    p.add_argument("--alpha", type=float, default=0.1, help="correlation p-value cutoff, in (0, 1)")

    p = sub.add_parser("gen", help="generate synthetic votes")
    common(p, votes=False)
    p.add_argument("--profile", required=True, help="synthetic profile name")
    p.add_argument("--n", type=int, required=True, help="number of voters")
    p.add_argument("--k", type=int, help="number of items (fixed for figure profiles)")
    p.add_argument("--budget", type=float, help="budget override (dollars)")
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="extra profile parameter (repeatable), e.g. p=0.3",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = ElectionConfig.from_file(args.config) if args.config else ElectionConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if getattr(args, "budget", None) is not None:
            cfg = replace(cfg, budget_cents=_to_cents(args.budget, "budget"))
        out = os.environ.get("BUDGETCORE_OUT", ".") if args.out is None else args.out
        text = run_command(args.command, args, cfg, Path(out))
    except (ValueError, OSError) as e:
        # Covers CliError, BallotError, model/solver validation errors, and IO.
        error = {"error": {"type": type(e).__name__, "message": str(e)}}
        print(json.dumps(error, indent=2, sort_keys=True))
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
