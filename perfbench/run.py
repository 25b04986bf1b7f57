#!/usr/bin/env python3
"""budgetcore benchmark: three closed-loop workloads with one client each.

    python3 perfbench/run.py --workload election --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``election`` -- CLI solve-sat / compare / analyze / solve on a pool of three
  k-approval elections (the README demo, n=2054 k=10, n=20000 k=30);
* ``sweep``    -- lockstep manipulation sweeps and pooled multi-chain draws;
* ``referee``  -- single-chain CLI mechanism draws refereed by check-core,
  solver outputs and constructed allocations refereed too, and batches of
  random-model trials.

Set-up (a fresh interpreter importing ``budgetcore.cli``, input generation,
one warm-up op per op type) runs three times; ``setup_s`` is the median.
With ``--trace 0`` the workload's op cycle (about CYCLE_SECONDS long) repeats
back to back round(seconds / CYCLE_SECONDS) times and the end-to-end metrics
are printed.  With ``--trace 1`` one settling cycle runs, then cycles run in
pairs, one plain and one with every layer's entry points wrapped
(``tracing.py``), and the per-layer metrics are printed per cycle.

Every op's output is checked; a failed check, an exception or a nonzero exit
counts as a failed op.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance.  The full result (and, when tracing, every span) is
written under ``.perfbench_results/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
SETUP_REPS = 3
# Nominal length of one op cycle (about 15 s on a 2-vCPU 2.1 GHz Xeon).  A run
# holds round(seconds / CYCLE_SECONDS) whole cycles, a fixed count, so that
# every run and every commit measures the same ops.
CYCLE_SECONDS = 15.0
TAIL_OPS = 10  # the tail percentile keeps at least this many ops above it

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class OpRecord:
    kind: str
    seconds: float
    error: Optional[str]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["election", "sweep", "referee"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def run_op(op, check_failed, tracer=None, op_id: int = 0) -> OpRecord:
    """Time one op, then check its output outside the timed span."""
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        result = op.run()
        error = None
    except (Exception, SystemExit) as e:  # SystemExit: argparse usage errors
        result, error = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - start
    if error is None:
        try:
            op.check(result)
        except check_failed as e:
            error = f"check failed: {e}"
        except Exception as e:
            error = f"check raised {type(e).__name__}: {e}"
    return OpRecord(op.kind, seconds, error)


def tail(latencies) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_OPS ops above it, and its
    nearest-rank value; (100, max) when there are too few ops."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_OPS:
        return 100, xs[-1]
    pct = 100 * (n - TAIL_OPS) // n
    return pct, xs[max(1, math.ceil(pct * n / 100)) - 1]


def child_import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI and its numpy/scipy."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import budgetcore.cli"], check=True, env=env,
                   cwd=ROOT, timeout=120)
    return time.perf_counter() - start


def set_up(workloads, name: str, seed: int, work: Path):
    """Build the workload SETUP_REPS times; returns the last build, the
    median set-up seconds and every rep's seconds."""
    times = []
    workload = None
    for rep in range(SETUP_REPS):
        if workload is not None:
            shutil.rmtree(workload.work_dir)
        imports = child_import_seconds()
        workloads.clear_program_caches()
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, work / f"setup{rep}")
        workload.warm_up()
        times.append(imports + time.perf_counter() - start)
    return workload, statistics.median(times), times


def cycles_for(seconds: float, per_cycle: float = CYCLE_SECONDS) -> int:
    return max(1, round(seconds / per_cycle))


def measure(workload, seconds: float, check_failed) -> list:
    """The op cycle, repeated back to back a fixed number of times."""
    return [run_op(op, check_failed)
            for _ in range(cycles_for(seconds)) for op in workload.cycle]


def measure_traced(workload, seconds: float, check_failed, tracing):
    """One cycle to settle first-touch costs, then a fixed number of pairs
    of (plain cycle, traced cycle).  Returns the tracer and the warm, plain
    and traced op records."""
    tracer = tracing.Tracer()
    warm = [run_op(op, check_failed) for op in workload.cycle]
    plain, traced = [], []
    for _ in range(cycles_for(seconds, 2 * CYCLE_SECONDS)):
        plain += [run_op(op, check_failed) for op in workload.cycle]
        with tracing.install(tracer):
            base = len(traced)
            traced += [run_op(op, check_failed, tracer, base + i)
                       for i, op in enumerate(workload.cycle)]
    return tracer, warm, plain, traced


def end_to_end(records, setup_s: float) -> tuple[dict, dict]:
    latencies = [r.seconds for r in records]
    ok = sum(r.error is None for r in records)
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "ops_per_s": ok / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"tail_percentile": pct, "ops": len(records),
             "failed_ratio": (len(records) - ok) / len(records)}
    return metrics, notes


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _blas() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, ops: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _summary(records) -> dict:
    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.seconds)
    return {k: {"ops": len(v), "median_s": statistics.median(v)} for k, v in kinds.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "budgetcore" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload, setup_s, setup_times = set_up(workloads, args.workload, args.seed, work)
        if args.trace:
            tracer, warm, plain, traced = measure_traced(workload, args.seconds,
                                                         workloads.CheckFailed, tracing)
            records = warm + plain + traced
            cycles = len(traced) // len(workload.cycle)
            metrics = tracing.layer_metrics(tracer, cycles)
            for key, value in workloads.defect_probes(work / "probes").items():
                metrics[key] = max(value, metrics.get(key, value))
            metrics["trace.ops"] = len(workload.cycle)
            metrics["trace.overhead_ratio"] = (sum(r.seconds for r in plain)
                                               / sum(r.seconds for r in traced))
            units = tracing.LAYER_METRICS
            notes = {"cycles": cycles, "ops": len(records)}
        else:
            records = measure(workload, args.seconds, workloads.CheckFailed)
            metrics, notes = end_to_end(records, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f"{r.kind}: {r.error}" for r in records if r.error is not None]
    prov = provenance(args, len(records))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "notes": notes,
                   "setup_reps_s": setup_times, "ops_by_kind": _summary(records),
                   "failures": failures,
                   "op_seconds": [[r.kind, r.seconds] for r in records]}, fh, indent=1)
    if args.trace:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, op]) + "\n")

    print(f"{args.workload} seed={args.seed}: {len(records)} ops, {len(failures)} failed "
          f"(failed_ratio {len(failures) / len(records):.4g})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    for name, unit in units.items():
        extra = ""
        if name == "op_tail_s":
            extra = f"  (p{notes['tail_percentile']} of {notes['ops']} ops)"
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}{extra}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
