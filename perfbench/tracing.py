"""Traced runs: spans and work counts around each layer's public entry points.

``install(tracer)`` patches functions where their callers look them up (for
example ``budgetcore.cli.parse_votes`` and ``budgetcore.aggregation.
find_deviation_integral``) and the batch methods of the public model classes,
and undoes every patch on exit; nothing in the program changes.  Each call
records a span (name, start, end, parent span, op id) in memory, plus the work
counts that ``_TARGETS`` attaches to it.  ``layer_metrics`` turns spans and counts into the
per-layer metrics; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Per-layer metrics with their units, in report order.  ``.s`` is busy
# seconds per cycle of the workload's op list; counts are per cycle too.
LAYER_METRICS = {
    "ballots.parse_votes.s": "s",
    "ballots.parse_votes.calls": "count",
    "ballots.rows_per_s": "rows/s",
    "saturating.heuristic_solve.s": "s",
    "saturating.sweeps": "count",
    "saturating.sweeps_per_s": "sweeps/s",
    "aggregation.rank_and_round.s": "s",
    "aggregation.chi2_pairwise.s": "s",
    "aggregation.random_model_trial.s": "s",
    "aggregation.trials": "count",
    "lindahl.solve_proportional_fairness.s": "s",
    "lindahl.solve_potential.s": "s",
    "lindahl.iterations": "count",
    "lindahl.lindahl_residuals.s": "s",
    "lindahl.cert_epsilon_max.linear": "eps",
    "lindahl.cert_epsilon_max.powersum": "eps",
    "lindahl.cert_epsilon_max.smoothed": "eps",
    "coreverify.find_deviation_continuous.s": "s",
    "coreverify.find_deviation_continuous.calls": "count",
    "coreverify.grid_evals": "count",
    "coreverify.find_deviation_integral.s": "s",
    "coreverify.bundles": "count",
    "coreverify.certify_from_residual.s": "s",
    "model.utilities_batch.s": "s",
    "model.utilities_batch.rows": "count",
    "model.utilities_all.calls": "count",
    "model.gradients_all.calls": "count",
    "mechanism.sample_mechanism.s": "s",
    "mechanism.approximation_certificate.s": "s",
    "mechanism.manipulation_sweep.s": "s",
    "mechanism.sample_chain.s": "s",
    "mechanism.chain_steps": "count",
    "mechanism.chain_steps_per_s": "steps/s",
    "mechanism.proposals_per_chain_step": "ratio",
    "mechanism.worst_rejection_rounds": "count",
    "cli.solve_sat.s": "s",
    "cli.compare.s": "s",
    "cli.analyze.s": "s",
    "cli.solve.s": "s",
    "cli.mechanism.s": "s",
    "cli.check_core.s": "s",
    "cli.self.s": "s",
    "cli.readme_demo_mechanism_ok": "flag",
    "cli.majority_only_check_core_ok": "flag",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}

# Counts that do not depend on the machine; they repeat exactly per seed.
EXACT_COUNTS = ("saturating.sweeps", "lindahl.iterations", "mechanism.chain_steps",
                "coreverify.grid_evals", "coreverify.bundles", "trace.ops")

_FAMILY_OF_MODEL = {"SmoothedSaturating": "smoothed"}


class Tracer:
    """In-memory spans and counters for one traced run (single thread)."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.op = -1
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                  self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def enclosing(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def wrap(self, fn, name, count=None):
        """``fn`` recording a span per call; ``name`` may be a function of the
        call's arguments; ``count(tracer, arguments, result)`` adds work counts."""
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            self.counts[label + ".calls"] += 1
            if count is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                count(self, call.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# Work counts per entry point: count(tracer, arguments, result)
# ---------------------------------------------------------------------------


def _rows(t, a, result):
    t.counts["ballots.rows"] += int(np.shape(result[0])[0])


def _sweeps(t, a, result):
    t.counts["saturating.sweeps"] += len(result.max_violation_trace)


def _iterations(t, a, result):
    t.counts["lindahl.iterations"] += int(result.iterations)


def _grid_evals(t, a, result):
    # grid points x coalition sizes x voters, from the inputs.
    inst, g = a["inst"], int(a["grid_steps"])
    t.counts["coreverify.grid_evals"] += math.comb(g + inst.k - 1, inst.k - 1) * inst.n * inst.n


def _bundles(t, a, result):
    t.counts["coreverify.bundles"] += 2 ** a["inst"].k - 1


def _certificate(t, a, result):
    # Only certificates of solver outputs describe the solver.
    if t.enclosing() == "cli.solve":
        cls = type(a["model"]).__name__
        key = f"lindahl.cert_epsilon_max.{_FAMILY_OF_MODEL.get(cls, cls.lower())}"
        t.maxima[key] = max(t.maxima.get(key, -math.inf), float(result.epsilon))


def _batch_rows(t, a, result):
    t.counts["model.utilities_batch.rows"] += int(np.shape(a["X"])[0])


def _chain_diagnostics(t, a, result):
    diag = result[1]
    steps = int(diag.get("steps", 0)) * int(diag.get("chains", 1))
    t.counts["mechanism.chain_steps"] += steps
    t.counts["mechanism.diagnosed_chain_steps"] += steps
    t.counts["mechanism.proposals"] += int(diag.get("proposals", 0))
    worst = int(diag.get("worst_rejection_rounds", 0))
    t.maxima["mechanism.worst_rejection_rounds"] = max(
        t.maxima.get("mechanism.worst_rejection_rounds", 0), worst)


def _sweep_steps(t, a, result):
    # manipulation_sweep returns no diagnostics: chains = (reports + truth) x trials.
    variants = np.atleast_2d(a["misreports"]).shape[0] + 1
    t.counts["mechanism.chain_steps"] += a["cfg"].chain_steps * variants * int(a["trials"])


def _cli_span(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + str(argv[0]).replace("-", "_")


# (module, attribute, span name, count); functions are patched where their
# caller looks them up.
_TARGETS = (
    ("cli", "main", _cli_span, None),
    ("cli", "parse_votes", "ballots.parse_votes", _rows),
    ("cli", "heuristic_solve", "saturating.heuristic_solve", _sweeps),
    ("cli", "rank_and_round", "aggregation.rank_and_round", None),
    ("cli", "chi2_pairwise", "aggregation.chi2_pairwise", None),
    ("cli", "solve_proportional_fairness", "lindahl.solve_proportional_fairness", _iterations),
    ("cli", "solve_potential", "lindahl.solve_potential", _iterations),
    ("cli", "certify_from_residual", "coreverify.certify_from_residual", _certificate),
    ("cli", "find_deviation_continuous", "coreverify.find_deviation_continuous", _grid_evals),
    ("cli", "sample_mechanism", "mechanism.sample_mechanism", _chain_diagnostics),
    ("cli", "approximation_certificate", "mechanism.approximation_certificate", None),
    ("lindahl", "lindahl_residuals", "lindahl.lindahl_residuals", None),
    ("coreverify", "lindahl_residuals", "lindahl.lindahl_residuals", None),
    ("aggregation", "find_deviation_integral", "coreverify.find_deviation_integral", _bundles),
    ("aggregation", "random_model_trial", "aggregation.random_model_trial", None),
    ("mechanism", "manipulation_sweep", "mechanism.manipulation_sweep", _sweep_steps),
    ("mechanism", "sample_chain", "mechanism.sample_chain", _chain_diagnostics),
)

_MODEL_METHODS = (("utilities_batch", _batch_rows), ("utilities_all", None),
                  ("gradients_all", None))


@contextmanager
def install(tracer: Tracer):
    """Patch every entry point for the duration of the block."""
    undo = []
    try:
        for module_name, attr, name, count in _TARGETS:
            module = importlib.import_module(f"budgetcore.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, tracer.wrap(fn, name, count))
            undo.append(lambda m=module, a=attr, f=fn: setattr(m, a, f))
        model = importlib.import_module("budgetcore.model")
        for cls in _public_model_classes(model):
            for attr, count in _MODEL_METHODS:
                own = attr in cls.__dict__
                fn = inspect.unwrap(getattr(cls, attr))
                setattr(cls, attr, tracer.wrap(fn, f"model.{attr}", count))
                undo.append(lambda c=cls, a=attr, f=fn, own=own:
                            setattr(c, a, f) if own else delattr(c, a))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def _public_model_classes(model) -> list:
    return [obj for obj in (getattr(model, name) for name in model.__all__)
            if isinstance(obj, type) and issubclass(obj, model.UtilityModel)
            and not inspect.isabstract(obj)]


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------


def busy_and_self(spans) -> tuple[dict, dict]:
    """Busy seconds per span name (outermost spans of that name only) and
    self seconds per name (duration minus the children's durations)."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    busy, own = defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] += (end - start) - children[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            busy[name] += end - start
    return busy, own


def layer_metrics(tracer: Tracer, cycles: int) -> dict:
    """Per-layer metrics per cycle; metrics from outside the trace (defect
    probes, overhead ratio) are filled in by the runner."""
    busy, own = busy_and_self(tracer.spans)
    c = tracer.counts
    out = {}

    def per_cycle(value):
        return value / cycles

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    for metric in LAYER_METRICS:
        stem, _, suffix = metric.rpartition(".")
        if suffix == "s" and stem != "cli.self":
            out[metric] = per_cycle(busy.get(stem, 0.0))
        elif suffix == "calls":
            out[metric] = per_cycle(c[metric])
    out["cli.self.s"] = per_cycle(sum(v for k, v in own.items() if k.startswith("cli.")))
    out["ballots.rows_per_s"] = rate(c["ballots.rows"], busy.get("ballots.parse_votes", 0.0))
    out["saturating.sweeps"] = per_cycle(c["saturating.sweeps"])
    out["saturating.sweeps_per_s"] = rate(c["saturating.sweeps"],
                                          busy.get("saturating.heuristic_solve", 0.0))
    out["aggregation.trials"] = per_cycle(c["aggregation.random_model_trial.calls"])
    out["lindahl.iterations"] = per_cycle(c["lindahl.iterations"])
    out["coreverify.grid_evals"] = per_cycle(c["coreverify.grid_evals"])
    out["coreverify.bundles"] = per_cycle(c["coreverify.bundles"])
    out["model.utilities_batch.rows"] = per_cycle(c["model.utilities_batch.rows"])
    sampler_s = sum(busy.get(f"mechanism.{f}", 0.0)
                    for f in ("sample_mechanism", "sample_chain", "manipulation_sweep"))
    out["mechanism.chain_steps"] = per_cycle(c["mechanism.chain_steps"])
    out["mechanism.chain_steps_per_s"] = rate(c["mechanism.chain_steps"], sampler_s)
    out["mechanism.proposals_per_chain_step"] = rate(c["mechanism.proposals"],
                                                     c["mechanism.diagnosed_chain_steps"])
    out["mechanism.worst_rejection_rounds"] = tracer.maxima.get(
        "mechanism.worst_rejection_rounds", 0)
    for key, value in tracer.maxima.items():
        if key.startswith("lindahl.cert_epsilon_max."):
            out[key] = value
    return out
