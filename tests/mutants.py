"""Hand-written mutants of every module: the equilibrium solver, the
saturating heuristic, the core certificate and deviation oracles, the utility
families, the mechanism, the ballots, the aggregation and the command line.

Each entry of ``MUTANTS`` is (module, old, new, reason): the mutant replaces
the text ``old``, which occurs exactly once in ``src/budgetcore/<module>.py``
(a tier-1 test checks that), by ``new``.  ``reason`` is None when the tier-1
suite must fail on the mutant; otherwise it says why the mutant may survive.
The method is mutation testing (Jia and Harman, "An Analysis and Survey of the
Development of Mutation Testing", IEEE TSE 2011): a mutant that survives marks
code that either does nothing or is not tested.

``python tests/mutants.py`` copies this checkout to a temporary directory,
runs the tier-1 suite there (``pytest -x``) once per mutant, and prints each
verdict with the first failing test.  ``python tests/mutants.py mechanism
ballots`` runs only those modules' mutants.  It exits 1 when a mutant without
a reason survives.  A surviving mutant costs one full tier-1 run.  A run that
outlasts ``TIMEOUT_S`` is stopped and counts as a kill: a mutant that loops
forever is one that the suite catches.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# Ten times a full tier-1 run (about 30 s on 2 vCPUs).
TIMEOUT_S = 300

MUTANTS = [
    # lindahl: the projected Newton solver and the equilibrium condition.
    ("lindahl", "_HANDOVER = 1e-3", "_HANDOVER = 1e-1", None),
    ("lindahl", "_HANDOVER = 1e-3", "_HANDOVER = 0.0", None),
    ("lindahl", "rules = (True, False) if", "rules = (True,) if", None),
    ("lindahl", "_MAX_HALVINGS = 60", "_MAX_HALVINGS = 30", None),
    ("lindahl", "_FUNDED_FLOOR_MULT = 10.0", "_FUNDED_FLOOR_MULT = 1.0", None),
    ("lindahl", "_SPEND_FLOOR = 1e-12", "_SPEND_FLOOR = 1e-9", None),
    ("lindahl", "eta = float((_TO_BOUNDARY / -drop[drop < -_TO_BOUNDARY]).min(initial=1.0))",
     "eta = 1.0", None),
    ("lindahl", "ok = phi_new > phi", "ok = phi_new >= phi", None),
    ("lindahl", "if ok and np.isfinite(phi_new) and np.isfinite(viol_new):", "if ok:",
     "safety code: the clip keeps z in [floor, zvec(B)], where Phi and the violation "
     "are finite for every input the tests or corpora reach"),
    ("lindahl", "directions = [g / np.where(h > 0, h, h[h > 0].min())]", "directions = []",
     None),
    ("lindahl", "free = _funded(model.x_of_z(z), B) | (g > 0)", "free = g == g", None),
    ("lindahl", "A[np.diag_indices_from(A)] = h[free]", "pass", None),
    ("lindahl", "except np.linalg.LinAlgError:", "except ZeroDivisionError:", None),
    ("lindahl", "if np.all(np.isfinite(df)) and float(df @ g[free]) > 0:", "if True:", None),
    ("lindahl", "ceiling = model.zvec(np.full(k, B))", "ceiling = np.inf", None),
    ("lindahl", "np.where(_funded(x, budget), np.abs(res), np.maximum(res, 0.0))",
     "np.abs(res)", None),
    ("lindahl", "bad = ~(denom > 0) | ~np.isfinite(denom)", "bad = ~(denom > 0)", None),
    ("lindahl", "np.maximum((B / n) * model.u.sum(axis=0), _SPEND_FLOOR * B)",
     "(B / n) * model.u.sum(axis=0)", None),
    # saturating: the worst-item sweep.
    ("saturating", "sizes.sum() <= B * (1.0 + 1e-12)", "sizes.sum() <= B", None),
    ("saturating", "_ROOT_MAX_ITERS = 200", "_ROOT_MAX_ITERS = 20",
     "a loop cap: Newton with the bracket-closing step meets the root tolerance in "
     "far fewer iterations on every instance tried"),
    ("saturating", "u = np.asfortranarray(inst.utilities)", "u = inst.utilities",
     "fixes the bits of the sweep's products, which depend on the layout; no test "
     "compares them with another layout"),
    ("saturating", "_Y_BRACKET_FLOOR = 1e-12", "_Y_BRACKET_FLOOR = 1e-6", None),
    ("saturating", "if abs(step) < 0.5 * width:", "if False:", None),
    ("saturating", "if xj == x[j] and yj == y[j]:", "if False:", None),
    ("saturating", "pinned = (x == sizes) & pinnable", "pinned = x == sizes", None),
    ("saturating", "if not converged:\n        _, x, y = best", "if False:\n        pass",
     None),
    ("saturating", "if at_lo[0] <= 0.0:", "if False:", None),
    ("saturating", "if at_zero[0] <= 0.0:", "if False:", None),
    # coreverify: the certificate and the two oracles.
    ("coreverify", "if not np.isfinite(eps):", "if False:", None),
    ("coreverify", "self.budget_total <= self.budget_cap * (1 + 1e-12)",
     "self.budget_total <= self.budget_cap", None),
    ("coreverify", "self.epsilon < 1.0 and ", "", None),
    ("coreverify", "_PRUNE_RTOL = 1e-3", "_PRUNE_RTOL = 0.0", None),
    ("coreverify", "kth[idx] > bar and kth[idx] > best_gain", "kth[idx] > bar", None),
    ("coreverify", "rows = np.flatnonzero((cost > 0) & (cost <= B)",
     "rows = np.flatnonzero((cost <= B)", None),
    ("coreverify", "improves = Ut > (1.0 + epsilon_mult) * Ux",
     "improves = Ut >= (1.0 + epsilon_mult) * Ux", None),
    # model: the utility families.
    ("model", "if not np.all((a > 0) & (a <= 1)):", "if np.any(a <= 0) or np.any(a > 1):",
     None),
    ("model", "_KINK_RTOL = 1e-9", "_KINK_RTOL = 0.0", None),
    ("model", "U[rows] = np.where(~pos[rows] @ self.u.T > 0, 0.0, U[rows])", "pass", None),
    ("model", "return np.where(u > 0, u * fp, 0.0)", "return u * fp", None),
    ("model", "np.where(coef == 0.0, 0.0, coef * pow_term)", "coef * pow_term", None),
    ("model", "if np.any(s <= 0) or not np.all(np.isfinite(s)):", "if np.any(s <= 0):", None),
    # mechanism: the floored simplex, the score, the sampler and the experiments.
    ("mechanism", "0.0 < gamma < 1.0)", "0.0 <= gamma < 1.0)", None),
    ("mechanism", "isinstance(eps, numbers.Real) and eps > 0.0", "isinstance(eps, numbers.Real)",
     None),
    ("mechanism", "steps > 0)", "steps >= 0)", None),
    ("mechanism", "burn >= 0)", "burn > 0)", None),
    ("mechanism", "self.seed >= 0)", "True)", None),
    ("mechanism", "if self.n < 1 or self.k < 1:", "if False:", None),
    ("mechanism", "if not 0.0 < self.gamma < 1.0:", "if False:", None),
    ("mechanism", "if self.k * self.lower_bound > 1.0 + _FEAS_TOL:", "if False:", None),
    ("mechanism", "max(1.0 - self.k * self.lower_bound, 0.0)", "1.0 - self.k * self.lower_bound",
     None),
    ("mechanism", "if self.slack <= _FEAS_TOL:", "if self.slack < 0.0:", None),
    ("mechanism", " & (X.sum(axis=1) <= 1.0 + tol)", "", None),
    ("mechanism", "return t_lo, np.maximum(t_hi, t_lo)", "return t_lo, t_hi", None),
    ("mechanism", "abs(inst.budget - 1.0) > 1e-9 or ", "", None),
    ("mechanism", " or np.abs(inst.utilities.sum(axis=1) - 1.0).max() > 1e-9", "", None),
    ("mechanism", "counts[:, None] * (lb + slack * rows)", "(lb + slack * rows)", None),
    ("mechanism", "counts[inverse[self.agent]] -= 1", "pass", None),
    ("mechanism", "counts[:, None] * (lb + slack * rows)", "counts[:, None] * (slack * rows)",
     None),
    ("mechanism", "counts[:, None] * (lb + slack * rows)", "counts[:, None] * (lb + rows)", None),
    ("mechanism", "own = lb + slack * self.override", "own = slack * self.override", None),
    ("mechanism", 'per_item += own / np.einsum("ck,ck->c", X, self.override)[:, None]', "pass",
     None),
    ("mechanism", "np.ascontiguousarray(rows.T)", "rows.T",
     "changes rounding only; at 50-100 chains, k = 2-6 and 2-100 distinct rows the product "
     "with the contiguous copy took 1.0-2.3 us, against 1.5-2.8 us with the strided view"),
    ("mechanism", "np.maximum.reduce(per_item.T.copy(), axis=0)",
     "np.maximum.reduce(per_item.T, axis=0)",
     "the same bits; at 50-100 chains and k = 2-6 the maximum over the copy took "
     "1.5-1.8 us, against 3.1-6.3 us over the strided view"),
    ("mechanism", "if not fs.contains(xv, tol=1e-7):", "if False:", None),
    ("mechanism", "if n <= k * k:", "if n < k * k:", None),
    ("mechanism", "if not privacy_precondition_ok(inst.n, inst.k, cfg.epsilon_priv):",
     "if False:", None),
    ("mechanism", "alpha = max(value - norm.n, 0.0)", "alpha = value - norm.n",
     "a round-off guard: value >= n exactly, since y = x is feasible in the inner maximum"),
    ("mechanism", "if fs.slack <= _FEAS_TOL:\n        return fs.center()",
     "if False:\n        pass", None),
    ("mechanism", "tol = 1e-8 * inst.n ** cfg.gamma", "tol = 1e-4 * inst.n ** cfg.gamma", None),
    ("mechanism", "if not res.converged:", "if False:", None),
    ("mechanism", "if rounds >= _PROPOSAL_CAP:", "if False:", None),
    ("mechanism", "if n_pending:  # shrink", "if True:  # shrink",
     "the same result; the guard skips three array operations (2.5-5.3 us at 50-105 "
     "chains) on each step's last round"),
    ("mechanism", "a = np.where(below, t, a)", "pass", None),
    ("mechanism", "moved = X.min() < lb", "moved = False", None),
    ("mechanism", "over = totals > 1.0", "over = totals > 2.0", None),
    ("mechanism", "fs.require_interior()", "pass", None),
    ("mechanism", "if n_samples <= 0 or n_chains <= 0 or thin <= 0:", "if False:", None),
    ("mechanism", "per_chain = -(-n_samples // n_chains)", "per_chain = n_samples // n_chains",
     None),
    ("mechanism", "if R.shape[1] != inst.k:", "if False:", None),
    ("mechanism", "if not np.all(np.isfinite(R)) or np.any(R < 0):", "if False:", None),
    ("mechanism", "if not 0 <= agent < inst.n:", "if False:", None),
    ("mechanism", "if trials < 2:", "if trials < 1:", None),
    ("mechanism", "if cfg.burn_in >= cfg.chain_steps:", "if False:", None),
    ("mechanism", "diffs.std(axis=1, ddof=1)", "diffs.std(axis=1, ddof=0)", None),
    # ballots: the two body readers and the generators.
    ("ballots", "((matrix >= 0) & (matrix < np.inf)).all() and ", "", None),
    ("ballots", " and (matrix > 0).any(axis=1).all()", "", None),
    ("ballots", "if len(row) != k + 1:", "if False:", None),
    ("ballots", "if not np.any(cells > 0):", "if False:", None),
    ("ballots", "if np.count_nonzero(buf == 13) != np.count_nonzero(crlf):", "if False:", None),
    ("ballots", "if commas.size != ends.size * k:", "if False:", None),
    ("ballots", "(grid[:, 0] == eol - 2 * k).all() and ", "", None),
    ("ballots", "\n            and (digits <= 9).all()", "", None),
    ("ballots", "del commas, grid", "pass",
     "frees two 8-byte-a-cell buffers before the matrix is built, which moves election "
     "peak RSS (CHANGES.md, the FOUND on it); no test reads memory"),
    ("ballots", 'header[0].strip() != "voter_id"', 'header[0] != "voter_id"', None),
    ("ballots", "if any(not name for name in item_names):", "if False:", None),
    ("ballots", "if len(set(item_names)) != len(item_names):", "if False:", None),
    ("ballots", "if '\"' not in body:", "if True:", None),
    ("ballots", "if not rows:", "if False:", None),
    ("ballots", "if M.ndim != 2 or M.shape[1] != len(item_names):", "if False:", None),
    ("ballots", 'f"{v:.10g}"', 'f"{v:.6g}"', None),
    ("ballots", "if not 0.0 < p <= 1.0:", "if not 0.0 < p < 1.0:", None),
    ("ballots", "isinstance(approvals, numbers.Integral) and ", "", None),
    ("ballots", "sizes = rng.uniform(0.08, 0.25, size=k)", "sizes = rng.uniform(0.08, 0.2, size=k)",
     None),
    ("ballots", "m = math.ceil(n / 2) + 1", "m = math.ceil(n / 2)", None),
    ("ballots", "reject_bools(BallotError, **params)", "pass", None),
    ("ballots", "if params:", "if False:", None),
    # aggregation: rankings, rounding, similarity, independence and the random model.
    ("aggregation", "_FIT_RTOL = 1e-9", "_FIT_RTOL = 0.0", None),
    ("aggregation", "if x.size != inst.k:", "if False:", None),
    ("aggregation", 'np.argsort(-scores, kind="stable")', "np.argsort(-scores)", None),
    ("aggregation", "elif x_frac is None:", "else:", None),
    ("aggregation", "if not union:", "if False:", None),
    ("aggregation", "if budget <= 0:", "if False:", None),
    ("aggregation", "if dof < 1:", "if dof < 0:", None),
    ("aggregation", "if not 0 < alpha < 1:", "if False:", None),
    ("aggregation", "degenerate = (col_sum == 0) | (col_sum == n)", "degenerate = col_sum == n",
     None),
    ("aggregation", "correlated = p_values < alpha", "correlated = p_values <= alpha", None),
    ("aggregation", "if kept.size >= 2:", "if kept.size >= 1:", None),
    ("aggregation", "sample_ok=bool(n >= 20)", "sample_ok=bool(n > 20)", None),
    ("aggregation", "np.all((p >= 0) & (p <= 1)) and ", "", None),
    ("aggregation", " and np.any(p > 0)", "", None),
    ("aggregation", "if np.any(u <= 0):", "if False:", None),
    ("aggregation", "if not 1 <= budget_items <= k:", "if False:", None),
    ("aggregation", "if eps <= 0:", "if False:", None),
    ("aggregation", "precondition_ok=bool(expected > threshold)",
     "precondition_ok=bool(expected >= threshold)", None),
    # cli: config parsing, loading, the commands and the report.
    ("cli", "np.nan if isinstance(value, bool) else float(value) * 100", "float(value) * 100",
     None),
    ("cli", "if cents <= 0:", "if False:", None),
    ("cli", "if not isinstance(raw, dict):\n            raise", "if False:\n            raise",
     None),
    ("cli", "if not isinstance(raw[\"items\"], list):", "if False:", None),
    ("cli", "if not name:", "if False:", None),
    ("cli", "if name in sizes:", "if False:", None),
    ("cli", "if not isinstance(family, str):", "if False:", None),
    ("cli", "knobs(**block)", "pass", None),
    ("cli", "if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:", "if False:",
     None),
    ("cli", " or seed < 0:", ":", None),
    ("cli", "if args.seed < 0:", "if False:", None),
    ("cli", "return repr(obj)", "return obj", None),
    ("cli", "if not args.votes:", "if False:", None),
    ("cli", "if unknown:\n            raise CliError(f\"unknown item",
     "if False:\n            raise CliError(f\"unknown item", None),
    ("cli", "if missing:", "if False:", None),
    ("cli", "elif any(c is not None for c in cents):", "elif False:", None),
    ("cli", "if x.size != k:", "if False:", None),
    ("cli", "if not args.allocation:", "if False:", None),
    ("cli", "min((float(v) for _, v in result.max_violation_trace), default=None)",
     "float(result.max_violation_trace[-1][1])", None),
    ("cli", 'np.argsort(-core_fill, kind="stable")', "np.arange(inst.k)", None),
    ("cli", "None if not np.isfinite(v) else float(v)", "float(v)", None),
    ("cli", 'if "=" not in pair:', "if False:", None),
    ("cli", "except json.JSONDecodeError:\n            params[key] = value",
     "except ValueError:\n            raise", None),
    ("cli", 'report["timing"] = {"seconds"', 'report["timings"] = {"seconds"', None),
    ("cli", "if args.seed is not None:", "if False:", None),
]


def stale() -> list:
    """Entries whose ``old`` text does not occur exactly once in its module,
    or whose ``new`` text changes nothing."""
    src = REPO / "src" / "budgetcore"
    return [(module, old) for module, old, new, _ in MUTANTS
            if old == new or (src / f"{module}.py").read_text(encoding="utf-8").count(old) != 1]


def run(modules=()) -> int:
    """Run tier-1 on each mutant of ``modules`` (every module when empty) in a
    copy of the checkout; 1 if any mutant without a reason survives."""
    unexpected = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_*"))
        for module, old, new, reason in MUTANTS:
            if modules and module not in modules:
                continue
            path = root / "src" / "budgetcore" / f"{module}.py"
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new, 1), encoding="utf-8")
            try:
                # The staleness check fails on every mutant by construction.
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     "--deselect", "tests/test_imports.py::test_mutants_apply_once"],
                    cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                proc = None
            finally:
                path.write_text(text, encoding="utf-8")
            if proc is None:
                verdict = f"killed   timed out after {TIMEOUT_S} s"
            elif proc.returncode != 0:
                failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
                verdict = f"killed   {failed[0] if failed else f'pytest exit {proc.returncode}'}"
            elif reason is None:
                verdict, unexpected = "SURVIVED", unexpected + 1
            else:
                verdict = f"survived ({reason})"
            print(f"{module}: {old!r} -> {new!r}\n    {verdict}", flush=True)
    return int(unexpected > 0)


if __name__ == "__main__":
    unknown = set(sys.argv[1:]) - {module for module, *_ in MUTANTS}
    if unknown:
        sys.exit(f"no mutants for {sorted(unknown)}")
    if stale():
        sys.exit(f"stale mutants: {stale()}")
    sys.exit(run(sys.argv[1:]))
