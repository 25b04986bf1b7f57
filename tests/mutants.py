"""Hand-written mutants of the equilibrium solver, the saturating heuristic,
the core certificate, the deviation oracles and the utility families.

Each entry of ``MUTANTS`` is (module, old, new, reason): the mutant replaces
the text ``old``, which occurs exactly once in ``src/budgetcore/<module>.py``
(a tier-1 test checks that), by ``new``.  ``reason`` is None when the tier-1
suite must fail on the mutant; otherwise it says why the mutant may survive.
The method is mutation testing (Jia and Harman, "An Analysis and Survey of the
Development of Mutation Testing", IEEE TSE 2011): a mutant that survives marks
code that either does nothing or is not tested.

``python tests/mutants.py`` copies this checkout to a temporary directory,
runs the tier-1 suite there (``pytest -x``) once per mutant, and prints each
verdict with the first failing test.  It exits 1 when a mutant without a
reason survives.  A surviving mutant costs one full tier-1 run.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

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
    ("model", "_LOG_ZERO = -1e9", "_LOG_ZERO = -1e3", None),
    ("model", "return np.where(u > 0, u * fp, 0.0)", "return u * fp", None),
    ("model", "np.where(coef == 0.0, 0.0, coef * pow_term)", "coef * pow_term", None),
    ("model", "if np.any(s <= 0) or not np.all(np.isfinite(s)):", "if np.any(s <= 0):", None),
]


def stale() -> list:
    """Entries whose ``old`` text does not occur exactly once in its module,
    or whose ``new`` text changes nothing."""
    src = REPO / "src" / "budgetcore"
    return [(module, old) for module, old, new, _ in MUTANTS
            if old == new or (src / f"{module}.py").read_text(encoding="utf-8").count(old) != 1]


def run() -> int:
    """Run tier-1 on each mutant in a copy of the checkout; 1 if any mutant
    without a reason survives."""
    unexpected = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_*"))
        for module, old, new, reason in MUTANTS:
            path = root / "src" / "budgetcore" / f"{module}.py"
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(old, new, 1), encoding="utf-8")
            try:
                # The staleness check fails on every mutant by construction.
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     "--deselect", "tests/test_imports.py::test_mutants_apply_once"],
                    cwd=root, capture_output=True, text=True,
                )
            finally:
                path.write_text(text, encoding="utf-8")
            failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
            if proc.returncode != 0:
                verdict = f"killed   {failed[0] if failed else f'pytest exit {proc.returncode}'}"
            elif reason is None:
                verdict, unexpected = "SURVIVED", unexpected + 1
            else:
                verdict = f"survived ({reason})"
            print(f"{module}: {old!r} -> {new!r}\n    {verdict}", flush=True)
    return int(unexpected > 0)


if __name__ == "__main__":
    if stale():
        sys.exit(f"stale mutants: {stale()}")
    sys.exit(run())
