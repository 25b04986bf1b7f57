"""End-to-end command-line runs, in process, against temp directories."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import budgetcore
from budgetcore.aggregation import budget_similarity, jaccard
from budgetcore.cli import CliError, ElectionConfig, main
from budgetcore.ballots import parse_votes
from budgetcore.lindahl import SolverConfig
from budgetcore.mechanism import MechanismConfig
from budgetcore.model import Allocation, Instance
from budgetcore.saturating import HeuristicConfig, heuristic_solve

from test_saturating import ballot_violation


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def gen_k_approval(capsys, tmp_path, n=40, k=8, seed=2, budget=1000.0):
    """Generate a sized instance and return (votes_path, config_path)."""
    out = tmp_path / "gen"
    rc, rep = run(
        capsys, "gen", "--profile", "k-approval", "--n", str(n), "--k", str(k),
        "--seed", str(seed), "--budget", str(budget), "--out", str(out),
    )
    assert rc == 0
    return rep["artifacts"]["votes_csv"], rep["artifacts"]["config_json"]


class TestGen:
    def test_writes_votes_and_config(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--out", str(tmp_path))
        assert rc == 0
        assert rep["command"] == "gen"
        assert rep["result"]["voters"] == 5 and rep["result"]["items"] == 2
        matrix, names = parse_votes(tmp_path / "votes.csv")
        assert matrix.shape == (5, 2)
        with open(tmp_path / "config.json", encoding="utf-8") as fh:
            assert json.load(fh) == {"budget": 1.0, "seed": 0}

    def test_seed_controls_draw(self, capsys, tmp_path):
        digests = []
        for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
            rc, rep = run(capsys, "gen", "--profile", "independent-bernoulli",
                          "--n", "20", "--k", "4", "--seed", str(seed),
                          "--out", str(tmp_path / sub))
            assert rc == 0
            assert rep["config"]["seed"] == seed
            digests.append(rep["result"]["sha256"])
        assert digests[0] == digests[1] != digests[2]

    def test_negative_seed_override_is_an_error_naming_seed(self, capsys, tmp_path):
        rc, err = run(capsys, "gen", "--profile", "figure1a", "--n", "5", "--seed", "-1",
                      "--out", str(tmp_path))
        assert rc == 1
        assert err["error"] == {"type": "CliError",
                                "message": "--seed must be a nonnegative integer, got -1"}
        assert not (tmp_path / "votes.csv").exists()

    def test_param_forwarding(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "independent-bernoulli",
                      "--n", "30", "--k", "3", "--param", "p=0.9",
                      "--out", str(tmp_path))
        assert rc == 0
        matrix, _ = parse_votes(tmp_path / "votes.csv")
        assert matrix.mean() > 0.75

    def test_sized_profile_config_feeds_back(self, capsys, tmp_path):
        votes, config = gen_k_approval(capsys, tmp_path)
        with open(config, encoding="utf-8") as fh:
            raw = json.load(fh)
        assert raw["budget"] == 1000.0
        assert len(raw["items"]) == 8
        assert all(80.0 <= item["size"] <= 250.0 for item in raw["items"])
        # The emitted pair must be accepted verbatim by a consuming command.
        rc, rep = run(capsys, "solve-sat", "--votes", votes, "--config", config,
                      "--out", str(tmp_path / "sat"))
        assert rc == 0


class TestSolve:
    def disjoint(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "disjoint-groups", "--n", "12",
                      "--k", "3", "--out", str(tmp_path / "gen"))
        assert rc == 0
        return rep["artifacts"]["votes_csv"]

    def test_equal_groups_get_equal_shares(self, capsys, tmp_path):
        votes = self.disjoint(capsys, tmp_path)
        rc, rep = run(capsys, "solve", "--votes", votes, "--out", str(tmp_path / "s"))
        assert rc == 0
        x = rep["result"]["allocation"]["x"]
        assert x == pytest.approx([1 / 3] * 3, abs=1e-9)
        assert rep["result"]["max_residual"] == pytest.approx(0.0, abs=1e-9)
        assert rep["result"]["converged"] is True
        cert = rep["result"]["certificate"]
        assert cert["epsilon"] <= 1e-8 and cert["budget_ok"] is True
        trace = (tmp_path / "s" / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,max_violation"
        assert len(trace) >= 2

    @pytest.mark.parametrize("command", [
        "solve", "solve-sat", "check-core", "mechanism", "compare", "analyze", "gen",
    ])
    def test_report_is_deterministic_modulo_timing(self, capsys, tmp_path, command):
        # stdout is report.json byte for byte, and a rerun differs only in timing.
        votes, config = gen_k_approval(capsys, tmp_path)
        raw = json.loads(Path(config).read_text(encoding="utf-8"))
        mech = {"gamma": 0.9, "chain_steps": 2000, "burn_in": 0}
        Path(config).write_text(json.dumps({**raw, "mechanism": mech}))
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"x": [125.0] * 8}))
        argv = {
            "gen": ["--profile", "k-approval", "--n", "40", "--k", "8", "--seed", "2",
                    "--budget", "1000"],
            "check-core": ["--votes", votes, "--config", config, "--allocation", str(alloc)],
        }.get(command, ["--votes", votes, "--config", config])
        out = tmp_path / "same"
        reports = []
        for _ in range(2):
            rc = main([command, *argv, "--out", str(out)])
            printed = capsys.readouterr().out
            assert rc == 0, printed
            assert printed == (out / "report.json").read_text(encoding="utf-8")
            rep = json.loads(printed)
            del rep["timing"]
            reports.append(rep)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("model", [
        {"family": "linear"},
        {"family": "powersum", "alpha": 0.5},
        {"family": "smoothed", "eps_smooth": 0.1},
    ], ids=lambda m: m["family"])
    def test_certificate_reuses_solver_residuals(self, capsys, tmp_path, monkeypatch,
                                                 model):
        # The solver's result already holds the residuals at its allocation;
        # the certificate must come from those, not from a second evaluation.
        from budgetcore import coreverify, lindahl
        calls = []
        residuals = lindahl.lindahl_residuals

        def counting(*args, **kwargs):
            calls.append(1)
            return residuals(*args, **kwargs)

        monkeypatch.setattr(lindahl, "lindahl_residuals", counting)
        monkeypatch.setattr(coreverify, "lindahl_residuals", counting)
        votes, config = gen_k_approval(capsys, tmp_path)
        raw = json.loads(Path(config).read_text(encoding="utf-8"))
        raw["utility_model"] = model
        Path(config).write_text(json.dumps(raw))
        rc, rep = run(capsys, "solve", "--votes", votes, "--config", config,
                      "--out", str(tmp_path / "s"))
        assert rc == 0
        assert len(calls) == 1
        res = rep["result"]
        expected = coreverify.residual_certificate(
            np.array(res["residuals"]), np.array(res["allocation"]["x"]), 1000.0)
        assert res["certificate"]["epsilon"] == expected.epsilon

    def test_cobb_douglas_closed_form(self, capsys, tmp_path):
        votes = tmp_path / "votes.csv"
        votes.write_text("voter_id,a,b,c\nv0,0.5,0.25,0.25\nv1,0.2,0.3,0.5\n"
                         "v2,0.6,0.4,0\nv3,0.1,0.1,0.8\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"budget": 4.0, "utility_model": {"family": "cobbdouglas"}}))
        rc, rep = run(capsys, "solve", "--votes", str(votes), "--config", str(config),
                      "--out", str(tmp_path / "s"))
        assert rc == 0
        res = rep["result"]
        assert res["iterations"] == 0 and res["converged"] is True
        # x_j = (B/n) sum_i a_ij with B/n = 1: the column sums.
        assert res["allocation"]["x"] == pytest.approx([1.4, 1.05, 1.55], abs=1e-12)


    def test_readme_demo_smoothed_certificate_meets_tolerance(self, capsys, tmp_path):
        # Items at the solver floor are unfunded to the certificate too: their
        # one-sided residuals (about -0.08 and -0.30 here) must not count.
        votes, config = gen_k_approval(capsys, tmp_path)
        raw = json.loads(Path(config).read_text(encoding="utf-8"))
        raw["utility_model"] = {"family": "smoothed", "eps_smooth": 0.1}
        Path(config).write_text(json.dumps(raw))
        rc, rep = run(capsys, "solve", "--votes", votes, "--config", config,
                      "--out", str(tmp_path / "s"))
        assert rc == 0
        res = rep["result"]
        assert res["converged"] is True
        assert min(res["allocation"]["x"]) < 10 * 1e-12 * 1000.0  # unfunded: near the floor
        assert res["certificate"]["epsilon"] <= 1e-8  # SolverConfig().residual_tol
        assert res["certificate"]["budget_ok"] is True


class TestSolveSat:
    def test_heuristic_run(self, capsys, tmp_path):
        votes, config = gen_k_approval(capsys, tmp_path)
        rc, rep = run(capsys, "solve-sat", "--votes", votes, "--config", config,
                      "--out", str(tmp_path / "sat"))
        assert rc == 0
        res = rep["result"]
        assert res["converged"] is True
        assert res["budget_flagged"] is False
        assert res["max_violation"] <= 1 / 40
        assert res["sweeps"] >= 1
        assert len(res["allocation"]["x"]) == 8
        assert len(res["prices_y"]) == 8
        assert (tmp_path / "sat" / "trace.csv").exists()

    def test_unconverged_run_reports_the_returned_iterate(self, capsys, tmp_path):
        # Cut after 8 evaluations, this run has not converged.  The reported
        # violation is the trace's last entry, the ballots' violation at the
        # returned (x, y), which is the last accepted iterate.
        votes, config = gen_k_approval(capsys, tmp_path)
        raw = json.loads(Path(config).read_text(encoding="utf-8"))
        Path(config).write_text(json.dumps({**raw, "heuristic": {"max_sweeps": 8}}))
        rc, rep = run(capsys, "solve-sat", "--votes", votes, "--config", config,
                      "--out", str(tmp_path / "sat"))
        assert rc == 0
        res = rep["result"]
        assert res["converged"] is False
        lines = (tmp_path / "sat" / "trace.csv").read_text().splitlines()[1:]
        trace = [float(line.split(",")[1]) for line in lines]
        assert len(trace) == res["sweeps"] == 8
        assert res["max_violation"] == pytest.approx(trace[-1], rel=1e-11)
        matrix, _ = parse_votes(votes)
        inst = Instance(utilities=matrix, budget=raw["budget"],
                        sizes=np.array([item["size"] for item in raw["items"]]))
        result = heuristic_solve(inst, HeuristicConfig(max_sweeps=8))
        assert result.x.x.tolist() == res["allocation"]["x"]
        assert ballot_violation(inst, result) == pytest.approx(res["max_violation"],
                                                               rel=0, abs=1e-12)

    def test_needs_sizes(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--out", str(tmp_path))
        rc, err = run(capsys, "solve-sat", "--votes",
                      str(tmp_path / "votes.csv"), "--out", str(tmp_path / "x"))
        assert rc == 1
        assert err["error"]["type"] == "ModelError"
        assert "item sizes" in err["error"]["message"]


class TestCheckCore:
    def setup_majority(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--out", str(tmp_path / "gen"))
        assert rc == 0
        return rep["artifacts"]["votes_csv"]

    def write_alloc(self, tmp_path, x):
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps({"x": list(x)}))
        return str(path)

    def test_equilibrium_passes(self, capsys, tmp_path):
        votes = self.setup_majority(capsys, tmp_path)
        alloc = self.write_alloc(tmp_path, [0.8, 0.2])
        rc, rep = run(capsys, "check-core", "--votes", votes,
                      "--allocation", alloc, "--out", str(tmp_path / "chk"))
        assert rc == 0
        assert rep["result"]["deviation"] is None
        assert rep["result"]["certificate"]["epsilon"] <= 1e-8

    def test_starved_majority_blocked(self, capsys, tmp_path):
        votes = self.setup_majority(capsys, tmp_path)
        alloc = self.write_alloc(tmp_path, [0.01, 0.99])
        rc, rep = run(capsys, "check-core", "--votes", votes,
                      "--allocation", alloc, "--out", str(tmp_path / "chk"))
        assert rc == 0
        dev = rep["result"]["deviation"]
        assert dev["coalition"] == [0, 1, 2, 3]
        assert dev["min_gain"] == pytest.approx(0.79)
        assert dev["mode"] == "additive"
        assert rep["result"]["certificate"]["epsilon"] > 0.5

    @pytest.mark.parametrize("x, voter", [([0.0, 1.0], 0), ([1.0, 0.0], 4)],
                             ids=["majority-starved", "minority-starved"])
    def test_zero_utility_voter_certificate_unavailable(self, capsys, tmp_path, x, voter):
        # Spending nothing on everything a voter values leaves the price
        # certificate undefined: it is reported unavailable, naming the voter,
        # and the deviation search still runs (and blocks the allocation).
        votes = self.setup_majority(capsys, tmp_path)
        alloc = self.write_alloc(tmp_path, x)
        rc, rep = run(capsys, "check-core", "--votes", votes,
                      "--allocation", alloc, "--out", str(tmp_path / "chk"))
        assert rc == 0
        cert = rep["result"]["certificate"]
        assert cert["epsilon"] == "inf" and cert["budget_ok"] is False
        assert cert["guarantee"].startswith(f"unavailable: voter {voter} ")
        assert rep["result"]["deviation"] is not None

    def test_cobb_douglas_zero_spend_certifies_nothing(self, capsys, tmp_path):
        # A Cobb-Douglas voter's marginal spend is its exponent row sum, so a
        # zero spend on a weighted item gives an infinite residual, not an
        # undefined one; the deviation search still blocks the allocation.
        votes = tmp_path / "votes.csv"
        votes.write_text("voter_id,a,b,c\nv0,0.5,0.25,0.25\nv1,0.2,0.3,0.5\n"
                         "v2,0.6,0.4,0\nv3,0.1,0.1,0.8\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"budget": 4.0, "utility_model": {"family": "cobbdouglas"}}))
        rc, rep = run(capsys, "check-core", "--votes", str(votes), "--config", str(config),
                      "--allocation", self.write_alloc(tmp_path, [2.0, 2.0, 0.0]),
                      "--out", str(tmp_path / "chk"))
        assert rc == 0
        cert = rep["result"]["certificate"]
        assert cert["epsilon"] == "inf" and cert["budget_ok"] is False
        assert rep["result"]["deviation"] is not None

    def test_vacuous_certificate_is_not_ok(self, capsys, tmp_path):
        votes = self.setup_majority(capsys, tmp_path)
        alloc = self.write_alloc(tmp_path, [0.99, 0.01])
        rc, rep = run(capsys, "check-core", "--votes", votes,
                      "--allocation", alloc, "--out", str(tmp_path / "chk"))
        assert rc == 0
        cert = rep["result"]["certificate"]
        assert cert["epsilon"] >= 1 and cert["budget_ok"] is False

    def test_large_instance_skips_search(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "independent-bernoulli",
                      "--n", "10", "--k", "5", "--out", str(tmp_path / "gen"))
        votes = rep["artifacts"]["votes_csv"]
        alloc = self.write_alloc(tmp_path, [0.2] * 5)
        rc, rep = run(capsys, "check-core", "--votes", votes,
                      "--allocation", alloc, "--out", str(tmp_path / "chk"))
        assert rc == 0
        assert "deviation" not in rep["result"]
        assert "k <= 4" in rep["result"]["deviation_search_skipped"]

    @pytest.mark.parametrize("x", [[float("nan"), 1.0], [float("inf"), 0.0], [1.5, -0.5]],
                             ids=["nan", "inf", "negative"])
    def test_invalid_allocation_is_an_error_report(self, capsys, tmp_path, x):
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "11",
                      "--out", str(tmp_path / "gen"))
        assert rc == 0
        alloc = self.write_alloc(tmp_path, x)
        rc, err = run(capsys, "check-core", "--votes", rep["artifacts"]["votes_csv"],
                      "--allocation", alloc, "--out", str(tmp_path / "chk"))
        assert rc == 1
        assert err["error"]["type"] == "CliError"
        assert "allocation entries must be" in err["error"]["message"]

    def test_allocation_of_the_wrong_length_is_an_error_report(self, capsys, tmp_path):
        votes = self.setup_majority(capsys, tmp_path)
        alloc = self.write_alloc(tmp_path, [0.5, 0.3, 0.2])
        rc, err = run(capsys, "check-core", "--votes", votes, "--allocation", alloc,
                      "--out", str(tmp_path / "chk"))
        assert rc == 1
        assert err["error"]["type"] == "CliError"
        assert "allocation file has 3 entries, expected 2" in err["error"]["message"]

    @pytest.mark.parametrize("text, message", [
        ("oops", "invalid JSON (Expecting value: line 1 column 1 (char 0))"),
        ('{"X": [0.5, 0.5]}', "a JSON object needs the key 'x'"),
    ], ids=["malformed", "no-x"])
    def test_unreadable_allocation_file_is_named(self, capsys, tmp_path, text, message):
        votes = self.setup_majority(capsys, tmp_path)
        alloc = tmp_path / "alloc.json"
        alloc.write_text(text)
        rc, err = run(capsys, "check-core", "--votes", votes, "--allocation", str(alloc),
                      "--out", str(tmp_path / "chk"))
        assert rc == 1
        assert err["error"] == {"type": "CliError",
                                "message": f"allocation file {alloc}: {message}"}

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_nonpositive_grid_is_an_error_report(self, capsys, tmp_path, grid):
        votes = self.setup_majority(capsys, tmp_path)
        alloc = self.write_alloc(tmp_path, [0.8, 0.2])
        rc, err = run(capsys, "check-core", "--votes", votes, "--allocation", alloc,
                      "--grid", grid, "--out", str(tmp_path / "chk"))
        assert rc == 1
        assert err["error"]["type"] == "ValueError"
        assert "grid_steps must be at least 1" in err["error"]["message"]

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_is_an_error_report(self, capsys, tmp_path, threshold):
        # Every comparison with these thresholds fails, which would report no deviation.
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "10",
                      "--out", str(tmp_path / "gen"))
        assert rc == 0
        argv = ["check-core", "--votes", rep["artifacts"]["votes_csv"],
                "--allocation", self.write_alloc(tmp_path, [0.99, 0.01]),
                "--out", str(tmp_path / "chk")]
        rc, rep = run(capsys, *argv)
        assert rc == 0
        assert rep["result"]["deviation"]["coalition"] == [6, 7, 8, 9]
        rc, err = run(capsys, *argv, "--threshold", threshold)
        assert rc == 1
        assert err["error"]["type"] == "ValueError"
        assert f"threshold {threshold}" in err["error"]["message"]

    def test_negative_threshold_is_spelled_with_equals(self, capsys, tmp_path):
        # argparse reads "-inf" after a space as an option, not a value.
        votes = self.setup_majority(capsys, tmp_path)
        argv = ["check-core", "--votes", votes, "--allocation",
                self.write_alloc(tmp_path, [0.8, 0.2]), "--out", str(tmp_path / "chk")]
        rc, err = run(capsys, *argv, "--threshold", "-inf")
        assert rc == 1
        assert err["error"] == {"type": "CliError",
                                "message": "argument --threshold: expected one argument"}
        rc, rep = run(capsys, *argv, "--threshold=-inf")
        assert rc == 0
        assert rep["result"]["deviation"] is not None

    def test_multiplicative_threshold_is_a_margin(self, capsys, tmp_path):
        # The default --threshold 1e-3 asks every member's ratio to exceed 1.001.
        # Read as the ratio itself, it let a coalition whose members all lose
        # block the solver's core allocation.
        rc, rep = run(capsys, "gen", "--profile", "independent-bernoulli", "--n", "100",
                      "--k", "3", "--seed", "4", "--out", str(tmp_path / "gen"))
        votes = rep["artifacts"]["votes_csv"]
        rc, rep = run(capsys, "solve", "--votes", votes, "--out", str(tmp_path / "solve"))
        assert rc == 0
        alloc = self.write_alloc(tmp_path, rep["result"]["allocation"]["x"])
        rc, rep = run(capsys, "check-core", "--votes", votes, "--allocation", alloc,
                      "--mode", "multiplicative", "--out", str(tmp_path / "chk"))
        assert rc == 0
        assert rep["result"]["deviation"] is None
        # The minority values nothing that the majority-only spend buys.
        votes = self.setup_majority(capsys, tmp_path)
        alloc = self.write_alloc(tmp_path, [1.0, 0.0])
        rc, rep = run(capsys, "check-core", "--votes", votes, "--allocation", alloc,
                      "--mode", "multiplicative", "--out", str(tmp_path / "chk"))
        assert rc == 0
        dev = rep["result"]["deviation"]
        assert dev["coalition"] == [4] and dev["min_gain"] == "inf"

    def test_input_records_search_settings(self, capsys, tmp_path):
        # A null deviation means "none found at these settings": the report
        # names them, and a rerun reproduces it outside timing.
        votes = self.setup_majority(capsys, tmp_path)
        alloc = self.write_alloc(tmp_path, [0.8, 0.2])
        argv = ["check-core", "--votes", votes, "--allocation", alloc,
                "--out", str(tmp_path / "chk")]
        inputs, texts = [], []
        for extra in ([], [], ["--grid", "10"], ["--threshold=-inf"],
                      ["--mode", "multiplicative"]):
            assert main([*argv, *extra]) == 0
            rep = json.loads(capsys.readouterr().out)
            del rep["timing"]
            inputs.append(rep["input"])
            texts.append(json.dumps(rep, sort_keys=True))
        assert texts[0] == texts[1]
        assert {k: inputs[0][k] for k in ("allocation", "grid", "mode", "threshold")} == {
            "allocation": alloc, "grid": 100, "mode": "additive", "threshold": 1e-3}
        assert inputs[2]["grid"] == 10 and inputs[3]["threshold"] == "-inf"
        assert inputs[4]["mode"] == "multiplicative"
        assert all(inputs[i] != inputs[0] for i in (2, 3, 4))

    def test_requires_allocation_flag(self, capsys, tmp_path):
        votes = self.setup_majority(capsys, tmp_path)
        rc, err = run(capsys, "check-core", "--votes", votes,
                      "--out", str(tmp_path / "chk"))
        assert rc == 1
        assert err["error"]["type"] == "CliError"
        assert "--allocation" in err["error"]["message"]


class TestMechanism:
    def test_draw_and_certificate(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "figure2a", "--n", "30",
                      "--out", str(tmp_path / "gen"))
        votes = rep["artifacts"]["votes_csv"]
        config = tmp_path / "mech.json"
        config.write_text(json.dumps({
            "mechanism": {"gamma": 0.5, "epsilon_priv": 1.0,
                          "chain_steps": 300, "burn_in": 100},
            "seed": 3,
        }))
        rc, rep = run(capsys, "mechanism", "--votes", votes,
                      "--config", str(config), "--out", str(tmp_path / "m"))
        assert rc == 0
        x = np.array(rep["result"]["allocation"]["x"])
        lb = 30 ** -0.5
        assert np.all(x >= lb - 1e-9) and x.sum() <= 1 + 1e-9
        diag = rep["result"]["diagnostics"]
        assert diag["seed"] == 3 and diag["gamma"] == 0.5
        assert 0 < diag["accept_rate"] <= 1
        # A sampled point sits below the score optimum, so its bound is at
        # least the fairness-point bound; it must agree with the library.
        from budgetcore.mechanism import MechanismConfig, approximation_certificate
        from budgetcore.model import Instance
        matrix, _ = parse_votes(votes)
        inst = Instance(utilities=matrix, budget=1.0)
        cfg_obj = MechanismConfig(gamma=0.5, epsilon_priv=1.0, chain_steps=300,
                                  burn_in=100, seed=3)
        expected = approximation_certificate(inst, x, cfg_obj)
        assert rep["result"]["core_bound"] == pytest.approx(expected, rel=1e-12)
        assert rep["result"]["core_bound"] >= lb / (1 - 2 * lb) - 1e-12

    def test_draw_needs_no_burn_in(self, capsys, tmp_path):
        # The draw is the chain's final state; the default burn_in (5000)
        # exceeds chain_steps here and must neither be required nor reported.
        votes, _ = gen_k_approval(capsys, tmp_path)
        config = tmp_path / "mech.json"
        config.write_text(json.dumps({"mechanism": {"gamma": 0.9, "chain_steps": 300}}))
        rc, rep = run(capsys, "mechanism", "--votes", votes,
                      "--config", str(config), "--out", str(tmp_path / "m"))
        assert rc == 0, rep
        diag = rep["result"]["diagnostics"]
        assert diag["steps"] == 300 and "burn_in" not in diag

    def test_certificate_unavailable_when_epsilon_large(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "figure2a", "--n", "30",
                      "--out", str(tmp_path / "gen"))
        votes = rep["artifacts"]["votes_csv"]
        config = tmp_path / "mech.json"
        config.write_text(json.dumps({
            "mechanism": {"gamma": 0.5, "epsilon_priv": 40.0,
                          "chain_steps": 200, "burn_in": 50},
        }))
        rc, rep = run(capsys, "mechanism", "--votes", votes,
                      "--config", str(config), "--out", str(tmp_path / "m"))
        assert rc == 0
        assert "core_bound" not in rep["result"]
        assert "epsilon_priv too large" in rep["result"]["core_bound_unavailable"]


class TestCompare:
    def test_table_and_similarity(self, capsys, tmp_path):
        votes, config = gen_k_approval(capsys, tmp_path, seed=4)  # fills out of item order
        rc, rep = run(capsys, "compare", "--votes", votes, "--config", config,
                      "--out", str(tmp_path / "cmp"))
        assert rc == 0
        sim = rep["result"]["similarity"]
        assert 0.0 <= sim["jaccard"] <= 1.0
        assert 0.0 <= sim["budget_similarity"] <= 1.0
        # Both measures, recomputed from the report's own rounded outcomes.
        core, welfare = rep["result"]["core"], rep["result"]["welfare"]
        integral = [Allocation(x=np.array(s["integral"]["x"])) for s in (core, welfare)]
        fractional = [np.array(s["fractional"]["x"]) for s in (core, welfare)]
        assert sim["jaccard"] == jaccard(*integral)
        assert sim["budget_similarity"] == budget_similarity(
            *fractional, rep["config"]["budget_cents"] / 100)
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert lines[0] == "Project,Budget,Votes,Core,Welfare"
        assert len(lines) == 9
        # Rows by core fill, descending; ties keep the item order.
        items = rep["config"]["items"]
        fill = np.array(core["fractional"]["x"]) / [item["size_cents"] / 100 for item in items]
        by_fill = sorted(range(8), key=lambda j: -fill[j])
        assert [line.split(",")[0] for line in lines[1:]] == [items[j]["name"] for j in by_fill]
        assert len(rep["result"]["core"]["order"]) == 8
        assert rep["result"]["welfare"]["integral"]["kind"] == "integral"

    def test_core_reports_heuristic_work_as_solve_sat_does(self, capsys, tmp_path):
        votes, config = gen_k_approval(capsys, tmp_path)
        reports = {}
        for command in ("compare", "solve-sat"):
            rc, rep = run(capsys, command, "--votes", votes, "--config", config,
                          "--out", str(tmp_path / command))
            assert rc == 0
            reports[command] = rep["result"]
        core, sat = reports["compare"]["core"], reports["solve-sat"]
        assert sat["sweeps"] >= 1 and sat["max_violation"] <= 1 / 40
        for field in ("converged", "sweeps", "max_violation"):
            assert core[field] == sat[field]


class TestAnalyze:
    def test_block_structure_recovered(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "block-correlated",
                      "--n", "120", "--k", "7", "--out", str(tmp_path / "gen"))
        votes = rep["artifacts"]["votes_csv"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # anchor column
            rc, rep = run(capsys, "analyze", "--votes", votes,
                          "--out", str(tmp_path / "an"))
        assert rc == 0
        res = rep["result"]
        assert res["degenerate_items"] == [0]
        assert res["clustered_items"] == [1, 2, 3, 4, 5, 6]
        assert all(v is None for v in res["p_values"][0])
        assert res["dof"] == 2 and res["alpha"] == 0.1
        assert res["sample_ok"] is True
        lines = (tmp_path / "an" / "dendrogram.csv").read_text().splitlines()
        assert lines[0] == "cluster_a,cluster_b,height"
        assert len(lines) == 6
        heights = sorted(float(line.split(",")[2]) for line in lines[1:])
        assert heights == [0.0, 0.0, 0.0, 0.0, 1.0]


class TestErrors:
    def test_missing_votes_file(self, capsys, tmp_path):
        rc, err = run(capsys, "solve", "--votes", str(tmp_path / "nope.csv"),
                      "--out", str(tmp_path))
        assert rc == 1
        assert err["error"]["type"] == "FileNotFoundError"

    def test_missing_votes_flag_is_an_error_report(self, capsys, tmp_path):
        rc, err = run(capsys, "solve", "--out", str(tmp_path))
        assert rc == 1
        assert err["error"] == {"type": "CliError", "message": "this command needs --votes PATH"}

    def test_bad_config_keys(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"budgets": 5}))
        rc, err = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--config", str(config), "--out", str(tmp_path))
        assert rc == 1
        assert err["error"]["type"] == "CliError"
        assert "unknown keys" in err["error"]["message"]

    def test_malformed_config_is_named(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text('{"budget": 5,}')
        rc, err = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--config", str(config), "--out", str(tmp_path))
        assert rc == 1
        assert err["error"]["type"] == "CliError"
        assert err["error"]["message"].startswith(f"config {config}: invalid JSON (")

    def test_config_not_in_utf8_is_a_decoding_error(self, tmp_path):
        # An encoding fault keeps its own type; "invalid JSON" would send the
        # user looking for a syntax error.
        config = tmp_path / "latin1.json"
        config.write_bytes('{"items": [{"name": "caf\u00e9"}]}'.encode("latin-1"))
        with pytest.raises(UnicodeDecodeError):
            ElectionConfig.from_file(config)

    def test_unknown_block_key_is_an_error_report(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"solver": {"tolerance": 1e-6}}))
        rc, err = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--config", str(config), "--out", str(tmp_path))
        assert rc == 1
        assert err["error"]["type"] == "CliError"
        assert "'tolerance'" in err["error"]["message"]

    @pytest.mark.parametrize("command", ["solve", "check-core"])
    def test_unknown_model_parameter_is_an_error_report(self, capsys, tmp_path, command):
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--out", str(tmp_path / "gen"))
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"utility_model": {"family": "linear", "alpah": 0.5}}))
        extra = []
        if command == "check-core":
            alloc = tmp_path / "alloc.json"
            alloc.write_text(json.dumps({"x": [0.8, 0.2]}))
            extra = ["--allocation", str(alloc)]
        rc, err = run(capsys, command, "--votes", rep["artifacts"]["votes_csv"], *extra,
                      "--config", str(config), "--out", str(tmp_path / "out"))
        assert rc == 1
        assert err["error"]["type"] == "ModelError"
        assert "'alpah'" in err["error"]["message"]

    @pytest.mark.parametrize("command", ["solve", "check-core"])
    def test_nan_exponent_is_an_error_report(self, capsys, tmp_path, command):
        # json reads NaN, which fails both comparisons of a bounds check: it
        # once passed as an exponent, check-core then reported no deviation
        # and solve failed only after solving.
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--out", str(tmp_path / "gen"))
        config = tmp_path / "nan.json"
        config.write_text(json.dumps({"utility_model": {"family": "powersum",
                                                        "alpha": float("nan")}}))
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"x": [0.8, 0.2]}))
        extra = ["--allocation", str(alloc)] if command == "check-core" else []
        rc, err = run(capsys, command, "--votes", rep["artifacts"]["votes_csv"], *extra,
                      "--config", str(config), "--out", str(tmp_path / "out"))
        assert rc == 1
        assert err["error"] == {"type": "ModelError",
                                "message": "power exponents must lie in (0, 1]"}

    @pytest.mark.parametrize("command, patch, error, named", [
        pytest.param("solve-sat", {"heuristic": {"max_sweeps": 0}}, "ValueError",
                     "max_sweeps", id="max_sweeps-0"),
        pytest.param("solve-sat", {"heuristic": {"eps_target": -1.0}}, "ValueError",
                     "eps_target", id="eps_target--1.0"),
        pytest.param("solve-sat", {"heuristic": {"perturb_alpha": 0.01}}, "CliError",
                     "unknown key 'perturb_alpha' in 'heuristic'", id="perturb_alpha-unknown"),
        pytest.param("solve", {"solver": {"residual_tol": "1e-6"}}, "ValueError",
                     "residual_tol", id="residual_tol-str"),
        pytest.param("solve", {"solver": {"max_iters": 2.5}}, "ValueError",
                     "max_iters", id="max_iters-2.5"),
        pytest.param("mechanism", {"mechanism": {"gamma": "0.5"}}, "MechanismError",
                     "gamma", id="gamma-str"),
        pytest.param("mechanism", {"mechanism": {"chain_steps": 10.5}}, "MechanismError",
                     "chain_steps", id="chain_steps-10.5"),
        pytest.param("solve", {"items": 5}, "CliError", "items", id="items-5"),
        pytest.param("solve", {"items": [1]}, "CliError", "item entry", id="item-entry-1"),
        pytest.param("solve", {"utility_model": {"family": 3}}, "CliError", "family",
                     id="family-3"),
        pytest.param("solve", {"utility_model": 3}, "CliError", "utility_model",
                     id="utility_model-3"),
        pytest.param("solve", {"seed": None}, "CliError", "seed", id="seed-null"),
        pytest.param("solve", {"seed": [1]}, "CliError", "seed", id="seed-list"),
        pytest.param("solve", {"seed": 1.5}, "CliError", "seed", id="seed-1.5"),
        pytest.param("solve", {"seed": True}, "CliError", "seed", id="seed-true"),
        pytest.param("solve", {"seed": -3}, "CliError", "'seed' must be a nonnegative integer",
                     id="seed--3"),
        pytest.param("solve", {"items": [{"name": ["a"]}]}, "CliError", "item name",
                     id="item-name-list"),
        # Blocks the command never reads are checked when the config is loaded.
        pytest.param("analyze", {"solver": {"max_iters": -1}}, "ValueError", "max_iters",
                     id="analyze-unread-solver"),
        pytest.param("solve", {"heuristic": {"max_sweeps": 0}}, "ValueError", "max_sweeps",
                     id="solve-unread-heuristic"),
        pytest.param("solve", {"mechanism": {"gamma": 5, "chain_steps": -3}}, "MechanismError",
                     "gamma", id="solve-unread-mechanism"),
    ])
    def test_out_of_range_heuristic_value_is_an_error_report(self, capsys, tmp_path,
                                                             command, patch, error, named):
        # Also the other config blocks and keys: a value of the wrong type or
        # range is an error report, never a traceback.
        votes, config = gen_k_approval(capsys, tmp_path)
        raw = json.loads(Path(config).read_text(encoding="utf-8"))
        Path(config).write_text(json.dumps({**raw, **patch}))
        rc, err = run(capsys, command, "--votes", votes, "--config", config,
                      "--out", str(tmp_path / "out"))
        assert rc == 1
        assert err["error"]["type"] == error
        assert named in err["error"]["message"]

    @pytest.mark.parametrize("argv, message", [
        (["check-core", "--grid", "abc"], "argument --grid: invalid int value: 'abc'"),
        (["gen", "--n", "5"], "the following arguments are required: --profile"),
        (["solve", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ], ids=["bad-int", "missing-flag", "unknown-flag", "no-command"])
    def test_usage_error_is_an_error_report(self, capsys, argv, message):
        rc, err = run(capsys, *argv)
        assert rc == 1
        assert err["error"] == {"type": "CliError", "message": message}
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, patch, error, named", [
        ("solve", {"solver": {"max_iters": True}}, "ValueError", "max_iters"),
        ("solve", {"solver": {"residual_tol": True}}, "ValueError", "residual_tol"),
        ("mechanism", {"mechanism": {"chain_steps": True, "burn_in": False}},
         "MechanismError", "chain_steps"),
        ("solve", {"budget": True}, "CliError", "budget"),
        ("solve", {"utility_model": {"family": "powersum", "alpha": True}}, "ModelError",
         "alpha"),
    ], ids=["max_iters", "residual_tol", "chain_steps", "budget", "alpha"])
    def test_boolean_is_not_a_number(self, capsys, tmp_path, command, patch, error, named):
        # JSON's true passes isinstance(v, numbers.Integral); no number is a flag.
        votes, config = gen_k_approval(capsys, tmp_path)
        raw = json.loads(Path(config).read_text(encoding="utf-8"))
        Path(config).write_text(json.dumps({**raw, **patch}))
        rc, err = run(capsys, command, "--votes", votes, "--config", config,
                      "--out", str(tmp_path / "out"))
        assert rc == 1
        assert err["error"]["type"] == error
        assert f"{named} must be a" in err["error"]["message"]

    @pytest.mark.parametrize("alpha", ["nan", "-1", "0", "1", "2", "inf"])
    def test_alpha_outside_unit_interval_is_an_error_report(self, capsys, tmp_path, alpha):
        # NaN and -1 flagged no pair, 2 and inf every pair, all with exit code 0.
        votes, _ = gen_k_approval(capsys, tmp_path)
        rc, err = run(capsys, "analyze", "--votes", votes, f"--alpha={alpha}",
                      "--out", str(tmp_path / "out"))
        assert rc == 1
        assert err["error"]["type"] == "AggregationError"
        assert "alpha must lie in (0, 1)" in err["error"]["message"]

    @pytest.mark.parametrize("profile, param", [
        ("independent-bernoulli", "p=true"), ("k-approval", "approvals=true"),
    ])
    def test_boolean_param_is_not_a_number(self, capsys, tmp_path, profile, param):
        rc, err = run(capsys, "gen", "--profile", profile, "--n", "5", "--k", "3",
                      "--param", param, "--out", str(tmp_path))
        assert rc == 1
        assert err["error"]["type"] == "BallotError"
        assert "must be a number, got True" in err["error"]["message"]

    @pytest.mark.parametrize("value", ["2.5", "two"])  # not JSON: passed on as a string
    def test_approvals_not_an_integer_is_an_error_report(self, capsys, tmp_path, value):
        rc, err = run(capsys, "gen", "--profile", "k-approval", "--n", "6", "--k", "5",
                      "--param", f"approvals={value}", "--out", str(tmp_path))
        assert rc == 1
        assert err["error"] == {"type": "BallotError",
                                "message": f"approvals must lie in [1, k], got {value}"}

    def test_bad_param_syntax(self, capsys, tmp_path):
        rc, err = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--param", "p0.5", "--out", str(tmp_path))
        assert rc == 1
        assert "key=value" in err["error"]["message"]

    def test_nonpositive_budget(self, capsys, tmp_path):
        rc, err = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--budget", "0", "--out", str(tmp_path))
        assert rc == 1
        assert "budget must be positive" in err["error"]["message"]

    @pytest.mark.parametrize("config, what", [
        (None, "budget"),
        ('{"budget": 1e400}', "budget"),
        ('{"budget": 1%s}' % ("0" * 400), "budget"),
        ('{"budget": 10, "items": [{"name": "item_0", "size": 1e400}]}', "size of 'item_0'"),
    ], ids=["budget-flag", "budget", "budget-int", "size"])
    def test_infinite_money_is_an_error_report(self, capsys, tmp_path, config, what):
        argv = ["gen", "--profile", "figure1a", "--n", "5", "--out", str(tmp_path)]
        if config is None:
            argv += ["--budget", "inf"]
        else:
            (tmp_path / "config.json").write_text(config)
            argv += ["--config", str(tmp_path / "config.json")]
        rc, err = run(capsys, *argv)
        assert rc == 1
        assert err["error"]["type"] == "CliError"
        assert f"{what} must be a finite number" in err["error"]["message"]

    def test_unknown_profile_surfaces_ballot_error(self, capsys, tmp_path):
        rc, err = run(capsys, "gen", "--profile", "wat", "--n", "5",
                      "--out", str(tmp_path))
        assert rc == 1
        assert err["error"]["type"] == "BallotError"


class TestConfigParsing:
    @pytest.mark.parametrize("raw", [5, None, ["budget"]])
    def test_config_must_be_an_object(self, raw):
        with pytest.raises(CliError, match="expected a JSON object"):
            ElectionConfig.from_dict(raw)

    def test_money_parsed_to_cents(self):
        cfg = ElectionConfig.from_dict({
            "budget": 10.55,
            "items": [{"name": "a", "size": 0.07}, {"name": "b", "size": 3.0}],
        })
        assert cfg.budget_cents == 1055
        assert cfg.budget == 10.55
        assert cfg.items == [{"name": "a", "size_cents": 7}, {"name": "b", "size_cents": 300}]

    def test_duplicate_items_rejected(self):
        with pytest.raises(CliError, match="duplicate item"):
            ElectionConfig.from_dict({"items": [{"name": "a"}, {"name": "a"}]})

    def test_item_needs_name(self):
        with pytest.raises(CliError, match="missing 'name'"):
            ElectionConfig.from_dict({"items": [{"size": 3}]})

    def test_model_family_split(self):
        cfg = ElectionConfig.from_dict({
            "utility_model": {"family": "power-sum", "alpha": 0.5},
        })
        assert cfg.utility_model == {"family": "power-sum", "alpha": 0.5}
        cfg = ElectionConfig.from_dict({"utility_model": {"alpha": 0.5}})
        assert cfg.utility_model == {"family": "linear", "alpha": 0.5}

    @pytest.mark.parametrize("block, key", [
        ("solver", "tolerance"),
        ("heuristic", "max_iters"),
        ("mechanism", "steps"),
        ("solver", "z_floor"),
        ("solver", "step_init"),
        ("heuristic", "bisection_tol"),
        ("mechanism", "max_rejection_tries"),
    ])
    def test_unknown_block_key_rejected(self, block, key):
        with pytest.raises(CliError, match=f"unknown key '{key}' in '{block}'"):
            ElectionConfig.from_dict({block: {key: 1}})

    @pytest.mark.parametrize("block", ["solver", "heuristic", "mechanism"])
    def test_nested_seed_points_to_top_level(self, block):
        with pytest.raises(CliError, match="top-level 'seed'"):
            ElectionConfig.from_dict({block: {"seed": 3}})

    def test_block_keys_accepted(self):
        cfg = ElectionConfig.from_dict({
            "solver": {"residual_tol": 1e-6},
            "heuristic": {"max_sweeps": 50},
            "mechanism": {"gamma": 0.9, "chain_steps": 100, "burn_in": 10},
        })
        assert cfg.solver == {"residual_tol": 1e-6}
        assert cfg.heuristic == {"max_sweeps": 50}
        assert cfg.mechanism["gamma"] == 0.9

    def test_echo_round_trips_budget(self):
        cfg = ElectionConfig.from_dict({"budget": 2.5, "seed": 9})
        echoed = dataclasses.asdict(cfg)
        assert echoed["budget_cents"] == 250
        assert echoed["seed"] == 9

    def test_partial_sizes_rejected_on_load(self, capsys, tmp_path):
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--out", str(tmp_path / "gen"))
        votes = rep["artifacts"]["votes_csv"]
        _, names = parse_votes(votes)
        config = tmp_path / "partial.json"
        config.write_text(json.dumps({
            "items": [{"name": names[0], "size": 0.5}, {"name": names[1]}],
        }))
        rc, err = run(capsys, "solve", "--votes", votes,
                      "--config", str(config), "--out", str(tmp_path / "s"))
        assert rc == 1
        assert "either all config items need sizes or none" in err["error"]["message"]

    @pytest.mark.parametrize("extra, message", [
        ([], "unknown item column(s) not in config: ['item_1']"),
        ([{"name": "item_1", "size": 0.5}, {"name": "park", "size": 0.5}],
         "config item(s) missing from votes file: ['park']"),
    ])
    def test_config_items_must_match_the_vote_columns(self, capsys, tmp_path, extra, message):
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "5",
                      "--out", str(tmp_path / "gen"))
        config = tmp_path / "items.json"
        config.write_text(json.dumps({"items": [{"name": "item_0", "size": 0.5}, *extra]}))
        rc, err = run(capsys, "solve", "--votes", rep["artifacts"]["votes_csv"],
                      "--config", str(config), "--out", str(tmp_path / "s"))
        assert rc == 1
        assert err["error"] == {"type": "CliError", "message": message}


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "budgetcore 0.1.0"

    @pytest.mark.parametrize("argv", [["--help"], ["check-core", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: budgetcore" in capsys.readouterr().out

    def test_out_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BUDGETCORE_OUT", str(tmp_path / "envout"))
        rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "5")
        assert rc == 0
        assert (tmp_path / "envout" / "votes.csv").exists()

    def test_out_env_read_per_call(self, capsys, tmp_path, monkeypatch):
        # The parser is built once per process; the default is read per call.
        for sub in ("first", "second"):
            monkeypatch.setenv("BUDGETCORE_OUT", str(tmp_path / sub))
            rc, rep = run(capsys, "gen", "--profile", "figure1a", "--n", "5")
            assert rc == 0
            assert json.loads((tmp_path / sub / "report.json").read_text()) == rep


class TestReadme:
    @pytest.mark.parametrize("block, config_cls", [
        ("solver", SolverConfig), ("heuristic", HeuristicConfig), ("mechanism", MechanismConfig),
    ])
    def test_block_key_lists_match_config_fields(self, block, config_cls):
        # "- `solver`, for `solve`: `residual_tol`, ...;" lists every key the
        # block accepts: the config's fields, less the top-level `seed`.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        entry = re.split(r"[;.]\n", readme.split(f"\n- `{block}`, for ", 1)[1], 1)[0]
        listed = re.findall(r"`(\w+)`", entry.split(":", 1)[1])
        assert listed == [f.name for f in dataclasses.fields(config_cls) if f.name != "seed"]

    def test_library_quick_start_runs_as_printed(self, tmp_path):
        readme = Path(__file__).parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        src = str(Path(budgetcore.__file__).parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "None"  # no blocking coalition

    def test_command_block_runs_as_printed(self, tmp_path):
        readme = Path(__file__).parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        script = ('set -e\npython3() { "$PYTHON" "$@"; }\n'
                  'budgetcore() { python3 -m budgetcore.cli "$@" > /dev/null; }\n' + block)
        src = str(Path(budgetcore.__file__).parents[1])
        env = dict(os.environ, PYTHON=sys.executable,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(["sh", "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "demo" / "report.json").read_text())["command"] == "mechanism"
