"""Command-line harness: runs main() in-process and checks the JSON reports,
the determinism contract, and the exit-code contract (0 match, 1 solver
failure, 2 config error or resource limit, 3 verification mismatch)."""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hsplab import algorithms, amplitudes, cli, oracles
from hsplab.groups import SubgroupGenerators, subgroups_equal
from hsplab.oracles import PlantedTruth, instance_from_json, make_dlog_instance
from test_estimation import branch_tree_law


def run(capsys, *argv: str) -> tuple[int, dict | None, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


# --- happy-path runs ---------------------------------------------------------------


def test_order_run_matches_truth(capsys):
    code, report, _ = run(capsys, "order", "--modulus", "15", "--base", "2", "--seed", "7")
    assert code == 0
    assert report["match"] is True
    assert report["command"] == "order"
    assert report["results"][0]["recovered"] == 4
    assert report["results"][0]["truth"] == 4
    assert report["results"][0]["query_count"] > 0


@pytest.mark.parametrize("f0,f1,gens", [(1, 1, [[1]]), (0, 1, [])])
def test_deutsch_run(capsys, f0, f1, gens):
    code, report, _ = run(
        capsys, "deutsch", "--f0", str(f0), "--f1", str(f1), "--seed", "0"
    )
    assert code == 0
    recovered = SubgroupGenerators.from_json(report["results"][0]["recovered"])
    spec = recovered.spec
    assert subgroups_equal(recovered, SubgroupGenerators.of(spec, gens))


def test_simon_run(capsys):
    code, report, _ = run(capsys, "simon", "--secret", "101", "--seed", "3")
    assert code == 0
    recovered = SubgroupGenerators.from_json(report["results"][0]["recovered"])
    expected = SubgroupGenerators.from_json(
        {"moduli": [2, 2, 2], "generators": [[1, 0, 1]]}
    )
    assert subgroups_equal(recovered, expected)


def test_hsp_run_composite_group(capsys):
    code, report, _ = run(
        capsys, "hsp", "--moduli", "6", "--generators", "2", "--seed", "5"
    )
    assert code == 0 and report["match"] is True


def test_dlog_run(capsys):
    code, report, _ = run(
        capsys, "dlog", "--base", "3", "--target", "4", "--modulus", "7", "--seed", "1"
    )
    assert code == 0
    assert report["results"][0]["recovered"] == 4


def test_dlog_run_past_the_coset_table(capsys):
    """p = 1,000,003 with base 2 (r = 1,000,002, a group of 10^12 points):
    the solver draws from the dual lattice, and the brute-force truth reads
    one row of f's labels."""
    code, report, _ = run(
        capsys, "dlog", "--base", "2", "--target", "3", "--modulus", "1000003", "--seed", "0"
    )
    assert code == 0 and report["match"] is True
    for trial in report["results"]:
        assert pow(2, trial["recovered"], 1000003) == 3 and trial["truth"] == trial["recovered"]


def test_dlog_truth_reads_f_alone():
    inst = make_dlog_instance(2, 4, modulus=7)  # 2 has order 3 mod 7, and 4 = 2^2
    inst.truth = PlantedTruth()
    assert cli._truth_report("dlog", inst) == {"exponent": 2}


def test_factor_run(capsys):
    code, report, _ = run(capsys, "factor", "--n", "21", "--seed", "0")
    assert code == 0
    assert report["results"][0]["recovered"] in (3, 7)


@pytest.mark.parametrize("seed", [3, 10, 39])
def test_factor_reports_the_queries_of_every_attempt(capsys, monkeypatch, seed):
    """A factor trial's query_count is the sum of its order instances'
    counters, at seeds that run order finding two or more times, and its
    result holds every draw."""
    built = []
    make = algorithms.make_order_instance
    monkeypatch.setattr(algorithms, "make_order_instance", lambda n, a: built.append(make(n, a)) or built[-1])
    code, report, _ = run(capsys, "factor", "--n", "21", "--seed", str(seed))
    (trial,) = report["results"]
    assert code == 0 and trial["match"] is True
    assert len(built) >= 2 and trial["query_count"] == sum(inst.query_count for inst in built)
    assert len(trial["result"]["samples"]) <= trial["query_count"]
    assert trial["result"]["value"] == trial["recovered"]


def test_robust_period_honours_control_bits(capsys):
    """--control-bits sizes the robust solver's register, as it does order
    finding's: every reading is taken on 2^12 levels."""
    code, report, _ = run(capsys, "robust-period", "--period", "12", "--multiplicity", "2",
                          "--control-bits", "12", "--seed", "0")
    samples = report["results"][0]["result"]["samples"]
    assert code == 0 and samples
    assert {s["register_size"] for s in samples} == {4096}


def test_robust_period_run(capsys):
    code, report, _ = run(
        capsys, "robust-period", "--period", "6", "--multiplicity", "2",
        "--merge-seed", "4", "--seed", "2",
    )
    assert code == 0 and report["match"] is True


def test_robust_period_run_folds_merged_labels(capsys):
    # the merged-label law folds onto one period; a labels x points one-hot
    # here would need 7,520,256 amplitudes, above the default cap
    code, report, _ = run(
        capsys, "robust-period", "--period", "96", "--multiplicity", "2",
        "--merge-seed", "1", "--relabel-seed", "1", "--seed", "1", "--trials", "1",
    )
    assert code == 0 and report["match"] is True


def test_robust_config_keeps_the_merge_multiplicity(capsys, tmp_path):
    """A config's merge carries its own m = 3, so a robust subcommand run on
    that config uses it, as `verify` does, not the flag's default of 2."""
    merged = {"kind": "many_to_one", "inner": {"kind": "period", "period": 18, "relabel_seed": 0},
              "merge": [i // 3 for i in range(18)], "multiplicity": 3}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"solver": "robust-period", "instance": merged, "seed": 1}))
    _, flagged, _ = run(capsys, "robust-period", "--config", str(cfg), "--period", "18")
    _, verified, _ = run(capsys, "verify", "--config", str(cfg))
    assert flagged["config"]["params"] == verified["config"]["params"] == {"period_bound": 18}
    assert flagged["results"] == verified["results"]
    assert flagged["match"] is True


def test_robust_hsp_run(capsys):
    code, report, _ = run(
        capsys, "robust-hsp", "--moduli", "2,2", "--generators", "1,1",
        "--multiplicity", "2", "--seed", "6",
    )
    assert code == 0 and report["match"] is True


@pytest.mark.parametrize("seed", [1, 5])
def test_robust_hsp_run_composite_group(capsys, seed):
    code, report, _ = run(
        capsys, "robust-hsp", "--moduli", "2,6", "--generators", "0,3",
        "--multiplicity", "2", "--merge-seed", str(seed), "--seed", str(seed), "--trials", "2",
    )
    assert code == 0 and report["match"] is True


def test_robust_hsp_run_trivial_subgroup_past_the_label_one_hot(capsys):
    # 2048 labels x 4096 points would exceed the default cap; the law counts
    # 8192 same-label pairs instead
    code, report, err = run(
        capsys, "robust-hsp", "--moduli", "64,64", "--generators", "", "--multiplicity", "2", "--seed", "1",
    )
    assert code == 0 and report["match"] is True, err


def test_trials_flag_runs_independent_seeds(capsys):
    code, report, _ = run(
        capsys, "order", "--modulus", "15", "--base", "7", "--seed", "10",
        "--trials", "3",
    )
    assert code == 0
    assert [t["seed"] for t in report["results"]] == [10, 11, 12]
    assert all(t["match"] for t in report["results"])


def test_control_bits_flag_reaches_params(capsys):
    code, report, _ = run(
        capsys, "order", "--modulus", "15", "--base", "2", "--seed", "1",
        "--control-bits", "7",
    )
    assert code == 0
    assert report["config"]["params"]["control_bits"] == 7


def test_control_bits_past_the_float_range_is_config_error(capsys):
    """A 2^600-point register is past the float range of the law's n^2
    scale: a config error, exit 2, with no report."""
    code, report, err = run(
        capsys, "order", "--modulus", "15", "--base", "2", "--seed", "1",
        "--control-bits", "600",
    )
    assert code == 2 and report is None
    assert err.startswith("config error:") and "2^600 is past the float range" in err
    assert "Traceback" not in err


# --- determinism and output plumbing --------------------------------------------


def test_replay_identical_modulo_timestamp(capsys):
    argv = ("period", "--period", "6", "--relabel-seed", "2", "--seed", "9")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("order", "--modulus", "15", "--base", "2"),
    ("robust-hsp", "--moduli", "2,6", "--generators", "0,3"),
    ("dlog", "--base", "3", "--target", "4", "--modulus", "7"),
    ("hsp", "--moduli", "4,2", "--generators", "2,0;0,1"),
    ("simon", "--secret", "101"),
    ("robust-period", "--period", "12", "--multiplicity", "2"),
    ("factor", "--n", "21"),
])
def test_report_bytes_replay_identical(capsys, argv):
    """Two runs of one multi-trial config print the same bytes apart from
    the timestamp."""
    outputs = []
    for _ in range(2):
        code = cli.main([*argv, "--seed", "3", "--trials", "4"])
        assert code == 0
        out = capsys.readouterr().out
        outputs.append(re.sub(r'"timestamp": \{[^}]*\}', '"timestamp": null', out))
    assert outputs[0] == outputs[1]


def test_dlog_trials_replay_no_run_of_another_trials_samples(capsys):
    """Trial i runs at master seed + i and its solve draws from one stream
    seeded there, so no trial's samples reappear as a contiguous run of
    another's, as they would if a solver offset its own seeds by the trial
    index too."""
    code, report, _ = run(capsys, "dlog", "--modulus", "29", "--base", "2", "--target", "11",
                          "--seed", "0", "--trials", "3")
    assert code == 0
    runs = [t["result"]["samples"] for t in report["results"]]
    for a, b in itertools.permutations(runs, 2):
        assert all(b[i : i + len(a)] != a for i in range(len(b) - len(a) + 1)), (a, b)


def _counting_truth(monkeypatch) -> list:
    calls = []
    truth_report = cli._truth_report

    def counted(solver, instance):
        calls.append(solver)
        return truth_report(solver, instance)

    monkeypatch.setattr(cli, "_truth_report", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ("hsp", "--moduli", "4,2", "--generators", "2,0;0,1"),
    ("robust-period", "--period", "12", "--multiplicity", "3"),
    ("dlog", "--base", "3", "--target", "4", "--modulus", "7"),
])
def test_truth_is_computed_once_per_run(capsys, monkeypatch, argv):
    calls = _counting_truth(monkeypatch)
    code, report, _ = run(capsys, *argv, "--seed", "3", "--trials", "4")
    assert code == 0 and len(report["results"]) == 4
    assert len(calls) == 1
    assert len({json.dumps(t["truth"]) for t in report["results"]}) == 1


def test_run_whose_every_trial_fails_computes_no_truth(capsys, monkeypatch):
    calls = _counting_truth(monkeypatch)
    code, report, _ = run(capsys, "order", "--modulus", "35", "--base", "2",
                          "--control-bits", "4", "--trials", "2", "--seed", "1")
    assert code == 1 and all("error" in t for t in report["results"])
    assert calls == []


def test_reused_parser_keeps_no_state_between_runs(capsys):
    first_argv = ("robust-period", "--period", "6", "--merge-seed", "4", "--seed", "2")
    _, first, _ = run(capsys, *first_argv)
    code, _, _ = run(capsys, "period", "--period", "6", "--relabel-seed", "5", "--seed", "9")
    assert code == 0
    _, again, _ = run(capsys, *first_argv)
    first.pop("timestamp")
    again.pop("timestamp")
    assert again == first


def test_json_out_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        ["order", "--modulus", "15", "--base", "4", "--seed", "0",
         "--json-out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert out.read_text() == captured.out


def test_verify_subcommand_runs_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "solver": "hsp",
        "instance": {"kind": "hidden_subgroup", "moduli": [4, 2],
                     "generators": [[2, 0], [0, 1]], "relabel_seed": 1},
        "seed": 3,
    }))
    code, report, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0 and report["match"] is True


# --- exit-code contract -----------------------------------------------------------


def test_missing_seed_is_config_error(capsys):
    code, _, err = run(capsys, "order", "--modulus", "15", "--base", "2")
    assert code == 2
    assert "seed" in err


def test_unsupported_schema_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 999, "solver": "order", "seed": 0}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "schema" in err


def test_unknown_solver_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "solver": "martian",
        "instance": {"kind": "order", "modulus": 15, "base": 2},
        "seed": 0,
    }))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "martian" in err


def test_verify_needs_config_and_solver_field(capsys, tmp_path):
    code, _, _ = run(capsys, "verify")
    assert code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "solver" in err


def test_factor_config_without_n_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "factor", "seed": 0}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and "factor" in err


def test_unwritable_json_out_is_config_error(capsys, tmp_path):
    missing = str(tmp_path / "no-such-dir" / "x.json")
    for argv in (("dump", "--kind", "estimator", "--phi", "1/2"),
                 ("order", "--modulus", "15", "--base", "2", "--seed", "7")):
        code, report, err = run(capsys, *argv, "--json-out", missing)
        assert code == 2 and report is None
        assert err.startswith("config error:") and "no-such-dir" in err and "Traceback" not in err


def test_config_that_is_not_an_object_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, report, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and report is None
    assert err.startswith("config error:") and "JSON object" in err


def test_trials_below_one_is_config_error(capsys, tmp_path):
    code, report, err = run(capsys, "order", "--modulus", "15", "--base", "2", "--seed", "7",
                            "--trials", "0")
    assert code == 2 and report is None
    assert err.startswith("config error:") and "trials" in err and "max_workers" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "solver": "order", "instance": {"kind": "order", "modulus": 15, "base": 2},
        "seed": 0, "trials": -1,
    }))
    code, report, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and report is None
    assert err.startswith("config error:") and "trials" in err and "-1" in err


def verify_config_error(capsys, tmp_path, **fields) -> str:
    """Run verify on an order config with `fields` overriding it; the run
    must exit 2 with a config error and no report, and no traceback."""
    config = {"solver": "order", "instance": {"kind": "order", "modulus": 15, "base": 2}, "seed": 0}
    config.update(fields)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, report, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2 and report is None
    assert err.startswith("config error:") and "Traceback" not in err
    return err


def test_merge_above_its_bound_is_config_error(capsys, tmp_path):
    """A config's merge is checked once when it is loaded, since the trials
    rebuild the instance unchecked: three cosets onto one label exceed m = 2."""
    merged = {"kind": "many_to_one", "inner": {"kind": "period", "period": 6, "relabel_seed": 0},
              "merge": [0, 0, 0, 1, 1, 1], "multiplicity": 2}
    err = verify_config_error(capsys, tmp_path, solver="robust-period", instance=merged)
    assert "above the stated bound 2" in err


def test_string_seed_is_config_error(capsys, tmp_path):
    err = verify_config_error(capsys, tmp_path, seed="1")
    assert "seed" in err


def test_string_solver_param_is_config_error(capsys, tmp_path):
    err = verify_config_error(capsys, tmp_path, params={"period_bound": "x"})
    assert "period_bound" in err


def test_string_instance_field_is_config_error(capsys, tmp_path):
    err = verify_config_error(capsys, tmp_path, instance={"kind": "order", "modulus": "15", "base": 2})
    assert "modulus" in err


def test_unknown_solver_params_are_config_error(capsys, tmp_path):
    err = verify_config_error(capsys, tmp_path, params={"period_bond": 3, "trails": 0})
    assert "period_bond" in err and "trails" in err


def test_multiplicity_is_not_a_solver_param(capsys, tmp_path):
    """A merged instance states its own bound; no solver param overrides it."""
    merged = {"kind": "many_to_one", "inner": {"kind": "period", "period": 6, "relabel_seed": 0},
              "merge": [i // 2 for i in range(6)], "multiplicity": 2}
    err = verify_config_error(capsys, tmp_path, solver="robust-period", instance=merged, params={"multiplicity": 2})
    assert "unknown solver params: multiplicity" in err


@pytest.mark.parametrize("argv", [
    ("hsp", "--moduli", "4,8", "--generators", "2,4"),
    ("simon", "--secret", "101"),
    ("deutsch", "--f0", "0", "--f1", "1"),
    ("robust-hsp", "--moduli", "2,2", "--generators", "1,1"),
    ("dlog", "--base", "3", "--target", "4", "--modulus", "7"),
], ids=lambda argv: argv[0])
def test_control_bits_for_a_solver_without_a_register_is_config_error(capsys, argv):
    """The hidden-subgroup and discrete-log solvers read registers of
    exactly d_j levels, so a --control-bits they would ignore exits 2."""
    code, report, err = run(capsys, *argv, "--seed", "0", "--control-bits", "5")
    assert code == 2 and report is None
    assert err.startswith(f"config error: {argv[0]} never reads params: control_bits")


@pytest.mark.parametrize("solver, instance, params, unread", [
    ("hsp", {"kind": "simon", "bits": 2, "secret": [1, 1]}, {"epsilon": 0.1, "period_bound": 4, "trials": 3},
     "epsilon, period_bound"),
    ("order", {"kind": "order", "modulus": 15, "base": 2}, {"seed": 3}, "seed"),
    ("robust-period", {"kind": "many_to_one", "inner": {"kind": "period", "period": 6, "relabel_seed": 0},
                       "merge": [i // 2 for i in range(6)], "multiplicity": 2}, {"seed": 3, "epsilon": 0.1}, "seed"),
])
def test_unread_solver_params_are_config_error(capsys, tmp_path, solver, instance, params, unread):
    """A config param the solver never reads is a config error: only the
    period solvers size a register, and every trial runs at its own seed,
    master seed + i, whatever `params.seed` says."""
    err = verify_config_error(capsys, tmp_path, solver=solver, instance=instance, params=params)
    assert f"{solver} never reads params: {unread}" in err


def test_budget_exhaustion_is_solver_failure(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "solver": "order",
        "instance": {"kind": "order", "modulus": 15, "base": 2},
        "seed": 0,
        "params": {"period_bound": 2},
    }))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 1
    assert "solver failure" in err


def test_failed_trial_keeps_finished_trials(capsys, tmp_path):
    # one circuit per trial: solver seed 1 exhausts its budget, seed 2 solves
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"trials": 1}}))
    argv = ("order", "--modulus", "21", "--base", "2", "--seed", "1", "--trials", "2",
            "--config", str(cfg))
    code, report, err = run(capsys, *argv)
    assert code == 1
    assert "solver failure" in err
    failed, solved = report["results"]
    assert failed == {
        "trial": 0, "seed": 1, "match": False,
        "error": "BudgetExhausted: no verified period within 1 trials (register 2205, bound 21)",
    }
    assert solved["seed"] == 2 and solved["match"] is True and solved["recovered"] == 6
    assert report["match"] is False
    _, again, _ = run(capsys, *argv)
    report.pop("timestamp")
    again.pop("timestamp")
    assert again == report


def test_truth_mismatch_exits_3(capsys, monkeypatch):
    # force the brute-force oracle to disagree; the report must flag it
    monkeypatch.setattr(cli, "classical_order", lambda a, n: 999)
    code, report, _ = run(
        capsys, "order", "--modulus", "15", "--base", "2", "--seed", "7"
    )
    assert code == 3
    assert report["match"] is False
    assert report["results"][0]["recovered"] == 4


# --- dump subcommand --------------------------------------------------------------


def test_dump_estimator_exact_phase_is_point_mass(capsys):
    code, payload, _ = run(capsys, "dump", "--kind", "estimator",
                           "--phi", "5/8", "--size", "8")
    assert code == 0
    assert payload["probs"][5] == pytest.approx(1.0)
    assert sum(payload["probs"]) == pytest.approx(1.0)


def test_dump_estimator_off_grid_phase(capsys):
    code, payload, _ = run(capsys, "dump", "--kind", "estimator",
                           "--phi", "1/3", "--size", "8")
    assert code == 0
    assert payload["probs"][3] == pytest.approx(0.6878376625896, abs=1e-9)


def test_dump_semiclassical_equals_branch_tree(capsys):
    for modulus, base in ((15, 4), (21, 2), (33, 5)):
        descriptor = {"kind": "order", "modulus": modulus, "base": base}
        code, semi, _ = run(capsys, "dump", "--kind", "semiclassical-pe",
                            "--instance", json.dumps(descriptor), "--bits", "6")
        assert code == 0
        tree = branch_tree_law(instance_from_json(descriptor), 6)
        assert semi["probs"] == pytest.approx(list(tree), abs=1e-12)


@pytest.mark.parametrize("kind, bits", [
    ("register-pe", "-1"), ("semiclassical-pe", "0"), ("semiclassical-pe", "-1"),
])
def test_dump_bits_below_the_least_is_config_error(capsys, kind, bits):
    """A register holds 2^bits >= 1 points, and the cascade runs at least
    one step, so fewer bits are a config error that names --bits."""
    instance = json.dumps({"kind": "order", "modulus": 15, "base": 2})
    code, payload, err = run(capsys, "dump", "--kind", kind, "--instance", instance, "--bits", bits)
    assert code == 2 and payload is None
    assert err.startswith("config error:") and "--bits" in err


@pytest.mark.parametrize("kind, bits, probs", [
    ("register-pe", "0", [1.0]), ("semiclassical-pe", "1", [0.5, 0.5]),
])
def test_dump_at_the_least_bits_runs(capsys, kind, bits, probs):
    instance = json.dumps({"kind": "order", "modulus": 15, "base": 2})
    code, payload, _ = run(capsys, "dump", "--kind", kind, "--instance", instance, "--bits", bits)
    assert code == 0 and payload["probs"] == pytest.approx(probs)


def test_dump_of_a_seeded_period_instance_is_its_explicit_relabeling(capsys):
    """A period instance that draws its own relabelling dumps byte for byte
    as the same instance given that relabelling as a list."""
    seeded = {"kind": "period", "period": 12, "relabel_seed": 3}
    explicit = instance_from_json(seeded).to_json()
    outputs = []
    for descriptor in (seeded, explicit):
        assert cli.main(["dump", "--kind", "register-pe", "--bits", "6", "--instance", json.dumps(descriptor)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["instance"] == explicit
    assert sorted(explicit["relabeling"]) == list(range(12))


def test_dump_semiclassical_honours_the_cap(capsys):
    instance = json.dumps({"kind": "order", "modulus": 15, "base": 2})
    code, payload, err = run(capsys, "dump", "--kind", "semiclassical-pe",
                             "--instance", instance, "--bits", "40")
    assert code == 2 and payload is None and err.startswith("resource limit:")
    code, payload, err = run(capsys, "dump", "--kind", "semiclassical-pe",
                             "--instance", instance, "--bits", "8", "--cap", "16")
    assert code == 2 and payload is None and err.startswith("resource limit:")


def test_out_of_memory_is_a_resource_limit(capsys, monkeypatch):
    """A run or dump whose instance cannot be allocated exits 2 with a
    resource limit and no traceback.  The builders are patched to raise, so
    nothing is really allocated."""

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)")

    monkeypatch.setattr(oracles, "make_hidden_subgroup_instance", exhausted)
    monkeypatch.setattr(oracles, "make_order_instance", exhausted)
    instance = json.dumps({"kind": "order", "modulus": 15, "base": 2})
    for argv in (
        ("hsp", "--moduli", "1099511627776,1099511627776,1099511627776", "--generators", "1,1,1;0,1,0", "--seed", "1"),
        ("dump", "--kind", "register-pe", "--instance", instance, "--bits", "4"),
    ):
        code, report, err = run(capsys, *argv)
        assert code == 2 and report is None
        assert err.startswith("resource limit: Unable to allocate") and "Traceback" not in err


def test_dump_semiclassical_needs_shift_maps(capsys):
    instance = json.dumps({"kind": "period", "period": 6, "relabel_seed": 0})
    code, payload, err = run(capsys, "dump", "--kind", "semiclassical-pe",
                             "--instance", instance, "--bits", "3")
    assert code == 2 and payload is None and "shift maps" in err


def test_dump_estimator_without_phi_is_config_error(capsys):
    code, _, err = run(capsys, "dump", "--kind", "estimator")
    assert code == 2 and "phi" in err


def test_dump_pe_without_instance_is_config_error(capsys):
    code, _, err = run(capsys, "dump", "--kind", "register-pe")
    assert code == 2 and "instance" in err


def test_dump_cap_violation_is_config_error(capsys):
    instance = json.dumps({"kind": "order", "modulus": 15, "base": 4})
    code, _, err = run(capsys, "dump", "--kind", "register-pe",
                       "--instance", instance, "--bits", "6", "--cap", "16")
    assert code == 2 and "cap" in err


def test_cap_exceeded_is_resource_limit(capsys):
    instance = json.dumps({"kind": "order", "modulus": 15, "base": 4})
    code, _, err = run(capsys, "dump", "--kind", "register-pe",
                       "--instance", instance, "--bits", "6", "--cap", "16")
    assert code == 2 and err.startswith("resource limit:")
    # the sampler reads the period alone: 2 has order 12 mod 35, above a cap of 8
    code, report, err = run(capsys, "order", "--modulus", "35", "--base", "2", "--seed", "7",
                            "--cap", "8")
    assert code == 2 and report is None and err.startswith("resource limit:")
    # while order 4 mod 15 fits a cap of 16, though the register has 1,125 points
    code, report, _ = run(capsys, "order", "--modulus", "15", "--base", "2", "--seed", "7",
                          "--cap", "16")
    assert code == 0 and report["match"] is True


@pytest.mark.parametrize("argv", [
    ("order", "--modulus", "2146594799", "--base", "2"),
    ("factor", "--n", "2146594799"),
])
def test_order_builder_at_the_cap_is_resource_limit(capsys, argv):
    """2 has order 1,073,249,100 mod 34,651 * 61,949, and a random base's
    order is as far above the cap: the builder stops its walk of the powers
    at the cap, so the run exits 2 rather than exhausting memory."""
    code, report, err = run(capsys, *argv, "--seed", "0", "--cap", "4096")
    assert code == 2 and report is None and err.startswith("resource limit:")


def test_cap_override_lasts_one_run(capsys):
    default_cap = amplitudes.dimension_cap()
    code, _, _ = run(capsys, "dump", "--kind", "estimator", "--phi", "1/2", "--cap", "16")
    assert code == 0 and amplitudes.dimension_cap() == default_cap
    code, report, _ = run(capsys, "order", "--modulus", "15", "--base", "2", "--seed", "7")
    assert code == 0 and report["match"] is True


def test_env_cap_applies_and_validates(capsys, monkeypatch):
    instance = json.dumps({"kind": "order", "modulus": 15, "base": 4})
    monkeypatch.setenv("HSPLAB_CAP", "8")
    code, _, _ = run(capsys, "dump", "--kind", "register-pe",
                     "--instance", instance, "--bits", "4")
    assert code == 2  # the 16-point law exceeds the tiny cap

    monkeypatch.setenv("HSPLAB_CAP", "banana")
    code, _, err = run(capsys, "dump", "--kind", "estimator", "--phi", "1/2")
    assert code == 2 and "HSPLAB_CAP" in err

    monkeypatch.delenv("HSPLAB_CAP")
    code, _, _ = run(capsys, "dump", "--kind", "register-pe",
                     "--instance", instance, "--bits", "3")
    assert code == 0


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_below_one_is_config_error(capsys, cap):
    before = amplitudes.dimension_cap()
    code, report, err = run(capsys, "dump", "--kind", "estimator", "--phi", "1/2", "--cap", cap)
    assert code == 2 and report is None
    assert err.startswith("config error:") and "Traceback" not in err
    assert amplitudes.dimension_cap() == before


def test_closed_stdout_exits_quietly_after_writing_json_out(tmp_path):
    """A reader that closes stdout after one line: the dump still writes its
    --json-out file in full and exits 0 without a traceback."""
    out = tmp_path / "law.json"
    instance = json.dumps({"kind": "order", "modulus": 21, "base": 2})
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hsplab.cli", "dump", "--kind", "semiclassical-pe", "--bits", "14",
         "--instance", instance, "--json-out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert b"Traceback" not in err
    assert len(json.loads(out.read_text())["probs"]) == 1 << 14
