import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vpkmeans
from vpkmeans import bench, protocol
from vpkmeans.cli import main


def test_gen_and_baseline_roundtrip(tmp_path, capsys):
    out = tmp_path / "blobs.csv"
    rc = main(["gen", "--n", "120", "--k", "3", "--d", "2", "--std", "0.05",
               "--seed", "4", "--labels", "-o", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 120
    assert len(rows[0].split(",")) == 3  # two features + label

    rc = main(["baseline", "--csv", str(out), "--label-column", "2", "--k", "3",
               "--rounds", "4", "--seeds", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "plaintext loss" in text


def test_run_subcommand_writes_report(tmp_path, capsys):
    config = {
        "name": "cli-smoke",
        "dataset": {"synthetic": {"n": 200, "k": 2, "d": 2, "bound": 1.0,
                                   "cluster_std": 0.05, "seed": 1, "min_center_dist": 0.9}},
        "k": 2,
        "rounds": 2,
        "budget": {"epsilon": 2.0, "delta": 1e-4},
        "seeds": {"count": 1, "base": 3},
        "network_profiles": ["LAN500"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    report_path = tmp_path / "report.json"
    rc = main(["run", str(cfg_path), "-o", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["mean"]["secure_loss"] is not None
    assert report["transcript"]["bytes"] > 0


def test_estimate_subcommand(capsys):
    rc = main(["estimate", "--n", "100000", "--k", "5", "--d", "2", "--d-bob", "1",
               "--rounds", "10", "--calibrate-bytes", "17900000", "--profile", "regWAN100"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "bytes" in text and "regWAN100" in text


def test_calibrated_estimate_grows_with_the_estimated_rounds(capsys):
    # the size model is fitted on its fixed reference run, whatever --rounds says
    printed = {}
    for rounds in (1, 10):
        assert main(["estimate", "--n", "100000", "--k", "5", "--rounds", str(rounds),
                     "--calibrate-bytes", "17.9e6", "--profile", "LAN1000"]) == 0
        printed[rounds] = int(capsys.readouterr().out.split()[0])
    assert printed[1] < printed[10]
    assert printed == {1: 53_699_250, 10: 60_704_148}


def test_estimate_from_report(tmp_path, capsys):
    report = {"transcript": {"bytes": 10_000_000, "ciphertexts": 12}, "rounds": 10}
    p = tmp_path / "report.json"
    p.write_text(json.dumps(report))
    rc = main(["estimate", "--report", str(p), "--profile", "ccWAN50",
               "--compute-seconds", "5"])
    assert rc == 0
    assert "ccWAN50" in capsys.readouterr().out


def test_estimate_from_mpc_report_matches_report(tmp_path, capsys):
    # MPC rounds are two exchanges each (aggregates out, decryption shares back)
    config = {
        "dataset": {"synthetic": {"n": 150, "k": 3, "d": 3, "bound": 1.0,
                                   "cluster_std": 0.05, "seed": 2, "min_center_dist": 0.5}},
        "k": 3,
        "rounds": 4,
        "feature_split": [[0], [1], [2]],
        "model": "mpc-simulated",
        "network_profiles": ["regWAN100"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    report_path = tmp_path / "report.json"
    assert main(["run", str(cfg_path), "-o", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    capsys.readouterr()
    rc = main(["estimate", "--report", str(report_path), "--profile", "regWAN100",
               "--compute-seconds", str(report["protocol_seconds"])])
    assert rc == 0
    own = report["estimated_wallclock_seconds"]["regWAN100"]
    assert f"estimated {own:.2f}s on regWAN100" in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    (["--k", "1"], "k must be at least 2"),
    (["--k", "0"], "k must be at least 2"),
    (["--k", "-3"], "k must be at least 2"),
    (["--n", "0"], "no records to cluster"),
    (["--rounds", "-2"], "rounds must be non-negative"),
    (["--d", "2", "--d-bob", "5"], "exceed the 2 features"),
    (["--d-bob", "0"], "no party besides the computing one"),
    (["--d-bob", "-1"], "no party besides the computing one"),
    (["--compute-seconds", "-5"], "compute seconds must be non-negative"),
    (["--calibrate-bytes", "nan"], "not a finite byte count"),
    (["--calibrate-bytes", "inf"], "not a finite byte count"),
    (["--calibrate-bytes", "0"], "calibration target smaller than the plaintext share"),
    (["--k", "200"], "needs 40000 slots"),
], ids=["k-one", "k-zero", "k-negative", "no-records", "negative-rounds", "d-bob-above-d",
        "d-bob-zero", "d-bob-negative", "negative-compute-seconds", "nan-calibration", "infinite-calibration",
        "zero-calibration", "k-block-above-slots"])
def test_estimate_rejects_sizes_no_run_could_have(capsys, args, message):
    rc = main(["estimate", *args, "--profile", "LAN500"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err


def test_run_config_with_one_cluster_names_k(tmp_path, capsys):
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}},
              "k": 1, "rounds": 1}
    p = tmp_path / "k1.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p), "-o", str(tmp_path / "report.json")]) == 2
    assert "k must be at least 2" in capsys.readouterr().err


def test_run_config_with_a_huge_k_is_refused_before_any_centroid_is_drawn(tmp_path):
    # drawing 10^15 initial centroids would not end: the run's admission
    # refuses k for its slots first (in a child process, so a hang times out)
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}},
              "k": 1e15, "rounds": 1}
    p = tmp_path / "huge-k.json"
    p.write_text(json.dumps(config))
    src = str(Path(vpkmeans.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "vpkmeans.cli", "run", str(p), "-o", str(tmp_path / "report.json")]
    out = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert re.search(r"k=1000000000000000 needs \d+ slots per block", out.stderr)


def test_two_party_config_with_three_parties_names_the_party_count(tmp_path, capsys):
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 3, "cluster_std": 0.05}},
              "k": 2, "rounds": 1, "model": "two-party", "feature_split": [[0], [1], [2]]}
    p = tmp_path / "two-party.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p), "-o", str(tmp_path / "report.json")]) == 2
    assert "the two-party model cannot have 3 parties" in capsys.readouterr().err


def _run_report(tmp_path, **extra):
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}},
              "k": 2, "rounds": 1, "seeds": [1], **extra}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    report_path = tmp_path / "report.json"
    assert main(["run", str(p), "-o", str(report_path)]) == 0
    return json.loads(report_path.read_text())


def test_empty_budget_takes_the_defaults_and_only_null_runs_noise_free(tmp_path):
    defaults = _run_report(tmp_path, budget={"epsilon": 1.0, "delta": 1e-5})["dp"]
    assert defaults is not None
    assert _run_report(tmp_path, budget={})["dp"] == defaults
    assert _run_report(tmp_path, budget=None)["dp"] is None
    assert _run_report(tmp_path)["dp"] is None


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"k": 3}))
    rc = main(["run", str(p)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_slot_count_past_the_largest_ring_exits_2_without_an_engine(tmp_path, capsys, monkeypatch):
    # 2^30 slots would be an 8 GiB vector: the config is refused before
    # any engine or vector exists
    def no_engine(*a, **kw):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(bench, "SlotEngine", no_engine)
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}},
              "k": 2, "rounds": 1, "engine": {"slot_count": 1 << 30}}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p), "-o", str(tmp_path / "report.json")]) == 2
    assert "slot_count must be a power of two up to 65536, got 1073741824" in capsys.readouterr().err


# a boolean where a number belongs, and the key the error must name
BOOLEAN_NUMBERS = [
    ({"bound": True}, "bound"),
    ({"budget": {"epsilon": True}}, "budget.epsilon"),
    ({"init_separation": False}, "init_separation"),
    ({"sign": {"degree": True}}, "sign.degree"),
    ({"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": True}}}, "dataset.synthetic.cluster_std"),
    ({"engine": {"size_model": {"bytes_per_slot_per_level": True}}}, "engine.size_model.bytes_per_slot_per_level"),
    ({"dataset": {"csv": {"path": "x.csv", "label_column": True}}}, "dataset.csv.label_column"),
]


@pytest.mark.parametrize("bad", [
    {"sign": {"degree": 4}},
    {"budget": {"epsilon": -1}},
    {"sign": {"degre": 31}},
    {"sign": {"input_scale": 0.5}},
    {"k": "two"},
    {"seeds": {"count": "x"}},
    {"init_separation": "far"},
    {"k": 200},
    {"rounds": -3},
    {"budget": {"eps": 0.1}},
    {"seedz": {"count": 2}},
    {"engine": {"slots": 64}},
    {"seeds": {"cout": 2}},
    {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05, "sed": 1}}},
    {"dataset": {"csv": {"path": "x.csv", "normalise": True}}},
    {"compute_seconds": 5.0},
    {"k": 2.7},
    {"rounds": 1.9},
    {"seeds": {"count": 1.5}},
    {"seeds": {"base": 0.2}},
    {"seeds": [1, 2.5]},
    {"rounds": True},
    {"engine": {"slot_count": 1024.5}},
    {"budget": {"composition": "auto"}},
    {"engine": {"approx_perturbation": 1e-4}},
    {"feature_split": [[0], [True]]},
    {"feature_split": 5},
    {"feature_split": [[0], 1]},
    {"bound": "inf"},
    {"bound": 1e308},
    {"seeds": [-1]},
    {"init_separation": "nan"},
    {"engine": {"size_model": {"bytes_per_slot_per_level": float("nan")}}},
    {"sign": {"degree": 63.5}},
    {"budget": 0},
    {"budget": False},
    {"budget": []},
    {"budget": ""},
    *[bad for bad, _ in BOOLEAN_NUMBERS],
], ids=["even-degree", "negative-epsilon", "misspelled-key", "removed-key", "k-not-a-number",
        "seed-count-not-a-number", "separation-not-a-number", "k-too-large", "negative-rounds",
        "misspelled-budget-key", "misspelled-top-key", "misspelled-engine-key",
        "misspelled-seeds-key", "misspelled-synthetic-key", "misspelled-csv-key",
        "removed-compute-seconds", "k-not-whole", "rounds-not-whole", "seed-count-not-whole",
        "seed-base-not-whole", "seed-list-entry-not-whole", "rounds-boolean",
        "slot-count-not-whole", "removed-composition-key", "removed-perturbation-key",
        "split-boolean-column", "split-not-a-list", "split-party-not-a-list", "infinite-bound",
        "bound-too-wide", "negative-seed", "separation-nan", "bytes-per-slot-nan", "degree-not-whole",
        "budget-zero", "budget-false", "budget-empty-list", "budget-empty-string",
        *[f"{key}-boolean" for _, key in BOOLEAN_NUMBERS]])
def test_invalid_parameter_values_exit_nonzero(tmp_path, capsys, bad):
    config = {
        "dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "bound": 1.0,
                                   "cluster_std": 0.05, "seed": 1, "min_center_dist": 0.9}},
        "k": 2,
        "rounds": 1,
        **bad,
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    rc = main(["run", str(p), "-o", str(tmp_path / "report.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad, key", BOOLEAN_NUMBERS, ids=[key for _, key in BOOLEAN_NUMBERS])
def test_boolean_at_a_numeric_key_is_named(tmp_path, capsys, bad, key):
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}},
              "k": 2, "rounds": 1, **bad}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p), "-o", str(tmp_path / "report.json")]) == 2
    assert f"{key} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("bad, key", [
    ({"bound": "0.5"}, "bound"),
    ({"init_separation": "0.01"}, "init_separation"),
    ({"budget": {"epsilon": "2"}}, "budget.epsilon"),
], ids=["bound", "init_separation", "budget.epsilon"])
def test_numeric_string_at_a_numeric_key_is_named(tmp_path, capsys, bad, key):
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}},
              "k": 2, "rounds": 1, **bad}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p), "-o", str(tmp_path / "report.json")]) == 2
    assert f"{key} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("config", [None, 3, [1, 2], "cfg"], ids=["null", "number", "list", "string"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, config):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("section,bad", [
    ("dataset.csv", {"dataset": {"csv": "x.csv"}}),
    ("dataset.synthetic", {"dataset": {"synthetic": [50, 2, 2]}}),
    ("sign", {"sign": 127}),
    ("engine.size_model", {"engine": {"size_model": None}}),
], ids=["dataset.csv", "dataset.synthetic", "sign", "engine.size_model"])
def test_config_section_that_is_not_an_object_is_named(tmp_path, capsys, section, bad):
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}},
              "k": 2, "rounds": 1, **bad}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p), "-o", str(tmp_path / "report.json")]) == 2
    assert f"{section} must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("bad, key", [
    ({"dataset": {"csv": {"path": 0}}}, "dataset.csv.path"),
    ({"name": [1]}, "name"),
    ({"dataset": {"synthetic": {"n": 60.5, "k": 2, "d": 2, "cluster_std": 0.05}}}, "dataset.synthetic.n"),
    ({"output": 5}, "output"),
], ids=["csv-path-number", "name-list", "synthetic-n-not-whole", "output-number"])
def test_value_of_a_wrong_type_is_named_before_any_run(tmp_path, capsys, monkeypatch, bad, key):
    def spy(*args, **kwargs):
        raise AssertionError("a run started before the config was checked")

    monkeypatch.setattr(protocol, "run_multiparty", spy)
    monkeypatch.chdir(tmp_path)  # the config's own output, with no -o
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}},
              "k": 2, "rounds": 1, **bad}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p)]) == 2
    assert f"error: {key} must be " in capsys.readouterr().err


@pytest.mark.parametrize("source", ["synthetic", "csv"])
def test_whole_number_floats_read_like_ints(tmp_path, source):
    data = tmp_path / "blobs.csv"
    assert main(["gen", "--n", "60", "--k", "2", "--seed", "1", "--labels", "-o", str(data)]) == 0

    def dataset(number):
        if source == "csv":
            return {"csv": {"path": str(data), "label_column": number(2)}}
        return {"synthetic": {"n": number(50), "k": number(2), "d": number(2), "cluster_std": 0.05,
                              "seed": number(1)}}

    reports = [_run_report(tmp_path, dataset=dataset(number), rounds=number(2)) for number in (int, float)]
    runs = [report["per_seed"] for report in reports]
    assert runs[0] == runs[1] and "secure_accuracy" in runs[0][0]
    assert [report["rounds"] for report in reports] == [2, 2]


def test_network_profiles_must_be_a_list(tmp_path, capsys):
    config = {"dataset": {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}},
              "k": 2, "rounds": 1, "network_profiles": "LAN1000"}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p), "-o", str(tmp_path / "report.json")]) == 2
    assert "network_profiles must be a list of profile names" in capsys.readouterr().err


def test_csv_recenter_key_is_unknown(tmp_path, capsys):
    # a normalized CSV is always recentered; the key that switched it off is gone
    data = tmp_path / "blobs.csv"
    assert main(["gen", "--n", "60", "--k", "2", "--seed", "1", "-o", str(data)]) == 0
    config = {"dataset": {"csv": {"path": str(data), "recenter": False}}, "k": 2, "rounds": 1}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p), "-o", str(tmp_path / "report.json")]) == 2
    assert "recenter" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", 0, None], ids=["string", "number", "null"])
def test_csv_normalize_must_be_a_boolean(tmp_path, capsys, value):
    data = tmp_path / "blobs.csv"
    assert main(["gen", "--n", "60", "--k", "2", "--seed", "1", "-o", str(data)]) == 0
    capsys.readouterr()
    config = {"dataset": {"csv": {"path": str(data), "normalize": value}}, "k": 2, "rounds": 1}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    assert main(["run", str(p), "-o", str(tmp_path / "report.json")]) == 2
    assert "dataset.csv.normalize must be true or false" in capsys.readouterr().err


def test_baseline_scores_one_based_labels_as_zero_based(tmp_path, capsys):
    out = tmp_path / "blobs.csv"
    assert main(["gen", "--n", "90", "--k", "2", "--d", "2", "--std", "0.05",
                 "--seed", "4", "--labels", "-o", str(out)]) == 0
    rows = [r.rsplit(",", 1) for r in out.read_text().split()]
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("".join(f"{x},{int(y) + 1}\n" for x, y in rows))
    printed = []
    for path in (out, shifted):
        capsys.readouterr()
        assert main(["baseline", "--csv", str(path), "--label-column", "2", "--k", "2"]) == 0
        printed.append(capsys.readouterr().out)
    assert "accuracy" in printed[0] and printed[0] == printed[1]


@pytest.mark.parametrize("column,cells,message", [
    ("5", ["0.1,0", "0.2,1"], "label column 5"),
    ("-1", ["0.1,0", "0.2,1"], "label column -1"),
    ("1", ["0.1,0", "0.2,1.5"], "whole number"),
    ("1", ["0.1,0", "0.2,1e300"], "int64 range"),
    ("0", ["0", "1"], "no feature column"),
], ids=["column-past-the-end", "negative-column", "label-not-whole", "label-past-int64",
        "label-is-the-only-column"])
def test_baseline_rejects_bad_label_column(tmp_path, capsys, column, cells, message):
    p = tmp_path / "p.csv"
    p.write_text("\n".join(cells) + "\n")
    rc = main(["baseline", "--csv", str(p), "--label-column", column, "--k", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err


def test_missing_file_exits_nonzero(capsys):
    rc = main(["run", "/nonexistent/config.json"])
    assert rc == 2


@pytest.mark.parametrize("command,args,message", [
    ("gen", ["--std", "-1"], "spread must be non-negative"),
    ("gen", ["--std", "inf"], "spread must be non-negative and finite, got inf"),
    ("gen", ["--bound", "-1"], "bound must be positive"),
    ("gen", ["--bound", "0"], "bound must be positive"),
    ("gen", ["--d", "0"], "at least one feature"),
    ("baseline", ["--std", "-1"], "spread must be non-negative"),
    ("baseline", ["--bound", "-1"], "bound must be positive"),
    ("baseline", ["--d", "0"], "at least one feature"),
    ("baseline", ["--seeds", "0"], "--seeds must be at least 1"),
    ("baseline", ["--seeds", "-2"], "--seeds must be at least 1"),
    ("baseline", ["--rounds", "-1"], "--rounds must be non-negative"),
    ("gen", ["--seed", "-1"], "seed must be a non-negative whole number"),
    ("baseline", ["--seed", "-1"], "seed must be a non-negative whole number"),
], ids=["gen-negative-std", "gen-infinite-std", "gen-negative-bound", "gen-zero-bound", "gen-no-features",
        "baseline-negative-std", "baseline-negative-bound", "baseline-no-features",
        "baseline-zero-seeds", "baseline-negative-seeds", "baseline-negative-rounds",
        "gen-negative-seed", "baseline-negative-seed"])
def test_gen_and_baseline_reject_bad_numbers(tmp_path, capsys, command, args, message):
    out = ["-o", str(tmp_path / "out.csv")] if command == "gen" else []
    rc = main([command, "--n", "30", "--k", "3", *args, *out])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / "out.csv").exists()


def test_estimate_from_report_rejects_negative_compute_seconds(tmp_path, capsys):
    p = tmp_path / "report.json"
    p.write_text(json.dumps({"transcript": {"bytes": 10_000}, "rounds": 2}))
    assert main(["estimate", "--report", str(p), "--profile", "LAN500", "--compute-seconds", "-5"]) == 2
    assert "compute seconds must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("report,message", [
    ({"transcript": {"bytes": 10_000}, "rounds": -4}, "round count must be non-negative"),
    ({"transcript": {"bytes": 10_000}, "rounds": True}, "round count must be a whole number"),
    ({"transcript": {"bytes": 10_000}, "rounds": 2.5}, "round count must be a whole number"),
    ({"transcript": {"bytes": -5}, "rounds": 2}, "byte total must be non-negative"),
    ({"transcript": {"bytes": "12"}, "rounds": 2}, "byte total must be a whole number"),
    ([{"transcript": {"bytes": 10_000}, "rounds": 2}], "must be JSON objects"),
    ({"transcript": [10_000], "rounds": 2}, "must be JSON objects"),
    ({"transcript": {"bytes": 10_000, "bytes_by_kind": []}, "rounds": 2}, "must be JSON objects"),
], ids=["negative-rounds", "boolean-rounds", "fractional-rounds", "negative-bytes", "string-bytes",
        "list-report", "list-transcript", "list-bytes-by-kind"])
def test_estimate_from_report_rejects_numbers_no_run_could_have(tmp_path, capsys, report, message):
    p = tmp_path / "report.json"
    p.write_text(json.dumps(report))
    assert main(["estimate", "--report", str(p), "--profile", "LAN500"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err


@pytest.mark.parametrize("content", [b"caf\xe9,x\n1,2\n3,4\n", None], ids=["latin-1-file", "directory"])
def test_baseline_csv_that_cannot_be_read_exits_2(tmp_path, capsys, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "latin1.csv"
        path.write_bytes(content)
    assert main(["baseline", "--csv", str(path), "--k", "2"]) == 2
    assert "error:" in capsys.readouterr().err


# values no key accepts, or accepts only in some places; huge numbers only
# where they cost no time, so a count never asks for 1e308 iterations
JUNK = [None, True, -1, 0, 2.5, float("nan"), float("inf"), "x", "nan", "inf", "1/n",
        [], [1], [[0], [True]], {}, {"a": 1}]
REAL_JUNK = JUNK + [1e308, -1e308, 1e-320]
# the keys that may take REAL_JUNK
HUGE_OK = {"bound", "cluster_std", "seed", "min_center_dist", "epsilon", "delta", "tie_margin",
          "bytes_per_slot_per_level", "init_separation"}


def some(**fields):
    """A JSON object with any subset of ``fields``."""
    return st.fixed_dictionaries({}, optional=fields)


@st.composite
def valid_configs(draw):
    """A small config that runs: n <= 60, k <= 4, at most 2 rounds and
    seeds, and every optional key drawn in or left out."""
    k, d = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    splits = [[[0], [1]], [[1], [0]]] if d == 2 else [[[0, 1], [2]], [[0], [1], [2]], [[2], [0, 1]]]
    synthetic = draw(st.fixed_dictionaries(
        {"n": st.integers(k, 60), "k": st.just(k), "d": st.just(d), "cluster_std": st.sampled_from([0.0, 0.05])},
        optional={"bound": st.sampled_from([0.5, 1.0]), "seed": st.integers(0, 3),
                  "min_center_dist": st.sampled_from([0.1, 0.5])}))
    return draw(st.fixed_dictionaries(
        {"dataset": st.just({"synthetic": synthetic}), "k": st.just(k), "rounds": st.integers(1, 2)},
        optional={
            "name": st.just("prop"),
            "bound": st.sampled_from([1.0, 2.0]),
            "feature_split": st.sampled_from(splits),
            "model": st.sampled_from(["server-aided", "mpc-simulated"]),
            "budget": some(epsilon=st.sampled_from([0.5, 2.0]), delta=st.sampled_from([1e-3, "1/n"])),
            "sign": some(degree=st.sampled_from([5, 31, 127]), tie_margin=st.sampled_from([0.05, 0.1])),
            "engine": some(slot_count=st.sampled_from([64, 1024]),
                           size_model=some(bytes_per_slot_per_level=st.just(8.0))),
            "seeds": st.one_of(some(count=st.integers(1, 2), base=st.integers(0, 5)),
                               st.lists(st.integers(0, 5), min_size=1, max_size=2)),
            "init_separation": st.sampled_from([0.0, 0.2]),
            "network_profiles": st.sampled_from([[], ["LAN500", "regWAN100"]]),
        }))


def value_paths(node, path=()):
    """Every key path and list index path below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


@st.composite
def run_configs(draw):
    """A config that should run, in three of four examples with one value
    replaced by junk, so that each example probes one check with every
    other value valid."""
    config = draw(valid_configs())
    paths = list(value_paths(config)) + [("output",)]
    if draw(st.integers(0, 3)):
        path = draw(st.sampled_from(paths))
        parent = config
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = draw(st.sampled_from(REAL_JUNK if path[-1] in HUGE_OK else JUNK))
    return config


@given(config=run_configs())
@settings(max_examples=60, deadline=None)
def test_run_exits_0_or_2_on_any_config(config):
    """A config either runs or is refused with exit code 2 and an error line;
    no value may escape as a traceback (exit code 1)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "-o", str(Path(tmp) / "report.json")]) in (0, 2)


def schema_paths(kind, path=""):
    """``(dotted path, type, default)`` of every key of every section of
    the config type ``kind``."""
    for option in kind if isinstance(kind, tuple) else (kind,):
        if isinstance(option, dict):
            for key, (sub, default) in option.items():
                child = f"{path}.{key}" if path else key
                yield child, sub, default
                yield from schema_paths(sub, child)


def takes(kind, value) -> bool:
    """Whether the config type ``kind`` takes JSON values of ``value``'s
    JSON type; a string literal takes only itself."""
    fits = {bool: {bool}, float: {int, float}, str: {str}, list: {bench._List}, dict: {dict}}[type(value)]
    return any(option == value if isinstance(option, str)
               else (option if isinstance(option, type) else type(option)) in fits
               for option in (kind if isinstance(kind, tuple) else (kind,)))


@st.composite
def wrong_type_at_a_key(draw):
    """A key path of the config table and a value of a JSON type the key
    does not take; null only where the key has a default other than none."""
    path, kind, default = draw(st.sampled_from(list(schema_paths(bench._SCHEMA))))
    wrong = [v for v in [True, 0.5, "x", [], {}] if not takes(kind, v)] + ([None] if default is not None else [])
    return path, draw(st.sampled_from(wrong))


@given(case=wrong_type_at_a_key())
@settings(max_examples=150, deadline=None)
def test_a_wrong_type_at_any_key_exits_2_naming_its_path(case):
    path, value = case
    synthetic = {"synthetic": {"n": 50, "k": 2, "d": 2, "cluster_std": 0.05}}
    config = {"dataset": {"csv": {"path": "points.csv"}} if path.startswith("dataset.csv") else synthetic,
              "k": 2, "rounds": 1}
    *parents, last = path.split(".")
    node = config
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", str(config_path), "-o", str(Path(tmp) / "report.json")]) == 2
    assert f"error: {path} must be " in err.getvalue()
