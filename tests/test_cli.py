import json

import numpy as np
import pytest

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
               "--compute-seconds", str(report["compute_seconds"])])
    assert rc == 0
    own = report["estimated_wallclock_seconds"]["regWAN100"]
    assert f"estimated {own:.2f}s on regWAN100" in capsys.readouterr().out


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"k": 3}))
    rc = main(["run", str(p)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


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
], ids=["even-degree", "negative-epsilon", "misspelled-key", "removed-key", "k-not-a-number",
        "seed-count-not-a-number", "separation-not-a-number", "k-too-large", "negative-rounds",
        "misspelled-budget-key", "misspelled-top-key", "misspelled-engine-key",
        "misspelled-seeds-key", "misspelled-synthetic-key", "misspelled-csv-key",
        "removed-compute-seconds"])
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
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_nonzero(capsys):
    rc = main(["run", "/nonexistent/config.json"])
    assert rc == 2
