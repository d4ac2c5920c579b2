"""CLI: subcommands, output schemas, manifest replay, exit codes."""

import json

import numpy as np
import pytest

from opemeso.cli import main


def test_variance_limit_stdout(capsys):
    assert main(["variance-limit", "--f", "im:1/(x-i)", "--side", "right"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.09375, abs=1e-9)
    assert payload["quadrature"]["value"] == pytest.approx(0.09375, abs=1e-6)


def test_cumulants_csv_and_manifest(tmp_path):
    out = tmp_path / "cum.csv"
    argv = [
        "cumulants",
        "--ensemble", "chebyshev2",
        "--alpha", "0.5",
        "--n", "100,200",
        "--f", "im:1/(x-i)",
        "-o", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,alpha,m,value_re,value_im"
    assert len(lines) == 1 + 2 * 4  # two sizes, m = 1..4
    manifest = json.loads((tmp_path / "cum.csv.manifest.json").read_text())
    assert manifest["schema"] == 1
    assert manifest["command"] == "cumulants"

    # manifest replay reproduces the file bit-exactly
    first = out.read_bytes()
    assert main(["--from-manifest", str(tmp_path / "cum.csv.manifest.json")]) == 0
    assert out.read_bytes() == first


def test_cumulants_json_format(tmp_path):
    out = tmp_path / "cum.json"
    assert main([
        "cumulants", "--ensemble", "hermite", "--alpha", "0.4", "--side", "right",
        "--n", "100", "--m-max", "2", "--f", "im:1/(x-i)", "-o", str(out),
        "--format", "json",
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["n"] == 100


def test_hypotheses_stdout(capsys):
    assert main([
        "hypotheses", "--ensemble", "laguerre", "--params", '{"gamma": 0}',
        "--n", "1024", "--alpha", "1.0", "--side", "left", "--x0", "0",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["raw"]["rec2"] == 0.0


def test_decay_outputs(tmp_path):
    out = tmp_path / "decay.csv"
    assert main([
        "decay", "--n-alpha", "100", "--x0", "2.0", "--size", "400",
        "-o", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "distance,log_abs"
    fit = json.loads((tmp_path / "decay.csv.fit.json").read_text())
    assert fit["rate"] > 0


def test_sample_and_resume(tmp_path):
    batch_path = tmp_path / "batch.bin"
    stats = tmp_path / "stats.json"
    base = [
        "sample", "--ensemble", "hermite", "--alpha", "0.4", "--side", "right",
        "--n", "60", "--seed", "7", "--f", "im:1/(x-i)",
        "--out-batch", str(batch_path),
    ]
    assert main(base + ["--count", "20", "-o", str(stats)]) == 0
    first = json.loads(stats.read_text())
    assert first["count"] == 20

    # resume to 40 samples, then compare with a fresh 40-sample run
    assert main(base + ["--count", "40", "--resume", "-o", str(stats)]) == 0
    resumed = json.loads(stats.read_text())
    fresh_path = tmp_path / "fresh.bin"
    fresh_argv = [
        "sample", "--ensemble", "hermite", "--alpha", "0.4", "--side", "right",
        "--n", "60", "--seed", "7", "--f", "im:1/(x-i)",
        "--out-batch", str(fresh_path), "--count", "40", "-o", str(stats),
    ]
    assert main(fresh_argv) == 0
    assert batch_path.read_bytes() == fresh_path.read_bytes()
    assert json.loads(stats.read_text())["variance"] == resumed["variance"]

    # resuming to a smaller count reports the first 10 samples only and
    # leaves the 40 stored rows intact
    assert main(base + ["--count", "10", "--resume", "-o", str(stats)]) == 0
    shrunk = json.loads(stats.read_text())
    assert batch_path.read_bytes() == fresh_path.read_bytes()
    fresh10 = tmp_path / "fresh10.json"
    assert main(base[:-2] + ["--count", "10", "-o", str(fresh10)]) == 0
    expected = json.loads(fresh10.read_text())
    assert (shrunk["count"], shrunk["variance"]) == (10, expected["variance"])


def test_fit_outputs(tmp_path):
    out = tmp_path / "fit.csv"
    assert main([
        "fit", "--target", "hat:0,1", "--poles", "12", "-o", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "pole_re,pole_im,weight_re,weight_im"
    assert len(lines) == 13
    meta = json.loads((tmp_path / "fit.csv.fit.json").read_text())
    assert meta["achieved_lw_norm"] > 0


def test_selftest_subset(capsys):
    assert main(["selftest", "--only", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion  3" in out


def test_config_error_exit_code():
    # malformed params JSON is a configuration error
    code = main([
        "hypotheses", "--ensemble", "laguerre", "--params", "{bad json",
        "--n", "100", "--alpha", "0.5",
    ])
    assert code == 2


def test_numerical_error_exit_code(tmp_path):
    # invalid family parameters surface as a numerical/domain failure
    code = main([
        "hypotheses", "--ensemble", "laguerre", "--params", '{"gamma": -2}',
        "--n", "100", "--alpha", "0.5",
    ])
    assert code == 1
    # so does a window too large for the dense engine, before it allocates
    code = main([
        "cumulants", "--ensemble", "chebyshev2", "--alpha", "0.5", "--n", "100000",
        "--f", "im:1/(x-i)", "-o", str(tmp_path / "cum.csv"),
    ])
    assert code == 1


def test_no_command_prints_help(capsys):
    assert main([]) == 2
