"""CLI: subcommands, output schemas, manifest replay, exit codes."""

import json
from pathlib import Path

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


# one run per file-writing command, with relative output paths
REPLAY_RUNS = {
    "cumulants": [
        "cumulants", "--ensemble", "hermite", "--alpha", "0.4", "--n", "100,150",
        "--m-max", "3", "--f", "im:1/(x-i)", "--format", "json", "-o", "cum.json",
    ],
    "variance-limit": [
        "variance-limit", "--f", "im:1/(x-i)", "--method", "residue", "-o", "var.json",
    ],
    "decay": ["decay", "--n-alpha", "100", "--size", "300", "-o", "decay.csv"],
    "hypotheses": [
        "hypotheses", "--ensemble", "hermite", "--alpha", "0.5", "--n", "200",
        "-o", "hyp.json",
    ],
    "sample": [
        "sample", "--ensemble", "laguerre", "--params", '{"gamma": 0.5}',
        "--alpha", "0.5", "--n", "30", "--count", "6", "--seed", "5",
        "--f", "im:1/(x-i)", "--out-batch", "batch.bin", "-o", "stats.json",
    ],
    "fit": ["fit", "--target", "bump:-1,1", "--poles", "6", "-o", "fit.csv"],
}


@pytest.mark.parametrize("argv", list(REPLAY_RUNS.values()), ids=list(REPLAY_RUNS))
def test_manifest_replay_reproduces_every_output(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    (manifest,) = tmp_path.glob("*.manifest.json")
    outputs = json.loads(manifest.read_text())["outputs"]
    # the manifest names every file the run wrote, the first one first
    assert manifest.name == outputs[0] + ".manifest.json"
    assert sorted(outputs) == sorted(p.name for p in tmp_path.iterdir() if p != manifest)
    first = {path: Path(path).read_bytes() for path in outputs}
    for path in outputs:
        Path(path).unlink()
    assert main(["--from-manifest", manifest.name]) == 0
    assert {path: Path(path).read_bytes() for path in outputs} == first


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


def _sample_argv(batch_path, ensemble, params, count):
    argv = [
        "sample", "--ensemble", ensemble, "--alpha", "0.4", "--n", "30",
        "--seed", "3", "--f", "im:1/(x-i)", "--out-batch", str(batch_path),
        "--count", str(count),
    ]
    return argv + (["--params", params] if params else [])


@pytest.mark.parametrize(
    "stored, requested",
    [
        (("hermite", None), ("laguerre", '{"gamma": 0}')),
        (("laguerre", '{"gamma": 0}'), ("laguerre", '{"gamma": 0.5}')),
    ],
)
def test_resume_refuses_another_ensemble(tmp_path, capsys, stored, requested):
    batch_path = tmp_path / "batch.bin"
    assert main(_sample_argv(batch_path, *stored, 5)) == 0
    before = batch_path.read_bytes()
    capsys.readouterr()
    assert main(_sample_argv(batch_path, *requested, 10) + ["--resume"]) == 1
    assert "was not sampled from" in capsys.readouterr().err
    assert batch_path.read_bytes() == before


@pytest.mark.parametrize("count", [5, 8])
def test_resume_without_new_rows_does_not_rewrite(tmp_path, monkeypatch, count):
    batch_path = tmp_path / "batch.bin"
    assert main(_sample_argv(batch_path, "hermite", None, 8)) == 0
    calls = []
    monkeypatch.setattr(
        "opemeso.cli.save_batch", lambda *args: calls.append(args)
    )
    assert main(_sample_argv(batch_path, "hermite", None, count) + ["--resume"]) == 0
    assert calls == []


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


def test_bad_paths_are_config_errors(tmp_path, capsys):
    hyp = ["hypotheses", "--ensemble", "hermite", "--n", "100", "--alpha", "0.5"]
    malformed = tmp_path / "bad.manifest.json"
    malformed.write_text("{not json")
    not_manifest = tmp_path / "list.manifest.json"
    not_manifest.write_text("[1, 2]")
    for argv in (
        ["--from-manifest", str(tmp_path / "missing.manifest.json")],
        ["--from-manifest", str(malformed)],
        ["--from-manifest", str(not_manifest)],
        hyp + ["-o", str(tmp_path / "no_such_dir" / "x.json")],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("config error:")


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
    # and an empty batch file offered for resuming
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert main(_sample_argv(empty, "hermite", None, 4) + ["--resume"]) == 1


BIG_SAMPLE = [
    "sample", "--ensemble", "hermite", "--alpha", "0.4", "--n", "2000",
    "--f", "im:1/(x-i)", "--out-batch", "batch.bin", "--count", "1000000",
]


@pytest.mark.parametrize(
    "argv",
    [
        BIG_SAMPLE,
        BIG_SAMPLE + ["--resume"],
        ["decay", "--n-alpha", "100", "--size", "10000000000", "-o", "decay.csv"],
        ["fit", "--target", "hat:0,1", "--poles", "10000000", "-o", "fit.csv"],
    ],
    ids=["sample", "sample-resume", "decay", "fit"],
)
def test_oversized_inputs_fail_before_allocating(tmp_path, monkeypatch, capsys, argv):
    # each would ask for 15-358 GiB; a cap refuses it with a typed error instead
    monkeypatch.chdir(tmp_path)
    if "--resume" in argv:
        assert main(BIG_SAMPLE[:-1] + ["1"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_no_command_prints_help(capsys):
    assert main([]) == 2
