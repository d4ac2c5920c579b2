"""CLI: subcommands, output schemas, manifest replay, exit codes."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opemeso
from opemeso import cli, sampling
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
    # a value starting with "-" replays as one --flag=value token
    "decay-negative-eta": [
        "decay", "--n-alpha", "100", "--eta=-0.5+2i", "--size", "400", "-o", "d.csv",
    ],
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
    # a store_true flag: the manifest records True and replays a bare --resume
    "sample-resume": [
        "sample", "--ensemble", "hermite", "--alpha", "0.5", "--n", "20", "--count", "4",
        "--f", "im:1/(x-i)", "--out-batch", "batch.bin", "--resume", "-o", "stats.json",
    ],
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


@pytest.mark.parametrize("argv", list(REPLAY_RUNS.values()), ids=list(REPLAY_RUNS))
def test_rerun_overwrites_outputs_without_truncating_first(tmp_path, monkeypatch, argv):
    # O_TRUNC frees the old blocks before the write, which is what makes a
    # re-run slow; every output must be opened without it and cut at the end
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    opened = {}
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        if Path(path).resolve().parent == tmp_path.resolve():  # not git's /dev/null
            opened[os.fspath(path)] = flags
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert main(argv) == 0
    (manifest,) = tmp_path.glob("*.manifest.json")
    expected = json.loads(manifest.read_text())["outputs"] + [manifest.name]
    if "--resume" in argv:  # a resume that adds no rows leaves the batch file alone
        expected.remove("batch.bin")
    assert sorted(opened) == sorted(expected)
    assert all(flags & os.O_TRUNC == 0 for flags in opened.values()), opened


@pytest.mark.parametrize("stale_size", [300, 5000], ids=["same-block", "across-blocks"])
def test_shorter_output_leaves_no_stale_tail(tmp_path, stale_size):
    argv = ["variance-limit", "--f", "im:1/(x-i)", "--method", "residue", "-o"]
    fresh, over = tmp_path / "fresh.json", tmp_path / "over.json"
    assert main(argv + [str(fresh)]) == 0
    assert len(fresh.read_bytes()) < stale_size
    over.write_bytes(b"x" * stale_size)
    assert main(argv + [str(over)]) == 0
    assert over.read_bytes() == fresh.read_bytes()


def test_smaller_batch_over_larger_matches_fresh_file(tmp_path):
    batch_path, fresh_path = tmp_path / "batch.bin", tmp_path / "fresh.bin"
    assert main(_sample_argv(batch_path, "hermite", None, 40)) == 0
    assert main(_sample_argv(batch_path, "hermite", None, 10)) == 0
    assert main(_sample_argv(fresh_path, "hermite", None, 10)) == 0
    assert batch_path.read_bytes() == fresh_path.read_bytes()


def test_output_to_character_device(tmp_path):
    # a device cannot be truncated; the link keeps the manifest in tmp_path
    sink = tmp_path / "sink"
    sink.symlink_to(os.devnull)
    argv = ["variance-limit", "--f", "im:1/(x-i)", "--method", "residue", "-o", str(sink)]
    assert main(argv) == 0
    assert main(argv) == 0
    assert json.loads((tmp_path / "sink.manifest.json").read_text())["outputs"] == [str(sink)]


def test_manifest_records_package_checkout_and_versions(tmp_path, monkeypatch):
    # the describe comes from the package's own directory, not from the cwd
    package_dir = Path(opemeso.__file__).resolve().parent
    describe = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=package_dir,
        capture_output=True, text=True, check=False,
    ).stdout.strip() or "nogit"
    monkeypatch.chdir(tmp_path)
    subprocess.run(["git", "init", "-q"], check=True)
    assert main(REPLAY_RUNS["variance-limit"]) == 0
    manifest = json.loads(Path("var.json.manifest.json").read_text())
    assert manifest["git_describe"] == describe
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["versions"] == {
        "opemeso": opemeso.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


@pytest.fixture
def fresh_describe():
    """An empty once-per-process describe cache, emptied again after the test, so the
    test's describe comes from its own git stand-in and no later test reads that one."""
    cli._git_describe.cache_clear()
    yield
    cli._git_describe.cache_clear()


def test_manifest_without_git(tmp_path, monkeypatch, fresh_describe):
    # no git executable: the manifest reads "nogit" and the run goes on
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(subprocess, "run", no_git)
    assert main(REPLAY_RUNS["variance-limit"]) == 0
    manifest = json.loads(Path("var.json.manifest.json").read_text())
    assert manifest["git_describe"] == "nogit"


def test_one_git_describe_per_process(tmp_path, monkeypatch, fresh_describe):
    # three output-writing calls in one process start git once, and all three
    # manifests carry that describe
    package_dir = Path(opemeso.__file__).resolve().parent
    describe = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=package_dir,
        capture_output=True, text=True, check=False,
    ).stdout.strip() or "nogit"
    started = []
    real_run = subprocess.run

    def counting_run(cmd, *args, **kwargs):
        started.append(list(cmd))
        return real_run(cmd, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(subprocess, "run", counting_run)
    for name in ("variance-limit", "decay", "fit"):
        assert main(REPLAY_RUNS[name]) == 0
    assert started == [["git", "describe", "--always", "--dirty"]]
    manifests = sorted(tmp_path.glob("*.manifest.json"))
    assert len(manifests) == 3
    assert {json.loads(m.read_text())["git_describe"] for m in manifests} == {describe}


def _entry_point(argv, cwd):
    """``python -m opemeso.cli argv`` in a fresh process, run in cwd."""
    src = str(Path(opemeso.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "opemeso.cli", *argv], cwd=cwd,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=False,
    )


def test_reused_parser_leaks_nothing_between_commands(tmp_path, monkeypatch):
    # a sample run with --resume and --out-batch, then variance-limit on the same
    # process's parser: the second config is the one a fresh process records
    argv = REPLAY_RUNS["variance-limit"]
    (tmp_path / "reused").mkdir()
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "reused")
    assert main(REPLAY_RUNS["sample-resume"]) == 0
    assert main(argv) == 0
    done = _entry_point(argv, tmp_path / "fresh")
    assert done.returncode == 0, done.stderr
    reused, fresh = (json.loads((tmp_path / d / "var.json.manifest.json").read_text())
                     for d in ("reused", "fresh"))
    assert reused["command"] == fresh["command"] == "variance-limit"
    assert reused["config"] == fresh["config"]


def _per_value_csv(header, rows):
    """The per-value rule the row formats replace: ints via str, the rest via %.17g."""
    lines = [header]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else "%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


_EXTREME_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1e-300, -1e300, 0.1, -2.5)


@settings(max_examples=200, deadline=None)
@given(ints=st.lists(st.integers(), min_size=2, max_size=2),
       floats=st.lists(st.one_of(st.floats(), st.sampled_from(_EXTREME_FLOATS)),
                       min_size=4, max_size=4),
       numpy_floats=st.booleans())
@example(ints=[0, -1], floats=[-0.0, 5e-324, 1.7976931348623157e308, -1e-310],
         numpy_floats=True)
@example(ints=[10 ** 30, -(10 ** 30)], floats=[0.0, -0.0, -5e-324, -1.5e300],
         numpy_floats=False)
def test_row_formats_write_the_per_value_text(ints, floats, numpy_floats):
    # floats reach _csv as Python floats (tolist) or numpy float64 scalars
    if numpy_floats:
        floats = [np.float64(v) for v in floats]
    i, j = ints
    a, b, c, d = floats
    for table, rows in (
        (cli._CUMULANTS_CSV, [(i, a, j, b, c), (j, d, i, a, 0.0)]),
        (cli._DECAY_CSV, [(i, a), (j, b), (i, c)]),
        (cli._FIT_CSV, [(a, b, c, d), (d, c, b, a)]),
    ):
        assert cli._csv(table, rows) == _per_value_csv(table[0], rows)
        assert cli._csv(table, []) == table[0] + "\n"


def test_module_entry_point(tmp_path, capsys):
    # python -m opemeso.cli prints what main() prints and exits with its code
    argv = ["variance-limit", "--f", "im:1/(x-i)", "--method", "residue"]
    done = _entry_point(argv, tmp_path)
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
    assert json.loads(done.stdout)["residue"]["value"] == pytest.approx(0.09375, abs=1e-12)


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


def test_sample_report_ignores_the_batch_file(tmp_path):
    # the report is a function of (ensemble, n, count, seed, f, edge) alone:
    # the same bytes without a batch file, with one, and after a resume
    report = [
        "sample", "--ensemble", "laguerre", "--params", '{"gamma": 0.5}', "--alpha", "0.4",
        "--side", "left", "--n", "50", "--seed", "11", "--f", "im:1/(x-i)+re:0.5/(x-2+1i)",
    ]
    batch = ["--out-batch", str(tmp_path / "batch.bin")]
    runs = {
        "plain": report + ["--count", "30"],
        "batch": report + batch + ["--count", "30"],
        "short": report + batch + ["--count", "12"],
        "resumed": report + batch + ["--count", "30", "--resume"],
    }
    texts = {}
    for name, argv in runs.items():
        assert main(argv + ["-o", str(tmp_path / f"{name}.json")]) == 0
        texts[name] = (tmp_path / f"{name}.json").read_bytes()
    assert texts["plain"] == texts["batch"] == texts["resumed"]
    assert json.loads(texts["short"])["count"] == 12


def test_sample_n_above_spectrum_cap(tmp_path, capsys):
    # without --out-batch no spectrum is stored, so only count * n is capped
    big = ["sample", "--ensemble", "hermite", "--alpha", "0.4", "--f", "im:1/(x-i)"]
    out = tmp_path / "stats.json"
    assert main(big + ["--n", "5000", "--count", "3", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 5000
    for argv in (
        big + ["--n", "5000", "--count", "3", "--out-batch", str(tmp_path / "batch.bin")],
        big + ["--n", "5000", "--count", "2001"],
    ):
        capsys.readouterr()
        assert main(argv + ["-o", str(tmp_path / "refused.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.json", "stats.json.manifest.json"]


def test_refused_batch_never_computes_the_statistic(tmp_path, monkeypatch, capsys):
    # the batch is checked (and drawn) first, so its refusal costs no statistic
    batch_path = tmp_path / "batch.bin"
    assert main(_sample_argv(batch_path, "hermite", None, 5)) == 0
    before = batch_path.read_bytes()

    def refuse(*args):
        raise AssertionError("sample_statistic ran for a refused batch")

    monkeypatch.setattr("opemeso.cli.sample_statistic", refuse)
    big = ["sample", "--ensemble", "hermite", "--alpha", "0.4", "--f", "im:1/(x-i)",
           "--n", "5000", "--count", "3", "--out-batch", str(tmp_path / "big.bin")]
    wrong_seed = _sample_argv(batch_path, "hermite", None, 8)
    wrong_seed[wrong_seed.index("--seed") + 1] = "4"
    for argv in (
        big,
        wrong_seed + ["--resume"],
        _sample_argv(batch_path, "laguerre", '{"gamma": 0}', 8) + ["--resume"],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.bin", "batch.bin.manifest.json"]
    assert batch_path.read_bytes() == before


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


@pytest.mark.parametrize("target", ["hat:2,1", "im:1/(x-0.5i)"], ids=["reversed-ends", "poles"])
def test_fit_targets(tmp_path, target):
    out = tmp_path / "fit.csv"
    assert main(["fit", "--target", target, "--poles", "6", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 7


def test_resume_from_an_empty_batch(tmp_path):
    batch_path, fresh_path = tmp_path / "batch.bin", tmp_path / "fresh.bin"
    opemeso.save_batch(opemeso.SampleBatch(opemeso.hermite(), 30, 3, np.empty((0, 30))), batch_path)
    assert main(_sample_argv(batch_path, "hermite", None, 4) + ["--resume"]) == 0
    assert main(_sample_argv(fresh_path, "hermite", None, 4)) == 0
    assert batch_path.read_bytes() == fresh_path.read_bytes()


def test_selftest_subset(capsys):
    assert main(["selftest", "--only", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] criterion  3" in out


def test_selftest_failure_exits_1_and_writes_no_manifest(tmp_path, monkeypatch, capsys):
    from opemeso import acceptance

    failing = (13, "always fails", lambda: (False, "forced failure"))
    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA + [failing])
    monkeypatch.chdir(tmp_path)
    assert main(["selftest", "--only", "3,13"]) == 1
    out, err = capsys.readouterr()
    assert "[PASS] criterion  3" in out
    assert "[FAIL] criterion 13 (always fails): forced failure" in out
    assert err == "error: selftest criteria failed: 13\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("only", ["13", "0,3"])
def test_selftest_unknown_criterion_is_a_config_error(capsys, only):
    assert main(["selftest", "--only", only]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: no criterion numbered")


def test_config_error_exit_code(capsys):
    # malformed params JSON is a configuration error, and so is --resume
    # without a batch file to extend
    for argv in (
        ["hypotheses", "--ensemble", "laguerre", "--params", "{bad json",
         "--n", "100", "--alpha", "0.5"],
        ["sample", "--ensemble", "hermite", "--alpha", "0.5", "--n", "10", "--count", "3",
         "--f", "im:1/(x-i)", "--resume"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("config error:"), argv


def test_bad_paths_are_config_errors(tmp_path, capsys):
    hyp = ["hypotheses", "--ensemble", "hermite", "--n", "100", "--alpha", "0.5"]
    malformed = tmp_path / "bad.manifest.json"
    malformed.write_text("{not json")
    not_manifest = tmp_path / "list.manifest.json"
    not_manifest.write_text("[1, 2]")
    (tmp_path / "out.json.manifest.json").mkdir()  # the manifest path is a directory
    for argv in (
        ["--from-manifest", str(tmp_path / "missing.manifest.json")],
        ["--from-manifest", str(malformed)],
        ["--from-manifest", str(not_manifest)],
        hyp + ["-o", str(tmp_path / "no_such_dir" / "x.json")],
        ["variance-limit", "--f", "im:1/(x-i)", "--method", "residue",
         "-o", str(tmp_path / "out.json")],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("argv", list(REPLAY_RUNS.values()), ids=list(REPLAY_RUNS))
def test_empty_output_path_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    # -o "" never means stdout; only a batch file saved before the report remains
    monkeypatch.chdir(tmp_path)
    assert argv[-2] == "-o"
    assert main(argv[:-1] + [""]) == 2
    assert capsys.readouterr() == ("", "config error: empty output path\n")
    expected = ["batch.bin"] if "--out-batch" in argv else []
    assert [p.name for p in tmp_path.iterdir()] == expected


def test_numerical_error_exit_code(tmp_path, capsys, monkeypatch):
    # invalid family parameters surface as a numerical/domain failure, and so
    # do params that are not an object of real numbers, non-positive or
    # non-finite tolerances and zoom scales, tolerances below the rounding
    # floor, decay sizes below 3 rows, a zoom so coarse that only the two
    # neighbours of the row clear the decay floor (one distance fixes no slope),
    # n below 1 for cumulants and hypotheses, non-finite centres, offsets,
    # pole heights, weights and family params, weights so large that the
    # variance quadrature or the residue sum overflows, fit targets whose
    # ends are equal or not finite, and weights or family params so large that
    # the cumulants, the Monte-Carlo statistic or a coefficient overflows, and
    # a pole so close to the real axis that its height squares to 0
    hyp = ["hypotheses", "--ensemble", "laguerre", "--n", "100", "--alpha", "0.5"]
    hyp_x0 = ["hypotheses", "--ensemble", "hermite", "--alpha", "0.5", "--x0", "2"]
    for argv in (
        hyp + ["--params", '{"gamma": -2}'],
        hyp + ["--params", "[1]"],
        hyp + ["--params", '{"gamma": "a"}'],
        *(["variance-limit", "--f", "im:1/(x-i)", "--tol", tol]
          for tol in ("0", "-1", "nan", "1e-120", "1e-300")),
        ["decay", "--n-alpha", "0", "-o", str(tmp_path / "decay.csv")],
        *(["decay", "--n-alpha", "100", "--size", size, "-o", str(tmp_path / "decay.csv")]
          for size in ("0", "-5", "1", "2")),
        ["decay", "--n-alpha", "1e-8", "--size", "400", "-o", str(tmp_path / "decay.csv")],
        *(["cumulants", "--ensemble", "chebyshev2", "--alpha", "0.5", "--n", n,
           "--f", "im:1/(x-i)", "-o", str(tmp_path / "cum.csv")] for n in ("-5", "0")),
        *(hyp_x0 + ["--n", n] for n in ("-3", "0")),
        hyp + ["--x0", "nan"],
        ["sample", "--ensemble", "hermite", "--alpha", "0.4", "--n", "50", "--count", "10",
         "--f", "im:1/(x-i)", "--x0", "inf"],
        ["cumulants", "--ensemble", "chebyshev2", "--alpha", "0.5", "--n", "100",
         "--f", "im:1/(x-i)", "--x0", "nan", "-o", str(tmp_path / "cum.csv")],
        ["decay", "--n-alpha", "100", "--x0", "nan", "-o", str(tmp_path / "decay.csv")],
        ["decay", "--n-alpha", "100", "--eta", "1+nani", "-o", str(tmp_path / "decay.csv")],
        ["fit", "--target", "hat:0,1", "--poles", "5", "--height", "nan",
         "-o", str(tmp_path / "fit.csv")],
        ["variance-limit", "--f", "im:nan/(x-i)"],
        hyp + ["--params", '{"gamma": 1e400}'],
        ["variance-limit", "--f", "im:1e308/(x-i)+im:1e308/(x-i)"],
        ["variance-limit", "--f", "im:1e300/(x-0.000001i)", "--method", "quadrature"],
        ["variance-limit", "--f", "im:1e200/(x-i)", "--method", "residue"],
        *(["fit", "--target", target, "--poles", "5", "-o", str(tmp_path / "fit.csv")]
          for target in ("bump:1,1", "hat:1,1", "hat:0,inf", "bump:nan,1")),
        *(["cumulants", "--ensemble", "chebyshev2", "--alpha", "0.5", "--x0", "2", "--n", "50",
           "--m-max", "4", "--f", f"im:{d}/(x-i)", "-o", str(tmp_path / "c.csv")]
          for d in ("1e308", "1e200")),
        *(["sample", "--ensemble", "hermite", "--alpha", "0.5", "--n", "50", "--count", "10",
           "--f", f"im:{d}/(x-i)"] for d in ("1e200", "1e308")),
        hyp + ["--params", '{"gamma": 1e308}'],
        ["hypotheses", "--ensemble", "freud", "--params", '{"gamma": 1e-3}', "--n", "100",
         "--alpha", "0.5"],
        *(["variance-limit", "--f", "im:1/(x-1e-300i)", "--method", method]
          for method in ("residue", "quadrature", "both")),
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    # an eigensolve that does not converge, on the threaded path, writes no batch file
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "_sterf", lambda: _sterf_reporting_info_1)
        patch.setattr(sampling, "_cpus", lambda: 2)
        assert main(["sample", "--ensemble", "hermite", "--alpha", "0.4", "--n", "400",
                     "--count", "10", "--f", "im:1/(x-i)",
                     "--out-batch", str(tmp_path / "batch.bin")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sample ") and "dsterf did not converge at n = 400" in err
    assert list(tmp_path.iterdir()) == []
    # n = 1 with an explicit centre still runs
    assert main(hyp_x0 + ["--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 1
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


def _sterf_reporting_info_1(n, d, e, info):
    info.value = 1


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
