"""Command-line front end: sweeps, variance limits, decay studies, sampling.

Every file-writing run drops a ``<output>.manifest.json`` next to its output
(config echo, git describe, versions, wall clock); ``--from-manifest``
replays a manifest and reproduces the outputs bit-exactly.  Every output is
overwritten in place.  Exit codes: 0 success, 1 numerical failure,
2 configuration error.

``main`` pays its fixed costs once per process, not once per call, which
matters to in-process callers (a test suite, a replay, a scripted sweep):
the parser is built on the first call, and the git describe is taken once
per process, at its first output, then reused; it describes the code already
imported.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import (
    __version__,
    EdgeSpec,
    Side,
    TridiagonalMatrix,
    check_hypotheses,
    convergence_sweep,
    decay_profile,
    empirical_statistic,
    fit_resolvent_approximation,
    from_json,
    parse_test_function,
    sample_spectra,
    sample_statistic,
    sigma2_quadrature,
    sigma2_residue,
)
from ._files import write_in_place
from .ensembles import _positive_real, _whole
from .errors import InvalidParams, OpemesoError
from .sampling import SampleBatch, load_batch, save_batch, standardized_skewness
from .testfun import _parse_complex

_FMT = "%.17g"  # full round-trip precision for golden-file stability
_RESUME_RTOL = 1e-12  # sample 0 of a resumed batch must match a fresh draw this closely
# largest decay --size: O(N) vectors and in-place banded solves on a window that
# doubles up to N.  At the cap (2-core AMD EPYC, in-process): 0.004 s and 84 MB
# process peak at n^alpha = 1e2; 0.5-0.7 s and 297 MB for a row that never reaches
# the window's cut (n^alpha = 1e8, all 10^6 entries kept and written)
_DECAY_MAX_ROWS = 10 ** 6


@functools.cache
def _git_describe() -> str:
    """``git describe`` of the checkout this package runs from, whatever the cwd.

    Taken once per process, at the first manifest written: the describe is of
    the code already imported, so it does not go stale within a run, and each
    ``git`` process costs milliseconds."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=False,
            text=True,
        )
        return out.stdout.strip() or "nogit"
    except OSError:
        return "nogit"


def _versions() -> dict:
    """The package, interpreter, numpy, scipy and BLAS versions behind a run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "opemeso": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


# (header, row format) of each CSV report: one %-format per row tuple, with
# integers as str() writes them and floats with full round-trip precision
_CUMULANTS_CSV = ("n,alpha,m,value_re,value_im", f"%d,{_FMT},%d,{_FMT},{_FMT}")
_DECAY_CSV = ("distance,log_abs", f"%d,{_FMT}")
_FIT_CSV = ("pole_re,pole_im,weight_re,weight_im", ",".join([_FMT] * 4))


def _csv(table: tuple[str, str], rows) -> str:
    """CSV text of row tuples under one of the (header, row format) tables above."""
    header, row_format = table
    return "\n".join([header, *map(row_format.__mod__, rows)]) + "\n"


def _json(payload: dict, **options) -> str:
    return json.dumps(payload, indent=2, **options) + "\n"


def _emit(text: str, output: str | None) -> list[Path]:
    """Write text to ``output`` and return that path, or print it if ``output`` is None.

    Every report, sidecar and manifest the CLI writes goes through here, and
    is overwritten in place (``write_in_place``).  An empty path is a
    configuration error for every command, so ``-o ""`` writes nothing and
    never means stdout.
    """
    if output is None:
        sys.stdout.write(text)
        return []
    if not output:
        raise ValueError("empty output path")
    out = Path(output)
    write_in_place(out, text.encode())
    return [out]


def _edge_from_args(args) -> EdgeSpec:
    return EdgeSpec(side=Side(args.side), alpha=args.alpha, x0=args.x0, epsilon=args.epsilon)


def _ensemble_from_args(args):
    params = json.loads(args.params) if args.params else {}
    return from_json({"family": args.ensemble, "params": params})


def _add_ensemble_args(p: argparse.ArgumentParser):
    p.add_argument("--ensemble", required=True, help="family name, e.g. chebyshev2")
    p.add_argument("--params", default=None, help='family params as JSON, e.g. \'{"gamma": 0}\'')


def _add_edge_args(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, required=True, help="mesoscopic exponent in (0, 2)")
    p.add_argument("--epsilon", type=float, default=None, help="window exponent margin")
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.add_argument("--x0", type=float, default=None, help="override the exact finite-n edge")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use and shared by every ``main`` call
    (a replay's too); parsing returns a fresh namespace and leaves the parser as it is."""
    parser = argparse.ArgumentParser(
        prog="opemeso",
        description="Mesoscopic edge statistics of orthogonal polynomial ensembles",
    )
    parser.add_argument("--from-manifest", default=None, help="replay a manifest file")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("cumulants", help="scaled-cumulant convergence sweep")
    _add_ensemble_args(p)
    _add_edge_args(p)
    p.add_argument("--n", required=True, help="comma-separated ascending sizes")
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--f", required=True, help='test function, e.g. "im:1/(x-i)"')
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("variance-limit", help="limiting variance by quadrature/residue")
    p.add_argument("--f", required=True)
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.add_argument("--method", choices=["quadrature", "residue", "both"], default="both")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("decay", help="off-diagonal resolvent decay profile")
    p.add_argument("--n-alpha", type=float, required=True, help="zoom scale n^alpha")
    p.add_argument("--eta", default="i", help="complex spectral offset, e.g. i or 0.5+2i")
    p.add_argument("--x0", type=float, default=2.0)
    p.add_argument("--size", type=int, default=2000)
    p.add_argument("--ref-row", type=int, default=None)
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("hypotheses", help="slow-variation hypothesis report")
    _add_ensemble_args(p)
    _add_edge_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("sample", help="Monte-Carlo spectra and empirical statistics")
    _add_ensemble_args(p)
    _add_edge_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--f", required=True)
    p.add_argument("--out-batch", default=None, help="persist spectra to a binary file")
    p.add_argument("--resume", action="store_true", help="extend an existing batch file")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("fit", help="rational approximation of a test function")
    p.add_argument("--target", required=True, help='"bump:a,b", "hat:a,b", or a pole spec')
    p.add_argument("--poles", type=int, default=20)
    p.add_argument("--height", type=float, default=0.25)
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")

    return parser


def _target_ends(text: str) -> tuple[float, float]:
    """The ends a, b of a "bump:a,b" or "hat:a,b" target: finite and distinct."""
    a, b = (float(t) for t in text.split(","))
    if not (math.isfinite(a) and math.isfinite(b) and a != b):
        raise InvalidParams(f"target ends must be finite and distinct, got {a!r}, {b!r}")
    return a, b


def _make_target(text: str):
    if text.startswith("bump:"):
        a, b = _target_ends(text[5:])

        def bump(x):
            x = np.asarray(x, dtype=float)
            t = (2 * (x - a) / (b - a)) - 1  # [-1, 1] inside the support
            inside = np.abs(t) < 1
            out = np.zeros_like(x)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                vals = np.exp(-1.0 / np.clip(1 - t ** 2, 1e-300, None))
            out[inside] = vals[inside]
            return out

        return bump
    if text.startswith("hat:"):
        a, b = _target_ends(text[4:])
        mid = 0.5 * (a + b)

        def hat(x):
            x = np.asarray(x, dtype=float)
            left = np.clip((x - a) / (mid - a), 0, None)
            right = np.clip((b - x) / (b - mid), 0, None)
            return np.maximum(0.0, np.minimum(left, right))

        return hat
    return parse_test_function(text)


def cmd_cumulants(args) -> list[Path]:
    spec = _ensemble_from_args(args)
    edge = _edge_from_args(args)
    f = parse_test_function(args.f)
    n_list = [int(tok) for tok in args.n.split(",") if tok]
    reports = convergence_sweep(spec, edge, f, n_list, m_max=args.m_max)
    if args.format == "csv":
        rows = (row for rep in reports for row in rep.csv_rows())
        text = _csv(_CUMULANTS_CSV, rows)
    else:
        text = _json({"schema": 1, "reports": [r.to_json() for r in reports]})
    return _emit(text, args.output)


def cmd_variance_limit(args) -> list[Path]:
    f = parse_test_function(args.f)
    side = Side(args.side)
    payload = {"schema": 1}
    if args.method in ("quadrature", "both"):
        q = sigma2_quadrature(f, side, tol=args.tol)
        payload["quadrature"] = q.to_json()
        payload["value"] = q.value
    if args.method in ("residue", "both"):
        r = sigma2_residue(f, side)
        payload["residue"] = r.to_json()
        payload["value"] = r.value
    return _emit(_json(payload), args.output)


def cmd_decay(args) -> list[Path]:
    eta = _parse_complex(args.eta)
    n_alpha = _positive_real(args.n_alpha, "n^alpha")
    N = _whole(args.size, f"decay size must be an integer from 3 to {_DECAY_MAX_ROWS} rows",
               3, _DECAY_MAX_ROWS)
    J = TridiagonalMatrix(np.zeros(N), np.ones(N - 1), args.x0 + eta / n_alpha)
    ref = args.ref_row if args.ref_row is not None else N // 2
    fit = decay_profile(J, ref_row=ref)
    summary = {
        "schema": 1,
        "rate": fit.rate,
        "intercept": fit.intercept,
        "ref_row": fit.ref_row,
        "n_points": fit.n_points,
    }
    written = _emit(_csv(_DECAY_CSV, fit.csv_rows()), args.output)
    return written + _emit(_json(summary), f"{written[0]}.fit.json")


def cmd_hypotheses(args) -> list[Path]:
    spec = _ensemble_from_args(args)
    edge = _edge_from_args(args)
    report = check_hypotheses(spec, args.n, edge)
    return _emit(_json(report.to_json()), args.output)


def _check_batch_ensemble(batch: SampleBatch) -> None:
    """Refuse a stored batch whose first row is not sample 0 of the requested ensemble.

    The file format stores no ensemble, so sample 0 is drawn again and
    compared with a normwise relative tolerance (not bitwise, so that a
    different LAPACK build still resumes).
    """
    if batch.count == 0:
        return
    fresh = sample_spectra(batch.ensemble, batch.n, 1, batch.seed).spectra[0]
    stored = batch.spectra[0]
    if np.max(np.abs(stored - fresh)) > _RESUME_RTOL * np.max(np.abs(fresh)):
        raise OpemesoError(
            f"existing batch was not sampled from {batch.ensemble}: "
            "its first spectrum differs from sample 0 of that ensemble"
        )


def _batch_to_save(spec, args) -> SampleBatch | None:
    """The ``--out-batch`` spectra: fresh, or with ``--resume`` the stored ones extended.

    A resumed file must hold the requested seed, n and ensemble; None when
    ``--count`` asks for no more samples than it stores, so it is not rewritten.
    """
    if args.resume and Path(args.out_batch).exists():
        existing = load_batch(args.out_batch, spec)
        if existing.seed != args.seed or existing.n != args.n:
            raise OpemesoError("existing batch does not match the requested seed/n")
        _check_batch_ensemble(existing)
        missing = args.count - existing.count
        if missing <= 0:
            return None
        extra = sample_spectra(spec, args.n, missing, args.seed, start_index=existing.count)
        return SampleBatch(spec, args.n, args.seed, np.vstack([existing.spectra, extra.spectra]))
    return sample_spectra(spec, args.n, args.count, args.seed)


def cmd_sample(args) -> list[Path]:
    """Report the statistic's moments; eigenvalues only for ``--out-batch``.

    The report comes from ``sample_statistic`` whatever the batch file holds,
    so it depends on (ensemble, n, count, seed, f, edge) alone.  The batch is
    drawn, and a stored one checked, before the statistic, so a refused batch
    costs no statistic; it is saved only after the statistic succeeds.
    """
    if args.resume and not args.out_batch:
        raise ValueError("--resume extends a batch file and needs --out-batch")
    spec = _ensemble_from_args(args)
    edge = _edge_from_args(args)
    f = parse_test_function(args.f)
    batch = _batch_to_save(spec, args) if args.out_batch else None
    X = sample_statistic(spec, args.n, args.count, args.seed, f, edge)
    outputs = []
    if args.out_batch:
        if batch is not None:
            save_batch(batch, args.out_batch)
        outputs.append(Path(args.out_batch))
    mean, var, se = empirical_statistic(X)
    payload = {
        "schema": 1,
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
        "x0": edge.center(spec, args.n),
        "mean": mean,
        "variance": var,
        "variance_std_error": se,
        "skewness": standardized_skewness(X),
    }
    return outputs + _emit(_json(payload), args.output)


def cmd_fit(args) -> list[Path]:
    target = _make_target(args.target)
    fitted, achieved = fit_resolvent_approximation(target, args.poles, args.height)
    rows = ((p.real, p.imag, w.real, w.imag) for p, w in zip(fitted.poles, fitted.weights))
    meta = {"schema": 1, "achieved_lw_norm": achieved, "poles": args.poles}
    written = _emit(_csv(_FIT_CSV, rows), args.output)
    return written + _emit(_json(meta), f"{written[0]}.fit.json")


def cmd_selftest(args) -> list[Path]:
    from .acceptance import run

    only = [int(t) for t in args.only.split(",")] if args.only else None
    failed = [r.number for r in run(only=only) if not r.ok]
    if failed:
        raise OpemesoError(f"selftest criteria failed: {', '.join(map(str, failed))}")
    return []


_COMMANDS = {
    "cumulants": cmd_cumulants,
    "variance-limit": cmd_variance_limit,
    "decay": cmd_decay,
    "hypotheses": cmd_hypotheses,
    "sample": cmd_sample,
    "fit": cmd_fit,
    "selftest": cmd_selftest,
}


def _replay_args(path: str) -> list[str]:
    """The command line recorded in a manifest file."""
    manifest = json.loads(Path(path).read_text())
    if not (isinstance(manifest, dict) and "command" in manifest
            and isinstance(manifest.get("config"), dict)):
        raise ValueError(f"{path} is not a manifest: needs 'command' and a 'config' object")
    replay = [manifest["command"]]
    for key, value in manifest["config"].items():
        if value is None or key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                replay.append(flag)
        else:
            replay.append(f"{flag}={value}")  # one token, so a value may start with "-"
    return replay


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.from_manifest:
        try:
            replay = _replay_args(args.from_manifest)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return main(replay)

    if args.command is None:
        parser.print_help()
        return 2

    start = time.perf_counter()
    try:
        outputs = _COMMANDS[args.command](args)
        if outputs:
            wallclock = time.perf_counter() - start
            manifest = {
                "schema": 1,
                "command": args.command,
                "config": {k: v for k, v in vars(args).items() if k != "from_manifest"},
                "git_describe": _git_describe(),
                "versions": _versions(),
                "wallclock_s": wallclock,
                "outputs": [str(p) for p in outputs],
            }
            _emit(_json(manifest, sort_keys=True), f"{outputs[0]}.manifest.json")
    except OpemesoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # unreadable/unwritable paths, bad JSON or values
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
