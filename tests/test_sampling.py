"""Monte-Carlo sampler: determinism, distributional checks, persistence."""

import ctypes
import hashlib
import math
import os
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import opemeso as om
from opemeso import sampling
from opemeso.ensembles import Family
from opemeso.errors import InvalidParams, NoConvergence, Unsupported
from opemeso.sampling import SampleBatch, _model, _stream, standardized_skewness

IM_G = om.parse_test_function("im:1/(x-i)")
RE_G = om.parse_test_function("re:1/(x-i)")
TWO_POLE = om.parse_test_function("im:1/(x-i)+re:0.5/(x-2+1i)")
MODELS = [om.hermite(), om.laguerre(0.0), om.laguerre(0.5)]


def semicircle_cdf(x):
    x = np.clip(x, -2, 2)
    return 0.5 + x * np.sqrt(4 - x ** 2) / (4 * np.pi) + np.arcsin(x / 2) / np.pi


class TestDeterminism:
    def test_same_seed_same_batch(self):
        b1 = om.sample_spectra(om.hermite(), 50, 20, seed=123)
        b2 = om.sample_spectra(om.hermite(), 50, 20, seed=123)
        assert np.array_equal(b1.spectra, b2.spectra)

    def test_different_seeds_differ(self):
        b1 = om.sample_spectra(om.hermite(), 50, 5, seed=1)
        b2 = om.sample_spectra(om.hermite(), 50, 5, seed=2)
        assert not np.array_equal(b1.spectra, b2.spectra)

    def test_resume_matches_fresh(self):
        full = om.sample_spectra(om.hermite(), 40, 30, seed=9)
        tail = om.sample_spectra(om.hermite(), 40, 10, seed=9, start_index=20)
        assert np.array_equal(full.spectra[20:], tail.spectra)

    def test_sorted_ascending(self):
        b = om.sample_spectra(om.hermite(), 80, 10, seed=3)
        assert np.all(np.diff(b.spectra, axis=1) >= 0)


class TestDistribution:
    def test_semicircle_bulk_fraction(self):
        batch = om.sample_spectra(om.hermite(), 200, 1000, seed=77)
        frac = float(np.mean((batch.spectra >= -1) & (batch.spectra <= 1)))
        target = semicircle_cdf(1) - semicircle_cdf(-1)  # 1/3 + sqrt(3)/(2 pi)
        assert target == pytest.approx(1 / 3 + math.sqrt(3) / (2 * math.pi))
        assert abs(frac - target) < 0.02

    def test_largest_eigenvalue_near_soft_edge(self):
        batch = om.sample_spectra(om.hermite(), 200, 500, seed=21)
        mean_max = float(batch.spectra[:, -1].mean())
        assert 1.9 <= mean_max <= 2.05

    def test_laguerre_support(self):
        batch = om.sample_spectra(om.laguerre(0.0), 150, 300, seed=4)
        assert batch.spectra.min() > -0.05
        assert 3.7 < batch.spectra.max() < 4.4

    def test_skewness_small_at_soft_edge(self):
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.4, epsilon=0.1)
        X = om.sample_statistic(om.hermite(), 400, 10000, 314, IM_G, edge)
        assert abs(standardized_skewness(X)) <= 0.15


class TestEmpiricalStatistic:
    def test_constant_function(self):
        batch = om.sample_spectra(om.hermite(), 30, 50, seed=6)
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
        c = 0.7
        mean, var, se = om.empirical_statistic(
            om.spectra_statistic(batch, lambda x: np.full_like(np.asarray(x, float), c), edge)
        )
        assert mean == pytest.approx(c * 30, rel=1e-12)
        assert var == pytest.approx(0.0, abs=1e-20)

    def test_matches_exact_variance(self):
        n, count = 200, 4000
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.4, epsilon=0.1)
        X = om.sample_statistic(om.hermite(), n, count, 2718, IM_G, edge)
        _, var, se = om.empirical_statistic(X)
        F = om.build_F(om.hermite(), n, edge, IM_G)
        exact = om.cumulant(F, n, 2) / n ** 0.8
        assert abs(var - exact) <= 3 * se

    def test_x0_shift_within_noise(self):
        # the deterministic n^(-alpha-1/2) shift of the variance is at the
        # n^(-1/2) scale, below one standard error at this sample count
        n, count = 200, 400
        batch = om.sample_spectra(om.hermite(), n, count, seed=55)
        base = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.4, epsilon=0.1)
        x0 = om.edge_location(om.hermite(), n, om.Side.RIGHT)
        moved = om.EdgeSpec(
            side=om.Side.RIGHT, alpha=0.4, x0=x0 + n ** (-0.4 - 0.5), epsilon=0.1
        )
        _, v1, se1 = om.empirical_statistic(om.spectra_statistic(batch, IM_G, base))
        _, v2, _ = om.empirical_statistic(om.spectra_statistic(batch, IM_G, moved))
        assert abs(v1 - v2) < se1


class TestTraceRoute:
    """sample_statistic: the pivot-sweep trace against eigenvalue statistics."""

    @pytest.mark.parametrize("side", [om.Side.RIGHT, om.Side.LEFT])
    @pytest.mark.parametrize("spec", MODELS, ids=["hermite", "laguerre0", "laguerre0.5"])
    def test_matches_spectra_statistic(self, spec, side):
        for n in (1, 2, 3, 400):
            # edge_location needs n >= 2, so n = 1 takes an explicit centre
            edge = om.EdgeSpec(side=side, alpha=0.4, x0=0.3 if n == 1 else None, epsilon=0.1)
            batch = om.sample_spectra(spec, n, 12, seed=5)
            for f in (IM_G, RE_G, TWO_POLE):
                eig = om.spectra_statistic(batch, f, edge)
                trace = om.sample_statistic(spec, n, 12, 5, f, edge)
                assert np.max(np.abs(trace - eig)) <= 1e-12 * np.max(np.abs(eig)), (n, f)

    @pytest.mark.parametrize("spec", [om.hermite(), om.laguerre(0.5)], ids=["hermite", "laguerre"])
    def test_matches_mpmath_eigenvalues(self, spec):
        mpmath = pytest.importorskip("mpmath")
        n, count, seed, alpha = 24, 3, 11, 0.4
        with mpmath.workdps(40):
            spectra = []
            for i in range(count):
                diag, off = _model(spec.family, n, spec.params.get("gamma", 0.0), _stream(seed, i))
                J = mpmath.matrix(n, n)
                for j in range(n):
                    J[j, j] = diag[j]
                for j in range(n - 1):
                    J[j, j + 1] = J[j + 1, j] = off[j]
                spectra.append(mpmath.eigsy(J, eigvals_only=True))
            for side in (om.Side.RIGHT, om.Side.LEFT):
                edge = om.EdgeSpec(side=side, alpha=alpha, epsilon=0.1)
                x0 = mpmath.mpf(edge.center(spec, n))
                scale = mpmath.mpf(n) ** alpha
                for f in (IM_G, RE_G, TWO_POLE):
                    exact = [
                        float(sum(mpmath.im(d / (scale * (lam - x0) - p))
                                  for lam in vals for p, d in zip(f.poles, f.weights)))
                        for vals in spectra
                    ]
                    trace = om.sample_statistic(spec, n, count, seed, f, edge)
                    err = np.max(np.abs(trace - exact)) / np.max(np.abs(exact))
                    assert err <= 1e-13, (side, f, err)

    @pytest.mark.parametrize("f", [IM_G, TWO_POLE], ids=["one_pole", "two_poles"])
    def test_sweeps_follow_the_stream_index(self, monkeypatch, f):
        # at most 3 samples a sweep, so 10 samples take four sweeps, and each
        # must draw the models of its own stream indices
        n, count = 30, 10
        monkeypatch.setattr(sampling, "_MIN_SWEEP", 1)
        monkeypatch.setattr(sampling, "_SWEEP_ENTRIES", 3 * n * len(f.poles))
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.4, epsilon=0.1)
        eig = om.spectra_statistic(om.sample_spectra(om.laguerre(0.5), n, count, seed=8), f, edge)
        trace = om.sample_statistic(om.laguerre(0.5), n, count, 8, f, edge)
        assert np.max(np.abs(trace - eig)) <= 1e-12 * np.max(np.abs(eig))

    def test_single_sample_has_zero_spread_on_both_routes(self):
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.4, epsilon=0.1)
        X = om.sample_statistic(om.hermite(), 30, 1, 4, IM_G, edge)
        batch = om.sample_spectra(om.hermite(), 30, 1, seed=4)
        for x in (X, om.spectra_statistic(batch, IM_G, edge)):
            mean, var, se = om.empirical_statistic(x)
            assert (var, se, standardized_skewness(x)) == (0.0, 0.0, 0.0)
            assert mean == pytest.approx(X[0], rel=1e-12)

    def test_constant_statistic_has_zero_moments(self):
        X = np.full(7, 0.1 + 0.2)  # X.mean() rounds one ulp above every entry
        assert om.empirical_statistic(X) == (X[0], 0.0, 0.0)
        assert standardized_skewness(X) == 0.0

    def test_no_spectrum_cap(self):
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.4, epsilon=0.1)
        X = om.sample_statistic(om.hermite(), 5000, 2, 1, IM_G, edge)
        assert X.shape == (2,) and np.all(np.isfinite(X))
        with pytest.raises(InvalidParams):
            om.sample_statistic(om.hermite(), 5000, 2001, 1, IM_G, edge)
        with pytest.raises(Unsupported):
            om.sample_statistic(om.hermite(), 50, 2, 1, lambda x: x, edge)
        with pytest.raises(Unsupported):
            om.sample_statistic(om.chebyshev2(), 50, 2, 1, IM_G, edge)


class TestValidation:
    def test_unsupported_family(self):
        with pytest.raises(Unsupported):
            om.sample_spectra(om.chebyshev2(), 50, 10, seed=0)

    def test_size_limits(self):
        with pytest.raises(InvalidParams):
            om.sample_spectra(om.hermite(), 2001, 1, seed=0)
        with pytest.raises(InvalidParams):
            om.sample_spectra(om.hermite(), 10, 0, seed=0)

    def test_moment_inputs_checked(self):
        batch = om.sample_spectra(om.hermite(), 10, 4, seed=0)
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
        X = om.spectra_statistic(batch, IM_G, edge)
        for moment in (om.empirical_statistic, standardized_skewness):
            # a spectra array, a column of X and a whole batch are refused
            for bad in (batch.spectra, X[:, None], batch):
                with pytest.raises(InvalidParams):
                    moment(bad)

    def test_empty_batch_rejected(self):
        batch = om.sample_spectra(om.hermite(), 10, 1, seed=0)
        empty = SampleBatch(om.hermite(), 10, 0, batch.spectra[:0])
        edge = om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5, epsilon=0.1)
        with pytest.raises(InvalidParams):
            om.empirical_statistic(om.spectra_statistic(empty, IM_G, edge))


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        batch = om.sample_spectra(om.laguerre(0.0), 40, 25, seed=909)
        path = tmp_path / "batch.bin"
        path.write_bytes(b"x" * 3 * 4096)  # a longer file must lose its stale tail
        om.save_batch(batch, path)
        assert path.stat().st_size == 36 + 8 * 40 * 25
        loaded = om.load_batch(path, om.laguerre(0.0))
        assert loaded.n == batch.n
        assert loaded.seed == batch.seed
        assert np.array_equal(loaded.spectra, batch.spectra)

    def test_file_bytes_unchanged(self, tmp_path):
        # the (seed, index) streams and the file format, pinned by a sha256
        path = tmp_path / "batch.bin"
        om.save_batch(om.sample_spectra(om.hermite(), 20, 5, seed=1), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4d894e0b9c48d0ac7a7757deaef481253b65bce9efb9e52698666c17e1f534be"
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTABATCH" + b"\x00" * 64)
        with pytest.raises(InvalidParams):
            om.load_batch(path, om.hermite())

    def test_truncated_file(self, tmp_path):
        batch = om.sample_spectra(om.hermite(), 20, 4, seed=1)
        path = tmp_path / "batch.bin"
        om.save_batch(batch, path)
        data = path.read_bytes()
        # short data, no header at all, and a header cut after 20 of its 36 bytes
        for cut in (data[:-16], b"", data[:20]):
            path.write_bytes(cut)
            with pytest.raises(InvalidParams):
                om.load_batch(path, om.hermite())


def _written(path, data: bytes):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda tmp: om.sample_spectra(om.hermite(), 0, 5, seed=1), InvalidParams, "n >= 1"),
        (lambda tmp: om.sample_spectra(om.hermite(), 10, 5, seed=-1), InvalidParams, "64"),
        (lambda tmp: om.sample_spectra(om.hermite(), 10, 5, seed=2 ** 64), InvalidParams, "64"),
        (lambda tmp: om.sample_spectra(om.laguerre(-0.5), 10, 5, seed=1), Unsupported, "gamma"),
        (lambda tmp: om.load_batch(
            _written(tmp / "v2.bin", sampling._HEADER.pack(sampling._MAGIC, 2, 1, 0, 0)),
            om.hermite(),
        ), InvalidParams, "version 2"),
        (lambda tmp: om.sample_statistic(
            om.hermite(), 50, 10, 0, om.parse_test_function("im:1e308/(x-i)"),
            om.EdgeSpec(side=om.Side.RIGHT, alpha=0.5),
        ), InvalidParams, "trace statistic of f overflows the float range"),
        (lambda tmp: om.empirical_statistic(np.array([1e200, -1e200, 3.0])),
         InvalidParams, "sample variance of X overflows the float range"),
        (lambda tmp: standardized_skewness(np.array([1e200, -1e200, 3.0])),
         InvalidParams, "sample skewness of X overflows the float range"),
    ],
    ids=["n-below-one", "negative-seed", "seed-too-large", "laguerre-negative-gamma",
         "batch-version", "statistic-overflow", "variance-overflow", "skewness-overflow"],
)
def test_refusals(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


def _sterf_failing_on(diag0: float):
    """A dsterf stand-in that reports info = 1 for the matrix whose d[0] is diag0."""
    def sterf(n, d, e, info):
        if ctypes.c_double.from_address(d).value == diag0:
            info.value = 1
    return sterf


class TestSterfKernel:
    """sampling.eigh_tridiagonal: dsterf through ctypes, bytes as scipy's."""

    @pytest.mark.parametrize("spec", MODELS, ids=["hermite", "laguerre0", "laguerre0.5"])
    def test_matches_scipy(self, spec):
        cut = sampling._THREADED_N
        for n in (1, 2, 3, 20, cut - 1, cut + 1, 400, 2000):
            for i in range(3):
                diag, off = _model(spec.family, n, spec.params.get("gamma", 0.0), _stream(6, i))
                model = np.concatenate([diag, off])
                ours = sampling.eigh_tridiagonal(diag, off)
                assert np.array_equal(np.concatenate([diag, off]), model)  # sterf works on copies
                reference = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
                assert ours.dtype == reference.dtype and np.array_equal(ours, reference), (n, i)

    def test_refuses_other_shapes(self):
        for d, e in ((np.ones(3), np.ones(3)), (np.ones((2, 2)), np.ones(1)), (np.ones(0), np.ones(0))):
            with pytest.raises(InvalidParams, match="off-diagonal entries"):
                sampling.eigh_tridiagonal(d, e)

    def test_signature_checked(self, monkeypatch):
        # an ILP64 build names 64-bit integers in the capsule; its dsterf is refused
        new_capsule = ctypes.PYFUNCTYPE(
            ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p
        )(("PyCapsule_New", ctypes.pythonapi))
        name, target = b"void (int64_t *, d *, d *, int64_t *)", ctypes.c_char(0)
        capsule = new_capsule(ctypes.addressof(target), name, None)  # both outlive the call
        monkeypatch.setattr(sampling, "cython_lapack", SimpleNamespace(__pyx_capi__={"dsterf": capsule}))
        with pytest.raises(Unsupported, match="int64_t"):
            sampling._sterf.__wrapped__()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_no_convergence_names_n_and_sample(self, monkeypatch, workers):
        # sample 5 fails; the error reaches the caller and no thread outlives the call
        n = sampling._THREADED_N + 1
        diag0 = _model(Family.HERMITE, n, 0.0, _stream(4, 5))[0][0]
        monkeypatch.setattr(sampling, "_sterf", lambda: _sterf_failing_on(diag0))
        monkeypatch.setattr(sampling, "_cpus", lambda: workers)
        before = set(threading.enumerate())
        with pytest.raises(NoConvergence, match=f"sample 5: dsterf did not converge at n = {n}"):
            om.sample_spectra(om.hermite(), n, 7, seed=4, start_index=3)
        assert set(threading.enumerate()) == before


    def test_failure_stops_the_other_worker(self, monkeypatch):
        # sample 0 fails on the first worker; the second stops at its next
        # sample instead of solving all of its 100
        n, count = sampling._THREADED_N + 1, 200
        failing = _sterf_failing_on(_model(Family.HERMITE, n, 0.0, _stream(4, 0))[0][0])
        calls = []

        def sterf(n, d, e, info):
            calls.append(n)
            failing(n, d, e, info)
            time.sleep(0.002)  # lets the failure reach the caller before the second worker ends

        monkeypatch.setattr(sampling, "_sterf", lambda: sterf)
        monkeypatch.setattr(sampling, "_cpus", lambda: 2)
        before = set(threading.enumerate())
        with pytest.raises(NoConvergence, match="sample 0: "):
            om.sample_spectra(om.hermite(), n, count, seed=4)
        assert len(calls) < 1 + count // 2
        assert set(threading.enumerate()) == before


def test_cpus_without_an_affinity_mask(monkeypatch):
    # where the OS has no affinity mask, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sampling._cpus() == os.cpu_count()


class TestThreadedSpectra:
    """sample_spectra on a thread per CPU: the same bytes on any CPU count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_counts_agree(self, monkeypatch, workers):
        monkeypatch.setattr(sampling, "_cpus", lambda: workers)
        for spec in (om.hermite(), om.laguerre(0.5)):
            gamma = spec.params.get("gamma", 0.0)
            for n in (sampling._THREADED_N - 1, sampling._THREADED_N):
                for count in (1, 2, 5, 7):
                    for start in (0, 4):
                        batch = om.sample_spectra(spec, n, count, seed=12, start_index=start)
                        for i in range(count):
                            diag, off = _model(spec.family, n, gamma, _stream(12, start + i))
                            reference = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
                            assert np.array_equal(batch.spectra[i], reference), (n, count, start, i)

    def test_resume_matches_fresh_above_cutoff(self):
        full = om.sample_spectra(om.hermite(), 400, 12, seed=9)
        tail = om.sample_spectra(om.hermite(), 400, 5, seed=9, start_index=7)
        assert np.array_equal(full.spectra[7:], tail.spectra)

    def test_peak_memory_is_the_spectra(self):
        # 2000 spectra of n = 400 take 6.4 MB; a list of every model would add 12.8 MB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            batch = om.sample_spectra(om.hermite(), 400, 2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.spectra.nbytes == 6_400_000
        assert peak < batch.spectra.nbytes + 1_000_000
