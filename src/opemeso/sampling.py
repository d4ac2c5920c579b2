"""Monte-Carlo cross-validation via tridiagonal matrix models.

Gaussian (Hermite weight) and Wishart-type (Laguerre weight) ensembles are
sampled exactly in law from their beta = 2 tridiagonal models
(Dumitriu-Edelman, J. Math. Phys. 43, 2002).  Every sample owns a
counter-based RNG stream keyed by (seed, sample index), so batches are
bit-identical across runs and can be resumed from any index.

Two routes share those models:

* ``sample_spectra`` runs one symmetric eigensolve per sample and returns the
  spectra, which ``save_batch``/``load_batch`` persist.  The eigensolve is
  LAPACK's dsterf called through ctypes, which releases the GIL, so from
  moderate n one thread per CPU solves every k-th sample;
* ``sample_statistic`` returns the linear statistic X = sum_i f(n^alpha
  (lambda_i - x0)) of each sample for a rational f = sum_r Im(d_r/(x -
  lambda_r)) without eigenvalues: X = sum_r Im(d_r n^-alpha Tr(J - w_r)^-1)
  with w_r = x0 + lambda_r n^-alpha, and one forward pivot sweep over the
  rows, vectorised over samples and poles, gives every trace.

``spectra_statistic`` evaluates X on stored spectra, for any f.
``empirical_statistic`` and ``standardized_skewness`` take the X array of
either route.
"""

from __future__ import annotations

import ctypes
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import cython_lapack

from ._files import write_in_place
from .ensembles import EdgeSpec, EnsembleSpec, Family, _edge, _whole
from .errors import InvalidParams, NoConvergence, Unsupported, refuse_overflow
from .testfun import ResolventTestFunction, _rational

_MAGIC = b"OPEBATCH"
_VERSION = 1
_HEADER = struct.Struct("<8sIQQQ")  # magic, version, n, count, seed
_MAX_SPECTRUM = 2000  # largest n of a stored spectrum: sterf is O(n^2) per sample
# largest count * n.  At n = 400, count = 25,000 `opemeso sample` takes 2.4 s
# with a 91 MB process peak, or 54 s at 167 MB with --out-batch, whose
# eigensolves dominate even on both CPUs (2-core Intel Xeon).  Narrow batches
# pay the sweep's per-row calls: one sample at n = 10^7 takes 46 s at 439 MB
# (2-core AMD EPYC)
_MAX_ENTRIES = 10 ** 7
# count * n * poles per trace sweep: bounds the stacked models at 16 MB and
# the pivot state (four complex (poles, width) arrays) at 64 MB / n, whatever
# the number of poles in f.  A sweep is never cut below _MIN_SWEEP samples
# (16 KB of state per pole), since its per-row numpy calls cost about 5 us
# whatever the width
_SWEEP_ENTRIES = 2 ** 20
_MIN_SWEEP = 256
# the C signature of LAPACK's dsterf with 32-bit integers (LP64)
_STERF_SIGNATURE = b"void (int *, d *, d *, int *)"
# smallest n whose spectra are solved on a thread per CPU.  Below it the
# samples' Philox draws, which hold the GIL, cost about as much as their
# eigensolves, and the threads fight over the GIL: Hermite with count * n =
# 10^6 on 2 CPUs takes 2.7-3.0 s on one thread and 3.6-5.8 s on two at
# n = 48, 3.1-3.2 and 2.8-3.8 s at n = 64, and 3.1-3.2 and 2.5-2.9 s at n = 80
# (2-core Intel Xeon)
_THREADED_N = 80

__all__ = [
    "SampleBatch",
    "sample_spectra",
    "sample_statistic",
    "spectra_statistic",
    "empirical_statistic",
    "save_batch",
    "load_batch",
]


@dataclass(frozen=True)
class SampleBatch:
    """A (count, n) array of sorted spectra plus the inputs that determine it."""

    ensemble: EnsembleSpec
    n: int
    seed: int
    spectra: np.ndarray

    @property
    def count(self) -> int:
        return self.spectra.shape[0]


def _stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one sample: Philox keyed by (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _model(family: Family, n: int, gamma: float, rng: np.random.Generator):
    """Diagonal and off-diagonal of one tridiagonal model, on the ensemble's scale."""
    if family is Family.HERMITE:
        # diagonal ~ Normal(0, 2), off-diagonal k ~ chi with 2(n-k) dof, both
        # divided by sqrt(2n); spectrum concentrates on [-2, 2]
        scale = 1.0 / np.sqrt(2.0 * n)
        diag = rng.normal(0.0, np.sqrt(2.0), size=n) * scale
        dof = 2.0 * (n - np.arange(1, n))
        off = np.sqrt(rng.chisquare(dof)) * scale
        return diag, off
    # lower-bidiagonal factor B with chi entries; B B^T is tridiagonal and its
    # eigenvalues, divided by 2n, follow the x^gamma e^{-nx} weight ensemble
    # with spectrum concentrating on [0, 4]
    i = np.arange(1, n + 1)
    d = np.sqrt(rng.chisquare(2.0 * (n + gamma - i + 1)))
    s = np.sqrt(rng.chisquare(2.0 * (n - i[:-1])))
    diag = d ** 2
    diag[1:] += s ** 2
    off = d[1:] * s
    return diag / (2.0 * n), off / (2.0 * n)


def _checked_request(
    ensemble: EnsembleSpec, n: int, count: int, seed: int, max_n: int = _MAX_ENTRIES
) -> tuple[int, int, int, float]:
    """(n, count, seed, the Laguerre gamma) of a request that a matrix model and the size
    caps allow, the integers as Python ints; anything else is refused."""
    if ensemble.family not in (Family.HERMITE, Family.LAGUERRE):
        raise Unsupported(f"no matrix model for family {ensemble.family.value}")
    n = _whole(n, f"sampler needs an integer n >= 1 and n <= {max_n}", 1, max_n)
    count = _whole(count, f"sampler supports 1 <= count <= 1e6 and count * n <= 1e7 at n = {n}",
                   1, min(10 ** 6, _MAX_ENTRIES // n))
    seed = _whole(seed, "seed must be an integer that fits in 64 unsigned bits", 0, 2 ** 64 - 1)
    gamma = ensemble.params.get("gamma", 0.0)
    if ensemble.family is Family.LAGUERRE and gamma < 0:
        raise Unsupported("laguerre sampler requires gamma >= 0")
    return n, count, seed, gamma


@cache
def _sterf():
    """LAPACK's dsterf(n, d, e, info) from scipy's cython_lapack, as a ctypes call.

    A ctypes foreign call releases the GIL for the whole eigensolve, which no
    scipy wrapper of sterf does.  The capsule name is the C signature; an ILP64
    build or any other one is refused.
    """
    capsule = cython_lapack.__pyx_capi__["dsterf"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))(capsule)
    if name.replace(b"__pyx_t_5scipy_6linalg_13cython_lapack_", b"") != _STERF_SIGNATURE:
        raise Unsupported(f"scipy's dsterf has signature {name.decode()!r}, not {_STERF_SIGNATURE.decode()!r}")
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)
    pointer = get_pointer(("PyCapsule_GetPointer", api))(capsule, name)
    int_p = ctypes.POINTER(ctypes.c_int)
    return ctypes.CFUNCTYPE(None, int_p, ctypes.c_void_p, ctypes.c_void_p, int_p)(pointer)


def eigh_tridiagonal(d, e) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix (d, e) by dsterf.

    The root-free QL/QR iteration that ``scipy.linalg.eigh_tridiagonal(d, e,
    eigvals_only=True)`` reaches through ``stevd``, which only rescales a matrix
    whose largest entry lies outside about [1e-146, 1e146], so the models here
    give the same bytes.  A failed iteration raises ``NoConvergence``.
    """
    w = np.array(d, dtype=np.float64)  # copies: sterf overwrites d with the
    work = np.array(e, dtype=np.float64)  # eigenvalues and e with garbage
    n = w.size
    if w.ndim != 1 or work.shape != (n - 1,) or n >= 2 ** 31:
        raise InvalidParams(f"a tridiagonal needs n = 1 .. 2^31 - 1 diagonal and n - 1 "
                            f"off-diagonal entries, got {w.shape} and {work.shape}")
    info = ctypes.c_int(0)
    _sterf()(ctypes.c_int(n), w.ctypes.data, work.ctypes.data, info)
    if info.value:
        raise NoConvergence(f"dsterf did not converge at n = {n}: "
                            f"{info.value} off-diagonal entries stayed nonzero")
    return w


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def sample_spectra(
    ensemble: EnsembleSpec,
    n: int,
    count: int,
    seed: int,
    start_index: int = 0,
) -> SampleBatch:
    """Sample ``count`` sorted spectra of size n; deterministic in (seed, index).

    Only the Hermite and Laguerre families carry a tridiagonal matrix model.
    ``start_index`` shifts the per-sample stream indices, so a resumed run
    produces exactly the samples a longer fresh run would have produced.
    A pool of one thread per CPU from n = ``_THREADED_N`` on, else of one,
    draws and solves every k-th sample; each spectrum depends on its (seed,
    index) alone, so the bytes are the same on any number of CPUs.
    """
    n, count, seed, gamma = _checked_request(ensemble, n, count, seed, _MAX_SPECTRUM)
    start_index = _whole(start_index, "start_index + count must fit in 64 unsigned bits",
                         0, 2 ** 64 - count)
    spectra = np.empty((count, n))
    workers = min(_cpus(), count) if n >= _THREADED_N else 1
    stop = False

    def solve(first: int) -> None:
        for i in range(first, count, workers):
            if stop:
                return
            diag, off = _model(ensemble.family, n, gamma, _stream(seed, start_index + i))
            try:
                spectra[i] = eigh_tridiagonal(diag, off)
            except NoConvergence as exc:
                raise NoConvergence(f"sample {start_index + i}: {exc}") from None

    with ThreadPoolExecutor(workers) as pool:
        try:
            for future in [pool.submit(solve, first) for first in range(workers)]:
                future.result()
        finally:  # a failed sample or an interrupt stops the other threads early
            stop = True
    spectra.setflags(write=False)
    return SampleBatch(ensemble=ensemble, n=n, seed=seed, spectra=spectra)


def _trace_statistic(diag: np.ndarray, off2: np.ndarray, w: np.ndarray, c: np.ndarray):
    """Per-column X = sum_r Im(c_r Tr(J - w_r)^-1) by one forward pivot sweep.

    Column k of ``diag`` (n, K) and ``off2`` (n-1, K) holds the diagonal and
    the squared off-diagonal of one real symmetric J.  With
    delta_j = d_j - w - e_{j-1}^2 / delta_{j-1}, det(J - w) is the product of
    the pivots, so Tr(J - w)^-1 = -d/dw log det(J - w) = -sum_j t_j with
    t_j = delta_j' / delta_j and delta_j' = -1 + (e_{j-1}^2 / delta_{j-1}) t_{j-1}.
    Im w > 0 keeps every Im delta_j <= -Im w, so no pivot vanishes.
    """
    w = w[:, None]
    delta = diag[0] - w                  # (poles, K)
    t = -1.0 / delta
    total = t.copy()
    q = np.empty_like(delta)
    for j in range(1, diag.shape[0]):
        np.divide(off2[j - 1], delta, out=q)
        np.subtract(diag[j], w, out=delta)
        delta -= q
        t *= q
        t -= 1.0
        t /= delta
        total += t
    return -(c @ total).imag


def sample_statistic(
    ensemble: EnsembleSpec,
    n: int,
    count: int,
    seed: int,
    f: ResolventTestFunction,
    edge: EdgeSpec,
) -> np.ndarray:
    """Per-sample X = sum_i f(n^alpha (lambda_i - x0)) without eigenvalues.

    Draws the same (seed, index) models as ``sample_spectra`` and agrees with
    the statistic of its spectra to rounding.  f must be rational
    (``ResolventTestFunction``).  No spectrum is stored, so n is capped only
    through count * n.
    """
    _rational(f, "the trace statistic")
    n, count, seed, gamma = _checked_request(ensemble, n, count, seed)
    scale = float(n) ** -_edge(edge).alpha
    w = edge.center(ensemble, n) + scale * np.asarray(f.poles)
    c = scale * np.asarray(f.weights)
    width = max(_MIN_SWEEP, _SWEEP_ENTRIES // (n * len(w)))
    X = np.empty(count)
    with refuse_overflow("the trace statistic of f"):
        for lo in range(0, count, width):
            k = min(width, count - lo)
            diag = np.empty((n, k))
            off2 = np.empty((n - 1, k))
            for col in range(k):
                d, e = _model(ensemble.family, n, gamma, _stream(seed, lo + col))
                diag[:, col] = d
                off2[:, col] = e * e
            X[lo:lo + k] = _trace_statistic(diag, off2, w, c)
    return X


def spectra_statistic(batch: SampleBatch, f, edge: EdgeSpec) -> np.ndarray:
    """Per-sample X = sum_i f(n^alpha (lambda_i - x0)) over stored spectra.

    The eigenvalue route: any f, including the non-rational ones
    ``sample_statistic`` refuses.
    """
    n_alpha = float(batch.n) ** _edge(edge).alpha
    x0 = edge.center(batch.ensemble, batch.n)
    return np.asarray(f(n_alpha * (batch.spectra - x0))).sum(axis=1)


def _centered(X) -> tuple[float, np.ndarray]:
    """Mean and centered entries of a 1-D X array, one value per sample.

    An empty or not one-dimensional X is refused; an X whose entries are all
    equal centers to exact zeros.
    """
    X = np.asarray(X)
    if X.ndim != 1:
        raise InvalidParams(f"X holds one value per sample, got shape {X.shape}")
    if X.size == 0:
        raise InvalidParams("empty batch")
    mean = float(X[0]) if np.all(X == X[0]) else float(X.mean())
    return mean, X - mean


def empirical_statistic(X: np.ndarray) -> tuple[float, float, float]:
    """Mean, variance and SE of the per-sample statistic X.

    X comes from ``sample_statistic`` or ``spectra_statistic``.  Returns the
    sample mean, the unbiased sample variance, and the standard error of that
    variance from the fourth central moment.
    """
    with refuse_overflow("the sample variance of X"):
        mean, centered = _centered(X)
        count = len(centered)
        if count < 2:
            return mean, 0.0, 0.0
        var = float(np.sum(centered ** 2) / (count - 1))
        m4 = float(np.mean(centered ** 4))
        var_of_var = (m4 - var ** 2 * (count - 3) / (count - 1)) / count
    return mean, var, float(np.sqrt(max(var_of_var, 0.0)))


def standardized_skewness(X: np.ndarray) -> float:
    """Skewness of the standardized per-sample statistic X."""
    with refuse_overflow("the sample skewness of X"):
        _, centered = _centered(X)
        sd = centered.std()
        if sd == 0:
            return 0.0
        return float(np.mean(centered ** 3) / sd ** 3)


def save_batch(batch: SampleBatch, path) -> None:
    """Flat binary: header (magic, version, n, count, seed) + row-major float64.

    An existing file is overwritten in place (``write_in_place``).
    """
    write_in_place(
        path,
        _HEADER.pack(_MAGIC, _VERSION, batch.n, batch.count, batch.seed),
        np.ascontiguousarray(batch.spectra, dtype="<f8"),
    )


def load_batch(path, ensemble: EnsembleSpec) -> SampleBatch:
    """Read a batch written by save_batch; the ensemble is supplied by the caller."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise InvalidParams(
                f"batch file truncated: {len(header)} bytes, the header alone is {_HEADER.size}"
            )
        magic, version, n, count, seed = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise InvalidParams(f"not a batch file: bad magic {magic!r}")
        if version != _VERSION:
            raise InvalidParams(f"unsupported batch version {version}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * count:
        raise InvalidParams("batch file truncated")
    spectra = data.reshape(count, n).copy()
    spectra.setflags(write=False)
    return SampleBatch(ensemble=ensemble, n=int(n), seed=int(seed), spectra=spectra)
