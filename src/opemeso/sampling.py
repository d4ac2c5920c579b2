"""Monte-Carlo cross-validation via tridiagonal matrix models.

Gaussian (Hermite weight) and Wishart-type (Laguerre weight) spectra are
sampled exactly in law from their beta = 2 tridiagonal models, one symmetric
eigensolve per sample.  Every sample owns a counter-based RNG stream keyed by
(seed, sample index), so batches are bit-identical across runs and can be
resumed from any index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .ensembles import EdgeSpec, EnsembleSpec, Family
from .errors import InvalidParams, Unsupported

_MAGIC = b"OPEBATCH"
_VERSION = 1
_HEADER = struct.Struct("<8sIQQQ")  # magic, version, n, count, seed
_MAX_ENTRIES = 10 ** 7  # largest count * n; `opemeso sample` peaks near 50 B per entry

__all__ = ["SampleBatch", "sample_spectra", "empirical_statistic", "save_batch", "load_batch"]


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


def _hermite_spectrum(n: int, rng: np.random.Generator) -> np.ndarray:
    # diagonal ~ Normal(0, 2), off-diagonal k ~ chi with 2(n-k) dof, both
    # divided by sqrt(2n); spectrum concentrates on [-2, 2]
    scale = 1.0 / np.sqrt(2.0 * n)
    diag = rng.normal(0.0, np.sqrt(2.0), size=n) * scale
    dof = 2.0 * (n - np.arange(1, n))
    off = np.sqrt(rng.chisquare(dof)) * scale
    return eigh_tridiagonal(diag, off, eigvals_only=True)


def _laguerre_spectrum(n: int, gamma: float, rng: np.random.Generator) -> np.ndarray:
    # lower-bidiagonal factor B with chi entries; B B^T is tridiagonal and its
    # eigenvalues, divided by 2n, follow the x^gamma e^{-nx} weight ensemble
    # with spectrum concentrating on [0, 4]
    i = np.arange(1, n + 1)
    d = np.sqrt(rng.chisquare(2.0 * (n + gamma - i + 1)))
    s = np.sqrt(rng.chisquare(2.0 * (n - i[:-1])))
    diag = d ** 2
    diag[1:] += s ** 2
    off = d[1:] * s
    vals = eigh_tridiagonal(diag / (2.0 * n), off / (2.0 * n), eigvals_only=True)
    return vals


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
    """
    if ensemble.family not in (Family.HERMITE, Family.LAGUERRE):
        raise Unsupported(f"no matrix model for family {ensemble.family.value}")
    if not 1 <= n <= 2000:
        raise InvalidParams("sampler supports 1 <= n <= 2000")
    if not 1 <= count <= 10 ** 6:
        raise InvalidParams("sampler supports 1 <= count <= 1e6")
    if count * n > _MAX_ENTRIES:
        raise InvalidParams(f"sampler supports count * n <= 1e7, got {count} * {n}")
    if seed < 0 or seed >= 2 ** 64:
        raise InvalidParams("seed must fit in 64 unsigned bits")
    gamma = ensemble.params.get("gamma", 0.0)
    if ensemble.family is Family.LAGUERRE and gamma < 0:
        raise Unsupported("laguerre sampler requires gamma >= 0")

    spectra = np.empty((count, n))
    for i in range(count):
        rng = _stream(seed, start_index + i)
        if ensemble.family is Family.HERMITE:
            spectra[i] = _hermite_spectrum(n, rng)
        else:
            spectra[i] = _laguerre_spectrum(n, gamma, rng)
    spectra.setflags(write=False)
    return SampleBatch(ensemble=ensemble, n=n, seed=seed, spectra=spectra)


def _statistic(batch: SampleBatch, f, edge: EdgeSpec) -> np.ndarray:
    """Per-sample X = sum_i f(n^alpha (lambda_i - x0))."""
    n_alpha = float(batch.n) ** edge.alpha
    x0 = edge.center(batch.ensemble, batch.n)
    return np.asarray(f(n_alpha * (batch.spectra - x0))).sum(axis=1)


def empirical_statistic(
    batch: SampleBatch, f, edge: EdgeSpec
) -> tuple[float, float, float]:
    """Per-sample X = sum_i f(n^alpha (lambda_i - x0)); mean, variance, SE.

    Returns the sample mean, the unbiased sample variance, and the standard
    error of that variance from the fourth central moment.
    """
    if batch.count == 0:
        raise InvalidParams("empty batch")
    X = _statistic(batch, f, edge)
    count = len(X)
    mean = float(X.mean())
    if count < 2:
        return mean, 0.0, 0.0
    centered = X - mean
    var = float(np.sum(centered ** 2) / (count - 1))
    m4 = float(np.mean(centered ** 4))
    var_of_var = (m4 - var ** 2 * (count - 3) / (count - 1)) / count
    return mean, var, float(np.sqrt(max(var_of_var, 0.0)))


def standardized_skewness(batch: SampleBatch, f, edge: EdgeSpec) -> float:
    """Skewness of the standardized linear statistic over the batch."""
    X = _statistic(batch, f, edge)
    centered = X - X.mean()
    sd = centered.std()
    if sd == 0:
        return 0.0
    return float(np.mean(centered ** 3) / sd ** 3)


def save_batch(batch: SampleBatch, path) -> None:
    """Flat binary: header (magic, version, n, count, seed) + row-major float64."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, batch.n, batch.count, batch.seed))
        fh.write(np.ascontiguousarray(batch.spectra, dtype="<f8").tobytes())


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
