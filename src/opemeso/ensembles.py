"""Ensemble catalog: recurrence coefficients, edge locations, hypothesis checks.

Every supported family exposes the orthonormal three-term recurrence
coefficients (a_{j,n}, b_{j,n}) through :func:`jacobi_window`, the only code
that reads them; :func:`recurrence` is its two-row window.  Families whose
measure is rescaled with the ensemble size n have ``varying=True``; for the
others the coefficients are independent of n.  Each catalog family is one
``_FamilyRecord`` in ``_CATALOG`` (parameters and their checks, the varying
flag, the support end, the a_j and b_j formulas) plus one constructor; a
custom callback becomes a record of the same shape.

Index convention: a_j is the off-diagonal entry coupling rows j-1 and j of
the Jacobi matrix (j >= 1), b_j the diagonal entry of row j (j >= 0), so the
top-left corner of the Jacobi matrix reads [[b_0, a_1], [a_1, b_1, a_2], ...].
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InvalidParams, OutOfDomain, refuse_overflow


class Family(Enum):
    CHEBYSHEV2 = "chebyshev2"
    MODIFIED_JACOBI = "modified_jacobi"
    LAGUERRE = "laguerre"
    HERMITE = "hermite"
    FREUD = "freud"
    TRICOMI_CARLITZ = "tricomi_carlitz"
    KRAWTCHOUK = "krawtchouk"
    HAHN = "hahn"
    LOG_SINGULAR = "log_singular"
    CUSTOM = "custom"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class _FamilyRecord:
    """Everything the code knows about one family.

    ``a(p, j, n)`` is a_{j,n} for j >= 1 and ``b(p, j, n)`` is b_{j,n} for
    j >= 0, with p the spec's params; b defaults to 0.0.  Only
    :func:`jacobi_window` calls them, once it has checked n and the support.
    ``checks`` pairs a range predicate on p with the InvalidParams message
    raised when it fails.  A discrete family's ``support`` is (label, last
    index as a function of (p, n)).  ``determinate(p)`` is None when unknown.
    """

    params: frozenset
    varying: bool
    a: Callable[[dict, int, int], float]
    b: Callable[[dict, int, int], float] = lambda p, j, n: 0.0
    checks: tuple = ()
    support: tuple[str, Callable[[dict, int], float]] | None = None
    determinate: Callable[[dict], bool] = lambda p: True


def _jacobi_a(p, j, n):
    g1, g2 = p["gamma1"], p["gamma2"]
    s = g1 + g2
    if j == 1:
        # the common factor (1+s) of numerator and denominator is
        # cancelled analytically; the raw quotient is 0/0 at s = -1
        return math.sqrt(16 * (1 + g1) * (1 + g2) / ((2 + s) ** 2 * (3 + s)))
    return math.sqrt(
        16 * j * (j + s) * (j + g1) * (j + g2)
        / ((2 * j + s - 1) * (2 * j + s) ** 2 * (2 * j + s + 1))
    )


def _jacobi_b(p, j, n):
    g1, g2 = p["gamma1"], p["gamma2"]
    s = g1 + g2
    if j == 0 and (g1 == g2 or s == 0):
        # (g2^2 - g1^2) / s = g2 - g1 cancels the factor s, which vanishes
        # at s = 0 (0/0) and whose sign would turn g1 = g2 < 0 into -0.0
        return 2 * (g2 - g1) / (s + 2)
    return 2 * (g2 ** 2 - g1 ** 2) / ((2 * j + s) * (2 * j + s + 2))


def _hahn_ac(p, j, n):
    """Textbook Hahn A_j and C_j at alpha = t1 n, beta = t2 n, N = t3 n.

    -x Q_j = A_j Q_{j+1} - (A_j + C_j) Q_j + C_j Q_{j-1} on the sites
    x = 0..N, so b_j = (A_j + C_j)/n and a_j = sqrt(A_{j-1} C_j)/n put the
    spectrum on x/n, the scale Krawtchouk uses.
    """
    aa, bb, big_n = p["t1"] * n, p["t2"] * n, p["t3"] * n
    s = 2 * j + aa + bb
    return (
        (j + aa + bb + 1) * (j + aa + 1) * (big_n - j) / ((s + 1) * (s + 2)),
        j * (j + aa + bb + big_n + 1) * (j + bb) / (s * (s + 1)),
    )


# Asymptotic coefficients for the log(2/(1-x)) weight; the 1/(j^2 log^2 j)
# corrections are dropped at j = 1 where log j = 0, and b_0 takes the value
# of its j = 1 neighbour.

def _log_singular_a(p, j, n):
    return 0.5 - 1 / (16 * j * j) - (3 / (32 * j * j * math.log(j) ** 2) if j > 1 else 0)


def _log_singular_b(p, j, n):
    j = max(j, 1)
    return 1 / (4 * j * j) - (3 / (16 * j * j * math.log(j) ** 2) if j > 1 else 0)


_CATALOG = {
    Family.CHEBYSHEV2: _FamilyRecord(frozenset(), varying=False, a=lambda p, j, n: 1.0),
    Family.MODIFIED_JACOBI: _FamilyRecord(
        frozenset({"gamma1", "gamma2"}), varying=False, a=_jacobi_a, b=_jacobi_b,
        checks=((lambda p: p["gamma1"] > -1 and p["gamma2"] > -1,
                 "modified_jacobi requires gamma1, gamma2 > -1"),),
    ),
    Family.LAGUERRE: _FamilyRecord(
        frozenset({"gamma"}), varying=True,
        a=lambda p, j, n: math.sqrt(j * (j + p["gamma"])) / n,
        b=lambda p, j, n: (2 * j + p["gamma"] + 1) / n,
        checks=((lambda p: p["gamma"] > -1, "laguerre requires gamma > -1"),),
    ),
    Family.HERMITE: _FamilyRecord(frozenset(), varying=True, a=lambda p, j, n: math.sqrt(j / n)),
    # leading term only; the slowly-decaying residual is not available in
    # closed form and is exposed as exactly zero
    Family.FREUD: _FamilyRecord(
        frozenset({"gamma"}), varying=True,
        a=lambda p, j, n: freud_scale_constant(p["gamma"]) * (j / n) ** (1.0 / p["gamma"]),
        checks=((lambda p: p["gamma"] > 0, "freud requires gamma > 0"),),
        determinate=lambda p: p["gamma"] >= 1,
    ),
    Family.TRICOMI_CARLITZ: _FamilyRecord(
        frozenset({"gamma"}), varying=True,
        a=lambda p, j, n: math.sqrt(j * n / ((j + p["gamma"] - 1) * (j + p["gamma"]))),
        checks=((lambda p: p["gamma"] > 1, "tricomi_carlitz requires gamma > 1"),),
    ),
    Family.KRAWTCHOUK: _FamilyRecord(
        frozenset({"p", "t"}), varying=True,
        a=lambda p, j, n: math.sqrt((p["t"] * n - j + 1) * j * p["p"] * (1 - p["p"])) / n,
        b=lambda p, j, n: ((p["t"] * n - j) * p["p"] + j * (1 - p["p"])) / n,
        checks=((lambda p: 0 < p["p"] < 1, "krawtchouk requires p in (0, 1)"),
                (lambda p: p["t"] >= 1, "krawtchouk requires t >= 1 (support K = t*n >= n)")),
        support=("K = t*n", lambda p, n: p["t"] * n),
    ),
    Family.HAHN: _FamilyRecord(
        frozenset({"t1", "t2", "t3"}), varying=True,
        a=lambda p, j, n: math.sqrt(_hahn_ac(p, j - 1, n)[0] * _hahn_ac(p, j, n)[1]) / n,
        b=lambda p, j, n: sum(_hahn_ac(p, j, n)) / n,
        checks=((lambda p: p["t1"] > 0 and p["t2"] > 0, "hahn requires t1, t2 > 0"),
                (lambda p: p["t3"] >= 1, "hahn requires t3 >= 1")),
        support=("N = t3*n", lambda p, n: p["t3"] * n),
    ),
    Family.LOG_SINGULAR: _FamilyRecord(
        frozenset(), varying=False, a=_log_singular_a, b=_log_singular_b
    ),
}


def _finite_real(value) -> bool:
    """A real number, not a bool, with |value| <= the largest float: NaN, inf and larger ints fail."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def _whole(value, refusal: str, least: int = 1, most=math.inf, error=InvalidParams) -> int:
    """value as a Python int: an int or numpy integer, not a bool, in [least, most].  Anything
    else (2.0, "2", None, True, out of range) raises ``error(f"{refusal}, got {value!r}")``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        whole = int(value)
        if least <= whole <= most:
            return whole
    raise error(f"{refusal}, got {value!r}")


def _side(side) -> Side:
    """side when it is a Side; anything else, "left" included, raises InvalidParams."""
    if not isinstance(side, Side):
        raise InvalidParams(f"side must be Side.LEFT or Side.RIGHT, got {side!r}")
    return side


def _edge(edge) -> "EdgeSpec":
    """edge when it is an EdgeSpec; anything else, "right" included, raises InvalidParams."""
    if not isinstance(edge, EdgeSpec):
        raise InvalidParams(f"edge must be an EdgeSpec, got {edge!r}")
    return edge


def _positive_real(value, name: str):
    """value when ``_finite_real`` holds and value > 0; else InvalidParams naming it."""
    if not (_finite_real(value) and value > 0):
        raise InvalidParams(f"{name} must be finite and positive, got {value!r}")
    return value


@dataclass(frozen=True)
class EnsembleSpec:
    """An ensemble family plus its parameters.

    ``coeff_fn`` is only used by ``Family.CUSTOM`` and must be a pure map
    ``(j, n) -> (a, b)``: it is called once per coefficient read (about twice
    per Jacobi row) and must return the same pair every time.  ``record`` is
    the family's ``_FamilyRecord``, a record of the callback for a custom spec.
    Custom specs are rejected by any operation that needs a closed form (JSON
    serialization, the Monte-Carlo sampler).
    """

    family: Family
    params: dict = field(default_factory=dict)
    coeff_fn: Callable[[int, int], tuple[float, float]] | None = None

    def __post_init__(self):
        if self.family is Family.CUSTOM and self.coeff_fn is None:
            raise InvalidParams("custom family requires a coefficient callback")
        record = self.record
        if not isinstance(self.params, dict):
            raise InvalidParams(f"params for {self.family.value} must be a dict")
        object.__setattr__(self, "params", dict(self.params))
        unknown = set(self.params) - record.params
        if unknown:
            raise InvalidParams(f"unknown params for {self.family.value}: {sorted(unknown)}")
        missing = record.params - set(self.params)
        if missing:
            raise InvalidParams(f"missing params for {self.family.value}: {sorted(missing)}")
        for key, value in self.params.items():
            if not _finite_real(value):
                raise InvalidParams(
                    f"{self.family.value} param {key} must be a finite real number, got {value!r}"
                )
        for ok, message in record.checks:
            if not ok(self.params):
                raise InvalidParams(message)

    @property
    def record(self) -> _FamilyRecord:
        """The catalog record, or for a custom spec one that calls coeff_fn per coefficient."""
        fn = self.coeff_fn
        return _CATALOG.get(self.family) or _FamilyRecord(
            frozenset(), varying=True, determinate=lambda p: None,
            a=lambda p, j, n: float(fn(j, n)[0]), b=lambda p, j, n: float(fn(j, n)[1]),
        )

    @property
    def varying(self) -> bool:
        return self.record.varying

    @property
    def moment_determinate(self) -> bool | None:
        """Whether the moment problem of the measure is determinate.

        Metadata only; None for custom callbacks.  Freud is determinate
        exactly when gamma >= 1, all other catalog families are determinate.
        """
        return self.record.determinate(self.params)

    def to_json(self) -> dict:
        if self.family is Family.CUSTOM:
            raise InvalidParams("custom specs cannot be serialized")
        return {"family": self.family.value, "params": dict(self.params)}

    def __str__(self) -> str:
        if not self.params:
            return self.family.value
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.family.value}({inner})"


def from_json(obj: dict) -> EnsembleSpec:
    """Parse {"family": str, "params": {...}}; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise InvalidParams("ensemble spec must be a JSON object")
    extra = set(obj) - {"family", "params"}
    if extra:
        raise InvalidParams(f"unknown keys in ensemble spec: {sorted(extra)}")
    name = obj.get("family")
    try:
        fam = Family(name)
    except ValueError:
        raise InvalidParams(f"unknown family {name!r}") from None
    if fam is Family.CUSTOM:
        raise InvalidParams("custom family cannot be parsed from JSON")
    return EnsembleSpec(fam, obj.get("params", {}))


# Convenience constructors.

def chebyshev2() -> EnsembleSpec:
    return EnsembleSpec(Family.CHEBYSHEV2)


def modified_jacobi(gamma1: float, gamma2: float) -> EnsembleSpec:
    return EnsembleSpec(Family.MODIFIED_JACOBI, {"gamma1": gamma1, "gamma2": gamma2})


def laguerre(gamma: float = 0.0) -> EnsembleSpec:
    return EnsembleSpec(Family.LAGUERRE, {"gamma": gamma})


def hermite() -> EnsembleSpec:
    return EnsembleSpec(Family.HERMITE)


def freud(gamma: float) -> EnsembleSpec:
    return EnsembleSpec(Family.FREUD, {"gamma": gamma})


def tricomi_carlitz(gamma: float) -> EnsembleSpec:
    return EnsembleSpec(Family.TRICOMI_CARLITZ, {"gamma": gamma})


def krawtchouk(p: float, t: float) -> EnsembleSpec:
    return EnsembleSpec(Family.KRAWTCHOUK, {"p": p, "t": t})


def hahn(t1: float, t2: float, t3: float) -> EnsembleSpec:
    return EnsembleSpec(Family.HAHN, {"t1": t1, "t2": t2, "t3": t3})


def log_singular() -> EnsembleSpec:
    return EnsembleSpec(Family.LOG_SINGULAR)


def custom(coeff_fn: Callable[[int, int], tuple[float, float]]) -> EnsembleSpec:
    """A spec reading (a_{j,n}, b_{j,n}) from coeff_fn(j, n), which must be pure."""
    return EnsembleSpec(Family.CUSTOM, {}, coeff_fn=coeff_fn)


def freud_scale_constant(gamma: float) -> float:
    """Leading amplitude of the Freud off-diagonal coefficients.

    a_{j,n} = c * (j/n)^(1/gamma) with
    c = (Gamma(gamma/2) Gamma(1/2) / Gamma((gamma+1)/2))^(1/gamma) / 2.
    """
    g = math.gamma(gamma / 2) * math.gamma(0.5) / math.gamma((gamma + 1) / 2)
    return 0.5 * g ** (1.0 / gamma)


def recurrence(spec: EnsembleSpec, j: int, n: int) -> tuple[float, float]:
    """Return (a_{j,n}, b_{j,n}) for index j >= 1 and ensemble size n >= 1.

    The rows j..j+1 of :func:`jacobi_window`.  For non-varying families the
    result does not depend on n.  Raises OutOfDomain when j leaves the
    support of a discrete family.
    """
    j = _whole(j, "recurrence index must be >= 1", error=OutOfDomain)
    diag, offdiag = jacobi_window(spec, n, j, j + 1)
    return float(offdiag[0]), float(diag[1])


def jacobi_window(spec: EnsembleSpec, n: int, lo: int, hi: int):
    """Diagonal and off-diagonal of rows lo..hi of the Jacobi matrix.

    Returns (diag, offdiag) as float arrays: diag[i] = b_{lo-1+i,n} and
    offdiag[i] = a_{lo+i,n}, matching the TridiagonalMatrix layout for the
    window block (at lo = 1, diag[0] = b_{0,n}).  The window, n >= 1 and a
    discrete family's support end K (a site to rounding; if fractional,
    hi - 1 = floor(K) is refused too, as a_{floor(K)+1} != 0) are checked
    once; then b_{lo-1..hi-1} and a_{lo..hi-1} are read from ``spec.record``,
    and a coefficient that overflows, or is not finite, raises InvalidParams.
    """
    lo = _whole(lo, "window lo must be an integer with 1 <= lo <= hi", error=OutOfDomain)
    hi = _whole(hi, "window hi must be an integer with 1 <= lo <= hi", lo, error=OutOfDomain)
    n = _whole(n, "ensemble size must be >= 1", error=OutOfDomain)
    record, p = spec.record, spec.params
    if record.support is not None:
        label, end = record.support
        last = end(p, n)
        if math.isclose(last, round(last), rel_tol=1e-12):
            last = round(last)  # a whole site: 2.3 * 100 is 229.99999999999997
        elif hi - 1 == math.floor(last):
            raise OutOfDomain(f"{spec.family.value} support ends at the fractional j = {label} "
                              f"= {last:g}; a window ending at j = {hi - 1} is not all of it")
        if hi - 1 > last:
            raise OutOfDomain(f"{spec.family.value} support ends at j = {label} = {last:g}")
    with refuse_overflow(f"a {spec.family.value} coefficient"):
        diag = np.array([record.b(p, j, n) for j in range(lo - 1, hi)], dtype=float)
        offdiag = np.array([record.a(p, j, n) for j in range(lo, hi)], dtype=float)
        if not (np.isfinite(diag).all() and np.isfinite(offdiag).all()):
            raise OverflowError  # a Python float * overflows to inf without raising
    return diag, offdiag


def modified_jacobi_expansion(spec: EnsembleSpec, j: int) -> tuple[float, float]:
    """Large-j expansion of the modified-Jacobi coefficients (comparison mode).

    Valid up to O(j^-3); normalized to the [-2, 2] support used by
    :func:`recurrence`.
    """
    if spec.family is not Family.MODIFIED_JACOBI:
        raise InvalidParams("expansion only defined for modified_jacobi")
    j = _whole(j, "the expansion needs an integer j >= 1")
    g1, g2 = spec.params["gamma1"], spec.params["gamma2"]
    a = 1.0 + (1 - 2 * g1 ** 2 - 2 * g2 ** 2) / (8 * j * j)
    b = (g2 ** 2 - g1 ** 2) / (2 * j * j)
    return a, b


def edge_location(spec: EnsembleSpec, n: int, side: Side) -> float:
    """Exact finite-n fluctuation edge b_{n-1,n} -+ 2 sqrt(|a_{n,n} a_{n-1,n}|).

    The absolute value under the root makes the formula well defined for
    coefficient callbacks with negative off-diagonals; catalog families all
    have positive a.
    """
    n = _whole(n, "edge location needs an integer n >= 2", 2, error=OutOfDomain)
    side = _side(side)
    a_n, _ = recurrence(spec, n, n)
    a_nm1, b_nm1 = recurrence(spec, n - 1, n)
    half_width = 2.0 * math.sqrt(abs(a_n * a_nm1))
    if side is Side.LEFT:
        return b_nm1 - half_width
    return b_nm1 + half_width


@dataclass(frozen=True)
class EdgeSpec:
    """Which edge to zoom on, at which center and mesoscopic exponent.

    ``x0=None`` means "use the exact finite-n edge from edge_location";
    an explicit x0 is the caller's override (valid within o(n^-alpha)).
    """

    side: Side
    alpha: float
    x0: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        _side(self.side)
        if not (_finite_real(self.alpha) and 0 < self.alpha < 2):
            raise InvalidParams(f"alpha must lie in (0, 2), got {self.alpha!r}")
        if self.x0 is not None and not _finite_real(self.x0):
            raise InvalidParams(f"x0 must be finite, got {self.x0!r}")
        eps = self.epsilon
        if eps is None:
            eps = min(0.1, 0.5 * (1 - self.alpha / 2))
            object.__setattr__(self, "epsilon", eps)
        if not (_finite_real(eps) and 0 < eps < 1 - self.alpha / 2):
            raise InvalidParams(
                f"epsilon must lie in (0, 1 - alpha/2) = (0, {1 - self.alpha / 2:g}), got {eps!r}"
            )

    def center(self, spec: EnsembleSpec, n: int) -> float:
        return self.x0 if self.x0 is not None else edge_location(spec, n, self.side)


def hypothesis_window(n: int, alpha: float, epsilon: float) -> tuple[int, int]:
    """Index window [n - n^(alpha/2+eps), n + n^(alpha/2+eps)], clipped at 1."""
    n = _whole(n, "hypothesis window needs an integer n >= 1")
    half = n ** (alpha / 2 + epsilon)
    return max(1, math.ceil(n - half)), math.floor(n + half)


@dataclass(frozen=True)
class HypothesisReport:
    """Scaled slow-variation and cancellation diagnostics over an index window.

    The four scaled maxima correspond to the slow-variation bounds
    (|da|*n, |db|*n) and to the two order-reduction quantities
    (|a_j a_{j-2} - a_{j-1}^2| * n^(alpha+eps) and the x0-shifted
    cross-difference * n^(3 alpha/2 + eps)).  Raw (unscaled) maxima are kept
    so that exact cancellations can be asserted as exact zeros.  The fields,
    in order, are the JSON layout of ``to_json``.
    """

    n: int
    alpha: float
    epsilon: float
    x0: float
    window: tuple[int, int]
    scaled: dict   # max_da, max_db, rec1, rec2
    raw: dict      # rec1, rec2
    bounds: dict   # a_abs_min, a_abs_max, b_abs_max
    thresholds: dict  # keyed "<name>_scaled" for scaled[name]
    flags: dict

    def to_json(self) -> dict:
        return {"schema": 1, **asdict(self)}


_THRESHOLD_FLOOR = 1e-9  # for quantities that vanish identically
_REFERENCE_N = 1000      # default thresholds are 10x the quantities at this n


def _peak(values: np.ndarray) -> float:
    """Largest entry, 0.0 for none."""
    return float(np.max(values, initial=0.0))


def _hypothesis_quantities(spec, n, alpha, epsilon, x0):
    lo, hi = hypothesis_window(n, alpha, epsilon)
    first = max(1, lo - 2)
    diag, a = jacobi_window(spec, n, first, hi + 1)
    b = diag[1:]  # a[i], b[i] are a_j, b_j at j = first + i
    k = lo - first  # the window's rows are i >= k; np.diff(a)[i-1] = a[i] - a[i-1]
    max_da = _peak(np.abs(np.diff(a))[max(k - 1, 0):])
    max_db = _peak(np.abs(np.diff(b))[max(k - 1, 0):])
    rec1 = _peak(np.abs(a[2:] * a[:-2] - a[1:-1] * a[1:-1]))
    rec2 = _peak(
        np.abs((b[1:-1] - x0 - a[2:]) * a[:-2] - (b[:-2] - x0 - a[1:-1]) * a[1:-1])
    )
    abs_a = np.abs(a[k:])
    abs_b = np.abs(b[k:])
    return {
        "window": (lo, hi),
        "scaled": {
            "max_da": max_da * n,
            "max_db": max_db * n,
            "rec1": rec1 * n ** (alpha + epsilon),
            "rec2": rec2 * n ** (1.5 * alpha + epsilon),
        },
        "raw": {"rec1": rec1, "rec2": rec2},
        "bounds": {
            "a_abs_min": float(abs_a.min()),
            "a_abs_max": float(abs_a.max()),
            "b_abs_max": float(abs_b.max()),
        },
    }


def _reference_quantities(spec, n, edge, q):
    """The quantities at _REFERENCE_N, doubled while its window leaves the support.

    A discrete family's support grows like n and the window sublinearly, so a
    larger reference n fits; once the doubling reaches n, the requested n's
    own quantities ``q`` (whose window fits) are the reference.
    """
    ref_n = _REFERENCE_N
    while True:
        try:
            x0_ref = edge.center(spec, ref_n)
            return _hypothesis_quantities(spec, ref_n, edge.alpha, edge.epsilon, x0_ref)
        except OutOfDomain:
            ref_n *= 2
            if ref_n >= n:
                return q


def check_hypotheses(
    spec: EnsembleSpec,
    n: int,
    edge: EdgeSpec,
    thresholds: dict | None = None,
) -> HypothesisReport:
    """Report the slow-variation/cancellation quantities over the mesoscopic window.

    Pure reporting: each scaled quantity is flagged pass/fail against
    ``thresholds`` (defaults to 10x the same quantities measured at
    n = 1000, floored at 1e-9 for identically-zero families; when the
    n = 1000 window leaves a discrete family's support, at the first
    doubling of 1000 whose window fits, or at n itself once the doubling
    reaches it).  In that last case every quantity is checked against 10x
    itself, so the default flags pass trivially and say nothing; pass
    ``thresholds`` explicitly to check such a call.  It is a dict whose keys
    are ``"<name>_scaled"`` for the report's ``scaled[name]`` and whose values
    are finite real numbers; anything else raises InvalidParams.
    Raises OutOfDomain when the window leaves the family's support.
    """
    n = _whole(n, "hypotheses need an integer n >= 1")
    x0 = _edge(edge).center(spec, n)
    q = _hypothesis_quantities(spec, n, edge.alpha, edge.epsilon, x0)

    if thresholds is None:
        ref = _reference_quantities(spec, n, edge, q)["scaled"]
        thresholds = {
            f"{name}_scaled": max(10.0 * value, _THRESHOLD_FLOOR) for name, value in ref.items()
        }
    if not isinstance(thresholds, dict):
        raise InvalidParams(f"thresholds must be a dict, got {type(thresholds).__name__}")
    names = {f"{name}_scaled": name for name in q["scaled"]}
    for key, value in thresholds.items():
        if key not in names:
            raise InvalidParams(f"unknown threshold {key!r}; expected one of {sorted(names)}")
        if not _finite_real(value):
            raise InvalidParams(f"threshold {key} must be a finite real number, got {value!r}")
    flags = {key: q["scaled"][names[key]] <= value for key, value in thresholds.items()}
    return HypothesisReport(
        n=n,
        alpha=edge.alpha,
        epsilon=edge.epsilon,
        x0=x0,
        thresholds=thresholds,
        flags=flags,
        **q,
    )


def laguerre_rec2_exact_fraction(j: int, n: int) -> Fraction:
    """Exact-rational value of the rec2 cancellation for Laguerre gamma=0, x0=0.

    Independent oracle for the 'vanishes identically' property: with
    a_j = j/n and b_j = (2j+1)/n the cross-difference is exactly zero.
    """
    a = lambda i: Fraction(i, n)
    b = lambda i: Fraction(2 * i + 1, n)
    return (b(j - 1) - a(j)) * a(j - 2) - (b(j - 2) - a(j - 1)) * a(j - 1)
