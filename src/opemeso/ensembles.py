"""Ensemble catalog: recurrence coefficients, edge locations, hypothesis checks.

Every supported family exposes the orthonormal three-term recurrence
coefficients (a_{j,n}, b_{j,n}) through :func:`recurrence`.  Families whose
measure is rescaled with the ensemble size n have ``varying=True``; for the
others the coefficients are independent of n.

Index convention: a_j is the off-diagonal entry coupling rows j-1 and j of
the Jacobi matrix (j >= 1), b_j the diagonal entry of row j (j >= 0), so the
top-left corner of the Jacobi matrix reads [[b_0, a_1], [a_1, b_1, a_2], ...].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InvalidParams, OutOfDomain


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


# Allowed parameter keys per family; unknown keys are rejected.
_PARAM_KEYS = {
    Family.CHEBYSHEV2: frozenset(),
    Family.MODIFIED_JACOBI: frozenset({"gamma1", "gamma2"}),
    Family.LAGUERRE: frozenset({"gamma"}),
    Family.HERMITE: frozenset(),
    Family.FREUD: frozenset({"gamma"}),
    Family.TRICOMI_CARLITZ: frozenset({"gamma"}),
    Family.KRAWTCHOUK: frozenset({"p", "t"}),
    Family.HAHN: frozenset({"t1", "t2", "t3"}),
    Family.LOG_SINGULAR: frozenset(),
}

_VARYING = {
    Family.CHEBYSHEV2: False,
    Family.MODIFIED_JACOBI: False,
    Family.LAGUERRE: True,
    Family.HERMITE: True,
    Family.FREUD: True,
    Family.TRICOMI_CARLITZ: True,
    Family.KRAWTCHOUK: True,
    Family.HAHN: True,
    Family.LOG_SINGULAR: False,
}


@dataclass(frozen=True)
class EnsembleSpec:
    """An ensemble family plus its parameters.

    ``coeff_fn`` is only used by ``Family.CUSTOM`` and must map
    ``(j, n) -> (a, b)``.  Custom specs are rejected by any operation that
    needs a closed form (JSON serialization, the Monte-Carlo sampler).
    """

    family: Family
    params: dict = field(default_factory=dict)
    coeff_fn: Callable[[int, int], tuple[float, float]] | None = None

    def __post_init__(self):
        if self.family is Family.CUSTOM:
            if self.coeff_fn is None:
                raise InvalidParams("custom family requires a coefficient callback")
            return
        allowed = _PARAM_KEYS[self.family]
        unknown = set(self.params) - allowed
        if unknown:
            raise InvalidParams(
                f"unknown params for {self.family.value}: {sorted(unknown)}"
            )
        missing = allowed - set(self.params)
        if missing:
            raise InvalidParams(
                f"missing params for {self.family.value}: {sorted(missing)}"
            )
        p = self.params
        if self.family is Family.LAGUERRE and not p["gamma"] > -1:
            raise InvalidParams("laguerre requires gamma > -1")
        if self.family is Family.MODIFIED_JACOBI and not (
            p["gamma1"] > -1 and p["gamma2"] > -1
        ):
            raise InvalidParams("modified_jacobi requires gamma1, gamma2 > -1")
        if self.family is Family.FREUD and not p["gamma"] > 0:
            raise InvalidParams("freud requires gamma > 0")
        if self.family is Family.TRICOMI_CARLITZ and not p["gamma"] > 1:
            raise InvalidParams("tricomi_carlitz requires gamma > 1")
        if self.family is Family.KRAWTCHOUK:
            if not 0 < p["p"] < 1:
                raise InvalidParams("krawtchouk requires p in (0, 1)")
            if not p["t"] >= 1:
                raise InvalidParams("krawtchouk requires t >= 1 (support K = t*n >= n)")
        if self.family is Family.HAHN:
            if not (p["t1"] > 0 and p["t2"] > 0):
                raise InvalidParams("hahn requires t1, t2 > 0")
            if not p["t3"] >= 1:
                raise InvalidParams("hahn requires t3 >= 1")

    @property
    def varying(self) -> bool:
        if self.family is Family.CUSTOM:
            return True
        return _VARYING[self.family]

    @property
    def moment_determinate(self) -> bool | None:
        """Whether the moment problem of the measure is determinate.

        Metadata only; None for custom callbacks.  Freud is determinate
        exactly when gamma >= 1, all other catalog families are determinate.
        """
        if self.family is Family.CUSTOM:
            return None
        if self.family is Family.FREUD:
            return self.params["gamma"] >= 1
        return True

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
    return EnsembleSpec(fam, dict(obj.get("params", {})))


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

    For non-varying families the result does not depend on n.  Raises
    OutOfDomain when j leaves the support of a discrete family.
    """
    if j < 1:
        raise OutOfDomain(f"recurrence index must be >= 1, got {j}")
    if n < 1:
        raise OutOfDomain(f"ensemble size must be >= 1, got {n}")
    fam = spec.family
    p = spec.params

    if fam is Family.CUSTOM:
        a, b = spec.coeff_fn(j, n)
        return float(a), float(b)

    if fam is Family.CHEBYSHEV2:
        return 1.0, 0.0

    if fam is Family.MODIFIED_JACOBI:
        g1, g2 = p["gamma1"], p["gamma2"]
        s = g1 + g2
        if j == 1:
            # the common factor (1+s) of numerator and denominator is
            # cancelled analytically; the raw quotient is 0/0 at s = -1
            a2 = 16 * (1 + g1) * (1 + g2) / ((2 + s) ** 2 * (3 + s))
        else:
            a2 = (
                16 * j * (j + s) * (j + g1) * (j + g2)
                / ((2 * j + s - 1) * (2 * j + s) ** 2 * (2 * j + s + 1))
            )
        b = 2 * (g2 ** 2 - g1 ** 2) / ((2 * j + s) * (2 * j + s + 2))
        return math.sqrt(a2), b

    if fam is Family.LAGUERRE:
        g = p["gamma"]
        return math.sqrt(j * (j + g)) / n, (2 * j + g + 1) / n

    if fam is Family.HERMITE:
        return math.sqrt(j / n), 0.0

    if fam is Family.FREUD:
        g = p["gamma"]
        # leading term only; the slowly-decaying residual is not available in
        # closed form and is exposed as exactly zero
        return freud_scale_constant(g) * (j / n) ** (1.0 / g), 0.0

    if fam is Family.TRICOMI_CARLITZ:
        g = p["gamma"]
        return math.sqrt(j * n / ((j + g - 1) * (j + g))), 0.0

    if fam is Family.KRAWTCHOUK:
        pp, t = p["p"], p["t"]
        big_k = t * n
        if j > big_k:
            raise OutOfDomain(f"krawtchouk support ends at j = K = t*n = {big_k:g}")
        a = math.sqrt((big_k - j + 1) * j * pp * (1 - pp)) / n
        b = ((big_k - j) * pp + j * (1 - pp)) / n
        return a, b

    if fam is Family.HAHN:
        aa, bb, big_n = p["t1"] * n, p["t2"] * n, p["t3"] * n
        if j > big_n:
            raise OutOfDomain(f"hahn support ends at j = N = t3*n = {big_n:g}")
        # Coefficients as printed in the source material.  The diagonal's
        # (2j+a+b+N+1) factor is dimensionally inconsistent with the standard
        # Hahn recurrence; see README ("Known quirks") and the weight-based
        # cross-check in the tests.
        s = 2 * j + aa + bb
        a = (
            j * (j + aa + bb + big_n + 1) * (j + bb) / (big_n * s * (s + 1))
        ) * math.sqrt(
            (big_n - j) * (j + aa + bb) * (aa + j) * (s + 1)
            / (j * (j + aa + bb + big_n + 1) * (bb + j) * (s - 1))
        )
        b = (
            (big_n - j) * (j + aa + bb + 1) * (j + aa + 1)
            / (big_n * (s + big_n + 1) * (s + 2))
        )
        return a, b

    if fam is Family.LOG_SINGULAR:
        # asymptotic coefficients for the log(2/(1-x)) weight; the
        # 1/(j^2 log^2 j) corrections are dropped at j = 1 where log j = 0
        lg2 = math.log(j) ** 2
        a = 0.5 - 1 / (16 * j * j)
        b = 1 / (4 * j * j)
        if j > 1:
            a -= 3 / (32 * j * j * lg2)
            b -= 3 / (16 * j * j * lg2)
        return a, b

    raise InvalidParams(f"unhandled family {fam}")


def _diagonal_b(spec: EnsembleSpec, j: int, n: int) -> float:
    """Diagonal coefficient b_{j,n} for j >= 0 (row j+1 of the Jacobi matrix).

    recurrence() covers j >= 1; the closed forms extend to j = 0 for every
    family except LOG_SINGULAR, whose asymptotic formula is singular there
    and is filled with its j = 1 neighbour.
    """
    if j >= 1:
        return recurrence(spec, j, n)[1]
    if j < 0:
        raise OutOfDomain("diagonal index must be >= 0")
    fam = spec.family
    p = spec.params
    if fam is Family.CUSTOM:
        return float(spec.coeff_fn(0, n)[1])
    if fam in (Family.CHEBYSHEV2, Family.HERMITE, Family.FREUD, Family.TRICOMI_CARLITZ):
        return 0.0
    if fam is Family.MODIFIED_JACOBI:
        g1, g2 = p["gamma1"], p["gamma2"]
        s = g1 + g2
        if g1 == g2:
            return 0.0
        if s == 0:
            # (g2^2 - g1^2) / s = g2 - g1 cancels the vanishing factor
            return 2 * (g2 - g1) / (s + 2)
        return 2 * (g2 ** 2 - g1 ** 2) / (s * (s + 2))
    if fam is Family.LAGUERRE:
        return (p["gamma"] + 1) / n
    if fam is Family.KRAWTCHOUK:
        return p["t"] * p["p"]
    if fam is Family.HAHN:
        aa, bb, big_n = p["t1"] * n, p["t2"] * n, p["t3"] * n
        return big_n * (aa + bb + 1) * (aa + 1) / (
            big_n * (aa + bb + big_n + 1) * (aa + bb + 2)
        )
    if fam is Family.LOG_SINGULAR:
        return 0.25  # nearest-neighbour fill; the asymptotics start at j = 1
    raise InvalidParams(f"unhandled family {fam}")


def jacobi_window(spec: EnsembleSpec, n: int, lo: int, hi: int):
    """Diagonal and off-diagonal of rows lo..hi of the Jacobi matrix.

    Returns (diag, offdiag) as float arrays: diag[i] = b_{lo-1+i,n} and
    offdiag[i] = a_{lo+i,n}, matching the TridiagonalMatrix layout for the
    window block.
    """
    if not 1 <= lo <= hi:
        raise OutOfDomain(f"window ({lo}, {hi}) must satisfy 1 <= lo <= hi")
    diag = np.empty(hi - lo + 1)
    offdiag = np.empty(hi - lo)
    diag[0] = _diagonal_b(spec, lo - 1, n)
    for j in range(lo, hi):
        a, b = recurrence(spec, j, n)
        offdiag[j - lo] = a
        diag[j - lo + 1] = b
    return diag, offdiag


def modified_jacobi_expansion(spec: EnsembleSpec, j: int) -> tuple[float, float]:
    """Large-j expansion of the modified-Jacobi coefficients (comparison mode).

    Valid up to O(j^-3); normalized to the [-2, 2] support used by
    :func:`recurrence`.
    """
    if spec.family is not Family.MODIFIED_JACOBI:
        raise InvalidParams("expansion only defined for modified_jacobi")
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
    if n < 2:
        raise OutOfDomain("edge location needs n >= 2")
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
        if not 0 < self.alpha < 2:
            raise InvalidParams(f"alpha must lie in (0, 2), got {self.alpha}")
        eps = self.epsilon
        if eps is None:
            eps = min(0.1, 0.5 * (1 - self.alpha / 2))
            object.__setattr__(self, "epsilon", eps)
        if not 0 < eps < 1 - self.alpha / 2:
            raise InvalidParams(
                f"epsilon must lie in (0, 1 - alpha/2) = (0, {1 - self.alpha / 2:g}), got {eps}"
            )

    def center(self, spec: EnsembleSpec, n: int) -> float:
        return self.x0 if self.x0 is not None else edge_location(spec, n, self.side)


def hypothesis_window(n: int, alpha: float, epsilon: float) -> tuple[int, int]:
    """Index window [n - n^(alpha/2+eps), n + n^(alpha/2+eps)], clipped at 1."""
    half = n ** (alpha / 2 + epsilon)
    return max(1, math.ceil(n - half)), math.floor(n + half)


@dataclass(frozen=True)
class HypothesisReport:
    """Scaled slow-variation and cancellation diagnostics over an index window.

    The four scaled maxima correspond to the slow-variation bounds
    (|da|*n, |db|*n) and to the two order-reduction quantities
    (|a_j a_{j-2} - a_{j-1}^2| * n^(alpha+eps) and the x0-shifted
    cross-difference * n^(3 alpha/2 + eps)).  Raw (unscaled) maxima are kept
    so that exact cancellations can be asserted as exact zeros.
    """

    n: int
    alpha: float
    epsilon: float
    x0: float
    window: tuple[int, int]
    max_da_scaled: float
    max_db_scaled: float
    rec1_scaled: float
    rec2_scaled: float
    rec1_raw: float
    rec2_raw: float
    a_abs_min: float
    a_abs_max: float
    b_abs_max: float
    thresholds: dict
    flags: dict

    @property
    def all_pass(self) -> bool:
        return all(self.flags.values())

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "x0": self.x0,
            "window": list(self.window),
            "scaled": {
                "max_da": self.max_da_scaled,
                "max_db": self.max_db_scaled,
                "rec1": self.rec1_scaled,
                "rec2": self.rec2_scaled,
            },
            "raw": {"rec1": self.rec1_raw, "rec2": self.rec2_raw},
            "bounds": {
                "a_abs_min": self.a_abs_min,
                "a_abs_max": self.a_abs_max,
                "b_abs_max": self.b_abs_max,
            },
            "thresholds": dict(self.thresholds),
            "flags": dict(self.flags),
        }


_THRESHOLD_FLOOR = 1e-9  # for quantities that vanish identically
_REFERENCE_N = 1000      # default thresholds are 10x the quantities at this n


def _hypothesis_quantities(spec, n, alpha, epsilon, x0):
    lo, hi = hypothesis_window(n, alpha, epsilon)
    coeffs = {j: recurrence(spec, j, n) for j in range(max(1, lo - 2), hi + 1)}

    def a(j):
        return coeffs[j][0]

    def b(j):
        return coeffs[j][1]

    max_da = max_db = 0.0
    rec1 = rec2 = 0.0
    for j in range(lo, hi + 1):
        if j - 1 in coeffs:
            max_da = max(max_da, abs(a(j) - a(j - 1)))
            max_db = max(max_db, abs(b(j) - b(j - 1)))
        if j - 2 in coeffs:
            rec1 = max(rec1, abs(a(j) * a(j - 2) - a(j - 1) ** 2))
            rec2 = max(
                rec2,
                abs(
                    (b(j - 1) - x0 - a(j)) * a(j - 2)
                    - (b(j - 2) - x0 - a(j - 1)) * a(j - 1)
                ),
            )
    abs_a = [abs(a(j)) for j in range(lo, hi + 1)]
    abs_b = [abs(b(j)) for j in range(lo, hi + 1)]
    return {
        "window": (lo, hi),
        "max_da_scaled": max_da * n,
        "max_db_scaled": max_db * n,
        "rec1_scaled": rec1 * n ** (alpha + epsilon),
        "rec2_scaled": rec2 * n ** (1.5 * alpha + epsilon),
        "rec1_raw": rec1,
        "rec2_raw": rec2,
        "a_abs_min": min(abs_a),
        "a_abs_max": max(abs_a),
        "b_abs_max": max(abs_b),
    }


def check_hypotheses(
    spec: EnsembleSpec,
    n: int,
    edge: EdgeSpec,
    thresholds: dict | None = None,
) -> HypothesisReport:
    """Report the slow-variation/cancellation quantities over the mesoscopic window.

    Pure reporting: each scaled quantity is flagged pass/fail against
    ``thresholds`` (defaults to 10x the same quantities measured at
    n = 1000, floored at 1e-9 for identically-zero families).
    Raises OutOfDomain when the window leaves the family's support.
    """
    x0 = edge.center(spec, n)
    q = _hypothesis_quantities(spec, n, edge.alpha, edge.epsilon, x0)

    if thresholds is None:
        x0_ref = edge.center(spec, _REFERENCE_N)
        ref = _hypothesis_quantities(spec, _REFERENCE_N, edge.alpha, edge.epsilon, x0_ref)
        thresholds = {
            key: max(10.0 * ref[key], _THRESHOLD_FLOOR)
            for key in ("max_da_scaled", "max_db_scaled", "rec1_scaled", "rec2_scaled")
        }

    flags = {key: q[key] <= thresholds[key] for key in thresholds}
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
