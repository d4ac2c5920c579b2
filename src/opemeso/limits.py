"""Limiting variances, the weighted Lipschitz norm, and rational approximation.

The limiting edge variance of a mesoscopic linear statistic is

    sigma_f^2 = (1/8 pi^2) integral ((f(s x^2) - f(s y^2)) / (x - y))^2 dx dy

with s = +1 at the left edge and s = -1 at the right edge.  Two independent
routes are provided: adaptive double quadrature for arbitrary decaying f, and
the exact residue sum for rational test functions.  The quadrature integrates
over a truncated square [-L, L]^2 whose half-width follows from a rigorous
tail bound of the integrand by the weighted Lipschitz norm; a tangent change
of variables makes composite Gauss-Legendre panels efficient on that square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensembles import Side
from .errors import IllConditioned, InvalidParams, NoConvergence
from .testfun import ResolventTestFunction

__all__ = [
    "LimitVariance",
    "sigma2_quadrature",
    "sigma2_residue",
    "pi_squared_check",
    "weighted_lipschitz_norm",
    "fit_resolvent_approximation",
]

_WEIGHT_INTEGRAL = math.pi / math.sqrt(2)  # int dx / (1+x^4) = int x^2 dx / (1+x^4)
_DERIV_STEP = 1e-4         # relative step of the 5-point central difference
_GL_DEGREE = 12            # Gauss-Legendre nodes per panel
_MAX_LEVEL = 9             # panel refinement stops at 2^9 panels per axis
_PI_SQUARED_TOL = 1e-7
_FIT_GRID_POINTS = 2000
_MAX_POLES = 1000          # the fit's design matrix is ~4800 x M float64: 38 MB at the cap


@dataclass(frozen=True)
class LimitVariance:
    """A limiting variance value with its provenance and error estimate."""

    value: float
    method: str              # "quadrature" or "residue"
    side: Side
    est_error: float

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "value": self.value,
            "method": self.method,
            "side": self.side.value,
            "est_error": self.est_error,
        }


def _gl_panels(a: float, b: float, n_panels: int):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x0, w0 = np.polynomial.legendre.leggauss(_GL_DEGREE)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def _double_integral_tan(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    halfwidth: float,
    tol: float,
) -> tuple[float, float]:
    """Integrate integrand(x, y) over [-L, L]^2 via x = tan(theta) panels.

    Doubles the panel count until two successive values agree to tol/2;
    returns (value, |last refinement step|).  Raises NoConvergence when the
    refinement stalls.
    """
    theta_max = math.atan(halfwidth)
    prev = None
    diff = math.inf
    value = math.nan
    for level in range(2, _MAX_LEVEL + 1):
        theta, w = _gl_panels(-theta_max, theta_max, 2 ** level)
        x = np.tan(theta)
        wx = w / np.cos(theta) ** 2
        total = 0.0
        chunk = max(1, 2 ** 22 // len(x))
        for start in range(0, len(x), chunk):
            block = integrand(x[start : start + chunk, None], x[None, :])
            total += float(wx[start : start + chunk] @ block @ wx)
        value = total
        if prev is not None:
            diff = abs(value - prev)
            if diff < tol / 2:
                return value, diff
        prev = value
    raise NoConvergence(
        f"refinement stalled at |delta| = {diff:.3g} > tol/2 = {tol / 2:.3g}"
    )


def _derivative(f, x):
    """f'(x): analytic for pole/weight test functions, else 5-point central differences."""
    if isinstance(f, ResolventTestFunction):
        return f.derivative(x)
    h = _DERIV_STEP * (1 + np.abs(x))
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def weighted_lipschitz_norm(
    f: Callable[[np.ndarray], np.ndarray],
    grid: int | np.ndarray = 2001,
) -> float:
    """sup over pairs of sqrt(1+x^2) sqrt(1+y^2) |f(x)-f(y)| / |x-y| on a grid.

    The diagonal is filled with (1+x^2)|f'(x)|, the derivative taken
    analytically for pole/weight test functions and by 5-point central
    differences (relative step 1e-4) otherwise.  An integer ``grid`` selects
    that many tangent-spaced points covering the real line out to ~1e6, which
    also captures the pairs-at-infinity limit sup sqrt(1+y^2)|f(y)|.
    """
    if isinstance(grid, (int, np.integer)):
        theta = np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, int(grid))
        xs = np.tan(theta)
    else:
        xs = np.asarray(grid, dtype=float)
    fx = np.asarray(f(xs), dtype=float)
    w = np.sqrt(1 + xs ** 2)
    diff = np.abs(fx[:, None] - fx[None, :])
    dist = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(dist, 1.0)
    quot = diff / dist * w[:, None] * w[None, :]
    np.fill_diagonal(quot, 0.0)
    off_sup = float(quot.max())

    diag_sup = float(np.max((1 + xs ** 2) * np.abs(_derivative(f, xs))))
    return max(off_sup, diag_sup)


def _tail_bound(halfwidth: float, lw_norm: float) -> float:
    """Tail of the variance integral outside [-L, L]^2.

    The integrand is dominated by lw^2 (x+y)^2 / ((1+x^4)(1+y^4)); each of
    the four strips beyond the square contributes at most
    lw^2 (I0 * 2/L + I2 * 2/(3 L^3)) with I0 = I2 = pi/sqrt(2), all divided
    by the 8 pi^2 prefactor.
    """
    return lw_norm ** 2 * _tail_strips(halfwidth) / (8 * math.pi ** 2)


def _tail_strips(halfwidth: float) -> float:
    """Sum over the four strips beyond [-L, L]^2 of I0 * 2/L + I2 * 2/(3 L^3)."""
    return 4 * _WEIGHT_INTEGRAL * (2 / halfwidth + 2 / (3 * halfwidth ** 3))


def _variance_integrand(f, s: float):
    def g(x):
        return f(s * x * x)

    def gprime(x):
        return 2 * s * x * _derivative(f, s * x * x)

    def integrand(X, Y):
        gx = g(X)
        gy = g(Y)
        D = X - Y
        near = np.abs(D) < 1e-7 * (1 + np.abs(X))
        D_safe = np.where(near, 1.0, D)
        Q = (gx - gy) / D_safe
        if near.any():
            mid = np.where(near, 0.5 * (X + Y), 1.0)
            Q = np.where(near, gprime(mid), Q)
        return Q * Q

    return integrand


def sigma2_quadrature(f, side: Side, tol: float = 1e-7) -> LimitVariance:
    """Limiting edge variance of f by adaptive double quadrature.

    ``f`` is any real function decaying at infinity (rational or compactly
    supported).  The truncation half-width is the value that makes the
    weighted-Lipschitz tail bound contribute at most tol/10.
    """
    s = 1.0 if side is Side.LEFT else -1.0
    lw_norm = weighted_lipschitz_norm(f)
    halfwidth = 50.0
    while _tail_bound(halfwidth, lw_norm) > tol / 10:
        halfwidth *= 2
    integrand = _variance_integrand(f, s)
    raw, diff = _double_integral_tan(integrand, halfwidth, tol * 8 * math.pi ** 2)
    value = raw / (8 * math.pi ** 2)
    est = diff / (8 * math.pi ** 2) + _tail_bound(halfwidth, lw_norm)
    return LimitVariance(value=value, method="quadrature", side=side, est_error=est)


def sigma2_residue(f: ResolventTestFunction, side: Side) -> LimitVariance:
    """Exact limiting edge variance of a rational test function.

    Closed form sum_{r,s} c_r c_s / (4 rho_r rho_s (rho_r + rho_s)^2) with
    rho_r the principal square root of -eta_r (left edge) or +eta_r (right
    edge), summed over the conjugate-closed pole expansion.
    """
    c, eta = f.expanded()
    rho = np.sqrt(-eta) if side is Side.LEFT else np.sqrt(eta)
    denom = 4.0 * np.outer(rho, rho) * (rho[:, None] + rho[None, :]) ** 2
    total = complex(np.sum(np.outer(c, c) / denom))
    est = abs(total.imag) + 8 * np.finfo(float).eps * abs(total.real)
    return LimitVariance(value=total.real, method="residue", side=side, est_error=est)


def pi_squared_check(domain_halfwidth: float | None = None) -> float:
    """Quadrature of the normalization integral whose exact value is pi^2.

    integral over R^2 of ((x+y) / (sqrt(x^4+1) sqrt(y^4+1)))^2 dx dy, to
    tolerance 1e-7.  The default truncation half-width follows the same tail
    rule as the variance quadrature; a deliberately small ``domain_halfwidth``
    exposes the truncation error (used by tests to guard against silent
    truncation).
    """

    def integrand(X, Y):
        return (X + Y) ** 2 / ((1 + X ** 4) * (1 + Y ** 4))

    if domain_halfwidth is None:
        target = _PI_SQUARED_TOL / 10
        halfwidth = 50.0
        while _tail_strips(halfwidth) > target:
            halfwidth *= 2
    else:
        halfwidth = float(domain_halfwidth)
    value, _ = _double_integral_tan(integrand, halfwidth, _PI_SQUARED_TOL)
    return value


def fit_resolvent_approximation(
    f: Callable[[np.ndarray], np.ndarray],
    M: int,
    pole_height: float = 0.25,
    support: tuple[float, float] | None = None,
) -> tuple[ResolventTestFunction, float]:
    """Fit f by Im sum_r d_r / (x - lambda_r) with fixed poles, linear least squares.

    Poles sit at height ``pole_height`` above a uniform grid spanning an
    interval 1.5x the support of f; on a 2000-point grid the weights solve a
    weighted linear least-squares problem combining value rows (weight
    sqrt(1+x^2), which controls the pairs-at-infinity part of the weighted
    Lipschitz norm) and consecutive difference-quotient rows (weight
    sqrt(1+x_i^2) sqrt(1+x_{i+1}^2), the norm's seminorm part).  Returns the
    fitted test function and its achieved weighted-Lipschitz distance to f.

    Raises IllConditioned when the design matrix condition exceeds 1e12
    (reduce M or raise pole_height).
    """
    if M < 1:
        raise InvalidParams("need at least one pole")
    if M > _MAX_POLES:
        raise InvalidParams(f"fit supports at most {_MAX_POLES} poles, got {M}")
    if pole_height <= 0:
        raise InvalidParams("pole height must be positive")
    if support is None:
        scan = np.linspace(-100, 100, 20001)
        vals = np.abs(np.asarray(f(scan), dtype=float))
        big = scan[vals > 1e-12 * vals.max()]
        if big.size == 0:
            raise InvalidParams("cannot detect support: f vanishes on the scan grid")
        support = (float(big.min()), float(big.max()))
    lo, hi = support
    center = 0.5 * (lo + hi)
    half = max(0.5 * (hi - lo), 1e-6)
    if M == 1:
        pole_xs = np.array([center])
    else:
        pole_xs = np.linspace(center - 1.5 * half, center + 1.5 * half, M)
    poles = pole_xs + 1j * pole_height

    # fit grid: dense inside 3x the support, tangent-spaced far field
    n_core = int(0.8 * _FIT_GRID_POINTS)
    xs_core = np.linspace(center - 3 * half, center + 3 * half, n_core)
    theta = np.linspace(0.1, math.pi / 2 - 1e-4, _FIT_GRID_POINTS - n_core)
    far = 3 * half * np.tan(theta)
    xs = np.sort(np.concatenate([xs_core, center + far, center - far]))

    basis = np.imag(1.0 / (xs[:, None] - poles[None, :]))
    target = np.asarray(f(xs), dtype=float)
    w_val = np.sqrt(1 + xs ** 2)
    dx = np.diff(xs)
    w_diff = np.sqrt(1 + xs[:-1] ** 2) * np.sqrt(1 + xs[1:] ** 2)
    rows_val = basis * w_val[:, None]
    rows_diff = (basis[1:, :] - basis[:-1, :]) / dx[:, None] * w_diff[:, None]
    A = np.vstack([rows_val, rows_diff])
    y = np.concatenate([target * w_val, np.diff(target) / dx * w_diff])

    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] == 0 or sv[0] / sv[-1] > 1e12:
        raise IllConditioned(
            f"design matrix condition {sv[0] / max(sv[-1], 1e-300):.3g} exceeds 1e12"
        )
    weights, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = ResolventTestFunction(tuple(poles), tuple(weights))
    achieved = weighted_lipschitz_norm(lambda x: np.asarray(f(x)) - fitted(x))
    return fitted, achieved
