"""Limiting variances, the weighted Lipschitz norm, and rational approximation.

The limiting edge variance of a mesoscopic linear statistic is

    sigma_f^2 = (1/8 pi^2) integral ((f(s x^2) - f(s y^2)) / (x - y))^2 dx dy

with s = +1 at the left edge and s = -1 at the right edge.  Two independent
routes are provided: adaptive double quadrature for arbitrary decaying f, and
the exact residue sum for rational test functions.  The quadrature integrates
over a truncated square [-L, L]^2 whose half-width follows from a tail bound
of the integrand by the weighted Lipschitz norm; a tangent change of
variables makes composite Gauss-Legendre panels efficient on that square.
The bound is rigorous for a pole sum, whose norm has a closed form; for any
other f the norm, like the fit's achieved norm, is a grid sup that can read low.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .ensembles import Side, _positive_real, _side, _whole
from .errors import IllConditioned, InvalidParams, NoConvergence, refuse_overflow
from .testfun import ResolventTestFunction, _rational

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
# rows per panel of the Lipschitz pair loop.  A panel takes one quotient per
# unordered pair (columns at and right of its first row), keeps both weight
# orders, needs abs only in its own square block and gives the dense formula's
# bits.  Two 32 x 2001 float64 buffers (1 MB) fit in L2; at grid 2001 a norm of
# im:1/(x-i) took 14.4 / 13.1 / 14.2 / 15.7 ms with 16 / 32 / 64 / 128 rows (2-core Xeon)
_LIPSCHITZ_PANEL_ROWS = 32
_MAX_LIPSCHITZ_GRID = 20001  # 2e8 pairs, 1.0-1.1 s per norm at the cap (2-core Xeon)
_MIN_POLE_HEIGHT = math.sqrt(np.finfo(float).tiny)  # 1.5e-154: (Im lambda)^2 stays a normal float


@dataclass(frozen=True)
class LimitVariance:
    """A limiting variance value with its provenance and error estimate."""

    value: float
    method: str              # "quadrature" or "residue"
    side: Side
    est_error: float

    def to_json(self) -> dict:
        return {"schema": 1, **asdict(self), "side": self.side.value}


@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """The _GL_DEGREE-node Gauss-Legendre rule on [-1, 1], computed once per
    process on first use and read-only, since every caller shares it."""
    x0, w0 = np.polynomial.legendre.leggauss(_GL_DEGREE)
    x0.flags.writeable = False
    w0.flags.writeable = False
    return x0, w0


def _gl_panels(a: float, b: float, n_panels: int):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x0, w0 = _gl_rule()
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def _double_integral_tan(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    halfwidth: float,
    scale: float,
    tol: float,
) -> tuple[float, float]:
    """(1/scale) times the integral of a nonnegative integrand(x, y) over [-L, L]^2.

    Uses x = tan(theta) panels and doubles the panel count until two
    successive values agree to tol/2; returns (value, |last refinement step|
    + sqrt(n) eps |value|), the second term the probabilistic rounding bound
    of n-term sums of nonnegative terms.  Raises NoConvergence when that term,
    which grows with n, exceeds 2 tol/5, or when the refinement stalls.
    ``tol``, the result and the error messages are all in units of 1/scale.
    """
    raw_tol = tol * scale  # the loop compares raw integrals
    theta_max = math.atan(halfwidth)
    prev = None
    diff = math.inf
    for level in range(2, _MAX_LEVEL + 1):
        theta, w = _gl_panels(-theta_max, theta_max, 2 ** level)
        x = np.tan(theta)
        wx = w / np.cos(theta) ** 2
        value = 0.0
        chunk = max(1, 2 ** 22 // len(x))
        for start in range(0, len(x), chunk):
            block = integrand(x[start : start + chunk, None], x[None, :])
            block *= wx[None, :]  # row sums and fsum, not BLAS, whose kernel sets the order
            value += math.fsum(np.sum(block, axis=1) * wx[start : start + chunk])
        rounding = math.sqrt(len(x)) * np.finfo(float).eps * abs(value)
        if rounding > 0.4 * raw_tol:
            raise NoConvergence(
                f"tolerance below the rounding floor ({rounding / raw_tol:.3g} tol)"
            )
        if prev is not None:
            diff = abs(value - prev)
            if diff < raw_tol / 2:
                return value / scale, (diff + rounding) / scale
        prev = value
    raise NoConvergence(
        f"refinement stalled at |delta| = {diff / scale:.3g} > tol/2 = {tol / 2:.3g}"
    )


def _refuse_poles_near_axis(f) -> None:
    """Refuse a rational f with a pole below ``_MIN_POLE_HEIGHT`` above the real axis.

    f' divides by (x - lambda)^2; below this height the square can underflow
    to 0, and the quotient is inf or NaN, a division by zero rather than an
    overflow."""
    if isinstance(f, ResolventTestFunction):
        height = min(p.imag for p in f.poles)
        if height < _MIN_POLE_HEIGHT:
            raise InvalidParams(
                f"a pole of f lies too close to the real axis: Im = {height:.3g} "
                f"< {_MIN_POLE_HEIGHT:.3g}, where its square underflows"
            )


def _derivative(f, x):
    """f'(x): analytic for pole/weight test functions, else 5-point central differences."""
    if isinstance(f, ResolventTestFunction):
        return f.derivative(x)
    h = _DERIV_STEP * (1 + np.abs(x))
    return (8 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12 * h)


def _values_on(f, xs: np.ndarray, name: str, where: str) -> np.ndarray:
    """f(xs) as floats: one finite real number per point of ``xs``, else InvalidParams.

    ``name`` names f in the messages and ``where`` names the grid."""
    values = np.asarray(f(xs))
    if values.shape != xs.shape or values.dtype.kind not in "biuf":
        raise InvalidParams(
            f"{name} must give one real number per point of {where}: got {values.dtype} "
            f"values of shape {values.shape} for {xs.size} points"
        )
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise InvalidParams(f"{name} has a NaN or infinite value on {where}")
    return values


def weighted_lipschitz_norm(f: Callable[[np.ndarray], np.ndarray], grid: int = 2001) -> float:
    """sup over pairs of sqrt(1+x^2) sqrt(1+y^2) |f(x)-f(y)| / |x-y| on a grid.

    The diagonal is filled with (1+x^2)|f'(x)|, the derivative taken
    analytically for pole/weight test functions and by 5-point central
    differences (relative step 1e-4) otherwise.  ``grid`` tangent-spaced
    points, an integer from 2 to ``_MAX_LIPSCHITZ_GRID`` = 20001, cover the
    real line out to ~1e6, which also captures the pairs-at-infinity limit
    sup sqrt(1+y^2)|f(y)|.

    The pairs are streamed in panels of rows, each panel taking only the
    columns at and right of its first row, so every unordered pair's quotient
    |f_i - f_j| / |x_i - x_j| is computed once, through two reused flat
    (rows * grid) buffers: memory is O(rows * grid), not O(grid^2).  The grid
    ascends, so x_j - x_i is |x_i - x_j| to the bit and only the panel's own
    square block needs ``abs``.  The dense grid x grid formula meets each pair
    from both rows, as (q w_i) w_j and (q w_j) w_i; both products are kept, so
    the sup is the dense formula's to the bit.  A grid sup reads at or below
    the true sup, far below it near a pole close to the real axis: it is an
    estimate, not a bound (``_pole_sum_norm`` bounds a pole sum).  InvalidParams
    when ``grid`` is not an integer in range, when f does not give one real
    number per grid point, when f has a NaN or infinite value on the grid, or
    when f' has a NaN value.
    """
    grid = _whole(grid, "the Lipschitz grid must be an integer with at least 2 points "
                  f"and at most {_MAX_LIPSCHITZ_GRID}", 2, _MAX_LIPSCHITZ_GRID)
    xs = np.tan(np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, grid))
    fx = _values_on(f, xs, "f", "the Lipschitz grid")
    diag = (1 + xs ** 2) * np.abs(_derivative(f, xs))
    if np.isnan(diag).any():
        raise InvalidParams("f' has a NaN value on the Lipschitz grid")
    sup = float(np.max(diag))
    w = np.sqrt(1 + xs ** 2)
    rows = min(_LIPSCHITZ_PANEL_ROWS, grid)
    q_buf, d_buf = np.empty(rows * grid), np.empty(rows * grid)
    for s in range(0, grid, rows):
        e = min(s + rows, grid)
        shape = (e - s, grid - s)  # rows s..e-1 against columns s..grid-1
        q = q_buf[: shape[0] * shape[1]].reshape(shape)
        d = d_buf[: shape[0] * shape[1]].reshape(shape)
        local = np.arange(e - s)
        np.subtract(fx[s:e, None], fx[None, s:], out=q)
        np.abs(q, out=q)
        np.subtract(xs[None, s:], xs[s:e, None], out=d)
        np.abs(d[:, : e - s], out=d[:, : e - s])  # j < i only inside the panel's own block
        d[local, local] = 1.0  # q's diagonal is then |f_i - f_i| / 1 * w_i^2 = 0 exactly
        q /= d
        np.multiply(q, w[None, s:], out=d)  # (q w_j) w_i, the pair as row j meets it
        d *= w[s:e, None]
        q *= w[s:e, None]  # (q w_i) w_j, the pair as row i meets it
        q *= w[None, s:]
        sup = max(sup, float(q.max()), float(d.max()))
    return sup


def _pole_sum_norm(f: ResolventTestFunction) -> float:
    """An upper bound on the weighted Lipschitz norm of f = sum_r Im(d_r / (x - lambda_r)).

    (f(x) - f(y)) / (x - y) = -sum_r Im(d_r / ((x - lambda_r)(y - lambda_r))), so the pairs,
    the diagonal (1+x^2)|f'| and the pairs at infinity are at most sum_r |d_r| G_r^2, where
    G^2 = sup_x (1+x^2) / |x - lambda|^2 = (1 + |lambda|^2 + sqrt(D)) / (2 (Im lambda)^2) and
    D = (1 + |lambda|^2)^2 - 4 (Im lambda)^2 = |lambda - i|^2 |lambda + i|^2, the product not
    cancelling near lambda = i.  1 + 2^-40 covers the rounding of these O(r) flops, and
    2^-1072 added to each |d_r| (absorbed by a normal |d_r|) the rounding below the normal range."""
    lam = np.asarray(f.poles)
    g2 = (1 + np.abs(lam) ** 2 + np.abs(lam - 1j) * np.abs(lam + 1j)) / (2 * lam.imag ** 2)
    return float(np.sum((np.abs(f.weights) + 2.0 ** -1072) * g2) * (1 + 2 ** -40))


def _dominating_integrand(X, Y):
    """(x+y)^2 / ((1+x^4)(1+y^4)), whose integral over R^2 is pi^2.

    Times lw(f)^2 it dominates the variance integrand ((f(s x^2) - f(s y^2)) / (x - y))^2.
    """
    return (X + Y) ** 2 / ((1 + X ** 4) * (1 + Y ** 4))


def _tail_strips(halfwidth: float) -> float:
    """Bound on the integral of ``_dominating_integrand`` beyond [-L, L]^2.

    Each of the four strips contributes at most I0 * 2/L + I2 * 2/(3 L^3),
    I0 = I2 = pi/sqrt(2); L*L*L overflows to inf where L ** 3 would raise.
    """
    cube = halfwidth * halfwidth * halfwidth
    return 4 * _WEIGHT_INTEGRAL * (2 / halfwidth + 2 / (3 * cube))


def _truncated_square(integrand, bound: float, scale: float, tol: float) -> tuple[float, float]:
    """(value, est_error) of (1/scale) times the integral over R^2 of integrand, to tol.

    ``integrand`` is nonnegative and at most bound * ``_dominating_integrand``.
    The half-width is the smallest L = 50 * 2^k whose tail bound is at most
    tol/10; the budget adds that bound to the refinement's step and rounding.
    """
    halfwidth = 50.0
    while (tail := bound * _tail_strips(halfwidth) / scale) > tol / 10:
        halfwidth *= 2
    value, err = _double_integral_tan(integrand, halfwidth, scale, tol)
    return value, err + tail


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

    ``f`` is any real function decaying at infinity (rational or compactly supported).
    est_error is the last refinement step plus the rounding term plus the tail bound, which
    is rigorous for a pole sum (closed-form norm ``_pole_sum_norm``) and else built on the
    grid estimate ``weighted_lipschitz_norm``, which can read low.  NoConvergence when tol
    lies below the rounding floor, InvalidParams when f is so large that a value, its norm
    or the integral overflows the float range, or when a pole of a rational f lies closer
    than 1.5e-154 to the real axis.
    """
    _positive_real(tol, "quadrature tolerance")
    s = 1.0 if _side(side) is Side.LEFT else -1.0
    _refuse_poles_near_axis(f)
    with refuse_overflow("the variance quadrature of f"):
        lw = _pole_sum_norm if isinstance(f, ResolventTestFunction) else weighted_lipschitz_norm
        value, est = _truncated_square(_variance_integrand(f, s), lw(f) ** 2, 8 * math.pi ** 2, tol)
    return LimitVariance(value=value, method="quadrature", side=side, est_error=est)


def sigma2_residue(f: ResolventTestFunction, side: Side) -> LimitVariance:
    """Exact limiting edge variance of a rational test function.

    Closed form sum_{r,s} t_rs, t_rs = c_r c_s / (4 rho_r rho_s (rho_r + rho_s)^2)
    with rho_r the principal square root of -eta_r (left edge) or +eta_r
    (right edge), summed over the conjugate-closed pole expansion.

    est_error is |Im total| plus eps sum_{r,s} |t_rs| (2 kappa_rs + 27), a
    first-order rounding bound (u = eps/2): each rho errs by at most 2u; a
    term takes four complex products (sqrt(5) u each), one sum and one
    quotient, about 10 eps in all, while rho_r + rho_s magnifies the square
    roots' errors by kappa_rs = (|rho_r| + |rho_s|) / |rho_r + rho_s|, twice
    after squaring; numpy's pairwise sum of up to 4e6 terms adds at most
    17 eps sum |t_rs|.  The |t_rs| weighting matters when terms cancel, and
    kappa when two poles nearly coincide close to the real axis.
    InvalidParams when a term or the sum overflows the float range, or when
    a pole lies so close to the real axis (for its modulus) that a
    denominator underflows to 0.  Unsupported when f is not rational.
    """
    _rational(f, "the residue sum")
    side = _side(side)
    c, eta = f.expanded()
    rho = np.sqrt(-eta) if side is Side.LEFT else np.sqrt(eta)
    pair_sum = rho[:, None] + rho[None, :]
    with refuse_overflow("the residue sum of f"):
        denom = 4.0 * np.outer(rho, rho) * pair_sum ** 2
        if not denom.all():
            raise InvalidParams(
                "a pole of f lies too close to the real axis: a residue denominator underflows to 0"
            )
        terms = np.outer(c, c) / denom
        total = complex(np.sum(terms))
        kappa = np.add.outer(np.abs(rho), np.abs(rho)) / np.abs(pair_sum)
        rounding = np.finfo(float).eps * float(np.sum(np.abs(terms) * (2 * kappa + 27)))
    est = abs(total.imag) + rounding
    return LimitVariance(value=total.real, method="residue", side=side, est_error=est)


def pi_squared_check() -> float:
    """Integral over R^2 of ``_dominating_integrand``, exactly pi^2, to tolerance 1e-7.

    Runs the variance quadrature's half-width rule, tail bound and refinement.
    """
    value, _ = _truncated_square(_dominating_integrand, 1.0, 1.0, _PI_SQUARED_TOL)
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
    sqrt(1+x_i^2) sqrt(1+x_{i+1}^2), the norm's seminorm part).  Returns the fitted test
    function and its weighted-Lipschitz distance to f, a grid estimate that can read low.

    Raises IllConditioned when the design matrix condition exceeds 1e12
    (reduce M or raise pole_height), and InvalidParams, before any solve, when
    the target does not give one finite real number per point of the support
    scan or of the fit grid.
    """
    M = _whole(M, f"the pole count must be an integer from 1 to {_MAX_POLES}", 1, _MAX_POLES)
    _positive_real(pole_height, "pole height")
    if support is None:
        scan = np.linspace(-100, 100, 20001)
        vals = np.abs(_values_on(f, scan, "the target f", "the support scan grid"))
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

    target = _values_on(f, xs, "the target f", "the fit grid")
    basis = np.imag(1.0 / (xs[:, None] - poles[None, :]))
    w_val = np.sqrt(1 + xs ** 2)
    dx = np.diff(xs)
    w_diff = np.sqrt(1 + xs[:-1] ** 2) * np.sqrt(1 + xs[1:] ** 2)
    rows_val = basis * w_val[:, None]
    rows_diff = (basis[1:, :] - basis[:-1, :]) / dx[:, None] * w_diff[:, None]
    A = np.vstack([rows_val, rows_diff])
    y = np.concatenate([target * w_val, np.diff(target) / dx * w_diff])

    weights, _, _, sv = np.linalg.lstsq(A, y, rcond=None)
    condition = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    if condition > 1e12:
        raise IllConditioned(f"design matrix condition {condition:.3g} exceeds 1e12")
    fitted = ResolventTestFunction(tuple(poles), tuple(weights))
    achieved = weighted_lipschitz_norm(lambda x: np.asarray(f(x)) - fitted(x))
    return fitted, achieved
