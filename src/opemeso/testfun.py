"""Rational test functions built from conjugate-closed simple poles.

A test function is f(x) = sum_r Im(d_r / (x - lambda_r)) with poles
lambda_r in the upper half plane.  Real weights d_r give the classic
imaginary-part combination; complex weights extend the same storage to any
real rational function with simple conjugate-closed poles (Re 1/(x-i) is
Im(i/(x-i)), for instance).  Either way f is real on the real line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams


@dataclass(frozen=True)
class ResolventTestFunction:
    """Pole/weight representation of a real rational test function."""

    poles: tuple[complex, ...]
    weights: tuple[complex, ...]

    def __post_init__(self):
        if len(self.poles) != len(self.weights):
            raise InvalidParams("poles and weights must have equal length")
        if len(self.poles) == 0:
            raise InvalidParams("need at least one pole")
        if any(p.imag <= 0 for p in self.poles):
            raise InvalidParams("all poles must lie in the upper half plane")
        object.__setattr__(self, "poles", tuple(complex(p) for p in self.poles))
        object.__setattr__(self, "weights", tuple(complex(w) for w in self.weights))

    @property
    def n_poles(self) -> int:
        return len(self.poles)

    def expanded(self) -> tuple[np.ndarray, np.ndarray]:
        """Conjugate-closed (c_r, eta_r) pairs of f(x) = sum c_r / (x - eta_r).

        Length 2M: c_r = d_r/(2i) at eta_r = lambda_r for r < M, then the
        complex-conjugate pair.
        """
        lam = np.asarray(self.poles, dtype=complex)
        d = np.asarray(self.weights, dtype=complex)
        c = d / 2j
        return np.concatenate([c, np.conj(c)]), np.concatenate([lam, np.conj(lam)])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x, dtype=float)
        for lam, d in zip(self.poles, self.weights):
            total += np.imag(d / (x - lam))
        return total if total.ndim else float(total)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x, dtype=float)
        for lam, d in zip(self.poles, self.weights):
            total += np.imag(-d / (x - lam) ** 2)
        return total if total.ndim else float(total)

    def reflected(self) -> "ResolventTestFunction":
        """The test function x -> f(-x), in the same storage convention."""
        return ResolventTestFunction(
            poles=tuple(-np.conj(p) for p in self.poles),
            weights=tuple(np.conj(w) for w in self.weights),
        )

    def scaled_argument(self, factor: float) -> "ResolventTestFunction":
        """The test function x -> f(factor * x) for factor > 0."""
        if factor <= 0:
            raise InvalidParams("scale factor must be positive")
        return ResolventTestFunction(
            poles=tuple(p / factor for p in self.poles),
            weights=tuple(w / factor for w in self.weights),
        )


_TERM_RE = re.compile(r"^(im|re):([^/]+)/\(x-(.+)\)$")


def _parse_complex(text: str) -> complex:
    """Parse complex literals of the form a+bi / bi / i / a (i, not j)."""
    cleaned = text.strip().replace(" ", "")
    cleaned = re.sub(r"(?<![\w.])i\b", "1i", cleaned)  # bare i -> 1i
    cleaned = cleaned.replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise InvalidParams(f"cannot parse complex literal {text!r}") from None


def _split_terms(text: str) -> list[str]:
    """Split on '+' at parenthesis depth zero."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            terms.append(text[start:i])
            start = i + 1
    terms.append(text[start:])
    return terms


def parse_test_function(text: str) -> ResolventTestFunction:
    """Parse the CLI mini-grammar, e.g. "im:1/(x-i)" or "im:1/(x-i)+re:0.5/(x-2+1i)".

    Grammar (EBNF):
        spec    = term , { "+" , term } ;
        term    = ( "im" | "re" ) , ":" , real , "/(x-" , complex , ")" ;
        real    = decimal literal ;
        complex = [ real ] , [ [ "+" | "-" ] , [ real ] , "i" ] ;

    "im:d/(x-L)" contributes Im(d/(x-L)); "re:d/(x-L)" contributes
    Re(d/(x-L)).  Poles L must have positive imaginary part.
    """
    poles: list[complex] = []
    weights: list[complex] = []
    for raw in _split_terms(text.strip()):
        m = _TERM_RE.match(raw.strip().replace(" ", ""))
        if m is None:
            raise InvalidParams(
                f"cannot parse test-function term {raw!r}; expected im:d/(x-L) or re:d/(x-L)"
            )
        kind, coef_text, pole_text = m.groups()
        try:
            coef = float(coef_text)
        except ValueError:
            raise InvalidParams(f"bad coefficient {coef_text!r}") from None
        lam = _parse_complex(pole_text)
        if lam.imag <= 0:
            raise InvalidParams(f"pole {lam} must have positive imaginary part")
        poles.append(lam)
        # Re(d/(x-L)) = Im(i*d/(x-L))
        weights.append(coef if kind == "im" else 1j * coef)
    return ResolventTestFunction(tuple(poles), tuple(weights))
