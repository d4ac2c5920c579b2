"""Exception types shared across the package, and its one overflow policy."""

from contextlib import contextmanager

import numpy as np


class OpemesoError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(OpemesoError):
    """Ensemble parameters violate the family's admissible range."""


class OutOfDomain(OpemesoError):
    """An index (or index window) leaves the support of a discrete family."""


class Singular(OpemesoError):
    """A matrix is numerically singular (recursion denominator or LU failure)."""


class WindowTooSmall(OpemesoError):
    """Truncation window margin is below the minimal safe size."""


class NoConvergence(OpemesoError):
    """Adaptive refinement stalled above the requested tolerance."""


class IllConditioned(OpemesoError):
    """A least-squares design matrix is too ill-conditioned to trust."""


class Unsupported(OpemesoError):
    """Operation is not available for the given ensemble family."""


@contextmanager
def refuse_overflow(what: str):
    """Refuse an overflow in the block as InvalidParams("<what> overflows the float range").

    The block runs under np.errstate(over="raise").  A Python float * overflows
    to inf silently, so a block whose result can hold such an inf raises OverflowError."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise InvalidParams(f"{what} overflows the float range") from None
