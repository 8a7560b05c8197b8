"""Exception hierarchy shared across the package."""

from __future__ import annotations

import numpy as np


class CetsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CetsError, ValueError):
    """A parameter is outside its documented domain (beta < 0, eta > 1, ...)."""


class TopologyError(CetsError, ValueError):
    """A routine received a model with the wrong interaction graph."""


class CapacityError(CetsError, ValueError):
    """The requested system size exceeds what the implementation supports."""


class PauliParseError(CetsError, ValueError):
    """An operator label could not be parsed."""


class NumericError(CetsError, ArithmeticError):
    """An internal numeric consistency check failed beyond tolerance."""


class IncompleteSetError(CetsError, ValueError):
    """A measurement set is missing entries required for reconstruction."""


class NonPhysicalStateError(CetsError, ValueError):
    """An operation required a physical (positive) state and got none."""


def check_unit(values, tol: float, error: type[CetsError], what: str) -> None:
    """Raise error(f"{what} {v}, expected 1") for the first element v of `values`
    with not |v - 1| <= tol: NaN fails, and a complex v counts by its modulus."""
    for v in np.asarray(values).ravel().tolist():
        if not abs(v - 1.0) <= tol:
            raise error(f"{what} {v}, expected 1")
