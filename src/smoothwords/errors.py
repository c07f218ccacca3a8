"""Exception types shared across the package."""

from __future__ import annotations


class SmoothwordError(Exception):
    """Base class for all domain errors raised by this package."""


class NotDifferentiable(SmoothwordError):
    """A run-length derivative was requested for a word that has none.

    Raised when an interior run length lies outside the alphabet or any
    run is longer than the largest letter.
    """


class InvalidRuns(SmoothwordError, ValueError):
    """A run decomposition violates its invariants (adjacent equal bases,
    non-positive exponents, or mismatched lengths)."""


class InsufficientDepth(SmoothwordError):
    """A first-letter projection was requested deeper than the available
    run-length iterates of a finite prefix."""


class ExpansionBudgetExceeded(SmoothwordError):
    """An expansion would produce more symbols than the caller's budget."""


class NotProlongable(SmoothwordError):
    """A substitution cannot be iterated from the requested seed because
    its rule does not start with the seed symbol."""
