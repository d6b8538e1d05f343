"""Shared exception types.

Every refusal or numerical give-up in the package maps to one of these, so
callers (and the command line front end) can translate them into stable exit
codes without string matching.
"""

__all__ = [
    "StructuralError",
    "CriticalParametersError",
    "EvenNonexistenceError",
    "NearPoleError",
    "EvaluationError",
    "PathClearanceError",
    "InconclusiveError",
]


class StructuralError(ValueError):
    """Ill-formed input: mismatched variable tables, coincident punctures,
    a lattice parameter in the lower half plane, and the like."""


class CriticalParametersError(ValueError):
    """Total multiplicities satisfy N1 == N2 (mod 3); the census operations
    are only defined away from that locus and refuse to run on it."""


class EvenNonexistenceError(ValueError):
    """Both local multiplicities odd: the even sector is empty and the even
    polynomial does not exist."""


class NearPoleError(ValueError):
    """Evaluation point too close to a lattice translate of a pole."""


class EvaluationError(RuntimeError):
    """A series failed to converge within its term budget."""


class PathClearanceError(RuntimeError):
    """No integration path satisfying the requested clearance was found."""


class InconclusiveError(RuntimeError):
    """A numerical search exhausted its budget without a usable answer."""
