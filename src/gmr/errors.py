"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "AllRestartsFailedError",
    "DimensionMismatchError",
    "DuplicateGroupIdError",
    "EmptyClusterError",
    "EmptyGroupError",
    "GmrError",
    "GroupTooSmallError",
    "InfeasibleError",
    "LengthMismatchError",
    "NonFiniteError",
    "SingularSystemError",
    "TooFewGroupsError",
    "TooManyGroupsError",
    "UnknownGroupError",
]


class GmrError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(GmrError, ValueError):
    """Array shapes do not line up (feature width, parameter sizes, ...)."""


class LengthMismatchError(DimensionMismatchError):
    """Paired vectors have different lengths."""


class NonFiniteError(GmrError, ValueError):
    """NaN or infinity where a finite value is required."""


class EmptyGroupError(GmrError, ValueError):
    """A group (or the whole dataset) carries no observations."""


class DuplicateGroupIdError(GmrError, ValueError):
    """Two groups share an id, which would make group linkage ambiguous."""


class EmptyClusterError(GmrError, RuntimeError):
    """A cluster lost essentially all posterior weight; the current restart is hopeless."""


class SingularSystemError(GmrError, RuntimeError):
    """A normal-equation solve failed even after ridge escalation."""


class TooFewGroupsError(GmrError, ValueError):
    """Hard initialization needs at least as many groups as clusters."""


class TooManyGroupsError(GmrError, ValueError):
    """More groups requested than observations available to fill them."""


class GroupTooSmallError(GmrError, ValueError):
    """A group has too few observations to split."""


class InfeasibleError(GmrError, ValueError):
    """Requested geometry cannot exist (K equidistant points need K <= p + 1)."""


class UnknownGroupError(GmrError, KeyError):
    """A test group id that never appeared during training."""


class AllRestartsFailedError(GmrError, RuntimeError):
    """Every EM restart was abandoned.

    Carries ``reasons``, a list of ``(restart_index, message)`` pairs, so the
    caller can see why each restart died.
    """

    def __init__(self, reasons):
        self.reasons = list(reasons)
        detail = "; ".join(f"restart {i}: {msg}" for i, msg in self.reasons)
        super().__init__(f"all EM restarts failed ({detail})")
