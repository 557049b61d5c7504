"""Core containers for grouped regression data.

A dataset is an ordered collection of groups.  Every observation in a group is
known to come from a single latent regression cluster, so posteriors live at
the group level while responses and features live at the observation level.
The dataset owns its row layout (groups contiguous, in order): every other
module reads it from `offsets`, `responses` and the block gather `_blocks`.
Each group's rows are reduced once, when first needed, to a small triangular
factor (`GroupedDataset.factors`), and the group's second moments
(`GroupedDataset.sigma_hat`, `GroupedDataset.rho_hat`) are read once off that
factor's Gram matrix, without another pass over the rows.  The dataset caches
all three; `compute_group_stats` validates it and fills the cache.  The EM
engine works on these alone, so an EM iteration never touches the raw
observations.

All containers are frozen dataclasses holding read-only arrays; they are safe
to share across threads and between operations without copying.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatchError,
    DuplicateGroupIdError,
    EmptyGroupError,
    NonFiniteError,
)

__all__ = [
    "Group",
    "GroupedDataset",
    "ModelParams",
    "Responsibilities",
    "compute_group_stats",
    "validate_dataset",
]


BLOCK_ROWS = 4096  # most rows in a `GroupedDataset._blocks` block, unless one group has more


def _readonly(x, dtype=float) -> np.ndarray:
    # Copy, then freeze: callers keep ownership of what they passed in, and
    # nothing downstream can mutate shared state.
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_integer(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer.

    Python and numpy integers pass and ``bool`` does not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")


def _check_real(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite real number.

    Python and numpy integers and floats pass; ``bool``, ``str`` and ``None``
    do not, and neither do NaN, infinities and integers beyond the float range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number")
    number = value.item() if isinstance(value, np.generic) else value  # a Python int or float
    if not abs(number) <= sys.float_info.max:  # false for NaN; exact for integers of any size
        raise ValueError(f"{name} must be finite, got {value}")


def _check_seed(cfg) -> None:
    """Raise ValueError unless ``cfg.seed`` is None or an integer numpy can seed with, 0 or more."""
    _check_fields(cfg, _check_integer, ("seed",), optional=("seed",))
    if cfg.seed is not None and cfg.seed < 0:
        raise ValueError("seed must be nonnegative")


def _from_dict(cls, doc: dict):
    """``cls(**doc)`` for a settings class; keys that are not its fields raise ValueError."""
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return cls(**doc)


def _check_fields(cfg, rule, names, optional=()) -> None:
    """``rule(name, value)`` on each field of ``cfg`` in ``names``; those in ``optional`` may be None."""
    for name in names:
        value = getattr(cfg, name)
        if value is not None or name not in optional:
            rule(name, value)


@dataclass(frozen=True)
class Group:
    """One group: a response vector and a row-per-observation feature matrix.

    Parameters
    ----------
    id : str
        Opaque external identifier.  Coerced to ``str`` so it can serve as a
        JSON key and a CSV cell unchanged.
    responses : array_like, shape (n_r,)
    features : array_like, shape (n_r, p)
        Row i is the feature vector of observation i.
    """

    id: str
    responses: NDArray[np.float64]
    features: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "responses", _readonly(self.responses))
        object.__setattr__(self, "features", _readonly(self.features))
        if self.responses.ndim != 1:
            raise DimensionMismatchError("responses must be a 1-d vector")
        if self.features.ndim != 2:
            raise DimensionMismatchError("features must be a 2-d matrix")
        if self.features.shape[0] != self.responses.shape[0]:
            raise DimensionMismatchError(
                f"group {self.id!r}: {self.responses.shape[0]} responses but "
                f"{self.features.shape[0]} feature rows"
            )

    @property
    def n(self) -> int:
        """Number of observations in the group."""
        return self.responses.shape[0]


@dataclass(frozen=True)
class GroupedDataset:
    """Ordered collection of groups sharing one feature dimension.

    Group order is meaningful: responsibilities, labels and serialized output
    all follow it.  Construction is cheap and permissive; call
    `validate_dataset` (or any operation that requires a valid dataset) to
    enforce the full invariants.
    """

    groups: tuple[Group, ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))

    @property
    def R(self) -> int:
        """Number of groups."""
        return len(self.groups)

    @property
    def p(self) -> int:
        """Feature dimension (taken from the first group)."""
        if not self.groups:
            raise EmptyGroupError("dataset has no groups")
        return self.groups[0].features.shape[1]

    @cached_property
    def group_ids(self) -> tuple[str, ...]:
        return tuple(g.id for g in self.groups)

    @cached_property
    def n_r(self) -> NDArray[np.int64]:
        """Per-group observation counts, shape (R,)."""
        return _readonly([g.n for g in self.groups], dtype=np.int64)

    @property
    def n(self) -> int:
        """Total number of observations."""
        return int(self.n_r.sum())

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(y, X, offsets)``: `responses`, the feature rows (n, p) and `offsets`."""
        X = _readonly(np.concatenate([g.features for g in self.groups], axis=0))
        return _readonly(self.responses), X, self.offsets

    @cached_property
    def offsets(self) -> NDArray[np.intp]:
        """Start row of each group in dataset row order, shape (R,); fit for ``np.add.reduceat``."""
        return _readonly(np.cumsum(self.n_r) - self.n_r, dtype=np.intp)

    @property
    def responses(self) -> NDArray[np.float64]:
        """Every response in dataset row order, shape (n,); a new array on each call."""
        return np.concatenate([g.responses for g in self.groups])

    def _blocks(self):
        """Yield ``(idx, rows)`` per block of groups of one size n, by increasing n.

        ``rows[j]`` (n, p + 1) is ``[X_r | y_r]`` of group ``r = idx[j]``; a block
        holds at most ``BLOCK_ROWS`` rows, or one larger group.
        """
        for n in np.unique(self.n_r):
            same = np.flatnonzero(self.n_r == n)
            step = max(1, BLOCK_ROWS // int(n))
            for idx in np.split(same, range(step, same.size, step)):
                rows = np.empty((idx.size, n, self.p + 1))
                for j, r in enumerate(idx):
                    rows[j, :, :-1], rows[j, :, -1] = self.groups[r].features, self.groups[r].responses
                yield idx, rows

    @cached_property
    def factors(self) -> NDArray[np.float64]:
        """Per-group upper-triangular factors, shape (R, p + 1, p + 1).

        ``factors[r]`` is the R factor of the QR decomposition of the group's
        augmented rows ``[X_r | y_r] / sqrt(n_r)``, zero-padded below when
        ``n_r < p + 1``.  Its Gram matrix ``factors[r].T @ factors[r]`` holds the
        group's mean second moments of ``(x, y)``, and for any coefficient
        vector b the group's mean squared residual is
        ``||factors[r] @ [b; -1]||^2``.  Unlike the moment form
        ``mean(y^2) - 2 b'mean(y x) + b'mean(x x')b``, this does not cancel
        catastrophically when the responses sit far from zero.

        Each block of `_blocks` is factored in one batched call.
        """
        q = self.p + 1
        T = np.zeros((self.R, q, q))
        for idx, rows in self._blocks():
            n = rows.shape[1]
            T[idx, : min(n, q)] = np.linalg.qr(rows, mode="r") / np.sqrt(n)
        T.setflags(write=False)
        return T

    @cached_property
    def _moments(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        # factors[r].T @ factors[r] = [[sigma_hat[r], rho_hat[r]], [rho_hat[r]', mean(y_r^2)]],
        # so one Gram product gives both moments.
        p, T = self.p, self.factors
        gram = np.swapaxes(T, 1, 2) @ T
        S = gram[:, :p, :p]
        sigma_hat = (S + np.swapaxes(S, 1, 2)) / 2.0  # exact symmetry despite rounding
        sigma_hat.setflags(write=False)
        # A contiguous copy: the M-step's products take numpy's contiguous path.
        return sigma_hat, _readonly(gram[:, :p, p])

    @property
    def sigma_hat(self) -> NDArray[np.float64]:
        """Per-group mean outer products of the feature rows, shape (R, p, p).

        ``sigma_hat[r] = mean_i(x_ri x_ri^T)``, the leading p x p block of
        ``factors[r].T @ factors[r]``; exactly symmetric, positive semidefinite.
        """
        return self._moments[0]

    @property
    def rho_hat(self) -> NDArray[np.float64]:
        """Per-group means of ``y_ri * x_ri``, shape (R, p).

        The top of the last column of ``factors[r].T @ factors[r]``.
        """
        return self._moments[1]


def validate_dataset(d: GroupedDataset) -> None:
    """Check all dataset invariants, raising on the first violation.

    A dataset is frozen, so once it passes, the pass is remembered on it and
    later calls return at once.  A failing dataset is checked again on every
    call and raises the same error each time.

    Raises
    ------
    EmptyGroupError
        If the dataset has no groups, or some group has no observations.
    DimensionMismatchError
        If feature width varies across groups or p == 0.
    NonFiniteError
        If any response or feature is NaN or infinite.
    DuplicateGroupIdError
        If two groups share an id.
    """
    if getattr(d, "_valid", False):
        return
    if d.R == 0:
        raise EmptyGroupError("dataset has no groups")
    p = d.p
    if p == 0:
        raise DimensionMismatchError("feature dimension must be at least 1")
    seen: set[str] = set()
    for g in d.groups:
        if g.id in seen:
            raise DuplicateGroupIdError(f"duplicate group id {g.id!r}")
        seen.add(g.id)
        if g.n == 0:
            raise EmptyGroupError(f"group {g.id!r} has no observations")
        if g.features.shape[1] != p:
            raise DimensionMismatchError(
                f"group {g.id!r} has {g.features.shape[1]} features, expected {p}"
            )
        if not np.isfinite(g.responses).all() or not np.isfinite(g.features).all():
            raise NonFiniteError(f"group {g.id!r} contains NaN or infinite values")
    object.__setattr__(d, "_valid", True)


def _inherit_validity(source: GroupedDataset, *parts: GroupedDataset) -> None:
    """Remember a pass of `validate_dataset` on each of ``parts`` when ``source`` has passed.

    Only for parts that hold every group of ``source``, in order, each with
    some of its rows: such a part is valid whenever ``source`` is.
    """
    if getattr(source, "_valid", False):
        for part in parts:
            object.__setattr__(part, "_valid", True)


@dataclass(frozen=True)
class ModelParams:
    """Mixture parameters: weights pi, coefficients beta, noise variances sigma2.

    Parameters
    ----------
    pi : array_like, shape (K,)
        Mixture weights; nonnegative, summing to 1 within 1e-12.
    beta : array_like, shape (p, K)
        Column k holds the regression coefficients of cluster k.  Kept in
        Fortran order, so a model predicts the same bits whatever the layout
        it was built from (BLAS rounds a product by its operands' layout).
    sigma2 : array_like, shape (K,)
        Per-cluster noise variances, strictly positive.
    """

    pi: NDArray[np.float64]
    beta: NDArray[np.float64]
    sigma2: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "pi", _readonly(self.pi))
        object.__setattr__(self, "beta", _readonly(np.asfortranarray(self.beta)))
        object.__setattr__(self, "sigma2", _readonly(self.sigma2))
        if self.pi.ndim != 1 or self.sigma2.ndim != 1 or self.beta.ndim != 2:
            raise DimensionMismatchError("pi and sigma2 must be vectors, beta a p x K matrix")
        K = self.pi.shape[0]
        if self.beta.shape[1] != K or self.sigma2.shape[0] != K:
            raise DimensionMismatchError(
                f"inconsistent cluster counts: pi has {K}, beta has "
                f"{self.beta.shape[1]}, sigma2 has {self.sigma2.shape[0]}"
            )
        for name in ("pi", "beta", "sigma2"):
            if not np.isfinite(getattr(self, name)).all():
                raise NonFiniteError(f"{name} contains NaN or infinite values")
        if (self.pi < 0).any() or abs(self.pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi must be nonnegative and sum to 1 within 1e-12")
        if (self.sigma2 <= 0).any():
            raise ValueError("sigma2 entries must be strictly positive")

    @property
    def K(self) -> int:
        return self.pi.shape[0]

    @property
    def p(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class Responsibilities:
    """Posterior cluster memberships, one probability row per group.

    ``tau[r, k]`` is the posterior probability that group r belongs to
    cluster k.  Rows must sum to 1 within 1e-10.
    """

    tau: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "tau", _readonly(self.tau))
        if self.tau.ndim != 2:
            raise DimensionMismatchError("tau must be an R x K matrix")
        if not np.isfinite(self.tau).all():
            raise NonFiniteError("tau contains NaN or infinite values")
        if (self.tau < 0).any() or (self.tau > 1).any():
            raise ValueError("tau entries must lie in [0, 1]")
        if np.abs(self.tau.sum(axis=1) - 1.0).max() > 1e-10:
            raise ValueError("tau rows must sum to 1 within 1e-10")

    @property
    def R(self) -> int:
        return self.tau.shape[0]

    @property
    def K(self) -> int:
        return self.tau.shape[1]

    def hard_labels(self) -> NDArray[np.int64]:
        """Row argmax; ties break toward the lowest cluster index."""
        return np.argmax(self.tau, axis=1)


def compute_group_stats(d: GroupedDataset) -> GroupedDataset:
    """Validate ``d`` and compute its per-group statistics once, before any EM iteration.

    The statistics are cached on the dataset: the triangular factors
    (`GroupedDataset.factors`) and the moments read off their Gram matrices
    (`GroupedDataset.sigma_hat`, `GroupedDataset.rho_hat`).  Later calls find
    them cached.  Returns ``d``, which every EM layer reads them from.

    The dataset is validated first; `validate_dataset` remembers a pass on the
    frozen dataset, so only the first call scans its groups.  See
    `validate_dataset` for the errors.
    """
    validate_dataset(d)
    d._moments  # the factors, then both moments off their Gram product
    return d
