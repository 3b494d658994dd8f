"""Model and hypothesis types plus the linear-algebra reduction.

Everything downstream consumes a :class:`ReducedProblem`: an orthonormal
kernel basis of the hypothesis matrix, the minimum-norm solution of
``A beta = c``, and a thin factor of the projector onto ``range(X K_A)``
so the residual can be formed with two matrix-vector products. Only
``beta_c`` and ``X beta_c`` depend on c; the rest is a
:class:`ReductionFactor` of (X, A), factored once by
:func:`factor_reduction`. A :class:`DesignMatrix` keeps the factor arrays
of the last A it was factored with, so :func:`factor_reduction` and
:func:`build_reduction` on the same design and the same A take no SVD.
"""

from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import (
    DimensionMismatch,
    DomainError,
    RankDeficient,
    Untestable,
)

__all__ = [
    "DesignMatrix",
    "LinearHypothesis",
    "SubsetHypothesis",
    "ReductionFactor",
    "ReducedProblem",
    "GlmFamily",
    "glm_family",
    "kernel_basis",
    "factor_reduction",
    "build_reduction",
    "residual_parts",
    "residual",
]


def _as_2d(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return a


def _as_1d(v, name):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return v


def _as_candidates(c_block, r):
    """``c_block`` as a C-ordered float (G, R) block of right-hand sides c;
    DimensionMismatch unless each is finite of length R."""
    c = np.ascontiguousarray(c_block, dtype=float)
    if c.ndim != 2:
        raise DimensionMismatch(f"c must be a (G, R) block, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise DimensionMismatch("c contains non-finite entries")
    if c.shape[1] != r:
        raise DimensionMismatch(f"c has length {c.shape[1]}, expected {r}")
    return c


@dataclass(frozen=True)
class DesignMatrix:
    """Dense N x P covariate matrix, optionally with an all-ones intercept column.

    ``values`` is a read-only copy of the input, so editing the caller's
    array later changes no result. The design keeps the reduction factor of
    the last A it was factored with (see :func:`factor_reduction`): testing
    many responses against one design, or a test and then its region,
    takes the SVDs of A and X K_A once.
    """

    values: np.ndarray
    intercept_column: Optional[int] = None
    # (A.shape, A's bytes) and the factor arrays (K_A, Q, U, s, Vt) of the
    # last A; arrays only, since a ReductionFactor points back at the design
    _factor_memo: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a read-only copy, so that _factor_memo stays a factor of values
        values = _as_2d(self.values, "design matrix").copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        n, p = values.shape
        if n < 2 or p < 1:
            raise DimensionMismatch(f"need N >= 2 and P >= 1, got N={n}, P={p}")
        if self.intercept_column is not None:
            j = self.intercept_column
            if not 0 <= j < p:
                raise DimensionMismatch("intercept_column out of range")
            if not np.allclose(values[:, j], 1.0):
                raise DimensionMismatch("intercept column is not all ones")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]

    def tested_values(self):
        """Columns excluding the intercept column, if one is marked."""
        if self.intercept_column is None:
            return self.values
        keep = [j for j in range(self.p) if j != self.intercept_column]
        return self.values[:, keep]


def _as_design(x):
    """``x`` as a DesignMatrix: itself when it is one, else its values."""
    return x if isinstance(x, DesignMatrix) else DesignMatrix(x)


def _as_response(y, n):
    """``y`` as a float N-vector; DimensionMismatch unless it has length N
    and finite entries."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise DimensionMismatch(f"y must be 1-d of length N = {n}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise DimensionMismatch("y contains non-finite entries")
    return y


def _is_index(value):
    """True for an integer, a numpy integer too, but not a bool: ``int``
    would read 0.7 as 0 and True as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _partition_blocks(partition):
    """``partition`` as a tuple of non-empty tuples of row indices, each an
    integer by :func:`_is_index`."""
    try:
        blocks = tuple(tuple(block) for block in partition)
    except TypeError:
        raise DimensionMismatch(f"partition {partition!r} is not a list of blocks") from None
    for block in blocks:
        if not block:
            raise DimensionMismatch("empty partition block")
        if not all(_is_index(i) for i in block):
            raise DimensionMismatch(f"partition block {block!r} holds a non-integer index")
    return tuple(tuple(int(i) for i in block) for block in blocks)


def _validate_partition(partition, r):
    """:func:`_partition_blocks` of a partition of the rows 0..r-1: the
    blocks must be disjoint and cover every row."""
    blocks = _partition_blocks(partition)
    rows = [i for block in blocks for i in block]
    if not all(0 <= i < r for i in rows):
        raise DimensionMismatch("partition index out of range")
    if len(set(rows)) < len(rows):
        raise DimensionMismatch("partition blocks overlap")
    if len(rows) < r:
        raise DimensionMismatch("partition does not cover all rows")
    return blocks


@dataclass(frozen=True)
class LinearHypothesis:
    """The pair (A, c) of H0: A beta = c with an optional row partition {H_l}.

    Rows are 0-indexed. A given partition is validated; none given stays
    None, and a group statistic bound to the hypothesis then takes one
    block over all rows (see :class:`~threshtest.statistics.Evaluator`).
    """

    a_matrix: np.ndarray
    c_vector: np.ndarray
    row_partition: Optional[Sequence[Sequence[int]]] = None
    # the SVD of A taken by the row-rank check; build_reduction reuses it
    _a_svd: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a read-only copy, so that _a_svd stays the SVD of a_matrix
        a = _as_2d(self.a_matrix, "A").copy()
        a.flags.writeable = False
        c = _as_1d(self.c_vector, "c")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "c_vector", c)
        r = a.shape[0]
        if c.shape[0] != r:
            raise DimensionMismatch(f"c has length {c.shape[0]}, expected {r}")
        # full row rank is a standing assumption of every statistic
        object.__setattr__(self, "_a_svd", _full_row_rank_svd(a))
        if self.row_partition is not None:
            object.__setattr__(
                self, "row_partition", _validate_partition(self.row_partition, r)
            )

    @property
    def r(self):
        return self.a_matrix.shape[0]


@dataclass(frozen=True)
class SubsetHypothesis:
    """H0: (beta_{j0+1}, ..., beta_P) = c, leaving the first j0 coefficients free.

    ``c_vector`` is a read-only copy of the input. Its expansion with no row
    partition is kept for the last P, so repeated tests take A's SVD once."""

    j0: int
    c_vector: np.ndarray
    # (P, LinearHypothesis) of the last expansion with no row partition
    _expansion: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        c = _as_1d(self.c_vector, "c").copy()
        c.flags.writeable = False
        object.__setattr__(self, "c_vector", c)
        if not _is_index(self.j0):
            raise DimensionMismatch(f"j0 must be an integer, got {self.j0!r}")
        if self.j0 < 0:
            raise DimensionMismatch("j0 must be nonnegative")

    def expand(self, p, row_partition=None):
        """Expand to a LinearHypothesis with A = [O  I_{P - j0}]."""
        memo = self._expansion
        if row_partition is None and memo is not None and memo[0] == p:
            return memo[1]
        r = p - self.j0
        if not 0 <= self.j0 < p:
            raise DimensionMismatch(f"j0={self.j0} incompatible with P={p}")
        if self.c_vector.shape[0] != r:
            raise DimensionMismatch(f"c has length {self.c_vector.shape[0]}, expected {r}")
        a = np.hstack([np.zeros((r, self.j0)), np.eye(r)])
        hyp = LinearHypothesis(a, self.c_vector, row_partition)
        if row_partition is None:
            object.__setattr__(self, "_expansion", (p, hyp))
        return hyp


@dataclass(frozen=True)
class ReductionFactor:
    """The part of the reduction that depends on (X, A) but not on c.

    ``pseudo_*`` hold the thin SVD ``A = U diag(s) Vt`` so that
    ``(A A^T)^{-1} A w = U (Vt w / s)`` is applied without forming an
    inverse, and ``projector_factor`` holds an orthonormal basis Q of
    ``range(X K_A)`` so projecting is two thin products. :meth:`at`
    completes it for one right-hand side c, so a confidence region
    factors once and takes every candidate c from the same factor. The
    arrays are read-only: every factor of one design and one A shares
    them, through the design's memo.
    """

    kernel_basis: np.ndarray
    projector_factor: np.ndarray
    pseudo_u: np.ndarray
    pseudo_s: np.ndarray
    pseudo_vt: np.ndarray
    design: DesignMatrix = field(repr=False)

    @property
    def r(self):
        return self.pseudo_s.shape[0]

    def apply_pseudo(self, w):
        """(A A^T)^{-1} A w for a P x M batch or a (G, P, M) stack, acting on
        the last two axes."""
        return self.pseudo_u @ (self.pseudo_vt @ w / self.pseudo_s[:, None])

    def project(self, v):
        """P_{X K_A} v for a vector or an N x M batch."""
        q = self.projector_factor
        if q.shape[1] == 0:
            return np.zeros_like(v)
        return q @ (q.T @ v)

    def _fit(self, c_block):
        """(beta_c, X beta_c) as (G, P, 1) and (G, N, 1) stacks, one item for
        each row c of a (G, R) block; every c must be finite of length R.

        The one place either is computed. Each item of a stacked product is
        the matrix-vector product that one c on its own takes, so a
        candidate of a confidence region, which needs only X beta_c, gets
        the bits :meth:`at` gives, in a block of any size.
        """
        c = _as_candidates(c_block, self.r)
        beta_c = self.pseudo_vt.T @ (self.pseudo_u.T @ c[:, :, None] / self.pseudo_s[:, None])
        return beta_c, self.design.values @ beta_c

    def at(self, c_vector):
        """The ReducedProblem for H0: A beta = c; c must be finite of length R."""
        beta_c, x_fit_c = self._fit(_as_1d(c_vector, "c")[None])
        return ReducedProblem(
            **{f.name: getattr(self, f.name) for f in fields(ReductionFactor)},
            beta_c=beta_c[0, :, 0],
            x_fit_c=x_fit_c[0, :, 0],
        )


@dataclass(frozen=True)
class ReducedProblem(ReductionFactor):
    """A ReductionFactor taken at one c: everything the affine statistics need.

    ``beta_c`` is the minimum-norm solution of ``A beta = c`` and
    ``x_fit_c`` caches ``X beta_c``.
    """

    beta_c: np.ndarray
    x_fit_c: np.ndarray = field(repr=False)


def _full_row_rank_svd(a):
    """The full SVD (u, s, vh) of an R x P matrix A of full row rank.

    Raises RankDeficient if A does not have full row rank at the usual
    ``max(shape) * eps * s_max`` cutoff.
    """
    r, p = a.shape
    if r > p:
        raise RankDeficient(f"A is {r}x{p}: cannot have full row rank")
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = max(a.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    if rank < r:
        raise RankDeficient(f"numerical row rank {rank} < R = {r}")
    return u, s, vh


def kernel_basis(a_matrix):
    """Orthonormal basis of ker(A); A must have full row rank (see
    :func:`_full_row_rank_svd` for the cutoff)."""
    a = _as_2d(a_matrix, "A")
    _, _, vh = _full_row_rank_svd(a)
    return vh[a.shape[0]:].T


def factor_reduction(x, a_matrix):
    """Factor the c-independent part of the reduction for (X, A).

    Fails with RankDeficient when A is not of full row rank, and with
    Untestable when rank(X K_A) = N, in which case the zero-thresholding
    statistic is identically zero.
    """
    return _factor(x, _as_2d(a_matrix, "A"), None)


def _factor(x, a, a_svd):
    """:func:`factor_reduction` of (X, A), taking the SVD of A from ``a_svd``
    when it is not None."""
    x = _as_design(x)
    if a.shape[1] != x.p:
        raise DimensionMismatch(f"A has {a.shape[1]} columns, X has P = {x.p}")
    key = (a.shape, a.tobytes())
    memo = x._factor_memo
    if memo is not None and memo[0] == key:
        # these bytes already passed the row-rank check
        return ReductionFactor(*memo[1], design=x)
    r = a.shape[0]
    u, s, vh = _full_row_rank_svd(a) if a_svd is None else a_svd
    k_a = vh[r:].T

    xka = x.values @ k_a
    if xka.shape[1] == 0:
        q = np.zeros((x.n, 0))
        rank_xka = 0
    else:
        uq, sq, _ = np.linalg.svd(xka, full_matrices=False)
        q_tol = max(xka.shape) * np.finfo(float).eps * (sq[0] if sq.size else 0.0)
        rank_xka = int(np.sum(sq > q_tol))
        q = uq[:, :rank_xka]
    if rank_xka >= x.n:
        raise Untestable(
            "rank(X K_A) = N: lambda_0(y) = 0 for all y, no thresholding test exists"
        )
    arrays = (k_a, q, u, s[:r], vh[:r])
    for arr in arrays:  # every later factor of these bytes shares them
        arr.flags.writeable = False
    object.__setattr__(x, "_factor_memo", (key, arrays))
    return ReductionFactor(*arrays, design=x)


def build_reduction(x, hyp):
    """Assemble the ReducedProblem for a design and hypothesis: the factor
    for (X, A) taken at c, reusing the hypothesis's SVD of A."""
    return _factor(x, hyp.a_matrix, hyp._a_svd).at(hyp.c_vector)


def residual_parts(red, x, y):
    """(r, Q^T v) for v = y - X beta_c and r = (I - Q Q^T) v, for an
    N-vector, an N x M batch or a (G, N, M) stack y, acting on the last two
    axes of a batch or a stack.

    r is orthogonal to range(Q), so ``||v||^2 = ||r||^2 + ||Q^T v||^2``
    gives the size of v per column without another pass over it. r is
    formed in v's place, so a batch holds one temporary of y's shape
    besides r.
    """
    x = _as_design(x)
    y = np.asarray(y, dtype=float)
    rows = y.shape[-2] if y.ndim > 1 else len(y)
    if rows != x.n:
        raise DimensionMismatch(f"y has length {rows}, expected N = {x.n}")
    if y.ndim == 1:
        v = y - red.x_fit_c
    else:
        v = y - red.x_fit_c[:, None]
    q = red.projector_factor
    qtv = q.T @ v
    v -= q @ qtv
    return v, qtv


def residual(red, x, y):
    """r = (I - P_{X K_A})(y - X beta_c); accepts an N-vector or N x M batch."""
    return residual_parts(red, x, y)[0]


@dataclass(frozen=True)
class GlmFamily:
    """Exponential-family description used by the GLM score statistic.

    ``pivotal_inverse_link`` is the inverse link h with (h')^2 = V(h),
    which makes the normalized score asymptotically pivotal; the
    canonical link is kept for data generation. The family normalizer
    c(y, phi) is never needed and not represented.
    """

    tag: str
    variance: Callable[[np.ndarray], np.ndarray]
    canonical_inverse_link: Callable[[np.ndarray], np.ndarray]
    canonical_link: Callable[[np.ndarray], np.ndarray]
    pivotal_inverse_link: Callable[[np.ndarray], np.ndarray]
    pivotal_derivative: Callable[[np.ndarray], np.ndarray]
    pivotal_domain: tuple

    def check_pivotal_domain(self, x_grid):
        x_grid = np.asarray(x_grid, dtype=float)
        lo, hi = self.pivotal_domain
        if np.any(x_grid < lo) or np.any(x_grid > hi):
            raise DomainError(
                f"grid point outside the {self.tag} pivotal-link domain [{lo}, {hi}]"
            )
        return x_grid


_GAUSSIAN = GlmFamily(
    tag="gaussian",
    variance=lambda mu: np.ones_like(np.asarray(mu, dtype=float)),
    canonical_inverse_link=lambda x: np.asarray(x, dtype=float),
    canonical_link=lambda mu: np.asarray(mu, dtype=float),
    pivotal_inverse_link=lambda x: np.asarray(x, dtype=float),
    pivotal_derivative=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    pivotal_domain=(-np.inf, np.inf),
)


def _logistic(x):
    """1 / (1 + e^-x), with the exponent capped at 709 so that e^-x cannot
    overflow: below x = -709 it gives about 1e-308 for the limit 0."""
    return 1.0 / (1.0 + np.exp(np.minimum(-np.asarray(x, dtype=float), 709.0)))


_BERNOULLI = GlmFamily(
    tag="bernoulli",
    variance=lambda mu: np.asarray(mu) * (1.0 - np.asarray(mu)),
    canonical_inverse_link=_logistic,
    canonical_link=lambda mu: np.log(np.asarray(mu) / (1.0 - np.asarray(mu))),
    pivotal_inverse_link=lambda x: (np.sin(np.asarray(x, dtype=float)) + 1.0) / 2.0,
    pivotal_derivative=lambda x: np.cos(np.asarray(x, dtype=float)) / 2.0,
    pivotal_domain=(-np.pi / 2.0, np.pi / 2.0),
)

_POISSON = GlmFamily(
    tag="poisson",
    variance=lambda mu: np.asarray(mu, dtype=float),
    canonical_inverse_link=lambda x: np.exp(np.asarray(x, dtype=float)),
    canonical_link=lambda mu: np.log(np.asarray(mu, dtype=float)),
    pivotal_inverse_link=lambda x: np.asarray(x, dtype=float) ** 2 / 4.0,
    pivotal_derivative=lambda x: np.asarray(x, dtype=float) / 2.0,
    pivotal_domain=(0.0, np.inf),
)

# one instance per tag, so that equal tags give equal (and equally hashed)
# families, specs and configs
_FAMILIES = {family.tag: family for family in (_GAUSSIAN, _BERNOULLI, _POISSON)}


def glm_family(tag):
    """Return the GlmFamily for one of {gaussian, bernoulli, poisson}, or a
    GlmFamily given as ``tag`` unchanged; any other value raises DomainError."""
    if isinstance(tag, GlmFamily):
        return tag
    try:
        return _FAMILIES[tag]
    except (KeyError, TypeError):
        raise DomainError(f"unknown family {tag!r}") from None
