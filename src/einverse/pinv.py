"""Moore-Penrose inverse via unfolding + SVD, and Penrose-equation checks.

The unfolding sends a grouped tensor to the row_count x col_count matrix in
the canonical row-major order; it is a bijective algebra homomorphism, so a
tensor's Moore-Penrose inverse is the fold of its unfolding's pseudoinverse.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DenseTensor,
    GroupedShape,
    conj_transpose,
    einstein_product,
    rel_residual,
)
from .errors import NumericalFailure, ShapeMismatch


def unfold(a: DenseTensor) -> np.ndarray:
    """Matrix view of the tensor: rows = linearized row group, cols = col group."""
    return a.matrix


def fold(matrix, shape: GroupedShape) -> DenseTensor:
    """Inverse of :func:`unfold` for the given grouped shape; copies `matrix`."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (shape.row_count, shape.col_count):
        raise ShapeMismatch(
            f"matrix {m.shape} does not fold into {shape} "
            f"({shape.row_count} x {shape.col_count})"
        )
    return DenseTensor(shape, m)


@dataclass(frozen=True)
class RankPolicy:
    """Rule for truncating singular values when forming a pseudoinverse.

    mode "relative": drop sigma <= value * sigma_max; value None means the
    standard max(rows, cols) * machine-epsilon cutoff.
    mode "absolute": drop sigma <= value.
    mode "fixed_rank": keep exactly the leading `value` singular values,
    for reproducing degenerate cases where noise might flip a rank decision.
    """

    mode: str = "relative"
    value: float | int | None = None

    def __post_init__(self):
        if self.mode not in ("relative", "absolute", "fixed_rank"):
            raise ValueError(f"unknown rank policy mode {self.mode!r}")
        if self.mode == "fixed_rank":
            if self.value is None or int(self.value) != self.value or self.value < 0:
                raise ValueError("fixed_rank needs a nonnegative integer value")
        elif self.value is not None and not self.value > 0:
            raise ValueError(f"{self.mode} threshold must be positive")


_DEFAULT_POLICY = RankPolicy()
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SvdInfo:
    """Spectrum diagnostics from one truncated-SVD pseudoinverse."""

    singular_values: tuple[float, ...]
    cutoff: float
    rank: int
    borderline: bool


def _svd(matrix: np.ndarray):
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def _truncation(sv: tuple[float, ...], shape: tuple[int, int], policy: RankPolicy):
    """Return (rank, cutoff, borderline) for the singular values `sv`, largest first.

    Plain Python over the few floats of a small spectrum costs a fraction of
    the equivalent numpy calls, and every comparison is the same exact one.
    """
    n = len(sv)
    smax = sv[0] if n else 0.0
    if policy.mode == "fixed_rank":
        rank = min(int(policy.value), n)
        cutoff = sv[rank] if rank < n else 0.0
        borderline = 0 < rank < n and sv[rank] > 0 and sv[rank - 1] <= 10.0 * sv[rank]
        return rank, cutoff, borderline
    if policy.mode == "absolute":
        cutoff = float(policy.value)
    else:
        rel = policy.value if policy.value is not None else max(shape) * _EPS
        cutoff = float(rel) * smax
    rank = sum(x > cutoff for x in sv)
    low, high = cutoff / 10.0, cutoff * 10.0
    borderline = cutoff > 0 and any(low <= x <= high for x in sv)
    return rank, cutoff, borderline


def _svd_pinv(matrix: np.ndarray, policy: RankPolicy):
    u, s, vh = _svd(matrix)
    sv = tuple(s.tolist())
    rank, cutoff, borderline = _truncation(sv, matrix.shape, policy)
    inv_s = np.zeros_like(s)
    inv_s[:rank] = 1.0 / s[:rank]
    pinv = (vh.conj().T * inv_s) @ u.conj().T
    return pinv, SvdInfo(sv, cutoff, rank, borderline)


def mp_inverse_info(a: DenseTensor, policy: RankPolicy | None = None):
    """Moore-Penrose inverse plus the SVD diagnostics behind it."""
    pinv, info = _svd_pinv(a.matrix, policy or _DEFAULT_POLICY)
    # the assembly's matmul allocates a fresh C-contiguous complex128 matrix
    return DenseTensor._wrap(a.shape.transposed, pinv), info


def mp_inverse(a: DenseTensor, policy: RankPolicy | None = None) -> DenseTensor:
    """The unique tensor X with A*X*A = A, X*A*X = X and A*X, X*A Hermitian.

    Computed as the fold of the truncated-SVD pseudoinverse of the unfolding.
    Defined for every tensor; the zero tensor maps to the zero tensor of the
    transposed shape.
    """
    return mp_inverse_info(a, policy)[0]


@dataclass(frozen=True)
class PenroseReport:
    """Relative residuals of the four defining pseudoinverse equations."""

    residual_1: float  # A*X*A vs A
    residual_2: float  # X*A*X vs X
    residual_3: float  # A*X vs its conjugate transpose
    residual_4: float  # X*A vs its conjugate transpose
    tolerance: float
    passed: bool

    @property
    def residuals(self) -> tuple[float, float, float, float]:
        return (self.residual_1, self.residual_2, self.residual_3, self.residual_4)


def verify_penrose(a: DenseTensor, x: DenseTensor, tol: float = 1e-10) -> PenroseReport:
    """Measure how well `x` satisfies the four defining equations for `a`."""
    if x.shape != a.shape.transposed:
        raise ShapeMismatch(
            f"candidate shape {x.shape} is not the transpose of {a.shape}"
        )
    ax = einstein_product(a, x)
    xa = einstein_product(x, a)
    r1 = rel_residual(einstein_product(ax, a), a)
    r2 = rel_residual(einstein_product(xa, x), x)
    r3 = rel_residual(conj_transpose(ax), ax)
    r4 = rel_residual(conj_transpose(xa), xa)
    passed = all(r <= tol for r in (r1, r2, r3, r4))
    return PenroseReport(r1, r2, r3, r4, tol, passed)
