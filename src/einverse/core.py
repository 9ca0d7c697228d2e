"""Grouped-shape dense complex tensors and the Einstein product.

A tensor here is "matrix-like": its modes are split into a row group and a
column group.  The Einstein product contracts the full column group of the
left operand against the full row group of the right operand, generalizing
matrix multiplication.  A tensor stores only its unfolding: the
row_count x col_count matrix whose rows run over the row-group index tuples
and whose columns run over the column-group tuples, each row-major with the
last index fastest.  Under that isomorphism the Einstein product is the
matrix product and the conjugate transpose is the matrix adjoint; the N-mode
array and the flat entry list are reshape views of the same buffer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch


@dataclass(frozen=True)
class GroupedShape:
    """A pair of index groups: row dims (I1..IN) and column dims (J1..JM)."""

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_dims", tuple(int(d) for d in self.row_dims))
        object.__setattr__(self, "col_dims", tuple(int(d) for d in self.col_dims))
        for name, dims in (("row_dims", self.row_dims), ("col_dims", self.col_dims)):
            if len(dims) == 0:
                raise ShapeMismatch(f"{name} must contain at least one mode")
            if any(d < 1 for d in dims):
                raise ShapeMismatch(f"{name} must be positive, got {dims}")

    @property
    def row_count(self) -> int:
        return math.prod(self.row_dims)

    @property
    def col_count(self) -> int:
        return math.prod(self.col_dims)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.row_dims + self.col_dims

    @property
    def transposed(self) -> "GroupedShape":
        """Shape of the conjugate transpose: groups swapped."""
        return GroupedShape(self.col_dims, self.row_dims)

    def __str__(self) -> str:
        r = "x".join(map(str, self.row_dims))
        c = "x".join(map(str, self.col_dims))
        return f"({r} | {c})"


class DenseTensor:
    """Dense complex tensor over a :class:`GroupedShape`, stored as its unfolding.

    Immutable: the backing matrix is C-contiguous and marked read-only at
    construction, and every operation returns a fresh tensor, so values are
    safe to share across threads.
    """

    __slots__ = ("shape", "matrix")

    def __init__(self, shape: GroupedShape, entries):
        arr = np.asarray(entries, dtype=np.complex128)
        rows, cols = shape.row_count, shape.col_count
        if arr.size != rows * cols:
            raise ShapeMismatch(
                f"shape {shape} needs {rows * cols} entries, got {arr.size}"
            )
        arr = np.ascontiguousarray(arr.reshape(rows, cols))
        arr.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "matrix", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    @property
    def data(self) -> np.ndarray:
        """N-mode view over (rows..., cols...) of the unfolding."""
        return self.matrix.reshape(self.shape.dims)

    @property
    def entries(self) -> np.ndarray:
        """Flat 1-D view, row-major over (rows..., cols...) with the last index fastest."""
        return self.matrix.reshape(-1)

    def at(self, *index: int) -> complex:
        """Entry at a full 0-based index tuple (i1..iN, j1..jM)."""
        if len(index) != len(self.shape.dims):
            raise ShapeMismatch(
                f"expected {len(self.shape.dims)} indices, got {len(index)}"
            )
        return complex(self.data[index])

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        return add(self, other)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        return sub(self, other)

    def __mul__(self, c) -> "DenseTensor":
        return scale(self, c)

    __rmul__ = __mul__

    def __neg__(self) -> "DenseTensor":
        return scale(self, -1.0)

    def __matmul__(self, other: "DenseTensor") -> "DenseTensor":
        return einstein_product(self, other)

    @property
    def H(self) -> "DenseTensor":
        return conj_transpose(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.matrix, other.matrix)

    __hash__ = None

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape}, norm={frobenius_norm(self):.6g})"


def einstein_product(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Contract a's column group against b's row group.

    Requires an exact elementwise match of the shared group.  The result has
    a's row group and b's column group, and its unfolding is the matrix
    product of the operands' unfoldings.
    """
    if a.shape.col_dims != b.shape.row_dims:
        raise ShapeMismatch(
            f"cannot contract {a.shape} with {b.shape}: "
            f"col group {a.shape.col_dims} != row group {b.shape.row_dims}"
        )
    shape = GroupedShape(a.shape.row_dims, b.shape.col_dims)
    # np.dot, not matmul: matmul rounds differently when the contracted size
    # is 1, and the fuzz generator's spectrum screening sees that last bit.
    return DenseTensor(shape, np.dot(a.matrix, b.matrix))


def conj_transpose(a: DenseTensor) -> DenseTensor:
    """Swap the index groups and conjugate every entry."""
    return DenseTensor(a.shape.transposed, a.matrix.conj().T)


def identity(dims) -> DenseTensor:
    """Two-sided unit for the Einstein product on the given group dims."""
    dims = tuple(int(d) for d in dims)
    shape = GroupedShape(dims, dims)
    n = shape.row_count
    return DenseTensor(shape, np.eye(n, dtype=np.complex128))


def zeros(shape: GroupedShape) -> DenseTensor:
    return DenseTensor(shape, np.zeros((shape.row_count, shape.col_count)))


def _require_same_shape(a: DenseTensor, b: DenseTensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeMismatch(f"{op} requires identical shapes, got {a.shape} and {b.shape}")


def add(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    _require_same_shape(a, b, "add")
    return DenseTensor(a.shape, a.matrix + b.matrix)


def sub(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    _require_same_shape(a, b, "sub")
    return DenseTensor(a.shape, a.matrix - b.matrix)


def scale(a: DenseTensor, c) -> DenseTensor:
    return DenseTensor(a.shape, a.matrix * complex(c))


def frobenius_norm(a: DenseTensor) -> float:
    return float(np.linalg.norm(a.matrix))


def max_abs_diff(a: DenseTensor, b: DenseTensor) -> float:
    """Largest entrywise absolute difference; used for golden-value checks."""
    _require_same_shape(a, b, "max_abs_diff")
    return float(np.max(np.abs(a.matrix - b.matrix)))


def rel_residual(lhs: DenseTensor, rhs: DenseTensor) -> float:
    """||lhs - rhs||_F / max(||lhs||_F, ||rhs||_F), and 0 when both are zero.

    There is no absolute floor, so the residual does not change when both
    sides are scaled by the same nonzero factor, and no verdict built on it
    depends on how the factors of a chain are scaled.  A nonzero tensor
    against zero gives 1.
    """
    _require_same_shape(lhs, rhs, "rel_residual")
    scale = max(frobenius_norm(lhs), frobenius_norm(rhs))
    return float(np.linalg.norm(lhs.matrix - rhs.matrix)) / scale if scale else 0.0


def approx_eq(a: DenseTensor, b: DenseTensor, rel_tol: float) -> bool:
    """True iff ||a - b||_F <= rel_tol * max(||a||_F, ||b||_F)."""
    return rel_residual(a, b) <= rel_tol
