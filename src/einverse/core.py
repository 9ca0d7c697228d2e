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

The kernel is kept thin because the paper's tensors are tiny (4x4
unfoldings), so per-call Python overhead, not arithmetic, sets the run time:

- a shape is validated once, its derived sizes are computed once, and the
  shapes the library derives (products, transposes) are interned;
- the public :class:`DenseTensor` constructor checks and copies outside
  input, while the library's own results, freshly allocated C-contiguous
  complex128 matrices, are wrapped as they are by ``DenseTensor._wrap``;
- norms do :func:`numpy.linalg.norm`'s arithmetic without its dispatch.

None of this changes a bit of any result.
"""
from __future__ import annotations

import functools
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

    @functools.cached_property
    def row_count(self) -> int:
        return math.prod(self.row_dims)

    @functools.cached_property
    def col_count(self) -> int:
        return math.prod(self.col_dims)

    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return self.row_dims + self.col_dims

    @functools.cached_property
    def transposed(self) -> "GroupedShape":
        """Shape of the conjugate transpose: groups swapped."""
        return _derived_shape(self.col_dims, self.row_dims)

    def __str__(self) -> str:
        r = "x".join(map(str, self.row_dims))
        c = "x".join(map(str, self.col_dims))
        return f"({r} | {c})"


@functools.lru_cache(maxsize=1024)
def _derived_shape(row_dims: tuple[int, ...], col_dims: tuple[int, ...]) -> GroupedShape:
    """The one GroupedShape for dims taken from shapes that were already validated."""
    return GroupedShape(row_dims, col_dims)


class DenseTensor:
    """Dense complex tensor over a :class:`GroupedShape`, stored as its unfolding.

    Immutable: the constructor copies `entries` into a C-contiguous matrix
    that no caller holds and marks it read-only, and every operation returns
    a fresh tensor, so values are safe to share across threads.
    """

    __slots__ = ("shape", "matrix")

    def __init__(self, shape: GroupedShape, entries):
        arr = np.asarray(entries, dtype=np.complex128)
        rows, cols = shape.row_count, shape.col_count
        if arr.size != rows * cols:
            raise ShapeMismatch(
                f"shape {shape} needs {rows * cols} entries, got {arr.size}"
            )
        arr = arr.reshape(rows, cols).copy()
        arr.setflags(write=False)
        _set_shape(self, shape)
        _set_matrix(self, arr)

    @classmethod
    def _wrap(cls, shape: GroupedShape, matrix: np.ndarray) -> "DenseTensor":
        """Adopt a matrix the library has just allocated, without check or copy.

        `matrix` must be a fresh, C-contiguous complex128 array of shape
        (shape.row_count, shape.col_count) that nothing else references; it
        is marked read-only here.  Outside input goes through the
        constructor instead.
        """
        matrix.setflags(write=False)
        t = object.__new__(cls)
        _set_shape(t, shape)
        _set_matrix(t, matrix)
        return t

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


# The slots' own setters, since DenseTensor.__setattr__ refuses every write.
_set_shape = DenseTensor.shape.__set__
_set_matrix = DenseTensor.matrix.__set__


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
    shape = _derived_shape(a.shape.row_dims, b.shape.col_dims)
    # np.dot, not matmul: matmul rounds differently when the contracted size
    # is 1, and the fuzz generator's spectrum screening sees that last bit.
    return DenseTensor._wrap(shape, np.dot(a.matrix, b.matrix))


def conj_transpose(a: DenseTensor) -> DenseTensor:
    """Swap the index groups and conjugate every entry."""
    return DenseTensor._wrap(a.shape.transposed, np.conjugate(a.matrix.T, order="C"))


def identity(dims) -> DenseTensor:
    """Two-sided unit for the Einstein product on the given group dims."""
    dims = tuple(int(d) for d in dims)
    shape = GroupedShape(dims, dims)
    n = shape.row_count
    return DenseTensor._wrap(shape, np.eye(n, dtype=np.complex128))


def zeros(shape: GroupedShape) -> DenseTensor:
    return DenseTensor._wrap(
        shape, np.zeros((shape.row_count, shape.col_count), dtype=np.complex128)
    )


def _require_same_shape(a: DenseTensor, b: DenseTensor, op: str) -> None:
    if a.shape is not b.shape and a.shape != b.shape:
        raise ShapeMismatch(f"{op} requires identical shapes, got {a.shape} and {b.shape}")


def add(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    _require_same_shape(a, b, "add")
    return DenseTensor._wrap(a.shape, a.matrix + b.matrix)


def sub(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    _require_same_shape(a, b, "sub")
    return DenseTensor._wrap(a.shape, a.matrix - b.matrix)


def scale(a: DenseTensor, c) -> DenseTensor:
    return DenseTensor._wrap(a.shape, a.matrix * complex(c))


def _norm(m: np.ndarray) -> float:
    """np.linalg.norm(m) for a complex array, bit for bit, without its dispatch.

    It is numpy's own arithmetic for that case: ravel, re.re + im.im as two
    BLAS dot products, then the square root.
    """
    x = m.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def frobenius_norm(a: DenseTensor) -> float:
    return _norm(a.matrix)


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
    scale = max(_norm(lhs.matrix), _norm(rhs.matrix))
    return _norm(lhs.matrix - rhs.matrix) / scale if scale else 0.0


def approx_eq(a: DenseTensor, b: DenseTensor, rel_tol: float) -> bool:
    """True iff ||a - b||_F <= rel_tol * max(||a||_F, ||b||_F)."""
    return rel_residual(a, b) <= rel_tol
