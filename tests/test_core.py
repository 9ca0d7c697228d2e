"""Tensor core: shapes, Einstein product, conjugate transpose, arithmetic."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einverse import (
    DenseTensor,
    GroupedShape,
    ShapeMismatch,
    add,
    approx_eq,
    conj_transpose,
    einstein_product,
    fold,
    frobenius_norm,
    identity,
    mp_inverse,
    max_abs_diff,
    rel_residual,
    scale,
    sub,
    zeros,
)
from einverse.oracle import oracle_unfold
from conftest import random_tensor
from golden_data import golden_tensor


def seeded(seed):
    return np.random.Generator(np.random.PCG64(seed))


# --- GroupedShape ----------------------------------------------------------

def test_shape_validation():
    s = GroupedShape((2, 3), (4,))
    assert s.row_count == 6 and s.col_count == 4
    assert s.transposed == GroupedShape((4,), (2, 3))
    with pytest.raises(ShapeMismatch):
        GroupedShape((), (2,))
    with pytest.raises(ShapeMismatch):
        GroupedShape((2,), ())
    with pytest.raises(ShapeMismatch):
        GroupedShape((2, 0), (1,))
    with pytest.raises(ShapeMismatch):
        GroupedShape((2,), (-1,))


def test_entry_count_enforced():
    with pytest.raises(ShapeMismatch):
        DenseTensor(GroupedShape((2, 2), (2, 2)), np.zeros(15))


def test_at_is_bijection_onto_entries():
    t = random_tensor(seeded(1), (2, 3), (2,))
    seen = []
    for i in range(2):
        for j in range(3):
            for k in range(2):
                seen.append(t.at(i, j, k))
    assert np.array_equal(np.asarray(seen), t.entries)


def test_immutability():
    t = identity([2])
    with pytest.raises(AttributeError):
        t.data = None
    with pytest.raises(ValueError):
        t.data[0, 0] = 5.0


def test_constructor_copies_callers_array():
    shape = GroupedShape((2,), (2,))
    m = np.eye(2, dtype=complex)
    f = np.eye(2, dtype=complex)
    t, u = DenseTensor(shape, m), fold(f, shape)
    m[0, 0] = f[0, 0] = 5.0
    assert t.matrix[0, 0] == u.matrix[0, 0] == 1.0
    assert not np.shares_memory(t.matrix, m) and not np.shares_memory(u.matrix, f)


# --- Einstein product --------------------------------------------------------

def test_product_rejects_group_mismatch():
    a = random_tensor(seeded(2), (2,), (3,))
    b = random_tensor(seeded(3), (2,), (2,))
    with pytest.raises(ShapeMismatch):
        einstein_product(a, b)
    # same total size but different mode split must also be rejected
    c = random_tensor(seeded(4), (3, 1), (2,))
    with pytest.raises(ShapeMismatch):
        einstein_product(a, c)


def test_product_reproduces_worked_example():
    a = golden_tensor("3.1", "A")
    prod = golden_tensor("3.1", "R") @ golden_tensor("3.1", "S") @ golden_tensor("3.1", "T")
    assert max_abs_diff(prod, a) == 0.0


def test_identity_is_exact_unit():
    t = random_tensor(seeded(5), (2, 2), (3,))
    left = einstein_product(identity([2, 2]), t)
    right = einstein_product(t, identity([3]))
    assert np.array_equal(left.data, t.data)
    assert np.array_equal(right.data, t.data)


def test_mp_inverse_of_identity_is_identity():
    i = identity([2, 2])
    assert approx_eq(mp_inverse(i), i, 1e-12)


@st.composite
def product_pair(draw):
    row = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    mid = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    col = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    seed = draw(st.integers(0, 2**32 - 1))
    g = seeded(seed)
    return random_tensor(g, row, mid), random_tensor(g, mid, col)


@settings(max_examples=40, deadline=None)
@given(product_pair())
def test_unfolding_homomorphism(pair):
    a, b = pair
    prod = einstein_product(a, b)
    lhs = oracle_unfold(prod)
    rhs = oracle_unfold(a) @ oracle_unfold(b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.abs(rhs).max())
    # the paper's definition: a sum over the shared N-mode index tuples
    direct = np.tensordot(a.data, b.data, axes=len(a.shape.col_dims))
    assert np.max(np.abs(prod.data - direct)) <= 1e-12 * max(1.0, np.abs(direct).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_associativity_and_reversal(seed):
    g = seeded(seed)
    a = random_tensor(g, (2,), (3,))
    b = random_tensor(g, (3,), (2, 2))
    c = random_tensor(g, (2, 2), (2,))
    assert approx_eq((a @ b) @ c, a @ (b @ c), 1e-12)
    assert approx_eq(conj_transpose(a @ b),
                     conj_transpose(b) @ conj_transpose(a), 1e-12)


def test_conj_transpose_involution_bit_exact():
    t = random_tensor(seeded(6), (2, 3), (2, 2))
    back = conj_transpose(conj_transpose(t))
    assert back.shape == t.shape
    assert np.array_equal(back.data, t.data)


def test_conj_transpose_matches_matrix_adjoint():
    t = random_tensor(seeded(7), (2, 3), (4,))
    assert np.max(np.abs(oracle_unfold(conj_transpose(t)) - oracle_unfold(t).conj().T)) == 0.0


def test_conj_transpose_of_worked_inverse():
    ad = golden_tensor("3.1", "A_pinv")
    adh = conj_transpose(ad)
    assert adh.shape.row_dims == (2, 2) and adh.shape.col_dims == (2, 2)
    assert adh.at(0, 0, 0, 0) == np.conj(ad.at(0, 0, 0, 0)) == 1.0


# --- elementwise ops ----------------------------------------------------------

def test_add_sub_scale():
    g = seeded(8)
    a = random_tensor(g, (2,), (2,))
    b = random_tensor(g, (2,), (2,))
    assert np.allclose(add(a, b).data, a.data + b.data)
    assert np.allclose(sub(a, b).data, a.data - b.data)
    assert np.allclose(scale(a, 2j).data, 2j * a.data)
    assert np.allclose((a + b).data, a.data + b.data)
    assert np.allclose((a - b).data, a.data - b.data)
    assert np.allclose((2j * a).data, 2j * a.data)
    with pytest.raises(ShapeMismatch):
        add(a, random_tensor(g, (2,), (3,)))


def test_norm_and_approx_eq():
    shape = GroupedShape((2, 2), (2, 2))
    assert frobenius_norm(zeros(shape)) == 0.0
    a = golden_tensor("3.1", "A")
    assert approx_eq(a, a, 0.0)
    assert frobenius_norm(a) == pytest.approx(np.sqrt(6), abs=1e-15)
    with pytest.raises(ShapeMismatch):
        approx_eq(a, zeros(GroupedShape((2,), (2,))), 1e-6)


@pytest.mark.parametrize("rows, cols", [((1,), (1,)), ((2,), (3,)), ((2, 2), (2, 2)),
                                        ((4, 4), (2, 8))])
def test_norm_is_numpy_norm_bit_for_bit(rows, cols):
    g = seeded(11)
    for _ in range(20):
        x, y = random_tensor(g, rows, cols), random_tensor(g, rows, cols)
        for t in (x, y, x * 1e-150, y * 1e150):
            assert frobenius_norm(t) == np.linalg.norm(t.matrix)
        scale_ = max(np.linalg.norm(x.matrix), np.linalg.norm(y.matrix))
        assert rel_residual(x, y) == np.linalg.norm(x.matrix - y.matrix) / scale_


def test_results_are_fresh_read_only_c_contiguous():
    g = seeded(12)
    a, b = random_tensor(g, (2,), (3, 2)), random_tensor(g, (3, 2), (2,))
    c = random_tensor(g, (2,), (3, 2))
    results = [einstein_product(a, b), a @ b, add(a, c), sub(a, c), scale(a, 2j),
               conj_transpose(a), mp_inverse(a), identity([2, 3]), zeros(a.shape)]
    for r in results:
        m = r.matrix
        assert m.dtype == np.complex128 and m.flags.c_contiguous and m.flags.owndata
        assert not m.flags.writeable
        assert m.shape == (r.shape.row_count, r.shape.col_count)
        assert r == DenseTensor(r.shape, m)


def test_derived_shapes_are_interned():
    a = random_tensor(seeded(13), (2,), (3, 2))
    assert (a @ conj_transpose(a)).shape is (a @ conj_transpose(a)).shape
    assert conj_transpose(a).shape is a.shape.transposed


def test_rel_residual_is_scale_free():
    shape = GroupedShape((2,), (2,))
    zero = zeros(shape)
    assert rel_residual(zero, zero) == 0.0
    x, y = random_tensor(seeded(5), (2,), (2,)), random_tensor(seeded(6), (2,), (2,))
    assert rel_residual(x, zero) == 1.0
    # a power of two rescales every entry exactly, so the residual is bit-identical
    for k in (-60, -20, -1, 1, 20, 60):
        assert rel_residual(x * 2.0 ** k, y * 2.0 ** k) == rel_residual(x, y), k
    # no absolute floor: a tiny tensor is not "equal" to zero
    tiny = DenseTensor(shape, [1e-14, 0, 0, 0])
    assert not approx_eq(tiny, zero, 1e-12)
