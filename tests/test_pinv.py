"""Moore-Penrose inverse, Penrose verification, rank policies."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einverse import (
    GroupedShape,
    RankPolicy,
    ShapeMismatch,
    approx_eq,
    conj_transpose,
    einstein_product,
    fold,
    identity,
    max_abs_diff,
    mp_inverse,
    mp_inverse_info,
    unfold,
    verify_penrose,
    zeros,
)
from einverse.oracle import gen_tensor, oracle_pinv, oracle_unfold
from conftest import random_tensor
from golden_data import golden_tensor


def seeded(seed):
    return np.random.Generator(np.random.PCG64(seed))


# --- unfold / fold ----------------------------------------------------------

def test_unfold_identity():
    assert np.array_equal(unfold(identity([2, 2])), np.eye(4))
    assert np.array_equal(unfold(identity([2, 3])), np.eye(6))


def test_unfold_fold_roundtrip_bit_exact():
    t = random_tensor(seeded(0), (2, 3), (2, 2))
    assert fold(unfold(t), t.shape) == t


def test_unfold_first_row_of_worked_example():
    a = golden_tensor("3.1", "A")
    assert np.array_equal(unfold(a)[0], np.array([1, 0, 0, -1], dtype=complex))


def test_fold_shape_check():
    with pytest.raises(ShapeMismatch):
        fold(np.eye(3), GroupedShape((2,), (2,)))


# --- mp_inverse ---------------------------------------------------------------

def test_worked_example_inverses():
    for which, names in (
        ("3.1", ("A", "R", "S", "T")),
        ("exmppgi", ("A", "R", "S", "T")),
    ):
        for name in names:
            got = mp_inverse(golden_tensor(which, name))
            want = golden_tensor(which, f"{name}_pinv")
            assert max_abs_diff(got, want) <= 1e-10, (which, name)


def test_zero_tensor_maps_to_transposed_zero():
    z = zeros(GroupedShape((2, 3), (2,)))
    out = mp_inverse(z)
    assert out.shape == GroupedShape((2,), (2, 3))
    assert np.all(out.data == 0)


def test_penrose_pass_for_worked_pair():
    a = golden_tensor("3.1", "A")
    rep = verify_penrose(a, golden_tensor("3.1", "A_pinv"), 1e-12)
    assert rep.passed
    assert max(rep.residuals) <= 1e-12


def test_penrose_zero_candidate_fails_with_unit_residual():
    a = golden_tensor("3.1", "A")
    rep = verify_penrose(a, zeros(a.shape.transposed), 1e-10)
    assert not rep.passed
    assert rep.residual_1 == pytest.approx(1.0, abs=1e-12)


def test_penrose_on_product_mp_candidate():
    # the product MP inverse reproduces A and itself but fails a symmetry
    a = golden_tensor("3.1", "A")
    x = golden_tensor("3.1", "product_mp")
    rep = verify_penrose(a, x, 1e-10)
    assert rep.residual_1 <= 1e-10 and rep.residual_2 <= 1e-10
    assert max(rep.residual_3, rep.residual_4) > 1e-2
    assert not rep.passed


def test_penrose_shape_check():
    a = random_tensor(seeded(1), (2,), (3,))
    with pytest.raises(ShapeMismatch):
        verify_penrose(a, random_tensor(seeded(2), (2,), (3,)), 1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["full", "deficient"]))
def test_mp_inverse_properties_random(seed, profile):
    from einverse.oracle import clean_spectrum

    for attempt in range(64):
        a = gen_tensor(seeded((seed, attempt)), (2, 2), (3,), rank_profile=profile)
        if clean_spectrum(unfold(a)):
            break
    x = mp_inverse(a)
    assert verify_penrose(a, x, 1e-10).passed
    # independence cross-check and uniqueness of the computed inverse
    assert np.max(np.abs(unfold(x) - oracle_pinv(oracle_unfold(a)))) <= 1e-12
    assert approx_eq(mp_inverse(x), a, 1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projector_is_its_own_inverse(seed):
    p = gen_tensor(seeded(seed), (2, 2), (2, 2), rank_profile="projector")
    assert approx_eq(mp_inverse(p), p, 1e-10)
    assert approx_eq(conj_transpose(p), p, 1e-12)
    assert approx_eq(einstein_product(p, p), p, 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hermitian_absorption(seed):
    g = seeded(seed)
    p = gen_tensor(g, (2, 2), (2, 2), rank_profile="projector")
    w = random_tensor(g, (2, 2), (2, 2))
    q = p @ w
    assert approx_eq(mp_inverse(q) @ p, mp_inverse(q), 1e-10)
    q2 = w @ p
    assert approx_eq(p @ mp_inverse(q2), mp_inverse(q2), 1e-10)


# --- rank policies ---------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        RankPolicy("nonsense")
    with pytest.raises(ValueError):
        RankPolicy("relative", -1.0)
    with pytest.raises(ValueError):
        RankPolicy("absolute", 0.0)
    with pytest.raises(ValueError):
        RankPolicy("fixed_rank", -1)
    with pytest.raises(ValueError):
        RankPolicy("fixed_rank", None)


def test_fixed_rank_truncates():
    shape = GroupedShape((2,), (2,))
    t = fold(np.diag([3.0, 1.0]), shape)
    full, info_full = mp_inverse_info(t, RankPolicy("fixed_rank", 2))
    assert info_full.rank == 2
    trunc, info = mp_inverse_info(t, RankPolicy("fixed_rank", 1))
    assert info.rank == 1
    assert np.allclose(unfold(trunc), np.diag([1 / 3, 0.0]))


def test_absolute_policy():
    shape = GroupedShape((2,), (2,))
    t = fold(np.diag([3.0, 1e-6]), shape)
    x, info = mp_inverse_info(t, RankPolicy("absolute", 1e-3))
    assert info.rank == 1
    assert np.allclose(unfold(x), np.diag([1 / 3, 0.0]))


def test_fixed_rank_zero_gives_zero_inverse():
    t = fold(np.diag([3.0, 1.0]), GroupedShape((2,), (2,)))
    x, info = mp_inverse_info(t, RankPolicy("fixed_rank", 0))
    assert info.rank == 0
    assert np.all(x.data == 0)


def test_borderline_detection():
    shape = GroupedShape((2,), (2,))
    clean = fold(np.diag([1.0, 0.5]), shape)
    assert not mp_inverse_info(clean)[1].borderline
    marginal = fold(np.diag([1.0, 2e-4]), shape)
    _, info = mp_inverse_info(marginal, RankPolicy("absolute", 1e-4))
    assert info.borderline

