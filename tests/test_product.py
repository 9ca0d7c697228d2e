"""Product MP inverse, two-factor formulas, and the law checkers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einverse import (
    Factorization,
    LawId,
    ShapeMismatch,
    approx_eq,
    b_tensor,
    c_tensor,
    check_b_c_cross,
    check_coincidence,
    check_y_decomposition,
    identity,
    identity_factorization,
    max_abs_diff,
    mp_from_factorization,
    mp_inverse,
    product_mp,
    product_mp_involution,
    rel_residual,
    triple_rol_check,
    two_factor_corollary,
    two_factor_mp,
    verify_product_penrose,
)
from einverse.oracle import InstanceSpec, gen_factorization, gen_tensor, single_entry_bump
from conftest import random_tensor
from golden_data import golden_tensor


def seeded(seed):
    return np.random.Generator(np.random.PCG64(seed))


def fact(which):
    return Factorization(
        golden_tensor(which, "R"), golden_tensor(which, "S"), golden_tensor(which, "T")
    )


def spec_for(seed, profile="full"):
    return InstanceSpec((2,), (2, 2), (2,), (2, 2),
                        rank_profile=profile, seed=seed)


# --- Factorization ----------------------------------------------------------

def test_factorization_validates_chain():
    g = seeded(0)
    r = random_tensor(g, (2,), (3,))
    s = random_tensor(g, (2,), (2,))  # wrong row group
    t = random_tensor(g, (2,), (2,))
    with pytest.raises(ShapeMismatch):
        Factorization(r, s, t)


def test_factorization_consistency_identities():
    f = fact("3.1")
    assert approx_eq((f.r @ f.r_pinv) @ f.a, f.a, 1e-10)
    assert approx_eq((f.a @ f.t_pinv) @ f.t, f.a, 1e-10)


def test_borderline_factor_surfaces_conditioning_warning():
    import numpy as np
    from einverse import fold, GroupedShape, RankPolicy
    shape = GroupedShape((2,), (2,))
    marginal = fold(np.diag([1.0, 2e-4]), shape)
    i2 = identity([2])
    f = Factorization(marginal, i2, i2, policy=RankPolicy("absolute", 1e-4))
    assert any("borderline" in w and "R+" in w for w in f.warnings)
    rep = check_coincidence(f)
    assert any("borderline" in w for w in rep.warnings)


def test_policy_governs_b_c_and_assembled_mp():
    from einverse import GroupedShape, RankPolicy, fold
    i2 = identity([2])
    s = fold(np.diag([1.0, 1e-3]), GroupedShape((2,), (2,)))
    f = Factorization(i2, s, i2, policy=RankPolicy("absolute", 1e-2))
    kept = fold(np.diag([1.0, 0.0]), GroupedShape((2,), (2,)))
    for x in (product_mp(f), b_tensor(f), c_tensor(f), mp_from_factorization(f)):
        assert max_abs_diff(x, kept) <= 1e-12


def test_each_role_inverted_at_most_once(monkeypatch):
    from einverse import pinv
    calls = []
    real_svd = pinv._svd
    monkeypatch.setattr(pinv, "_svd", lambda m: calls.append(m.shape) or real_svd(m))
    f = fact("3.1")
    assert len(calls) == 2  # R+ and T+, for the health check

    def run_all_readers():
        for checker in (check_coincidence, check_b_c_cross, check_y_decomposition,
                        product_mp_involution, triple_rol_check):
            checker(f)
        verify_product_penrose(f, product_mp(f))
        mp_from_factorization(f)

    run_all_readers()
    # R+, T+, S+, A+, core+, (A T+)+, (R+ A)+
    assert len(calls) == 7
    run_all_readers()
    assert len(calls) == 7


def test_warnings_follow_role_order_not_call_order():
    from einverse import GroupedShape, RankPolicy, fold
    marginal = fold(np.diag([1.0, 2e-4]), GroupedShape((2,), (2,)))
    i2 = identity([2])
    policy = RankPolicy("absolute", 1e-4)
    s_first = Factorization(i2, marginal, i2, policy=policy)
    a_first = Factorization(i2, marginal, i2, policy=policy)
    s_first.s_pinv, s_first.a_pinv
    a_first.a_pinv, a_first.s_pinv
    labels = [w.split(":")[0].rsplit(" ", 1)[1] for w in s_first.warnings]
    assert labels == ["S+", "A+"]
    assert a_first.warnings == s_first.warnings


# --- two-factor formulas -------------------------------------------------------

def test_two_factor_with_identity_right_factor():
    s = random_tensor(seeded(2), (2, 2), (3,))
    assert approx_eq(two_factor_mp(s, identity([3])), mp_inverse(s), 1e-10)


def test_two_factor_on_worked_factors():
    f = fact("3.1")
    st_dag = mp_inverse(f.s @ f.t)
    assert approx_eq(two_factor_mp(f.s, f.t), st_dag, 1e-10)
    assert approx_eq(two_factor_corollary(f.s, f.t), st_dag, 1e-10)


def test_two_factor_shape_check():
    with pytest.raises(ShapeMismatch):
        two_factor_mp(random_tensor(seeded(3), (2,), (3,)),
                      random_tensor(seeded(4), (2,), (2,)))
    with pytest.raises(ShapeMismatch):
        two_factor_corollary(random_tensor(seeded(3), (2,), (3,)),
                             random_tensor(seeded(4), (2,), (2,)))


def test_corollary_with_identity_left_factor():
    n = random_tensor(seeded(5), (2,), (2, 2))
    assert approx_eq(two_factor_corollary(identity([2]), n), mp_inverse(n), 1e-10)


def _clean_pair(seed, profile):
    """Deficient products can carry ambiguous noise spectra; redraw those."""
    from einverse import unfold
    from einverse.oracle import clean_spectrum

    for attempt in range(64):
        g = seeded((seed, attempt))
        s = gen_tensor(g, (2, 2), (2,), rank_profile=profile)
        t = gen_tensor(g, (2,), (2, 2), rank_profile=profile)
        if clean_spectrum(unfold(s) @ unfold(t)):
            return s, t
    raise AssertionError(f"no clean pair for seed {seed}")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["full", "deficient"]))
def test_two_factor_random(seed, profile):
    s, t = _clean_pair(seed, profile)
    st_dag = mp_inverse(s @ t)
    assert approx_eq(two_factor_mp(s, t), st_dag, 1e-10)
    assert approx_eq(two_factor_corollary(s, t), st_dag, 1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projector_product_pinv_idempotent(seed):
    from einverse import unfold
    from einverse.oracle import clean_spectrum

    for attempt in range(64):
        g = seeded((seed, attempt))
        m = gen_tensor(g, (2, 2), (2, 2), rank_profile="projector")
        n = gen_tensor(g, (2, 2), (2, 2), rank_profile="projector")
        if clean_spectrum(unfold(m) @ unfold(n)):
            break
    p = mp_inverse(m @ n)
    assert approx_eq(p @ p, p, 1e-10)


# --- product MP inverse --------------------------------------------------------

def test_product_mp_worked_values():
    assert max_abs_diff(product_mp(fact("3.1")),
                        golden_tensor("3.1", "product_mp")) <= 1e-10
    assert max_abs_diff(product_mp(fact("exmppgi")),
                        golden_tensor("exmppgi", "product_mp")) <= 1e-10


def test_product_mp_collapses_for_identity_factors():
    a = random_tensor(seeded(6), (2, 2), (3,))
    f = identity_factorization(a)
    assert approx_eq(product_mp(f), mp_inverse(a), 1e-10)
    assert approx_eq(b_tensor(f), mp_inverse(a), 1e-10)
    assert approx_eq(c_tensor(f), mp_inverse(a), 1e-10)


def test_b_c_worked_values():
    f = fact("3.1")
    assert max_abs_diff(b_tensor(f), golden_tensor("3.1", "B")) <= 1e-10
    assert max_abs_diff(c_tensor(f), golden_tensor("3.1", "C")) <= 1e-10


def test_mp_from_factorization():
    f = fact("3.1")
    assert max_abs_diff(mp_from_factorization(f),
                        golden_tensor("3.1", "A_pinv")) <= 1e-10
    g = gen_factorization(spec_for(11))
    assert approx_eq(mp_from_factorization(g), mp_inverse(g.a), 1e-10)


def test_verify_product_penrose_accepts_canonical():
    f = fact("3.1")
    rep = verify_product_penrose(f, product_mp(f), 1e-10)
    assert rep.verdict and rep.law_id is LawId.PRODUCT_PENROSE
    assert max(rep.condition_residuals.values()) <= 1e-10


def test_verify_product_penrose_rejects_plain_mp():
    # uniqueness: the ordinary inverse cannot satisfy all six equations here
    f = fact("3.1")
    rep = verify_product_penrose(f, f.a_pinv, 1e-10)
    assert not rep.verdict
    assert max(rep.condition_residuals.values()) > 1e-2


def test_verify_product_penrose_trivial_chain():
    a = random_tensor(seeded(7), (2, 2), (2,))
    f = identity_factorization(a)
    assert verify_product_penrose(f, mp_inverse(a), 1e-10).verdict


def test_verify_product_penrose_shape_check():
    f = fact("3.1")
    with pytest.raises(ShapeMismatch):
        verify_product_penrose(f, random_tensor(seeded(8), (2,), (2,)), 1e-10)


# --- relations among A+, A_pi, B, C -------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["full", "deficient"]))
def test_b_c_relations_random(seed, profile):
    f = gen_factorization(spec_for(seed, profile))
    a, a_dag, a_pi = f.a, f.a_pinv, product_mp(f)
    b, c = b_tensor(f), c_tensor(f)
    assert approx_eq((a_pi @ a) @ a_dag, b, 1e-10)
    assert approx_eq((a_dag @ a) @ a_pi, c, 1e-10)
    assert approx_eq((b @ a) @ c, a_pi, 1e-10)
    assert approx_eq((c @ a) @ b, a_dag, 1e-10)
    assert approx_eq((b @ a) @ b, b, 1e-10)
    assert approx_eq((c @ a) @ c, c, 1e-10)
    # split of the core pseudoinverse
    assert approx_eq(f.core_pinv,
                     (mp_inverse(a @ f.t_pinv) @ a) @ mp_inverse(f.r_pinv @ a), 1e-10)
    # one-sided grammian matches
    assert approx_eq(mp_inverse(f.r_pinv @ a) @ (f.r_pinv @ a), a_dag @ a, 1e-10)
    assert approx_eq((a @ f.t_pinv) @ mp_inverse(a @ f.t_pinv), a @ a_dag, 1e-10)


def test_b_uniqueness_system_and_negative_control():
    f = fact("3.1")
    a, a_dag, a_pi = f.a, f.a_pinv, product_mp(f)
    b = b_tensor(f)

    def system_residual(x):
        return max(
            rel_residual((x @ a) @ x, x),
            rel_residual(a @ x, a @ a_dag),
            rel_residual(x @ a, a_pi @ a),
        )

    assert system_residual(b) <= 1e-10
    assert system_residual(b + single_entry_bump(b)) > 1e-6


def test_induced_factorization_collapses_to_b_then_c():
    # product MP of (A, A+ A T+, T) equals B, and of (R, R+ A A+, A) equals C
    f = fact("3.1")
    a, a_dag = f.a, f.a_pinv
    g_b = Factorization(a, (a_dag @ a) @ f.t_pinv, f.t)
    assert approx_eq(product_mp(g_b), b_tensor(g_b), 1e-10)
    assert approx_eq(product_mp(g_b), f.t_pinv @ mp_inverse(a @ f.t_pinv), 1e-10)
    g_c = Factorization(f.r, (f.r_pinv @ a) @ a_dag, a)
    assert approx_eq(product_mp(g_c), c_tensor(g_c), 1e-10)
    assert approx_eq(product_mp(g_c), mp_inverse(f.r_pinv @ a) @ f.r_pinv, 1e-10)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_induced_factorization_random(seed):
    f = gen_factorization(spec_for(seed))
    g_b = Factorization(f.a, (f.a_pinv @ f.a) @ f.t_pinv, f.t)
    assert approx_eq(product_mp(g_b), b_tensor(g_b), 1e-10)
    g_c = Factorization(f.r, (f.r_pinv @ f.a) @ f.a_pinv, f.a)
    assert approx_eq(product_mp(g_c), c_tensor(g_c), 1e-10)


# --- law checkers ---------------------------------------------------------------

def test_coincidence_worked_examples():
    rep = check_coincidence(fact("3.1"))
    assert not rep.verdict and not rep.ambiguous
    assert rep.direct_residual > 0.1
    rep = check_coincidence(fact("exmppgi"))
    assert not rep.verdict and not rep.ambiguous
    rep = check_coincidence(identity_factorization(random_tensor(seeded(9), (2,), (2, 2))))
    assert rep.verdict and not rep.ambiguous


def test_coincidence_records_three_residuals():
    rep = check_coincidence(fact("3.1"))
    assert set(rep.condition_residuals) == {"core_pinv_vs_transported_pinv", "b_equals_c"}
    assert rep.direct_residual is not None


def test_b_c_cross_pairings():
    f = fact("3.1")
    rep = check_b_c_cross(f)
    assert not rep.ambiguous
    assert not rep.verdict  # B differs from A+ here
    triv = check_b_c_cross(identity_factorization(random_tensor(seeded(10), (2,), (2,))))
    assert triv.verdict and not triv.ambiguous
    assert triv.direct_residual <= triv.tolerance
    assert max(triv.aux_residuals.values()) <= triv.tolerance


def test_y_decomposition_verdicts():
    rep = check_y_decomposition(fact("3.1"))
    assert rep.verdict and not rep.ambiguous  # R+ A T+ = S, so Y = 0
    rep = check_y_decomposition(fact("exmppgi"))
    assert not rep.verdict and not rep.ambiguous
    a = random_tensor(seeded(11), (2,), (2, 2))
    assert check_y_decomposition(identity_factorization(a)).verdict


LAW_CHECKERS = (check_coincidence, check_b_c_cross, check_y_decomposition,
                product_mp_involution, triple_rol_check)


@pytest.mark.parametrize("pattern", ["RST", "R", "S", "T"])
@pytest.mark.parametrize("k", [-8, -5, -3, 3, 5, 8])
@pytest.mark.parametrize("which", ["3.1", "exmppgi", "sec4"])
def test_verdicts_survive_rescaled_factors(which, k, pattern):
    # each law holds for (cR, S, T) exactly when it holds for (R, S, T); an
    # absolute floor in a residual would call tiny inverses equal
    f = fact(which)
    scaled = Factorization(*(
        golden_tensor(which, n) * (10.0 ** k if n in pattern else 1.0) for n in "RST"
    ))
    for check in LAW_CHECKERS:
        rep = check(scaled)
        assert (rep.verdict, rep.ambiguous) == (check(f).verdict, False), check.__name__


def test_involution_checker():
    rep = product_mp_involution(fact("3.1"), 1e-10)
    assert rep.verdict
    a = random_tensor(seeded(12), (2, 2), (2,))
    assert product_mp_involution(identity_factorization(a), 1e-10).verdict


def test_triple_rol_verdicts():
    rep = triple_rol_check(fact("3.1"))
    assert not rep.verdict and not rep.ambiguous
    rep = triple_rol_check(fact("exmppgi"))
    assert rep.verdict and not rep.ambiguous
    assert rep.direct_residual <= 1e-10
    rep = triple_rol_check(fact("sec4"))
    assert not rep.verdict and not rep.ambiguous
    assert all(v > 1e-3 for v in rep.condition_residuals.values())
    i2 = identity(golden_tensor("3.1", "A").shape.row_dims)
    rep = triple_rol_check(Factorization(i2, i2, i2))
    assert rep.verdict
    assert max(rep.condition_residuals.values()) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["full", "deficient", "projector"]))
def test_iff_consistency_random(seed, profile):
    if profile == "projector":
        spec = InstanceSpec((2, 2), (2, 2), (2, 2), (2, 2),
                            rank_profile=profile, seed=seed)
    else:
        spec = spec_for(seed, profile)
    f = gen_factorization(spec)
    for rep in (check_coincidence(f), check_y_decomposition(f),
                triple_rol_check(f), check_b_c_cross(f)):
        assert not rep.ambiguous, (rep.law_id, rep.condition_residuals,
                                   rep.direct_residual)
    assert product_mp_involution(f, 1e-10).verdict
    assert verify_product_penrose(f, product_mp(f), 1e-10).verdict
