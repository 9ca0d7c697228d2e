"""Oracle: independent pinv/unfold routes, generators, invariant battery."""
import numpy as np
import pytest

from einverse import RankPolicy, ShapeMismatch, unfold
from einverse.oracle import (
    InstanceSpec,
    clean_spectrum,
    exhaustive_small_check,
    gen_factorization,
    gen_tensor,
    oracle_fold,
    oracle_pinv,
    oracle_unfold,
    random_spec,
)
from conftest import random_tensor
from golden_data import golden_tensor


def seeded(seed):
    return np.random.Generator(np.random.PCG64(seed))


# --- oracle primitives --------------------------------------------------------

def test_oracle_unfold_matches_main_route():
    t = random_tensor(seeded(0), (2, 3), (2, 2))
    assert np.array_equal(oracle_unfold(t), unfold(t))


def test_oracle_fold_roundtrip():
    t = random_tensor(seeded(1), (2,), (3, 2))
    assert oracle_fold(oracle_unfold(t), t.shape) == t
    with pytest.raises(ShapeMismatch):
        oracle_fold(np.eye(3), t.shape)


def test_oracle_pinv_identity():
    assert np.allclose(oracle_pinv(np.eye(4)), np.eye(4))


def test_oracle_pinv_rank_deficient_diagonal():
    assert np.allclose(oracle_pinv(np.diag([3.0, 0.0])), np.diag([1 / 3, 0.0]))


def test_oracle_pinv_worked_example():
    a = golden_tensor("3.1", "A")
    want = unfold(golden_tensor("3.1", "A_pinv"))
    assert np.max(np.abs(oracle_pinv(oracle_unfold(a)) - want)) <= 1e-12


def test_oracle_pinv_policies():
    m = np.diag([3.0, 1e-6])
    assert np.allclose(oracle_pinv(m, RankPolicy("absolute", 1e-3)),
                       np.diag([1 / 3, 0.0]))
    assert np.allclose(oracle_pinv(m, RankPolicy("fixed_rank", 1)),
                       np.diag([1 / 3, 0.0]))
    assert np.allclose(oracle_pinv(m, RankPolicy("fixed_rank", 2)),
                       np.diag([1 / 3, 1e6]))


def test_oracle_pinv_satisfies_penrose():
    g = seeded(2)
    m = g.uniform(-1, 1, (5, 3)) + 1j * g.uniform(-1, 1, (5, 3))
    x = oracle_pinv(m)
    assert np.max(np.abs(m @ x @ m - m)) <= 1e-12
    assert np.max(np.abs(x @ m @ x - x)) <= 1e-12
    assert np.max(np.abs((m @ x).conj().T - m @ x)) <= 1e-12
    assert np.max(np.abs((x @ m).conj().T - x @ m)) <= 1e-12


# --- generators ------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec((2,), (2,), (2,), (2,), rank_profile="weird")
    with pytest.raises(ShapeMismatch):
        InstanceSpec((2,), (3,), (2,), (2,), rank_profile="projector")
    with pytest.raises(ValueError):
        InstanceSpec((2,), (2,), (2,), (2,), deficiency=-1)


def test_generator_deterministic():
    spec = InstanceSpec((2,), (2, 2), (2,), (2,), rank_profile="deficient", seed=42)
    f1 = gen_factorization(spec)
    f2 = gen_factorization(spec)
    assert f1.r == f2.r and f1.s == f2.s and f1.t == f2.t


def test_deficient_rank_is_exact():
    g = seeded(3)
    for _ in range(5):
        t = gen_tensor(g, (2,), (2,), rank_profile="deficient", deficiency=1)
        assert np.linalg.matrix_rank(unfold(t)) == 1


def test_projector_profile_properties():
    spec = InstanceSpec((2, 2), (2, 2), (2, 2), (2, 2),
                        rank_profile="projector", seed=5)
    f = gen_factorization(spec)
    for factor in (f.r, f.s, f.t):
        m = unfold(factor)
        assert np.max(np.abs(m @ m - m)) <= 1e-12
        assert np.max(np.abs(m.conj().T - m)) <= 1e-12


def test_random_spec_profiles_covered():
    profiles = {random_spec(k, max_dim=2).rank_profile for k in range(60)}
    assert profiles == {"full", "deficient", "projector"}


def test_clean_spectrum():
    assert clean_spectrum(np.diag([1.0, 0.5]))
    assert clean_spectrum(np.diag([1.0, 0.0]))
    assert not clean_spectrum(np.diag([1.0, 1e-9]))
    assert clean_spectrum(np.zeros((2, 2)))


# --- exhaustive battery ------------------------------------------------------------

def test_battery_zero_trials():
    s = exhaustive_small_check(trials=0)
    assert s.ok and s.trials == 0 and s.violations == []


def test_battery_small_run_clean():
    s = exhaustive_small_check(max_dim=2, trials=20, seed=123)
    assert s.ok, s.violations


def test_battery_200_trials_under_10s():
    s = exhaustive_small_check(max_dim=2, trials=200, seed=1)
    assert s.ok, s.violations[:5]
    assert s.elapsed_s < 10.0


@pytest.mark.parametrize("trial_seed", [1322110018, 1068790210, 70435269, 1118588603])
def test_battery_involution_replay_seeds(trial_seed):
    # in these trials an SVD of the induced chain's core would keep a noise
    # singular value just above the cutoff (involution residual 0.5-1.1)
    s = exhaustive_small_check(max_dim=2, trials=1, seed=trial_seed)
    assert s.ok, s.violations


def test_battery_fault_injection_reports_exactly_one():
    s = exhaustive_small_check(max_dim=2, trials=5, seed=0, inject_fault="corrupt_b")
    assert len(s.violations) == 1
    v = s.violations[0]
    assert v.invariant == "b_unique_system"
    assert v.residual > 1e-10


def test_battery_rejects_bad_args():
    with pytest.raises(ValueError):
        exhaustive_small_check(max_dim=4)
    with pytest.raises(ValueError):
        exhaustive_small_check(inject_fault="nonsense")
