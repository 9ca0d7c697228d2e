"""Independent matrix-level oracle and randomized instance generators.

The linearization convention is the single riskiest invented piece of the
artifact, so the oracle deliberately re-implements both the unfolding (by
explicit index arithmetic instead of a buffer reinterpretation) and the SVD
pseudoinverse (by rank-one accumulation instead of vectorized assembly).
Agreement between the two routes certifies the shared convention.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .core import DenseTensor, GroupedShape, rel_residual
from .errors import NumericalFailure, ShapeMismatch
from .pinv import RankPolicy, mp_inverse, unfold, verify_penrose
from .product import (
    Factorization,
    check_b_c_cross,
    check_coincidence,
    check_y_decomposition,
    mp_from_factorization,
    product_mp_involution,
    triple_rol_check,
    two_factor_corollary,
    two_factor_mp,
    verify_product_penrose,
)


def oracle_unfold(a: DenseTensor) -> np.ndarray:
    """Unfolding recomputed entry by entry from explicit index tuples."""
    rows, cols = a.shape.row_count, a.shape.col_count
    out = np.empty((rows, cols), dtype=np.complex128)
    for ri, rtuple in enumerate(itertools.product(*(range(d) for d in a.shape.row_dims))):
        for ci, ctuple in enumerate(itertools.product(*(range(d) for d in a.shape.col_dims))):
            out[ri, ci] = a.at(*rtuple, *ctuple)
    return out


def oracle_pinv(matrix, policy: RankPolicy | None = None) -> np.ndarray:
    """Matrix pseudoinverse assembled as a sum of rank-one terms.

    Shares the rank-policy semantics of the main path but none of its
    assembly code: X = sum_i (1/sigma_i) v_i u_i^H over the kept triplets.
    """
    policy = policy or RankPolicy()
    m = np.asarray(matrix, dtype=np.complex128)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    if policy.mode == "fixed_rank":
        rank = min(int(policy.value), s.size)
    elif policy.mode == "absolute":
        rank = int(np.sum(s > policy.value))
    else:
        rel = policy.value if policy.value is not None else max(m.shape) * np.finfo(float).eps
        rank = int(np.sum(s > rel * (s[0] if s.size else 0.0)))
    out = np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    for i in range(rank):
        out += np.outer(vh[i].conj(), u[:, i].conj()) / s[i]
    return out


# ---------------------------------------------------------------------------
# deterministic instance generation


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for one random factorization.

    rank_profile "full" leaves the uniform draws as they are, "deficient"
    zeroes the trailing `deficiency` singular values of every factor's
    unfolding, and "projector" replaces every factor by Q * Q^H with Q
    column-orthonormal (requires all four groups equal).
    """

    row_dims: tuple[int, ...]
    mid_dims_1: tuple[int, ...]
    mid_dims_2: tuple[int, ...]
    col_dims: tuple[int, ...]
    rank_profile: str = "full"
    deficiency: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("row_dims", "mid_dims_1", "mid_dims_2", "col_dims"):
            object.__setattr__(self, name, tuple(int(d) for d in getattr(self, name)))
        if self.rank_profile not in ("full", "deficient", "projector"):
            raise ValueError(f"unknown rank profile {self.rank_profile!r}")
        if self.rank_profile == "projector":
            groups = {self.row_dims, self.mid_dims_1, self.mid_dims_2, self.col_dims}
            if len(groups) != 1:
                raise ShapeMismatch("projector profile needs all index groups equal")
        if self.deficiency < 0:
            raise ValueError("deficiency must be nonnegative")


GENUINE_FLOOR = 1e-4  # smallest accepted genuine sigma, relative to sigma_max
_MAX_ATTEMPTS = 64  # draws per spec before generation gives up


def _random_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.uniform(-1.0, 1.0, size=(rows, cols))
    im = rng.uniform(-1.0, 1.0, size=(rows, cols))
    return re + 1j * im


def clean_spectrum(matrix: np.ndarray) -> bool:
    """True when every singular value is clearly signal or clearly noise.

    Products of rank-deficient factors carry roundoff singular values scaled
    by the factor norms; when those land between the default cutoff and
    GENUINE_FLOOR the rank decision is ambiguous and no tolerance can be honest
    about it, so generated instances with such spectra are rejected and redrawn.
    """
    s = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return True
    rel = s / s[0]
    cutoff = max(matrix.shape) * np.finfo(float).eps
    return not np.any((rel > cutoff) & (rel < GENUINE_FLOOR))


def _deficient(matrix: np.ndarray, k: int) -> np.ndarray:
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    s[max(len(s) - k, 0):] = 0.0
    return (u * s) @ vh


def _projector(rng: np.random.Generator, n: int, deficiency: int) -> np.ndarray:
    k = max(n - deficiency, 1)
    q, _ = np.linalg.qr(_random_matrix(rng, n, k))
    return q @ q.conj().T


def gen_tensor(
    rng: np.random.Generator,
    row_dims,
    col_dims,
    rank_profile: str = "full",
    deficiency: int = 1,
) -> DenseTensor:
    """One random tensor with the requested unfolded-rank profile."""
    shape = GroupedShape(tuple(row_dims), tuple(col_dims))
    if rank_profile == "projector":
        mat = _projector(rng, shape.row_count, deficiency)
    else:
        mat = _random_matrix(rng, shape.row_count, shape.col_count)
        if rank_profile == "deficient":
            mat = _deficient(mat, deficiency)
    return DenseTensor(shape, mat)


def _factorization_is_clean(f: Factorization) -> bool:
    """Screen every matrix the invariant battery will take a pseudoinverse of."""
    s_pinv = oracle_pinv(unfold(f.s))
    t1 = (s_pinv @ unfold(f.s)) @ unfold(f.t)
    s1 = (unfold(f.s) @ t1) @ oracle_pinv(t1)
    screened = (
        unfold(f.r), unfold(f.s), unfold(f.t), unfold(f.a),
        unfold(f.core),
        unfold(f.a) @ unfold(f.t_pinv),
        unfold(f.r_pinv) @ unfold(f.a),
        unfold(f.s) @ unfold(f.t),
        (unfold(f.s) @ unfold(f.t)) @ oracle_pinv(unfold(f.t)),
        t1,
        s1,
    )
    return all(clean_spectrum(m) for m in screened)


def gen_factorization(spec: InstanceSpec) -> Factorization:
    """Chain-compatible (R, S, T) with controlled unfolded ranks.

    Pure function of `spec`: the same recipe always yields bit-identical
    tensors.  Draws whose derived products have ambiguous spectra (see
    :func:`clean_spectrum`) are rejected and redrawn deterministically.
    """
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.Generator(np.random.PCG64((spec.seed, attempt)))
        r = gen_tensor(rng, spec.row_dims, spec.mid_dims_1, spec.rank_profile, spec.deficiency)
        s = gen_tensor(rng, spec.mid_dims_1, spec.mid_dims_2, spec.rank_profile, spec.deficiency)
        t = gen_tensor(rng, spec.mid_dims_2, spec.col_dims, spec.rank_profile, spec.deficiency)
        f = Factorization(r, s, t)
        if _factorization_is_clean(f):
            return f
    raise NumericalFailure(
        f"no numerically clean factorization in {_MAX_ATTEMPTS} draws for {spec}"
    )


def random_spec(seed: int, max_dim: int = 2) -> InstanceSpec:
    """Derive a small random InstanceSpec (1 or 2 modes per group) from a seed."""
    rng = np.random.Generator(np.random.PCG64(seed ^ 0x5EED))
    def group():
        modes = int(rng.integers(1, 3))
        return tuple(int(rng.integers(1, max_dim + 1)) for _ in range(modes))
    profile = ("full", "full", "deficient", "projector")[int(rng.integers(0, 4))]
    if profile == "projector":
        g = group()
        dims = (g, g, g, g)
    else:
        dims = (group(), group(), group(), group())
    return InstanceSpec(*dims, rank_profile=profile, deficiency=1, seed=seed)


# ---------------------------------------------------------------------------
# invariant battery


@dataclass(frozen=True)
class Violation:
    seed: int
    invariant: str
    residual: float


@dataclass
class CheckSummary:
    trials: int
    violations: list[Violation] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


MAX_FUZZ_DIM = 3  # largest mode size the battery draws, to keep instances desk-scale
_PINV_TOL = 1e-10
_ORACLE_TOL = 1e-12


def _battery(f: Factorization, seed: int, record, corrupt_b: bool = False) -> None:
    """Assert every library invariant on one factorization instance."""
    a, a_dag, a_pi, b, c = f.a, f.a_pinv, f.a_pi, f.b, f.c

    def check_eq(name, lhs, rhs):
        res = rel_residual(lhs, rhs)
        record(name, res, res <= _PINV_TOL, seed)

    rep = verify_penrose(a, a_dag, _PINV_TOL)
    record("penrose_mp", max(rep.residuals), rep.passed, seed)

    gap = float(np.max(np.abs(unfold(a_dag) - oracle_pinv(oracle_unfold(a)))))
    record("oracle_agreement", gap, gap <= _ORACLE_TOL, seed)

    check_eq("pinv_involution", mp_inverse(a_dag), a)

    prep = verify_product_penrose(f, a_pi, _PINV_TOL)
    record("product_penrose", max(prep.condition_residuals.values()), prep.verdict, seed)

    at_pinv, ra_pinv = f.at_pinv, f.ra_pinv
    check_eq("product_mp_alt_form", a_pi,
             (((f.t_pinv @ at_pinv) @ a) @ ra_pinv) @ f.r_pinv)
    check_eq("core_pinv_split", f.core_pinv, (at_pinv @ a) @ ra_pinv)
    check_eq("mp_from_factorization", mp_from_factorization(f), a_dag)
    check_eq("left_gram_match", ra_pinv @ (f.r_pinv @ a), a_dag @ a)
    check_eq("right_gram_match", (a @ f.t_pinv) @ at_pinv, a @ a_dag)

    check_eq("b_from_mp_pair", (a_pi @ a) @ a_dag, b)
    check_eq("c_from_mp_pair", (a_dag @ a) @ a_pi, c)
    check_eq("product_mp_sandwich", (b @ a) @ c, a_pi)
    check_eq("mp_sandwich", (c @ a) @ b, a_dag)
    check_eq("b_self_reproducing", (b @ a) @ b, b)
    check_eq("c_self_reproducing", (c @ a) @ c, c)

    # B is pinned down by: X*A*X = X, A*X = A*A+, X*A = A_pi*A.
    def uniqueness_residual(x):
        return max(
            rel_residual((x @ a) @ x, x),
            rel_residual(a @ x, a @ a_dag),
            rel_residual(x @ a, a_pi @ a),
        )

    x = b + single_entry_bump(b) if corrupt_b else b
    res_sys = uniqueness_residual(x)
    record("b_unique_system", res_sys, res_sys <= _PINV_TOL, seed)

    res_neg = uniqueness_residual(b + single_entry_bump(b))
    record("perturbed_b_rejected", res_neg, res_neg > _PINV_TOL, seed)

    inv_rep = product_mp_involution(f, _PINV_TOL)
    record("product_mp_involution", max(inv_rep.condition_residuals.values()),
           inv_rep.verdict, seed)

    for name, law_rep in (
        ("coincidence_iff", check_coincidence(f)),
        ("y_decomposition_iff", check_y_decomposition(f)),
        ("triple_rol_iff", triple_rol_check(f)),
        ("b_c_cross_pairing", check_b_c_cross(f)),
    ):
        record(name, law_rep.direct_residual or 0.0, not law_rep.ambiguous, seed)

    st_dag = mp_inverse(f.s @ f.t)
    check_eq("two_factor_formula", two_factor_mp(f.s, f.t), st_dag)
    check_eq("two_factor_corollary", two_factor_corollary(f.s, f.t), st_dag)


def single_entry_bump(x: DenseTensor) -> DenseTensor:
    """A deterministic single-entry perturbation (1e-3) used as a negative control."""
    flat = np.zeros(x.shape.row_count * x.shape.col_count, dtype=np.complex128)
    flat[0] = 1e-3
    return DenseTensor(x.shape, flat)


def exhaustive_small_check(
    max_dim: int = 2,
    trials: int = 50,
    seed: int = 0,
    inject_fault: str | None = None,
) -> CheckSummary:
    """Run the full invariant battery on `trials` random small instances.

    Violations are data, not errors: each carries the instance seed for
    replay.  `inject_fault="corrupt_b"` deliberately feeds a perturbed
    tensor into the uniqueness-system check of the first instance, which
    must produce exactly one violation; it exists to prove the battery can
    fail.
    """
    if not 1 <= max_dim <= MAX_FUZZ_DIM:
        raise ValueError(
            f"max_dim must be in 1..{MAX_FUZZ_DIM} (capped to keep instances "
            f"desk-scale), got {max_dim}"
        )
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if inject_fault not in (None, "corrupt_b"):
        raise ValueError(f"unknown fault {inject_fault!r}")
    start = time.perf_counter()
    summary = CheckSummary(trials=trials)

    def record(invariant: str, residual: float, ok: bool, inst_seed: int):
        if not ok:
            summary.violations.append(
                Violation(inst_seed, invariant, float(residual))
            )

    for k in range(trials):
        inst_seed = seed * 1_000_003 + k
        f = gen_factorization(random_spec(inst_seed, max_dim=max_dim))
        _battery(f, inst_seed, record, corrupt_b=(inject_fault == "corrupt_b" and k == 0))
    summary.elapsed_s = time.perf_counter() - start
    return summary
