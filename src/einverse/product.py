"""Product Moore-Penrose inverse and reverse-order-law decision procedures.

Everything here revolves around a three-factor chain A = R * S * T under the
Einstein product.  Writing X+ for the Moore-Penrose inverse of X, the key
objects are

    core        = R+ * A * T+                    (same shape as S)
    product MP  = T+ * core+ * R+               (written A_pi below)
    B           = T+ * (A * T+)+
    C           = (R+ * A)+ * R+
    W           = T+ * S+ * R+                  (the reversed chain)

:class:`Factorization` takes every pseudoinverse these need, once each.

A_pi is the unique tensor satisfying the six-equation system checked by
:func:`verify_product_penrose`; it coincides with A+ only under extra
conditions, and the checkers in this module decide each such condition
together with the direct equality it is equivalent to.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from .core import (
    DenseTensor,
    conj_transpose,
    frobenius_norm,
    identity,
    rel_residual,
    sub,
)
from .errors import NumericalFailure, ShapeMismatch
from .pinv import RankPolicy, SvdInfo, mp_inverse, mp_inverse_info

DEFAULT_LAW_TOL = 1e-8
_HEALTH_TOL = 1e-10  # bound on the construction health check's residuals


class LawId(enum.Enum):
    TWO_FACTOR = "TwoFactor"
    TWO_FACTOR_COROLLARY = "TwoFactorCorollary"
    PRODUCT_PENROSE = "ProductPenrose"
    COINCIDENCE = "Coincidence"
    B_CROSS = "BCross"
    Y_DECOMPOSITION = "YDecomposition"
    INVOLUTION = "Involution"
    TRIPLE_ROL = "TripleROL"


@dataclass(frozen=True)
class LawReport:
    """Structured outcome of one theorem checker.

    `condition_residuals` are the residuals that gate the verdict:
    verdict == all(residual <= tolerance).  For iff-theorems the report also
    records `direct_residual`, the residual of the equality the criterion is
    equivalent to; `ambiguous` is set when that equality, or a dual pairing
    the theorem ties to the verdict, disagrees with it.  That cannot happen
    in exact arithmetic, and rescaling the factors cannot cause it because
    every residual is relative to its larger operand (:func:`rel_residual`);
    it flags a borderline rank decision rather than a trustworthy answer.
    `aux_residuals` are recorded for diagnosis but never gate the verdict.
    Every report is built by :func:`_report`.
    """

    law_id: LawId
    condition_residuals: dict[str, float]
    verdict: bool
    tolerance: float
    direct_residual: float | None = None
    aux_residuals: dict[str, float] = field(default_factory=dict)
    ambiguous: bool = False
    warnings: tuple[str, ...] = ()


def _report(
    law_id: LawId,
    f: Factorization,
    conditions: dict[str, float],
    tol: float,
    *,
    direct: float | None = None,
    aux: dict[str, float] | None = None,
    dual_disagrees: bool = False,
) -> LawReport:
    """The only LawReport builder; a disagreeing iff partner sets `ambiguous`."""
    verdict = all(v <= tol for v in conditions.values())
    return LawReport(
        law_id=law_id,
        condition_residuals=conditions,
        verdict=verdict,
        tolerance=tol,
        direct_residual=direct,
        aux_residuals=aux or {},
        ambiguous=dual_disagrees or (direct is not None and (direct <= tol) != verdict),
        warnings=f.warnings,
    )


def _borderline_warning(label: str, info: SvdInfo) -> str | None:
    if not info.borderline:
        return None
    kept = info.singular_values[info.rank - 1] if info.rank else 0.0
    return (
        f"borderline rank decision in {label}: rank {info.rank}, "
        f"cutoff {info.cutoff:.3e}, nearest kept sigma {kept:.3e}"
    )


# Each role names one operand of the chain; the dict order is the fixed order
# in which warnings are reported, whatever order the inverses were taken in.
_OPERANDS = {
    "R+": lambda f: f.r,
    "T+": lambda f: f.t,
    "S+": lambda f: f.s,
    "A+": lambda f: f.a,
    "core+": lambda f: f.core,
    "(A T+)+": lambda f: f.a @ f.t_pinv,
    "(R+ A)+": lambda f: f.r_pinv @ f.a,
}


class Factorization:
    """A validated chain R * S * T with its product and every derived inverse.

    The constructor recomputes the product from the factors, so the chain
    identity is exact by construction.  The consistency identities
    R*R+*A = A = A*T+*T are asserted at construction as a numerical health
    check.

    Every pseudoinverse of the chain is taken here, once per role and under
    the chain's policy, on first use; A_pi, B, C and W are built from them.
    """

    def __init__(
        self,
        r: DenseTensor,
        s: DenseTensor,
        t: DenseTensor,
        *,
        policy: RankPolicy | None = None,
    ):
        if r.shape.col_dims != s.shape.row_dims:
            raise ShapeMismatch(
                f"R col group {r.shape.col_dims} != S row group {s.shape.row_dims}"
            )
        if s.shape.col_dims != t.shape.row_dims:
            raise ShapeMismatch(
                f"S col group {s.shape.col_dims} != T row group {t.shape.row_dims}"
            )
        self._policy = policy or RankPolicy()
        self.r = r
        self.s = s
        self.t = t
        self.a = (r @ s) @ t
        self._inverses: dict[str, tuple[DenseTensor, SvdInfo]] = {}
        left = rel_residual((self.r @ self.r_pinv) @ self.a, self.a)
        right = rel_residual((self.a @ self.t_pinv) @ self.t, self.a)
        if max(left, right) > _HEALTH_TOL:
            raise NumericalFailure(
                "factorization consistency check failed: "
                f"R*R+*A residual {left:.3e}, A*T+*T residual {right:.3e}"
            )

    def _pinv_of(self, role: str) -> DenseTensor:
        """Pseudoinverse of the role's operand, computed on first use only."""
        entry = self._inverses.get(role)
        if entry is None:
            entry = mp_inverse_info(_OPERANDS[role](self), self._policy)
            self._inverses[role] = entry
        return entry[0]

    r_pinv = property(lambda self: self._pinv_of("R+"))
    t_pinv = property(lambda self: self._pinv_of("T+"))
    s_pinv = property(lambda self: self._pinv_of("S+"))
    a_pinv = property(lambda self: self._pinv_of("A+"))
    core_pinv = property(lambda self: self._pinv_of("core+"))
    at_pinv = property(lambda self: self._pinv_of("(A T+)+"))
    ra_pinv = property(lambda self: self._pinv_of("(R+ A)+"))

    @cached_property
    def core(self) -> DenseTensor:
        """R+ * A * T+, the S-shaped tensor whose pseudoinverse drives A_pi."""
        return (self.r_pinv @ self.a) @ self.t_pinv

    @cached_property
    def a_pi(self) -> DenseTensor:
        """The product MP inverse T+ * core+ * R+."""
        return (self.t_pinv @ self.core_pinv) @ self.r_pinv

    @cached_property
    def b(self) -> DenseTensor:
        """B = T+ * (A * T+)+."""
        return self.t_pinv @ self.at_pinv

    @cached_property
    def c(self) -> DenseTensor:
        """C = (R+ * A)+ * R+."""
        return self.ra_pinv @ self.r_pinv

    @cached_property
    def w(self) -> DenseTensor:
        """The reversed chain W = T+ * S+ * R+."""
        return (self.t_pinv @ self.s_pinv) @ self.r_pinv

    @property
    def warnings(self) -> tuple[str, ...]:
        """Borderline rank decisions among the inverses taken so far."""
        found = (
            _borderline_warning(role, self._inverses[role][1])
            for role in _OPERANDS if role in self._inverses
        )
        return tuple(w for w in found if w)

    def __repr__(self) -> str:
        return (
            f"Factorization(R={self.r.shape}, S={self.s.shape}, "
            f"T={self.t.shape})"
        )


# ---------------------------------------------------------------------------
# two-factor formulas


def two_factor_mp(s: DenseTensor, t: DenseTensor) -> DenseTensor:
    """Moore-Penrose inverse of S * T from pseudoinverses of derived factors.

    With T1 = S+ * S * T and S1 = S * T1 * T1+, the product S1 * T1 equals
    S * T and (S * T)+ = T1+ * S1+.
    """
    if s.shape.col_dims != t.shape.row_dims:
        raise ShapeMismatch(
            f"S col group {s.shape.col_dims} != T row group {t.shape.row_dims}"
        )
    s_pinv = mp_inverse(s)
    t1 = (s_pinv @ s) @ t
    t1_pinv = mp_inverse(t1)
    s1 = (s @ t1) @ t1_pinv
    return t1_pinv @ mp_inverse(s1)


def two_factor_corollary(m: DenseTensor, n: DenseTensor) -> DenseTensor:
    """(M * N)+ = (M+ * M * N)+ * (M * N * N+)+."""
    if m.shape.col_dims != n.shape.row_dims:
        raise ShapeMismatch(
            f"M col group {m.shape.col_dims} != N row group {n.shape.row_dims}"
        )
    m_pinv = mp_inverse(m)
    n_pinv = mp_inverse(n)
    left = mp_inverse((m_pinv @ m) @ n)
    right = mp_inverse((m @ n) @ n_pinv)
    return left @ right


# ---------------------------------------------------------------------------
# product Moore-Penrose inverse and its relatives


def product_mp(f: Factorization) -> DenseTensor:
    """The product Moore-Penrose inverse T+ * (R+ * A * T+)+ * R+."""
    return f.a_pi


def b_tensor(f: Factorization) -> DenseTensor:
    """B = T+ * (A * T+)+; satisfies B = A_pi * A * A+ and B*A*B = B."""
    return f.b


def c_tensor(f: Factorization) -> DenseTensor:
    """C = (R+ * A)+ * R+; satisfies C = A+ * A * A_pi and C*A*C = C."""
    return f.c


def mp_from_factorization(f: Factorization) -> DenseTensor:
    """A+ assembled from the factors: (R+ A)+ * R+ A T+ * (A T+)+.

    Cross-checked against the equivalent form (R+ A)+ * S * (A T+)+; a
    disagreement means the chain arithmetic cannot be trusted.
    """
    result = (f.ra_pinv @ f.core) @ f.at_pinv
    alt = (f.ra_pinv @ f.s) @ f.at_pinv
    gap = rel_residual(result, alt)
    if gap > 1e-8:
        raise NumericalFailure(
            f"the two pseudoinverse assembly routes disagree (residual {gap:.3e})"
        )
    return result


def verify_product_penrose(
    f: Factorization, x: DenseTensor, tol: float = 1e-10
) -> LawReport:
    """Check the six equations that characterize the product MP inverse.

    Besides the two ordinary reproduction equations, the candidate must make
    R+ * A * X * R and T * X * A * T+ Hermitian and must absorb R * R+ on
    the right and T+ * T on the left.
    """
    if x.shape.row_dims != f.a.shape.col_dims or x.shape.col_dims != f.a.shape.row_dims:
        raise ShapeMismatch(
            f"candidate shape {x.shape} is not the transpose of {f.a.shape}"
        )
    a = f.a
    ax, xa = a @ x, x @ a
    herm_r = ((f.r_pinv @ ax) @ f.r)
    herm_t = ((f.t @ xa) @ f.t_pinv)
    residuals = {
        "reproduces_a": rel_residual(ax @ a, a),
        "reproduces_x": rel_residual(xa @ x, x),
        "row_transport_hermitian": rel_residual(conj_transpose(herm_r), herm_r),
        "col_transport_hermitian": rel_residual(conj_transpose(herm_t), herm_t),
        "absorbs_r": rel_residual((x @ f.r) @ f.r_pinv, x),
        "absorbs_t": rel_residual((f.t_pinv @ f.t) @ x, x),
    }
    return _report(
        LawId.PRODUCT_PENROSE, f, residuals, tol,
        aux={"candidate_vs_canonical": rel_residual(x, f.a_pi)},
    )


# ---------------------------------------------------------------------------
# iff-theorem checkers


def check_coincidence(f: Factorization, tol: float = DEFAULT_LAW_TOL) -> LawReport:
    """Does the product MP inverse coincide with the Moore-Penrose inverse?

    Criterion: (R+ * A * T+)+ = T * A+ * R; equivalently B = C.  Both
    criterion residuals gate the verdict, and the direct gap |A_pi - A+| is
    recorded for the iff cross-check.
    """
    transported = (f.t @ f.a_pinv) @ f.r
    conditions = {
        "core_pinv_vs_transported_pinv": rel_residual(f.core_pinv, transported),
        "b_equals_c": rel_residual(f.b, f.c),
    }
    return _report(
        LawId.COINCIDENCE, f, conditions, tol, direct=rel_residual(f.a_pi, f.a_pinv)
    )


def check_b_c_cross(f: Factorization, tol: float = DEFAULT_LAW_TOL) -> LawReport:
    """Cross-coincidences of B and C with A+ and the product MP inverse.

    B = A+ exactly when C = A_pi, and B = A_pi exactly when C = A+.  The
    verdict answers "does B equal A+"; its equivalent partner residual is
    `direct_residual`, and the dual pairing is recorded in aux.  Either
    pairing disagreeing sets `ambiguous`.
    """
    r_b_pi = rel_residual(f.b, f.a_pi)
    r_c_dag = rel_residual(f.c, f.a_pinv)
    return _report(
        LawId.B_CROSS, f, {"b_vs_mp": rel_residual(f.b, f.a_pinv)}, tol,
        direct=rel_residual(f.c, f.a_pi),
        aux={"b_vs_product_mp": r_b_pi, "c_vs_mp": r_c_dag},
        dual_disagrees=(r_b_pi <= tol) != (r_c_dag <= tol),
    )


def check_y_decomposition(f: Factorization, tol: float = DEFAULT_LAW_TOL) -> LawReport:
    """Does the product MP inverse equal the reversed chain W = T+ * S+ * R+?

    Criterion: the gap Y = S+ - (R+ * A * T+)+ vanishes under the two-sided
    projection T+ * Y * R+.  The projection's two terms are W and A_pi, so
    the projection's norm is measured against the larger of theirs, as
    :func:`rel_residual` measures the direct gap |A_pi - W|.
    """
    projected = (f.t_pinv @ sub(f.s_pinv, f.core_pinv)) @ f.r_pinv
    scale = max(frobenius_norm(f.w), frobenius_norm(f.a_pi))
    gap = frobenius_norm(projected) / scale if scale else 0.0
    return _report(
        LawId.Y_DECOMPOSITION, f, {"projected_gap": gap}, tol,
        direct=rel_residual(f.a_pi, f.w),
    )


def product_mp_involution(f: Factorization, tol: float = DEFAULT_LAW_TOL) -> LawReport:
    """Applying the product MP inverse twice returns the original tensor.

    A_pi = T+ * core+ * R+ induces the chain (T+, core+, R+), whose core is
    core+ itself, so (A_pi)_pi = R * (core+)+ * T.  (core+)+ is core cut to
    the rank kept for core+, which is core * core+ * core: no further SVD.
    """
    twice = (f.r @ ((f.core @ f.core_pinv) @ f.core)) @ f.t
    return _report(
        LawId.INVOLUTION, f, {"double_product_mp_vs_input": rel_residual(twice, f.a)}, tol
    )


def triple_rol_check(f: Factorization, tol: float = DEFAULT_LAW_TOL) -> LawReport:
    """Decide the triple reverse order law (R*S*T)+ = T+ * S+ * R+.

    With W = T+ * S+ * R+, the law holds iff
      (i)   R+ * A * W * A * T+ = R+ * A * T+
      (ii)  T * W * A * W * R   = T * W * R
      (iii) R^H * A * W * R     is Hermitian
      (iv)  T * W * A * T^H     is Hermitian
    """
    a, w = f.a, f.w
    aw = a @ w
    wa = w @ a
    gram_r = ((conj_transpose(f.r) @ aw) @ f.r)
    gram_t = ((f.t @ wa) @ conj_transpose(f.t))
    conditions = {
        "i_core_reproduced": rel_residual(
            ((f.r_pinv @ aw) @ a) @ f.t_pinv, f.core
        ),
        "ii_chain_reproduced": rel_residual(
            ((f.t @ wa) @ w) @ f.r, (f.t @ w) @ f.r
        ),
        "iii_row_gram_hermitian": rel_residual(conj_transpose(gram_r), gram_r),
        "iv_col_gram_hermitian": rel_residual(conj_transpose(gram_t), gram_t),
    }
    return _report(
        LawId.TRIPLE_ROL, f, conditions, tol, direct=rel_residual(f.a_pinv, w)
    )


def identity_factorization(a: DenseTensor) -> Factorization:
    """Wrap a tensor in the trivial chain identity * A * identity."""
    return Factorization(identity(a.shape.row_dims), a, identity(a.shape.col_dims))
