"""Law verdicts decided by plain numpy, independently of the library under test.

Every law is an equality between two matrices built from unfoldings with
``np.linalg.pinv``.  The residual is scale-invariant (divided by the larger
norm of the two sides), and a verdict is only returned when the residual is
clearly on one side: at most ``EQUAL_TOL`` means the law holds, at least
``UNEQUAL_TOL`` means it fails.  Anything in between is a reference that
cannot be trusted, so it raises instead of guessing.
"""
from __future__ import annotations

import json

import numpy as np

LAWS = ("coincidence", "b-c-cross", "y-decomposition", "involution", "triple-rol")
# The library function that decides each law.
CHECKERS = {
    "coincidence": "check_coincidence",
    "b-c-cross": "check_b_c_cross",
    "y-decomposition": "check_y_decomposition",
    "involution": "product_mp_involution",
    "triple-rol": "triple_rol_check",
}

EQUAL_TOL = 1e-8
UNEQUAL_TOL = 1e-4


class ReferenceUndecided(RuntimeError):
    """A reference residual fell between the two verdict thresholds."""


def read_unfolding(path) -> np.ndarray:
    """Unfolding of a tensor file, parsed with json and numpy only."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = int(np.prod(doc["row_dims"]))
    cols = int(np.prod(doc["col_dims"]))
    pairs = np.asarray(doc["entries"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(rows, cols)


def _gap(x: np.ndarray, y: np.ndarray) -> float:
    scale = max(np.linalg.norm(x), np.linalg.norm(y))
    return float(np.linalg.norm(x - y) / scale) if scale > 0 else 0.0


def law_gaps(r: np.ndarray, s: np.ndarray, t: np.ndarray) -> dict[str, float]:
    """Scale-invariant residual of the equality each law asserts, for A = R S T."""
    pinv = np.linalg.pinv
    a = r @ s @ t
    r_p, s_p, t_p, a_p = pinv(r), pinv(s), pinv(t), pinv(a)
    a_pi = t_p @ pinv(r_p @ a @ t_p) @ r_p
    w = t_p @ s_p @ r_p
    b = t_p @ pinv(a @ t_p)
    # A_pi of the induced chain (T+, core+, R+), whose product is A_pi.
    r_pp, t_pp = pinv(r_p), pinv(t_p)
    twice = r_pp @ pinv(t_pp @ a_pi @ r_pp) @ t_pp
    return {
        "coincidence": _gap(a_pi, a_p),
        "b-c-cross": _gap(b, a_p),
        "y-decomposition": _gap(a_pi, w),
        "involution": _gap(twice, a),
        "triple-rol": _gap(a_p, w),
    }


def law_verdicts(r: np.ndarray, s: np.ndarray, t: np.ndarray) -> dict[str, bool]:
    verdicts = {}
    for law, gap in law_gaps(r, s, t).items():
        if gap <= EQUAL_TOL:
            verdicts[law] = True
        elif gap >= UNEQUAL_TOL:
            verdicts[law] = False
        else:
            raise ReferenceUndecided(f"{law}: reference residual {gap:.3e} is undecided")
    return verdicts
