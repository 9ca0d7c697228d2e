"""End-to-end reproduction of the bundled worked examples.

Each runner loads the golden tensor files, recomputes everything from the
factors R, S, T, and compares against the golden values entrywise; law
checkers must additionally return their documented verdicts.  Every golden
file participates in at least one comparison, so corrupting any of them
makes the run fail.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .core import DenseTensor, frobenius_norm, max_abs_diff, sub
from .product import (
    Factorization,
    LawReport,
    check_b_c_cross,
    check_coincidence,
    check_y_decomposition,
    product_mp_involution,
    triple_rol_check,
)
from .tensorfile import load_tensor

EXAMPLE_NAMES = ("3.1", "exmppgi", "sec4")

GOLDEN_TOL = 1e-10
LAW_TOL = 1e-8
SEPARATION = 0.1  # minimum gap certifying two tensors are genuinely different

ASSETS = {
    "3.1": ["example31_" + n for n in (
        "R", "S", "T", "A", "A_pinv", "R_pinv", "S_pinv", "T_pinv",
        "product_mp", "B", "C")],
    "exmppgi": ["exmppgi_" + n for n in (
        "R", "S", "T", "A", "A_pinv", "R_pinv", "S_pinv", "T_pinv",
        "reverse_chain", "product_mp")],
    "sec4": ["sec4_" + n for n in ("R", "S", "T", "A", "A_pinv", "reverse_chain")],
}


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ExampleReport:
    which: str
    checks: list[ExampleCheck] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def default_assets_dir() -> Path:
    return Path(resources.files("einverse").joinpath("assets"))


def load_asset(name: str, assets_dir: str | Path | None = None) -> DenseTensor:
    base = Path(assets_dir) if assets_dir is not None else default_assets_dir()
    return load_tensor(base / f"{name}.json")


class _Recorder:
    def __init__(self, report: ExampleReport):
        self.report = report

    def golden(self, name: str, computed: DenseTensor, expected: DenseTensor):
        err = max_abs_diff(computed, expected)
        self.report.checks.append(ExampleCheck(
            name, err <= GOLDEN_TOL, f"max abs error {err:.3e} (tol {GOLDEN_TOL:g})"
        ))

    def gap(self, name: str, a: DenseTensor, b: DenseTensor, minimum: float = SEPARATION):
        g = frobenius_norm(sub(a, b))
        self.report.checks.append(ExampleCheck(
            name, g >= minimum, f"gap {g:.3e} (required >= {minimum:g})"
        ))

    def verdict(self, name: str, rep: LawReport, expected: bool):
        ok = rep.verdict == expected and not rep.ambiguous
        detail = f"verdict {rep.verdict} (expected {expected})"
        if rep.ambiguous:
            detail += ", AMBIGUOUS"
        self.report.checks.append(ExampleCheck(name, ok, detail))


def _load_set(which: str, assets_dir) -> dict[str, DenseTensor]:
    prefix = {"3.1": "example31_", "exmppgi": "exmppgi_", "sec4": "sec4_"}[which]
    return {
        name[len(prefix):]: load_asset(name, assets_dir)
        for name in ASSETS[which]
    }


def run_example(which: str, assets_dir: str | Path | None = None) -> ExampleReport:
    """Reproduce one worked example against its golden values."""
    if which not in EXAMPLE_NAMES:
        raise ValueError(f"unknown example {which!r}; choose from {EXAMPLE_NAMES}")
    start = time.perf_counter()
    report = ExampleReport(which=which)
    rec = _Recorder(report)
    g = _load_set(which, assets_dir)

    f = Factorization(g["R"], g["S"], g["T"])
    rec.golden("product_reproduces_A", f.a, g["A"])
    rec.golden("mp_inverse_of_A", f.a_pinv, g["A_pinv"])

    if which == "3.1":
        rec.golden("mp_inverse_of_R", f.r_pinv, g["R_pinv"])
        rec.golden("mp_inverse_of_S", f.s_pinv, g["S_pinv"])
        rec.golden("mp_inverse_of_T", f.t_pinv, g["T_pinv"])
        rec.golden("sandwich_equals_S", f.core, g["S"])
        rec.golden("product_mp", f.a_pi, g["product_mp"])
        rec.golden("b_tensor", f.b, g["B"])
        rec.golden("c_tensor", f.c, g["C"])
        rec.gap("product_mp_differs_from_mp", f.a_pi, f.a_pinv)
        rec.verdict("coincidence_is_false", check_coincidence(f, LAW_TOL), False)
        rec.verdict("y_decomposition_is_true", check_y_decomposition(f, LAW_TOL), True)
        rec.verdict("triple_rol_is_false", triple_rol_check(f, LAW_TOL), False)
        rec.verdict("involution_holds", product_mp_involution(f, LAW_TOL), True)
        cross = check_b_c_cross(f, LAW_TOL)
        report.checks.append(ExampleCheck(
            "b_c_cross_consistent", not cross.ambiguous,
            f"pairings consistent: {not cross.ambiguous}"
        ))
    elif which == "exmppgi":
        rec.golden("mp_inverse_of_R", f.r_pinv, g["R_pinv"])
        rec.golden("mp_inverse_of_S", f.s_pinv, g["S_pinv"])
        rec.golden("mp_inverse_of_T", f.t_pinv, g["T_pinv"])
        rec.golden("reverse_chain", f.w, g["reverse_chain"])
        rec.golden("reverse_order_law_holds", f.w, f.a_pinv)
        rec.golden("product_mp", f.a_pi, g["product_mp"])
        rec.gap("product_mp_differs_from_mp", f.a_pi, f.a_pinv)
        rec.verdict("triple_rol_is_true", triple_rol_check(f, LAW_TOL), True)
        rec.verdict("coincidence_is_false", check_coincidence(f, LAW_TOL), False)
        rec.verdict("y_decomposition_is_false", check_y_decomposition(f, LAW_TOL), False)
    else:  # sec4
        rec.golden("reverse_chain", f.w, g["reverse_chain"])
        rec.gap("mp_differs_from_reverse_chain", f.a_pinv, f.w)
        rec.verdict("triple_rol_is_false", triple_rol_check(f, LAW_TOL), False)

    report.elapsed_s = time.perf_counter() - start
    return report
