"""Command-line interface: exit codes, report structure, output files."""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import einverse
from einverse import load_tensor, max_abs_diff, save_tensor
from einverse.bundled import default_assets_dir
from einverse.cli import main
from conftest import random_tensor
from golden_data import golden_tensor


def asset(name):
    return str(default_assets_dir() / f"{name}.json")


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# --- pinv / verify -----------------------------------------------------------

def test_pinv_writes_inverse_and_reports(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, doc = run_main(capsys, "pinv", asset("example31_A"), "-o", str(out),
                         "--tol", "1e-10")
    assert code == 0
    assert doc["verdict"] is True
    assert len(doc["penrose_residuals"]) == 4
    assert max_abs_diff(load_tensor(out), golden_tensor("3.1", "A_pinv")) <= 1e-10
    assert list(doc["inputs"]) == [asset("example31_A")]


def test_pinv_rank_policy_flag(capsys, tmp_path):
    code, _ = run_main(capsys, "pinv", asset("example31_A"), "--rank-policy", "fixed:3")
    assert code == 0
    code, doc = run_main(capsys, "pinv", asset("example31_A"),
                         "--rank-policy", "absolute:1e-6")
    assert code == 0 and doc["verdict"] is True


def test_verify_accepts_golden_pair(capsys):
    code, doc = run_main(capsys, "verify", asset("example31_A"),
                         asset("example31_A_pinv"))
    assert code == 0 and doc["verdict"] is True


def test_verify_rejects_wrong_candidate(capsys):
    # the product MP inverse is not the Moore-Penrose inverse here
    code, doc = run_main(capsys, "verify", asset("example31_A"),
                         asset("example31_product_mp"))
    assert code == 3 and doc["verdict"] is False


# --- product-pinv / check -------------------------------------------------------

def test_product_pinv_matches_golden(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, doc = run_main(capsys, "product-pinv", asset("example31_R"),
                         asset("example31_S"), asset("example31_T"),
                         "-o", str(out), "--tol", "1e-10")
    assert code == 0
    assert doc["law_id"] == "ProductPenrose"
    assert len(doc["condition_residuals"]) == 6
    assert max_abs_diff(load_tensor(out), golden_tensor("3.1", "product_mp")) <= 1e-10


@pytest.mark.parametrize("law, which, expected", [
    ("coincidence", "example31", 3),
    ("y-decomposition", "example31", 0),
    ("triple-rol", "example31", 3),
    ("involution", "example31", 0),
    ("b-c-cross", "example31", 3),
    ("triple-rol", "exmppgi", 0),
    ("y-decomposition", "exmppgi", 3),
    ("triple-rol", "sec4", 3),
])
def test_check_exit_codes(capsys, law, which, expected):
    code, doc = run_main(capsys, "check", law, asset(f"{which}_R"),
                         asset(f"{which}_S"), asset(f"{which}_T"))
    assert code == expected
    assert doc["ambiguous"] is False
    assert doc["verdict"] is (expected == 0)


def test_check_reports_residuals_full_precision(capsys):
    code, doc = run_main(capsys, "check", "triple-rol", asset("sec4_R"),
                         asset("sec4_S"), asset("sec4_T"))
    assert code == 3
    assert doc["direct_residual"] > 0.1
    # the JSON round trip loses nothing: values equal the library's bit for bit
    from einverse import Factorization, triple_rol_check
    rep = triple_rol_check(Factorization(
        load_tensor(asset("sec4_R")), load_tensor(asset("sec4_S")),
        load_tensor(asset("sec4_T"))))
    assert doc["condition_residuals"] == rep.condition_residuals
    assert doc["direct_residual"] == rep.direct_residual


def test_ambiguous_maps_to_exit_4():
    import dataclasses
    from einverse.cli import _law_exit
    from einverse import Factorization, check_coincidence
    f = Factorization(load_tensor(asset("example31_R")),
                      load_tensor(asset("example31_S")),
                      load_tensor(asset("example31_T")))
    rep = check_coincidence(f)
    assert _law_exit(rep) == 3
    assert _law_exit(dataclasses.replace(rep, verdict=True)) == 0
    assert _law_exit(dataclasses.replace(rep, ambiguous=True)) == 4


def test_check_chain_mismatch_exit_code(capsys, tmp_path):
    g = np.random.Generator(np.random.PCG64(4))
    wrong_t = tmp_path / "t.json"
    save_tensor(random_tensor(g, (3,), (2,)), wrong_t)  # row group breaks the chain
    code = main(["check", "coincidence", asset("example31_R"),
                 asset("example31_S"), str(wrong_t)])
    assert code == 1
    assert "error" in capsys.readouterr().err


# --- examples -------------------------------------------------------------------

def test_examples_all_pass(capsys):
    code, doc = run_main(capsys, "examples", "paper")
    assert code == 0
    assert doc["verdict"] is True
    assert [e["which"] for e in doc["examples"]] == ["3.1", "exmppgi", "sec4"]
    assert all(c["passed"] for e in doc["examples"] for c in e["checks"])


@pytest.mark.parametrize("which", ["3.1", "exmppgi", "sec4"])
def test_examples_single(capsys, which):
    code, doc = run_main(capsys, "examples", "paper", "--which", which)
    assert code == 0 and doc["verdict"] is True


def test_examples_detect_perturbed_asset(capsys, tmp_path):
    assets = tmp_path / "assets"
    shutil.copytree(default_assets_dir(), assets)
    target = assets / "example31_S.json"
    doc = json.loads(target.read_text())
    doc["entries"][0][0] += 1e-3
    target.write_text(json.dumps(doc))
    code, rep = run_main(capsys, "examples", "paper", "--which", "3.1",
                         "--assets-dir", str(assets))
    assert code == 3
    assert rep["verdict"] is False


# --- fuzz / errors ---------------------------------------------------------------

def test_fuzz_clean(capsys):
    code, doc = run_main(capsys, "fuzz", "--trials", "5", "--max-dim", "2",
                         "--seed", "9")
    assert code == 0 and doc["verdict"] is True and doc["trials"] == 5


def test_io_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["pinv", str(bad)]) == 1


def test_shape_error_exit_code(tmp_path, capsys):
    g = np.random.Generator(np.random.PCG64(0))
    a = random_tensor(g, (2,), (3,))
    b = random_tensor(g, (2,), (3,))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_tensor(a, pa)
    save_tensor(b, pb)
    assert main(["verify", str(pa), str(pb)]) == 1  # wrong candidate shape


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["check", "not-a-law", "a", "b", "c"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--max-dim", "4"), ("--max-dim", "0"), ("--trials", "-3"), ("--trials", "many"),
])
def test_fuzz_rejects_arguments_it_cannot_run(flag, value, capsys):
    with pytest.raises(SystemExit) as err:
        main(["fuzz", flag, value])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


# --- console entry point (subprocess, end to end) ---------------------------------

def test_console_script_end_to_end(tmp_path):
    exe = shutil.which("einverse")
    cmd = [exe] if exe else [sys.executable, "-m", "einverse.cli"]
    # the child must import the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(einverse.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        cmd + ["examples", "paper", "--which", "sec4"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] is True
