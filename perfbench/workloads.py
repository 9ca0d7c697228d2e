"""The three benchmark workloads.

Each workload class has the same shape:

* ``generate(seed, root)`` builds the raw inputs from the seed with numpy only;
* ``reference(raw)`` derives the expected outcome of every op without the
  library under test (run once per process, outside set-up time);
* the constructor wraps the raw inputs in the program's own types;
* ``ops`` is the list the timed loop cycles through, ``trace_ops`` the fixed
  list the traced run repeats whole, so that its counts are exact;
* ``execute(op)`` is the timed call, ``check(op, result)`` the untimed
  validation, returning ``None`` or the reason the op failed.

With ``negative_control`` set, op 0 is sabotaged (a flipped expectation, or
the oracle's ``corrupt_b`` fault), so every workload can show that its gate
fails.
"""
from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from reference import CHECKERS, LAWS

EXIT_OK = 0
EXIT_FALSE = 3

# Law verdicts stated in the documentation of the bundled examples
# (src/einverse/bundled.py).  Undocumented pairs come from the numpy route.
DOCUMENTED_VERDICTS = {
    ("3.1", "coincidence"): False,
    ("3.1", "y-decomposition"): True,
    ("3.1", "triple-rol"): False,
    ("3.1", "involution"): True,
    ("exmppgi", "triple-rol"): True,
    ("exmppgi", "coincidence"): False,
    ("exmppgi", "y-decomposition"): False,
    ("sec4", "triple-rol"): False,
}
EXAMPLE_PREFIX = {"3.1": "example31_", "exmppgi": "exmppgi_", "sec4": "sec4_"}


def _seeded_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


# ---------------------------------------------------------------------------
# paper-cli


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    inputs: tuple[str, ...]  # files the report must list with their digests
    example: str | None = None
    law: str | None = None


class PaperCli:
    """One in-process ``cli.main(argv)`` per op at the paper's 4x4 sizes."""

    name = "paper-cli"
    probe = "python"  # host-speed probe kind: the time goes to the interpreter

    def __init__(self, program, raw, expected, negative_control=False):
        self.cli = program.cli
        self.ops = raw["ops"]
        self.trace_ops = self.ops
        self.warmup_ops = self.ops
        self.digests = raw["digests"]
        self.expected = dict(expected)
        if negative_control:
            op = self.ops[0]
            self.expected[op] = EXIT_FALSE if self.expected[op] == EXIT_OK else EXIT_OK

    @staticmethod
    def generate(seed: int, root: Path):
        assets = root / "src" / "einverse" / "assets"

        def asset(example, name):
            return str(assets / f"{EXAMPLE_PREFIX[example]}{name}.json")

        ops = [CliOp(("examples", "paper"), ())]
        for ex in EXAMPLE_PREFIX:
            chain = tuple(asset(ex, n) for n in "RST")
            ops += [CliOp(("check", law) + chain, chain, ex, law) for law in LAWS]
            ops.append(CliOp(("product-pinv",) + chain, chain, ex))
            a, a_pinv = asset(ex, "A"), asset(ex, "A_pinv")
            ops.append(CliOp(("pinv", a), (a,), ex))
            ops.append(CliOp(("verify", a, a_pinv), (a, a_pinv), ex))
        order = _seeded_rng(seed, 1).permutation(len(ops))
        ops = [ops[i] for i in order]
        digests = {}
        for op in ops:
            for path in op.inputs:
                with open(path, "rb") as fh:
                    digests[path] = hashlib.sha256(fh.read()).hexdigest()
        return {"ops": ops, "digests": digests}

    @staticmethod
    def reference(raw):
        """Expected exit code per op: documented verdicts, else the numpy route."""
        verdicts = {}
        for op in raw["ops"]:
            if op.law is None or op.example in verdicts:
                continue
            r, s, t = (reference.read_unfolding(p) for p in op.inputs)
            verdicts[op.example] = reference.law_verdicts(r, s, t)
        for (example, law), documented in DOCUMENTED_VERDICTS.items():
            if verdicts[example][law] != documented:
                raise reference.ReferenceUndecided(
                    f"numpy route contradicts the documented verdict of {example} {law}"
                )
        expected = {}
        for op in raw["ops"]:
            holds = verdicts[op.example][op.law] if op.law else True
            expected[op] = EXIT_OK if holds else EXIT_FALSE
        return expected

    def execute(self, op: CliOp):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(list(op.argv))
        text = out.getvalue()
        return code, json.loads(text), len(text.encode())

    @staticmethod
    def output_bytes(result) -> int:
        return result[2]

    def check(self, op: CliOp, result) -> str | None:
        code, doc, _ = result
        want = self.expected[op]
        if code != want:
            return f"exit code {code}, expected {want}"
        if doc.get("command") != list(op.argv):
            return "report does not echo the command"
        if doc.get("verdict") is not (want == EXIT_OK):
            return f"report verdict {doc.get('verdict')!r}"
        if doc.get("inputs") != {p: self.digests[p] for p in op.inputs}:
            return "input digests differ from sha256 of the files"
        if doc.get("ambiguous", False):
            return "verdict flagged ambiguous"
        if op.argv[0] == "examples":
            bad = [c["name"] for e in doc["examples"] for c in e["checks"] if not c["passed"]]
            if bad or len(doc["examples"]) != len(EXAMPLE_PREFIX):
                return f"golden checks failed: {bad}"
        return None


# ---------------------------------------------------------------------------
# fuzz-battery


class FuzzBattery:
    """One trial of the oracle invariant battery at max_dim=2 per op."""

    name = "fuzz-battery"
    probe = "python"
    TRIALS = 512  # the timed loop cycles through this fixed list
    TRACED_TRIALS = 128

    def __init__(self, program, raw, expected, negative_control=False):
        self.oracle = program.oracle
        self.ops = raw
        self.trace_ops = raw[: self.TRACED_TRIALS]
        self.warmup_ops = raw[:16]
        self.faulty = raw[0] if negative_control else None

    @classmethod
    def generate(cls, seed: int, root: Path):
        rng = _seeded_rng(seed, 2)
        return [int(s) for s in rng.integers(0, 2**31 - 1, size=cls.TRIALS)]

    @staticmethod
    def reference(raw):
        return None  # the battery's own invariants are the expectation

    def execute(self, trial_seed: int):
        fault = "corrupt_b" if trial_seed == self.faulty else None
        return self.oracle.exhaustive_small_check(
            max_dim=2, trials=1, seed=trial_seed, inject_fault=fault
        )

    @staticmethod
    def output_bytes(result) -> int:
        return 0

    def check(self, trial_seed: int, summary) -> str | None:
        if summary.trials != 1:
            return f"ran {summary.trials} trials"
        if summary.violations:
            v = summary.violations[0]
            return f"{len(summary.violations)} violations, first {v.invariant} ({v.residual:.3e})"
        return None


# ---------------------------------------------------------------------------
# large-chains

GROUPINGS = ((16, 16), (4, 4, 16), (256,), (2, 8, 16))
# (R, S, T) kinds per chain slot.  A unitary sandwich makes every law hold;
# deficient factors make some laws fail.
CHAIN_KINDS = (
    ("unitary", "deficient", "unitary"),
    ("full", "deficient", "full"),
    ("deficient", "deficient", "deficient"),
    ("deficient", "full", "deficient"),
)
N = 256


@dataclass(frozen=True)
class ChainOp:
    chain: int
    law: str


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _factor(rng: np.random.Generator, kind: str) -> np.ndarray:
    """A 256x256 unfolding: unitary, or U diag(sigma) V^H with sigma in [0.5, 2]."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "unitary":
        return scale * _haar_unitary(rng, N)
    sigma = np.sort(np.exp(rng.uniform(np.log(0.5), np.log(2.0), N)))[::-1]
    if kind == "deficient":
        sigma[N - int(rng.integers(1, 9)):] = 0.0
    return scale * ((_haar_unitary(rng, N) * sigma) @ _haar_unitary(rng, N).conj().T)


class LargeChains:
    """A fresh Factorization of 256x256 unfoldings plus one law checker per op."""

    name = "large-chains"
    probe = "lapack"  # host-speed probe kind: the time goes to 256x256 SVDs

    def __init__(self, program, raw, expected, negative_control=False):
        ev = program.ev
        self.ev = ev
        self.chains = []
        for c, factors in enumerate(raw):
            groups = [GROUPINGS[(c + j) % len(GROUPINGS)] for j in range(4)]
            self.chains.append(tuple(
                ev.DenseTensor(ev.GroupedShape(groups[j], groups[j + 1]), m)
                for j, m in enumerate(factors)
            ))
        # Op i pairs chain i mod 4 with law i mod 5: every pair once per cycle.
        n_ops = len(raw) * len(LAWS)
        self.ops = [ChainOp(i % len(raw), LAWS[i % len(LAWS)]) for i in range(n_ops)]
        self.trace_ops = self.ops
        self.warmup_ops = self.ops[:1]
        self.expected = dict(expected)
        if negative_control:
            self.expected[self.ops[0]] = not self.expected[self.ops[0]]

    @staticmethod
    def generate(seed: int, root: Path):
        rng = _seeded_rng(seed, 3)
        return [tuple(_factor(rng, kind) for kind in kinds) for kinds in CHAIN_KINDS]

    @staticmethod
    def reference(raw):
        expected = {}
        for c, (r, s, t) in enumerate(raw):
            for law, holds in reference.law_verdicts(r, s, t).items():
                expected[ChainOp(c, law)] = holds
        return expected

    def execute(self, op: ChainOp):
        r, s, t = self.chains[op.chain]
        f = self.ev.Factorization(r, s, t)
        return getattr(self.ev, CHECKERS[op.law])(f)

    @staticmethod
    def output_bytes(result) -> int:
        return 0

    def check(self, op: ChainOp, rep) -> str | None:
        want = self.expected[op]
        if rep.ambiguous:
            return "verdict flagged ambiguous"
        if rep.verdict != want:
            return f"verdict {rep.verdict}, numpy reference says {want}"
        return None


WORKLOADS = {w.name: w for w in (PaperCli, FuzzBattery, LargeChains)}
