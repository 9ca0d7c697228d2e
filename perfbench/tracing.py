"""Spans and counters around the library's layer boundaries, for the traced run.

The tracer wraps public functions from the benchmark's side: every einverse
module (and every dict in it, such as the CLI's checker table) that holds one
of the wrapped functions gets the wrapper, and ``numpy.linalg.svd`` is
wrapped to count SVDs and attribute each to the library or to the oracle by
the file of its caller.  Spans stay in memory as
``[name, start_ns, end_ns, parent, op]`` rows and are written out once, at
the end.  A span's self time is its duration minus the time its children
cover.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from reference import CHECKERS, LAWS

SVD = "numpy.linalg.svd"
FACTORIZATION = "product.factorization"
GEN = "oracle.gen"
LAW_SPANS = {law: "product." + law.replace("-", "_") for law in LAWS}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.svd_info: dict[int, tuple[str, int]] = {}  # span index -> (caller, work)
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrap_svd(self, fn):
        @functools.wraps(fn)
        def svd(a, *args, **kwargs):
            caller = sys._getframe(1).f_code.co_filename
            kind = "library" if caller.endswith("pinv.py") else (
                "oracle" if caller.endswith("oracle.py") else "other")
            m, n = np.shape(a)[-2:]
            idx = len(self.spans)
            rec = self._open(SVD)
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(rec)
                self.svd_info[idx] = (kind, m * n * min(m, n))
        return svd

    # -- patching -----------------------------------------------------------

    def install(self, program) -> None:
        """Wrap the layer boundaries of the imported program; undo with remove()."""
        ev, core, pinv, product, oracle, tensorfile, bundled, cli = (
            program.ev, program.core, program.pinv, program.product,
            program.oracle, program.tensorfile, program.bundled, program.cli)
        counts = self.counts

        def on_law(args, rep):
            counts["product.ambiguous"] += bool(rep.ambiguous)

        def on_load(args, result):
            counts["tensorfile.load_tensor.bytes"] += Path(args[0]).stat().st_size

        functions = [
            (core.einstein_product, self.wrap("core.einstein_product", core.einstein_product)),
            (pinv.mp_inverse, self.wrap("pinv.mp_inverse", pinv.mp_inverse)),
            (pinv.mp_inverse_info, self.wrap("pinv.mp_inverse_info", pinv.mp_inverse_info)),
            (oracle.gen_factorization, self.wrap(GEN, oracle.gen_factorization)),
            (oracle._battery, self.wrap("oracle.battery", oracle._battery)),
            (oracle.oracle_unfold, self.wrap("oracle.oracle_unfold", oracle.oracle_unfold)),
            (oracle.oracle_pinv, self.wrap("oracle.oracle_pinv", oracle.oracle_pinv)),
            (tensorfile.load_tensor,
             self.wrap("tensorfile.load_tensor", tensorfile.load_tensor, on_load)),
            (tensorfile.file_digest, self.wrap("tensorfile.file_digest", tensorfile.file_digest)),
            (bundled.run_example, self.wrap("bundled.run_example", bundled.run_example)),
            (cli.main, self.wrap("cli.main", cli.main)),
        ]
        for law, span in LAW_SPANS.items():
            fn = getattr(product, CHECKERS[law])
            functions.append((fn, self.wrap(span, fn, on_law)))
        by_id = {id(fn): wrapper for fn, wrapper in functions}
        modules = [m for name, m in sys.modules.items()
                   if name == "einverse" or name.startswith("einverse.")]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in by_id:
                    self._set(mod, key, by_id[id(value)], setattr)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in by_id:
                            self._set(value, k, by_id[id(v)], dict.__setitem__)

        init = product.Factorization.__init__
        self._set(product.Factorization, "__init__", self.wrap(FACTORIZATION, init), setattr)
        dense_init = core.DenseTensor.__init__

        @functools.wraps(dense_init)
        def counted_init(obj, *args, **kwargs):
            counts["core.dense_tensor.constructions"] += 1
            dense_init(obj, *args, **kwargs)
        self._set(core.DenseTensor, "__init__", counted_init, setattr)
        self._set(np.linalg, "svd", self._wrap_svd(np.linalg.svd), setattr)

    def _set(self, target, key, value, setter) -> None:
        getter = dict.__getitem__ if setter is dict.__setitem__ else getattr
        self._restore.append((target, key, getter(target, key), setter))
        setter(target, key, value)

    def remove(self) -> None:
        for target, key, original, setter in reversed(self._restore):
            setter(target, key, original)
        self._restore.clear()

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, normalised per op unless the name says per call."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        incl_ns = Counter()
        self_ns = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            incl_ns[name] += end - start
            self_ns[name] += end - start - child_ns[i]

        def ancestors(i):
            names = set()
            parent = spans[i][3]
            while parent >= 0:
                names.add(spans[parent][0])
                parent = spans[parent][3]
            return names

        svd_under = Counter()
        svd_kind = Counter()
        work = 0
        for i, (kind, w) in self.svd_info.items():
            svd_kind[kind] += 1
            work += w
            svd_under.update(ancestors(i))
        gen_draws = sum(
            1 for i, sp in enumerate(spans) if sp[0] == FACTORIZATION and GEN in ancestors(i)
        )

        def per_op(x):
            return x / ops

        def per_call(x, name):
            return x / calls[name] if calls[name] else 0.0

        m = {
            "core.einstein_product.calls": (per_op(calls["core.einstein_product"]), "count"),
            "core.einstein_product.self_us":
                (per_op(self_ns["core.einstein_product"]) / 1e3, "us"),
            "core.dense_tensor.constructions":
                (per_op(self.counts["core.dense_tensor.constructions"]), "count"),
            "pinv.svd.calls": (per_op(calls[SVD]), "count"),
            "pinv.svd.calls.library": (per_op(svd_kind["library"]), "count"),
            "pinv.svd.calls.oracle": (per_op(svd_kind["oracle"]), "count"),
            "pinv.svd.self_ms": (per_op(self_ns[SVD]) / 1e6, "ms"),
            "pinv.svd.work": (per_op(work), "count"),
            "pinv.mp_inverse.assembly_us": (
                per_op(self_ns["pinv.mp_inverse"] + self_ns["pinv.mp_inverse_info"]) / 1e3,
                "us"),
            "product.factorization.ms": (per_op(incl_ns[FACTORIZATION]) / 1e6, "ms"),
            "product.factorization.self_ms": (per_op(self_ns[FACTORIZATION]) / 1e6, "ms"),
            "product.factorization.svd_calls": (per_op(svd_under[FACTORIZATION]), "count"),
        }
        for span in LAW_SPANS.values():
            m[f"{span}.svd_calls"] = (per_call(svd_under[span], span), "count")
            m[f"{span}.ms"] = (per_call(incl_ns[span], span) / 1e6, "ms")
            m[f"{span}.self_ms"] = (per_call(self_ns[span], span) / 1e6, "ms")
        m.update({
            "product.ambiguous": (per_op(self.counts["product.ambiguous"]), "count"),
            "oracle.gen.draws_per_instance": (per_call(gen_draws, GEN), "count"),
            "oracle.gen.ms": (per_op(incl_ns[GEN]) / 1e6, "ms"),
            "oracle.gen.self_ms": (per_op(self_ns[GEN]) / 1e6, "ms"),
            "oracle.gen.svd_calls": (per_op(svd_under[GEN]), "count"),
            "oracle.battery.ms": (per_op(incl_ns["oracle.battery"]) / 1e6, "ms"),
            "oracle.oracle_unfold.ms": (per_op(incl_ns["oracle.oracle_unfold"]) / 1e6, "ms"),
            "oracle.oracle_pinv.ms": (per_op(incl_ns["oracle.oracle_pinv"]) / 1e6, "ms"),
            "tensorfile.load_tensor.ms": (per_op(incl_ns["tensorfile.load_tensor"]) / 1e6, "ms"),
            "tensorfile.load_tensor.bytes":
                (per_op(self.counts["tensorfile.load_tensor.bytes"]), "B"),
            "tensorfile.file_digest.ms": (per_op(incl_ns["tensorfile.file_digest"]) / 1e6, "ms"),
            "bundled.run_example.ms": (per_op(incl_ns["bundled.run_example"]) / 1e6, "ms"),
            "cli.self_ms": (per_op(self_ns["cli.main"]) / 1e6, "ms"),
            "cli.report_bytes": (per_op(self.counts["cli.report_bytes"]), "B"),
        })
        return m

    def write(self, path: Path, header: dict) -> None:
        names = sorted({sp[0] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(header, names=names, fields=["name", "start_ns", "end_ns", "parent", "op"],
                   spans=[[index[n], s, e, p, o] for n, s, e, p, o in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

