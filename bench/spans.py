"""Per-layer tracing from outside the program.

hopfforge has no tracing of its own.  A Tracer wraps chosen functions and
methods of the imported package with span recorders and undoes the
wrapping on `remove()`.  Several modules import functions by name (hopf
imports `tensor_multiply`, cli imports `certify`), so a function wrapper
is installed under every name in every hopfforge module that refers to
the original object; methods are wrapped on their class.

Each span records its duration and the time covered by its child spans,
so a layer's self time is its duration minus that of its children.  Spans
of one name are summed; `metrics(ops)` divides every sum by the number of
operations traced, giving per-operation figures.

Run as a script, this module is the traced form of the `hopfforge` CLI:
`python3 bench/spans.py <cli arguments>` installs a Tracer, runs the
command, and writes the span sums to stderr as its last line, after the
marker TRACE_MARKER.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import defaultdict

TRACE_MARKER = "#hopfforge-bench-trace "

# (module, qualified name, stats reported).  'calls', 'self_s' and
# 'total_s' come from the span; the rest are counters filled by hooks.
SPANS = [
    ("linalg", "rref", ("calls", "self_s", "cells", "rank_out")),
    ("linalg", "LinearSolver.add", ("self_s",)),
    ("linalg", "LinearSolver._reduce", ("self_s",)),
    ("linalg", "kernel_basis", ("total_s",)),
    ("grading", "certify", ("total_s",)),
    ("grading", "certify_filtration", ("total_s", "self_s")),
    ("hopf", "PresentedHopfAlgebra.coproduct", ("calls", "self_s")),
    ("hopf", "PresentedHopfAlgebra.iterated_reduced_coproduct",
     ("calls", "self_s")),
    ("hopf", "PresentedHopfAlgebra.coradical_degree", ("calls", "self_s")),
    ("hopf", "PresentedHopfAlgebra.antipode", ("calls", "self_s")),
    ("hopf", "verify_hopf", ("total_s",)),
    ("hopf", "solve_antipode", ("total_s",)),
    ("tensor", "tensor_multiply", ("calls", "self_s", "terms_out")),
    ("tensor", "contract", ("self_s",)),
    ("tensor", "TensorElement.apply_to_leg", ("self_s",)),
    ("algebra", "Presentation.reduce_word", ("calls", "self_s")),
    ("algebra", "Presentation.product_terms", ("calls", "miss_ratio")),
    ("algebra", "check_confluence", ("total_s",)),
    ("coideal", "register_subalgebra", ("total_s",)),
    ("coideal", "coideal_check", ("total_s",)),
    ("lantern", "lantern", ("total_s",)),
    ("lantern", "numerology_report", ("total_s",)),
    ("nakayama", "nakayama_automorphism", ("total_s",)),
    ("parser", "parse", ("total_s",)),
    ("parser", "build_algebra", ("total_s",)),
    ("cli", "run", ("total_s",)),
]

# Memo tables of a host, reported as entries held at the end of each
# operation: (metric name, attribute path from the host).
MEMOS = [
    ("hopf._coproduct_monomial.memo_entries", ("_coprod_mono",)),
    ("hopf._reduced_iterate_monomial.memo_entries", ("_reduced_iter",)),
    ("hopf._antipode_monomial.memo_entries", ("_antipode_mono",)),
    ("algebra.product_terms.memo_entries", ("presentation", "_prod_cache")),
]

# Modules whose import time is reported, as <module>.import.self_s.
IMPORT_MODULES = ("coideal", "lantern", "nakayama", "parser", "cli")


def layer_name(module: str, qualname: str) -> str:
    """`module.function`; both LinearSolver methods count as one layer."""
    name = qualname.split(".")[-1]
    if qualname.startswith("LinearSolver."):
        name = "LinearSolver"
    return f"{module}.{name}"


class Tracer:
    """Span sums, counters and memo sizes of one traced process."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters = defaultdict(float)
        self.memo_sums = defaultdict(float)
        self._stack: list[list[float]] = []
        self._undo: list = []
        self._seen_products = weakref.WeakKeyDictionary()
        self._hosts: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib
        # every module is loaded first, so that each by-name import of a
        # wrapped function is found and replaced
        mods = {name: importlib.import_module(f"hopfforge.{name}")
                for name in ("linalg", "grading", "hopf", "tensor", "algebra",
                             "coideal", "lantern", "nakayama", "parser",
                             "cli", "catalog")}
        hooks = {
            ("linalg", "rref"): self._count_rref,
            ("tensor", "tensor_multiply"): self._count_terms,
        }
        for module, qualname, _ in SPANS:
            name = layer_name(module, qualname)
            hook = hooks.get((module, qualname))
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mods[module], cls_name)
                original = cls.__dict__[attr]
                if attr == "product_terms":
                    wrapped = self._product_terms(original)
                else:
                    wrapped = self._wrap(name, original, hook)
                self._replace(cls, attr, original, wrapped)
            else:
                original = getattr(mods[module], qualname)
                wrapped = self._wrap(name, original, hook)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "hopfforge":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, original, wrapped)
        host_cls = mods["hopf"].PresentedHopfAlgebra
        init = host_cls.__init__
        hosts = self._hosts

        def tracked_init(host, *args, **kwargs):
            init(host, *args, **kwargs)
            hosts.append(host)
        self._replace(host_cls, "__init__", init, tracked_init)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    # -- span recording -----------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        stack = self._stack
        entry = self.spans[name]
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(args, result)
            return result
        span.__wrapped__ = fn
        return span

    def _product_terms(self, fn):
        """Counts calls and distinct (presentation, m1, m2) keys."""
        counters = self.counters
        seen = self._seen_products

        def product_terms(pres, m1, m2):
            counters["algebra.product_terms.calls"] += 1
            keys = seen.get(pres)
            if keys is None:
                keys = seen[pres] = set()
            if (m1, m2) not in keys:
                keys.add((m1, m2))
                counters["algebra.product_terms.distinct"] += 1
            return fn(pres, m1, m2)
        return product_terms

    def _count_rref(self, args, result):
        rows, ncols = args[0], args[1]
        self.counters["linalg.rref.cells"] += len(rows) * ncols
        self.counters["linalg.rref.rank_out"] += len(result[0])

    def _count_terms(self, args, result):
        self.counters["tensor.tensor_multiply.terms_out"] += len(result.terms)

    # -- operations -----------------------------------------------------------

    def end_op(self, hosts=()) -> None:
        """Add the memo sizes of the operation's hosts, then forget them."""
        seen = {id(h): h for h in list(self._hosts) + list(hosts)}
        for name, path in MEMOS:
            total = 0
            for host in seen.values():
                obj = host
                for attr in path:
                    obj = getattr(obj, attr)
                total += len(obj)
            self.memo_sums[name] += total
        self._hosts.clear()

    def raw(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "memos": dict(self.memo_sums)}


def merge(total: dict, part: dict) -> None:
    """Add the raw sums of one traced process into another's."""
    for key in ("counters", "memos"):
        for k, v in part[key].items():
            total[key][k] = total[key].get(k, 0) + v
    for k, v in part["spans"].items():
        acc = total["spans"].setdefault(k, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += v[i]


def metrics(raw: dict, ops: int) -> dict:
    """Per-operation figures for every span stat and memo table.

    `miss_ratio` is a ratio of two run totals and is not divided.
    """
    counters = raw["counters"]
    out = {}
    for module, qualname, stats in SPANS:
        name = layer_name(module, qualname)
        calls, total, own = raw["spans"].get(name, (0, 0.0, 0.0))
        for stat in stats:
            key = f"{name}.{stat}"
            if key == "algebra.product_terms.calls":
                out[key] = counters.get(key, 0) / ops
            elif key == "algebra.product_terms.miss_ratio":
                made = counters.get("algebra.product_terms.calls", 0)
                distinct = counters.get("algebra.product_terms.distinct", 0)
                out[key] = distinct / made if made else 0.0
            else:
                value = {"calls": calls, "total_s": total,
                         "self_s": own}.get(stat, counters.get(key, 0))
                out[key] = value / ops
    for name, _ in MEMOS:
        out[name] = raw["memos"].get(name, 0) / ops
    return out


def empty_raw() -> dict:
    return {"spans": {}, "counters": {}, "memos": {}}


def main(argv) -> int:
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from hopfforge import cli
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(argv)
    finally:
        tracer.remove()
    tracer.end_op()
    sys.stdout.flush()
    sys.stderr.write("\n" + TRACE_MARKER + json.dumps(tracer.raw()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
