"""Outside-in tracing of braidcert: spans and counters around its public calls.

Nothing in braidcert is edited.  ``Tracer.install`` replaces methods on their classes
and module functions at every binding site in the ``braidcert`` package, since
``from .x import y`` copies the name into the importing module.  Each call opens a
span (name, start, end, parent).  Spans stay in memory until the pass ends, when they
are written to a file and reduced to the per-layer metrics of ``summary``.

A span's layer is the part of its name before the first dot.  A layer's self time
is the time its spans cover minus the time their children cover; ``Fraction``
arithmetic is not wrapped, so it falls into the nearest wrapped caller, which is
mostly ``tensors``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
import weakref
from array import array
from collections import Counter
from typing import Callable

from workloads import SUITES


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._magnus_keys: set = set()
        self._tau1_keys: set = set()
        # expansions get serial numbers rather than id(), which a dead object can pass on
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    # spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str | Callable, observe: Callable | None = None) -> Callable:
        """``fn`` with a span around each call; ``name`` may compute the span name from the args."""
        fixed = None if callable(name) else self._name_id(name)
        clock = time.perf_counter
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if fixed is not None else self._name_id(name(args)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def patch_method(self, cls: type, attr: str, name: str, observe: Callable | None = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, observe))
        self._undo.append((cls, attr, original))

    def patch_function(self, module: str, attr: str, name: str | Callable,
                       observe: Callable | None = None) -> None:
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(original, name, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "braidcert" and not mod_name.startswith("braidcert."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # counters

    def _count(self, key: str) -> Callable:
        counts = self.counts

        def observe(args, result):
            counts[key] += 1

        return observe

    def _serial(self, theta) -> int:
        if theta not in self._serials:
            self._serials[theta] = next(self._next_serial)
        return self._serials[theta]

    def _on_substitute(self, args, result) -> None:
        size = len(result.letters)
        self.counts["words.letters_substituted"] += size
        if size > self.peaks["words.peak_image_len"]:
            self.peaks["words.peak_image_len"] = size

    def _on_tensor(self, key: str) -> Callable:
        counts, peaks = self.counts, self.peaks

        def observe(args, result):
            counts[key] += 1
            size = len(result.terms)
            if size > peaks["tensors.peak_terms"]:
                peaks["tensors.peak_terms"] = size

        return observe

    def _on_value(self, args, result) -> None:
        theta, word = args
        self.counts["magnus.value_calls"] += 1
        self._magnus_keys.add((self._serial(theta), word.letters))

    def _on_tau1(self, args, result) -> None:
        theta, g = args
        self.counts["cochains.tau1_calls"] += 1
        self._tau1_keys.add((self._serial(theta), g))

    def _on_pair(self, args, result) -> None:
        self.counts["chains.bar_tuples_paired"] += len(args[1].terms)

    def _on_rank(self, args, result) -> None:
        self.counts["certify.matrix_entries"] += sum(len(row) for row in args[0])

    def install(self) -> None:
        from braidcert import certify, chains, cochains, magnus, suites, tensors, words  # noqa: F401

        self.patch_method(words.AutPair, "compose", "words.compose", self._count("words.compose_calls"))
        self.patch_method(words.EndoMap, "__call__", "words.substitute", self._on_substitute)
        self.patch_function("braidcert.braids", "artin_action", "braids.artin_action",
                            self._count("braids.artin_calls"))
        self.patch_method(magnus.MagnusExpansion, "value", "magnus.value", self._on_value)
        self.patch_method(tensors.TruncatedTensor, "__mul__", "tensors.mul",
                          self._on_tensor("tensors.mul_calls"))
        self.patch_method(tensors.TruncatedTensor, "act", "tensors.act",
                          self._on_tensor("tensors.act_calls"))
        self.patch_method(tensors.HomTensor, "conjugate", "tensors.conjugate",
                          self._count("tensors.act_calls"))
        self.patch_function("braidcert.cochains", "tau1", "cochains.tau1", self._on_tau1)
        self.patch_method(cochains.Cochain, "__call__", "cochains.evaluate",
                          self._count("cochains.cochain_evals"))
        self.patch_function("braidcert.chains", "pair", "chains.pair", self._on_pair)
        for fn in ("torus_cycle", "shuffle", "embed_chain"):
            self.patch_function("braidcert.chains", fn, f"chains.{fn}")
        self.patch_method(chains.BarChain, "is_cycle", "chains.is_cycle",
                          self._count("chains.cycle_checks"))
        self.patch_function("braidcert.certify", "partition_cycles", "certify.catalog")
        self.patch_function("braidcert.certify", "exact_rank", "certify.rank", self._on_rank)
        self.patch_function("braidcert.suites", "run_suite", lambda args: f"suites.{args[0]}")
        self.patch_function("braidcert.cli", "main", "cli.main")

    # results

    def write(self, path: str) -> None:
        """A JSON header line (name table, span count), then the name, parent, start and
        end arrays in native byte order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_start),
                      "arrays": ["i:name", "i:parent", "d:start", "d:end"]}
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)

    def summary(self) -> dict[str, float]:
        self_s, inclusive = layer_times(
            self.names, self.span_name, self.span_parent, self.span_start, self.span_end
        )
        counts = self.counts
        tau1_calls = counts["cochains.tau1_calls"]
        metrics = {
            "words.compose_calls": counts["words.compose_calls"],
            "words.letters_substituted": counts["words.letters_substituted"],
            "words.peak_image_len": self.peaks["words.peak_image_len"],
            "words.self_s": self_s["words"],
            "braids.artin_calls": counts["braids.artin_calls"],
            "braids.artin_s": inclusive["braids.artin_action"],
            "magnus.value_calls": counts["magnus.value_calls"],
            "magnus.value_distinct": len(self._magnus_keys),
            "magnus.self_s": self_s["magnus"],
            "tensors.mul_calls": counts["tensors.mul_calls"],
            "tensors.act_calls": counts["tensors.act_calls"],
            "tensors.peak_terms": self.peaks["tensors.peak_terms"],
            "tensors.self_s": self_s["tensors"],
            "cochains.tau1_calls": tau1_calls,
            "cochains.tau1_hit_ratio": 1 - len(self._tau1_keys) / tau1_calls if tau1_calls else 0.0,
            "cochains.cochain_evals": counts["cochains.cochain_evals"],
            "cochains.self_s": self_s["cochains"],
            "chains.bar_tuples_paired": counts["chains.bar_tuples_paired"],
            "chains.cycle_checks": counts["chains.cycle_checks"],
            "chains.self_s": self_s["chains"],
            "certify.catalog_s": inclusive["certify.catalog"],
            "certify.rank_s": inclusive["certify.rank"],
            "certify.matrix_entries": counts["certify.matrix_entries"],
        }
        for suite in SUITES:
            metrics[f"suites.{suite}_s"] = inclusive[f"suites.{suite}"]
        metrics["cli.main_s"] = inclusive["cli.main"]
        return metrics


def layer_times(names, span_name, span_parent, span_start, span_end) -> tuple[Counter, Counter]:
    """Self time per layer and inclusive time per span name.

    Inclusive time sums every span of a name, which is right for the wrapped
    functions because none of them calls itself.
    """
    count = len(span_start)
    children = [0.0] * count
    for i in range(count):
        parent = span_parent[i]
        if parent >= 0:
            children[parent] += span_end[i] - span_start[i]
    self_s: Counter = Counter()
    inclusive: Counter = Counter()
    layer_of = [name.split(".", 1)[0] for name in names]
    for i in range(count):
        duration = span_end[i] - span_start[i]
        inclusive[names[span_name[i]]] += duration
        self_s[layer_of[span_name[i]]] += duration - children[i]
    return self_s, inclusive


def read_spans(path: str) -> tuple[list[str], array, array, array, array]:
    """Read back a file written by ``Tracer.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for spec in header["arrays"]:
            column = array(spec.split(":", 1)[0])
            column.fromfile(fh, header["spans"])
            columns.append(column)
    return (header["names"], *columns)
