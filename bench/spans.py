"""Spans around the library's layer boundaries, recorded from outside.

The tracer replaces module attributes (and NumberField.__init__) with
wrappers that record (name, start, end, parent) per call.  The library
reaches these functions through module attributes and globals, so its own
internal calls are traced too, and nothing under src/ changes.  Spans stay
in flat arrays in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from hasseknot import arith, biquad, count, gfpoly, numfield

# (owner, attribute, span name).  _shell_search is the one private function:
# decide_global's -1 path calls it directly, so it is the only place that
# times every search.
TARGETS = [
    *[(arith, f, f"arith.{f}") for f in (
        "spf_table", "hilbert", "factorize", "is_square_local", "kronecker",
        "is_prime", "sieve_primes", "table_factorize")],
    *[(gfpoly, f, f"gfpoly.{f}") for f in (
        "factor", "squarefree_decomposition", "distinct_degree", "equal_degree")],
    (numfield.NumberField, "__init__", "numfield.NumberField"),
    *[(numfield, f, f"numfield.{f}") for f in (
        "splitting_data", "delta_K_estimate", "count_ideal_norms")],
    *[(biquad, f, f"biquad.{f}") for f in (
        "local_type", "is_everywhere_local_norm", "decide_global", "certificate_search",
        "_shell_search")],
    *[(count, f, f"count.{f}") for f in (
        "local_tables", "count_series", "count_integer_norms_local")],
]

# Spans that also record a count taken from the call's result.
RESULT_ITEMS = {
    "biquad.is_everywhere_local_norm": lambda r: len(r[1]),  # places reported
    "numfield.delta_K_estimate": lambda r: r[1],             # census primes
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.items = array("q")
        self._open = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def install(self) -> None:
        for owner, attr, span in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span: str):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        observe = RESULT_ITEMS.get(span)
        start, end, name, parent, items, open_ = (
            self.start, self.end, self.name, self.parent, self.items, self._open)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            idx = len(start)
            start.append(t0)
            end.append(0.0)
            name.append(nid)
            parent.append(open_[-1])
            items.append(0)
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    items[idx] = observe(result)
                return result
            finally:
                open_.pop()
                end[idx] = perf_counter()

        return wrapper

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            items=np.frombuffer(self.items, dtype=np.int64),
                            names=np.array(json.dumps(self.names)))


class Summary:
    """Per-name totals over the spans lo..hi-1.

    `calls` counts spans; `incl` sums the durations of spans with no
    ancestor of the same name, so recursion is not counted twice; `self_`
    sums each span's duration minus its children's; `nested[(a, b)]` counts
    spans named b with an ancestor named a, for the given pairs (a, b);
    `items` sums result counts.
    """

    def __init__(self, tracer: Tracer, lo: int, hi: int, pairs=()):
        names = tracer.names
        self.calls = {n: 0 for n in names}
        self.incl = {n: 0.0 for n in names}
        self.self_ = {n: 0.0 for n in names}
        self.items = {n: 0 for n in names}
        self.nested = {pair: 0 for pair in pairs}
        ancestors = {names.index(b): [] for _, b in pairs}
        for a, b in pairs:
            ancestors[names.index(b)].append((names.index(a), (a, b)))
        dur = [tracer.end[i] - tracer.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        depth = [0] * len(names)  # open spans per name along the current chain
        chain: list[int] = []
        for i in range(lo, hi):
            p = tracer.parent[i]
            while chain and chain[-1] != p:
                depth[tracer.name[chain.pop()]] -= 1
            nid = tracer.name[i]
            n = names[nid]
            d = dur[i - lo]
            self.calls[n] += 1
            self.self_[n] += d
            self.items[n] += tracer.items[i]
            if depth[nid] == 0:
                self.incl[n] += d
            if p >= lo:
                child[p - lo] += d
            for a, pair in ancestors.get(nid, ()):
                if depth[a]:
                    self.nested[pair] += 1
            chain.append(i)
            depth[nid] += 1
        for i in range(lo, hi):
            self.self_[names[tracer.name[i]]] -= child[i - lo]
