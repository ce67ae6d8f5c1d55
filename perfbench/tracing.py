"""Benchmark-side spans around the calls into each weightfilt layer.

`install` replaces each traced function (or method) by a wrapper that opens
a span on entry and closes it on exit.  Open spans form a stack, so each
span's parent is the span below it; on close, the span's duration is added
to its parent's child time and its self time (duration minus child time)
is added to its name's total.  Spans are aggregated as they close instead
of being stored, because the hottest constructors open hundreds of
thousands of them per run.

A wrapped function is replaced in every weightfilt module namespace that
holds it, so calls through ``from .exact import kernel_of`` are traced too.
Only the traced worker calls `install`; the measured worker never loads this
module.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

# A counter adds to `Tracer.counts` from a span's arguments and result.
Counter = Optional[Callable[[Dict[str, int], tuple, object], None]]


def _rref_cells(counts: Dict[str, int], args: tuple, result: object) -> None:
    rows = args[0]
    counts["exact.rref.cells"] += len(rows) * len(rows[0]) if rows else 0


def _box_points(counts: Dict[str, int], args: tuple, result: object) -> None:
    counts["rees.box_points"] += len(result.piece_dims)


def _lattice_points(counts: Dict[str, int], args: tuple, result: object) -> None:
    points = 1
    for f in args[0].filtrations:
        points *= len(f.jumps())
    counts["filtration.lattice_points"] += points


def _refuted(counts: Dict[str, int], args: tuple, result: object) -> None:
    counts["monodromy.relative_refuted"] += not result.exists


def _sl2_unknowns(counts: Dict[str, int], args: tuple, result: object) -> None:
    # one unknown per entry of each degree +2 block of the raising operator
    comps = args[0].space.components
    slot = args[1]
    for k, comp in comps.items():
        up = k[:slot] + (k[slot] + 2,) + k[slot + 1 :]
        if up in comps:
            counts["lefschetz.sl2_unknowns"] += comps[up].dim * comp.dim


def _extension_dim(counts: Dict[str, int], args: tuple, result: object) -> None:
    dim = args[0].dim
    for order in args[1]:
        dim *= order + 1
    counts["nearby.extension_dim"] += dim


def _bytes_in(counts: Dict[str, int], args: tuple, result: object) -> None:
    counts["document.bytes_in"] += len(args[0])


def _bytes_out(counts: Dict[str, int], args: tuple, result: object) -> None:
    counts["document.bytes_out"] += len(result)


# (module, attribute or "Class.method", span name, counter)
TRACED = [
    ("exact", "rref", "exact.rref", _rref_cells),
    ("exact", "rank_of_rows", "exact.rank_of_rows", None),
    ("exact", "kernel_of", "exact.kernel_of", None),
    ("exact", "solve_columns", "exact.solve_columns", None),
    ("exact", "Matrix.__init__", "exact.Matrix.init", None),
    ("exact", "Matrix.__mul__", "exact.Matrix.mul", None),
    ("exact", "Subspace.__init__", "exact.Subspace.init", None),
    ("filtration", "compatible_filtrations", "filtration.compatible_filtrations", _lattice_points),
    ("filtration", "compatible_subobjects", "filtration.compatible_subobjects", None),
    ("rees", "rees_of", "rees.rees_of", _box_points),
    ("rees", "is_flat", "rees.is_flat", None),
    ("rees", "is_regular_sequence", "rees.is_regular_sequence", None),
    ("rees", "koszul_homology", "rees.koszul_homology", None),
    ("monodromy", "monodromy_filtration", "monodromy.monodromy_filtration", None),
    ("monodromy", "verify_weight_axioms", "monodromy.verify_weight_axioms", None),
    ("monodromy", "jordan_chain_basis", "monodromy.jordan_chain_basis", None),
    ("monodromy", "relative_monodromy", "monodromy.relative_monodromy", _refuted),
    ("monodromy", "mf_property", "monodromy.mf_property", None),
    ("lefschetz", "sl2_complete", "lefschetz.sl2_complete", _sl2_unknowns),
    ("lefschetz", "weil_w", "lefschetz.weil_w", None),
    ("lefschetz", "primitive_parts", "lefschetz.primitive_parts", None),
    ("lefschetz", "polarization_check", "lefschetz.polarization_check", None),
    ("lefschetz", "GradedBilinearStructure.__init__", "lefschetz.GradedBilinearStructure.init", None),
    ("nearby", "MonodromicModule.__init__", "nearby.MonodromicModule.init", None),
    ("nearby", "nils_iso_check", "nearby.nils_iso_check", _extension_dim),
    ("nearby", "two_path_compare", "nearby.two_path_compare", _extension_dim),
    ("document", "parse", "document.parse", _bytes_in),
    ("document", "run_task", "document.run_task", None),
    ("document", "emit_report", "document.emit_report", _bytes_out),
]

COUNTERS = [
    "exact.rref.cells",
    "rees.box_points",
    "filtration.lattice_points",
    "monodromy.relative_refuted",
    "lefschetz.sl2_unknowns",
    "nearby.extension_dim",
    "document.bytes_in",
    "document.bytes_out",
]

ROOT = "bench.job"


class Tracer:
    """Span stack plus per-name call counts and self times.

    It also notes, for each subspace pair looked up in the sum/intersection
    cache, the first job that looked it up, and so which jobs reuse a pair
    that an earlier job brought into the cache.  Pairs with a zero or full
    member are left out: every job of a given dimension meets those.
    """

    def __init__(self) -> None:
        self.stack: List[List[int]] = [[0]]
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.job = -1
        self.first_job: Dict[tuple, int] = {}
        self.reusing_jobs: set = set()

    def next_job(self) -> None:
        self.job += 1

    def watch_pairs(self, cached: Callable) -> Callable:
        first_job, reusing = self.first_job, self.reusing_jobs

        def lookup(u, w):
            trivial = u.is_zero() or w.is_zero() or u.is_full() or w.is_full()
            if not trivial and first_job.setdefault((u, w), self.job) != self.job:
                reusing.add(self.job)
            return cached(u, w)

        return lookup

    def wrap(self, name: str, fn: Callable, counter: Counter = None) -> Callable:
        stack, calls, self_ns, counts = self.stack, self.calls, self.self_ns, self.counts
        calls[name] = 0
        self_ns[name] = 0
        clock = time.process_time_ns  # the clock the worker times jobs with

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                self_ns[name] += duration - children[0]
                stack[-1][0] += duration
            if counter is not None:
                counter(counts, args, result)
            return result

        return span


def install(tracer: Tracer) -> None:
    """Wrap every entry of `TRACED` in all loaded weightfilt modules."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "weightfilt" and m is not None]
    for module_name, attr, name, counter in TRACED:
        home = sys.modules[f"weightfilt.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), counter))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    exact = sys.modules["weightfilt.exact"]
    exact._sum_and_intersection = tracer.watch_pairs(exact._sum_and_intersection)
