"""Span tracing of rivalloc's layers from outside the package.

Each traced layer is a public function (or the ``Instance.eps`` property)
whose name is rebound, in every module that looks it up, to a wrapper that
records one span per call.  Spans nest through an explicit stack (the
benchmark is single-threaded), stay in memory and are aggregated or written
out when the run ends.  A layer's self time is its duration minus the
durations of its direct children, so over one op the self times of all
spans add up to the op span's duration.

A name that the package no longer has is reported as missing instead of
failing the run, so the table survives refactors of the program.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from typing import Callable, Dict, List, Tuple

# (layer, modules whose global of that name is rebound).  The layer's own
# module is listed only where callers look the name up there.
LAYERS: List[Tuple[str, Tuple[str, ...]]] = [
    ("cli.main", ("cli",)),
    ("geom.general_position_violation", ("cli",)),
    ("centroid.solve_centroid", ("cli",)),
    ("linesearch.build_angular_index", ("centroid",)),
    ("vprune.build_frame", ("centroid",)),
    ("centroid.local_optimal_line_LT", ("centroid",)),
    ("centroid.local_optimal_line_LM", ("centroid",)),
    ("centroid.local_optimal_line_LC", ("centroid",)),
    ("linesearch.local_optimum_on_line", ("centroid",)),
    ("vprune.decide", ("centroid",)),
    ("vprune.find_xD_xU", ("vprune",)),
    ("vprune.pseudo_wedge", ("vprune",)),
    ("medianoid.solve_medianoid", ("centroid", "linesearch", "vprune", "oracle")),
    # solve_centroid imports brute_centroid lazily from the oracle module.
    ("oracle.brute_centroid", ("oracle",)),
    ("oracle.enumerate_candidates", ("oracle",)),
]

# Properties are wrapped on their class: (layer, module, class, attribute).
PROPERTIES = [("geom.Instance.eps", "geom", "Instance", "eps")]

# Layers whose result size is also counted, under the given counter name.
RESULT_SIZES = {"oracle.enumerate_candidates": "oracle.candidates"}

PACKAGE = "rivalloc"


class Tracer:
    """Installs span wrappers and aggregates what they record.

    Span k is (``names[layer_ids[k]]``, ``parents[k]``, ``starts[k]``,
    ``ends[k]``), kept in flat arrays: a traced compare run records about a
    million spans, most of them ``Instance.eps`` reads.
    """

    def __init__(self) -> None:
        self.names: List[str] = [layer for layer, _ in LAYERS] + [p[0] for p in PROPERTIES]
        self.layer_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Dict[str, int] = {name: 0 for name in RESULT_SIZES.values()}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        layer_id = self.names.index(layer)
        ids, parents, starts, ends = self.layer_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter
        size_counter = RESULT_SIZES.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if size_counter is not None and hasattr(result, "__len__"):
                self.counters[size_counter] += len(result)
            return result

        return traced

    @staticmethod
    def _module(name: str):
        try:
            return importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError:
            return None

    def install(self) -> None:
        for layer, homes in LAYERS:
            attr = layer.rsplit(".", 1)[1]
            for home in homes:
                mod = self._module(home)
                fn = getattr(mod, attr, None) if mod is not None else None
                if not callable(fn):
                    self.missing.append(f"{layer}@{home}")
                    continue
                setattr(mod, attr, self._wrap(layer, fn))
                self._undo.append(functools.partial(setattr, mod, attr, fn))
        for layer, home, cls_name, attr in PROPERTIES:
            mod = self._module(home)
            cls = getattr(mod, cls_name, None) if mod is not None else None
            prop = cls.__dict__.get(attr) if cls is not None else None
            if not isinstance(prop, property) or prop.fget is None:
                self.missing.append(f"{layer}@{home}")
                continue
            setattr(cls, attr, property(self._wrap(layer, prop.fget)))
            self._undo.append(functools.partial(setattr, cls, attr, prop))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _self_times(self) -> array:
        own = array("d", (e - s for s, e in zip(self.starts, self.ends)))
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, inclusive seconds and self seconds."""
        rows = [{"calls": 0, "total_s": 0.0, "self_s": 0.0} for _ in self.names]
        for lid, start, end, own in zip(self.layer_ids, self.starts, self.ends,
                                        self._self_times()):
            row = rows[lid]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return dict(zip(self.names, rows))

    def caller_table(self) -> Dict[str, Dict[str, float]]:
        """Calls and self seconds per (caller layer, layer) pair, so that a
        leaf such as ``Instance.eps`` can be charged to the layer reading it."""
        table: Dict[str, Dict[str, float]] = {}
        for lid, parent, own in zip(self.layer_ids, self.parents, self._self_times()):
            caller = self.names[self.layer_ids[parent]] if parent >= 0 else "-"
            row = table.setdefault(f"{caller} > {self.names[lid]}", {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
        return table

    def self_sum_error(self) -> float:
        """Largest gap, over root spans, between the root's duration and the
        summed self times of every span beneath it, itself included."""
        root_of = array("l")
        sums: Dict[int, float] = {}
        # A parent is recorded before its children, so roots resolve in order.
        for k, (parent, own) in enumerate(zip(self.parents, self._self_times())):
            root_of.append(k if parent < 0 else root_of[parent])
            sums[root_of[k]] = sums.get(root_of[k], 0.0) + own
        return max(
            (abs(total - (self.ends[r] - self.starts[r])) for r, total in sums.items()),
            default=0.0,
        )

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line: layer, parent index,
        start and end in seconds of ``time.perf_counter``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("layer\tparent\tstart\tend\n")
            for lid, parent, start, end in zip(self.layer_ids, self.parents,
                                               self.starts, self.ends):
                fh.write(f"{self.names[lid]}\t{parent}\t{start!r}\t{end!r}\n")
