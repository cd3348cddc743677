"""Layer spans for the traced benchmark run.

A :class:`Tracer` wraps the public calls of each pipeline layer (the table
``TARGETS``) for the duration of a ``with tracer.installed():`` block and
records one span per call: name, layer, start, end, parent and iteration.
Nothing is patched outside that block, so untraced iterations run the
program exactly as shipped.

Wrapping is by identity: every binding of the target function across the
loaded ``repro`` modules is replaced (``from x import f`` copies the
function into the importer's namespace, so patching the defining module
alone would miss the pipeline's call). The wrapper carries the original's
module and qualified name, so cloudpickle ships it to Spark executors by
reference and executors run the unwrapped function. A target the program
no longer defines is reported in ``missing`` instead of failing the run.

Spark attribution: each span that starts a layer sets its own Spark job
group, and when it closes it reads the group's job, stage and task counts
from ``statusTracker`` (read at once, because Spark evicts old stage info).
Rows returned by ``DataFrame.collect``/``toPandas`` are charged to the open
span. ``apsp_df`` returns a lazy DataFrame, so its span stays open until the
next layer starts: the ``toPandas`` that materialises it is charged to apsp.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

LAYERS = ("similarity", "tmfg", "apsp", "assign", "hierarchy")

# (defining module, qualified name, layer, span stays open after return)
TARGETS = [
    ("repro.datasets", "correlation_matrices", "similarity", False),
    ("repro.core.tmfg", "tmfg", "tmfg", False),
    ("repro.spark.tmfg_spark", "tmfg_spark", "tmfg", False),
    ("repro.core.tmfg", "select_batch", "tmfg", False),
    ("repro.core.dbht", "tmfg_apsp", "apsp", False),
    ("repro.graphs.shortest_paths", "dijkstra", "apsp", False),
    ("repro.spark.apsp_spark", "apsp_df", "apsp", True),
    ("repro.graphs.bubble_tree", "BubbleTree.compute_directions", "assign",
     False),
    ("repro.spark.similarity", "sim_df_from_matrix", "assign", False),
    ("repro.core.dbht", "assign_vertices", "assign", False),
    ("repro.spark.dbht_spark", "assign_vertices_spark", "assign", False),
    ("repro.core.dbht", "build_hierarchy", "hierarchy", False),
    ("repro.spark.dbht_spark", "subgroup_linkages_spark", "hierarchy", False),
    ("repro.core.linkage", "hac", "hierarchy", False),
]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional[int]
    iteration: int
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct child spans
    group: Optional[str] = None  # Spark job group, if this span set one
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans for iterations run inside :meth:`iteration`."""

    def __init__(self, sc=None):
        self.sc = sc  # SparkContext, or None on driver-only workloads
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._stack: List[int] = []  # open spans, innermost last
        self._pending: Optional[int] = None  # lazy span awaiting close
        self._iteration = -1
        self._collecting = False  # inside an outer collect/toPandas

    # ------------------------------------------------------------ spans
    def _open(self, name: str, layer: str) -> int:
        if self._pending is not None and len(self._stack) == 1:
            self._close(self._pending)
            self._pending = None
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), parent, self._iteration)
        idx = len(self.spans)
        self.spans.append(span)
        if self.sc is not None and (
                parent is None or self.spans[parent].layer != layer):
            span.group = f"perfbench-{idx}-{layer}"
            self.sc.setJobGroup(span.group, name)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if span.group is not None:
            span.counts.update(self._spark_counts(span.group))
            # restore the job group of the span this one ran under
            outer = next((self.spans[i].group for i in reversed(self._stack)
                          if i != idx and self.spans[i].group), None)
            self.sc.setJobGroup(outer or "perfbench-none", "")
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _spark_counts(self, group: str) -> Dict[str, int]:
        from py4j.protocol import Py4JError

        try:  # let the listener bus record the jobs that just ended
            self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        except Py4JError:  # internal API; without it counts may lag
            pass
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        stages = set()
        for j in jobs:
            info = st.getJobInfo(j)
            if info is not None:
                stages.update(info.stageIds)
        tasks = 0
        for s in stages:
            info = st.getStageInfo(s)
            if info is not None:
                tasks += info.numCompletedTasks
        return {"spark_jobs": len(jobs), "spark_stages": len(stages),
                "spark_tasks": tasks}

    def _current(self) -> int:
        if self._pending is not None and len(self._stack) == 1:
            return self._pending
        return self._stack[-1]

    @contextlib.contextmanager
    def iteration(self, i: int):
        """Root span of one pipeline iteration; layer spans nest under it."""
        self._iteration = i
        root = self._open("iteration", "")
        try:
            yield self.spans[root]
        finally:
            if self._pending is not None:
                self._close(self._pending)
                self._pending = None
            self._stack.pop()
            self._close(root)

    # ---------------------------------------------------------- wrappers
    def _wrap(self, fn, name: str, layer: str, lazy: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # called outside a traced iteration
                return fn(*args, **kwargs)
            idx = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                if lazy and len(self._stack) == 1:
                    self._pending = idx
                else:
                    self._close(idx)
        return wrapper

    def _wrap_rows(self, fn):
        @functools.wraps(fn)
        def wrapper(df, *args, **kwargs):
            if not self._stack or self._collecting:
                return fn(df, *args, **kwargs)
            self._collecting = True
            try:
                out = fn(df, *args, **kwargs)
            finally:
                self._collecting = False
            counts = self.spans[self._current()].counts
            counts["rows_collected"] = (counts.get("rows_collected", 0)
                                        + len(out))
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []  # (owner, attribute, original)

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for modname, qualname, layer, lazy in TARGETS:
                owner, attr, fn = _resolve(modname, qualname)
                if fn is None:
                    self.missing.append(f"{modname}.{qualname}")
                    continue
                wrapped = self._wrap(fn, qualname.rsplit(".", 1)[-1], layer,
                                     lazy)
                if owner is not sys.modules.get(modname):  # a method
                    patch(owner, attr, wrapped)
                    continue
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro"):
                        for key, val in list(vars(mod).items()):
                            if val is fn:
                                patch(mod, key, wrapped)
            if self.sc is not None:
                from pyspark.sql import SparkSession
                spark = SparkSession.getActiveSession()
                df_cls = type(spark.range(1))
                for attr in ("collect", "toPandas"):
                    original = getattr(df_cls, attr)
                    saved.append((df_cls, attr, df_cls.__dict__.get(attr)))
                    setattr(df_cls, attr, self._wrap_rows(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # --------------------------------------------------------- summaries
    def summary(self, i: int) -> Dict[str, float]:
        """Per-layer numbers of iteration ``i``."""
        spans = [s for s in self.spans if s.iteration == i]
        out: Dict[str, float] = {}
        for layer in LAYERS:
            mine = [s for s in spans if s.layer == layer]
            out[f"{layer}.busy_s"] = sum(s.self_s for s in mine)
            for key in ("spark_jobs", "spark_stages", "spark_tasks",
                        "rows_collected"):
                out[f"{layer}.{key}"] = sum(s.counts.get(key, 0) for s in mine)

        def calls(name):
            return [s for s in spans if s.name == name]

        out["tmfg.select_calls"] = len(calls("select_batch"))
        out["tmfg.select_s"] = sum(s.duration for s in calls("select_batch"))
        out["apsp.dijkstra_calls"] = len(calls("dijkstra"))
        out["assign.directions_s"] = sum(
            s.duration for s in calls("compute_directions"))
        out["hierarchy.hac_calls"] = len(calls("hac"))
        out["hierarchy.hac_s"] = sum(s.duration for s in calls("hac"))
        root = next(s for s in spans if s.parent is None)
        out["trace.e2e_s"] = root.duration
        out["trace.coverage"] = 1.0 - root.self_s / root.duration
        return out


def _resolve(modname: str, qualname: str):
    """(owner, attribute, function) for a target, or a None function."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None, None, None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    fn = owner.__dict__.get(attr) if hasattr(owner, "__dict__") else None
    return (owner, attr, fn) if callable(fn) else (None, None, None)
