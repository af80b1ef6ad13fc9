"""Per-layer tracing from outside the program.

The tracer replaces names that callers look up at call time with timing
wrappers: module-level functions (``distributed_tree.four_way_presort`` is
looked up by ``build_distributed_tree`` on each call), methods of
``PartitionedDataset`` and ``Engine``, and the functions ``cli`` imported
by name. It also hooks ``gc.callbacks``. Nothing inside ``src/boxtree`` is
edited; ``uninstall`` puts every original back.

Spans are aggregated in memory by name: calls, total time and self time
(total minus the time of wrapped calls made from inside it, on the same
thread). Counts ride along at the same boundaries.
"""

from __future__ import annotations

import gc
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

ITERATION = "distributed_search.search_iteration"


def _size(ds) -> int:
    """Element count of a dataset, read without calling a traced method."""
    return sum(len(p) for p in ds.partitions)


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self.phase: Optional[str] = None  # "build" or "search" during a timed call
        self._gc_start = 0.0
        self._last_iteration_end = 0.0
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
            self.counts: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, result, t_end)`` counts."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t_end = perf_counter()
                stack.pop()
                dt = t_end - t0
                if stack:
                    stack[-1][1] += dt
                with tracer._lock:
                    agg = tracer.spans[name]
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[1]
            if after is not None:
                after(args, result, t_end)
            return result

        return traced

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def patch(self, owner: Any, attr: str, span: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module's or a class's own name) with a traced wrapper.

        A name that is gone raises, so a renamed layer fails the traced run
        instead of reading as zero.
        """
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{owner.__name__}.{attr} is gone: update the tracer")
        setattr(owner, attr, self.wrap(span, original, after))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    # garbage collector

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        if self.phase is None:
            return
        self.count(f"gc.{self.phase}.pause_s", perf_counter() - self._gc_start)
        if info.get("generation") == 2:
            self.count("gc.gen2.collections", 1)

    # ------------------------------------------------------------------
    # the layers of boxtree

    def install(self, boxtree_modules: Dict[str, Any]) -> None:
        """Wrap the public entry points of cli, io, engine, distributed_tree,
        memory_tree and distributed_search."""
        m = boxtree_modules
        cli, bio, engine = m["cli"], m["io"], m["engine"]
        dtree, dsearch = m["distributed_tree"], m["distributed_search"]
        ds_cls, engine_cls = engine.PartitionedDataset, engine.Engine

        self.patch(cli, "main", "cli.main")
        for owner in (cli, dtree):
            self.patch(owner, "build_distributed_tree", "distributed_tree.build_distributed_tree")
        for owner in (cli, dsearch):
            self.patch(owner, "run_search", "distributed_search.run_search",
                       after=self._after_run_search)

        for fn in ("read_boxes_csv", "read_tree_jsonl"):
            self.patch(bio, fn, f"io.{fn}", after=self._after_read)
        for fn in ("write_tree_jsonl", "write_results_csv"):
            self.patch(bio, fn, f"io.{fn}", after=self._after_write)

        self.patch(dtree, "four_way_presort", "distributed_tree.four_way_presort")
        self.patch(dtree, "region_from_sorted", "distributed_tree.region_from_sorted")
        self.patch(dtree, "flatten_memory_subtree", "distributed_tree.flatten_memory_subtree")
        # the distributed build's call into the memory build; the memory
        # build's own recursion looks the name up in memory_tree, untraced
        self.patch(dtree, "build_memory_tree", "memory_tree.build_memory_tree",
                   after=lambda a, r, t: self.count("distributed_tree.subtree_tasks", 1))

        self.patch(dsearch, "tree_root_name", "distributed_search.tree_root_name")
        self.patch(dsearch, "search_iteration", ITERATION, after=self._after_iteration)

        self.patch(engine_cls, "from_items", "engine.from_items")
        self.patch(engine_cls, "per_partition", "engine.per_partition")
        # every operator the program calls is wrapped, so no span's self
        # time hides an operator's
        for meth in ("map", "sort_by_key", "union", "element_at", "group_by_key",
                     "collect", "is_empty", "first", "last"):
            self.patch(ds_cls, meth, f"engine.{meth}")
        self.patch(ds_cls, "split_at", "engine.split_at")
        self.patch(ds_cls, "filter", "engine.filter", after=self._after_in_out("engine.filter"))
        self.patch(ds_cls, "flat_map", "engine.flat_map", after=self._after_in_out("engine.flat_map"))
        self.patch(ds_cls, "join", "engine.join", after=self._after_join)

        gc.callbacks.append(self._on_gc)

    def _after_in_out(self, span: str) -> Callable:
        def after(args, result, t_end):
            self.count(f"{span}.in", _size(args[0]))
            self.count(f"{span}.out", _size(result))
        return after

    def _after_join(self, args, result, t_end) -> None:
        left, right = args[0], args[1]
        out = _size(result)
        self.count("engine.join.left", _size(left))
        self.count("engine.join.right", _size(right))
        self.count("engine.join.out", out)
        if self.parent() == ITERATION:
            self.count("distributed_search.visits", out)

    def _after_iteration(self, args, result, t_end) -> None:
        self.count("distributed_search.passes", 1)
        self.count("distributed_search.pairs", _size(result[0]))
        self._last_iteration_end = t_end

    def _after_run_search(self, args, result, t_end) -> None:
        # the final group: from the end of the last pass to the return
        if self._last_iteration_end:
            self.count("distributed_search.group.s", t_end - self._last_iteration_end)
        self._last_iteration_end = 0.0

    def _after_read(self, args, result, t_end) -> None:
        self.count("io.bytes_read", os.path.getsize(args[0]))

    def _after_write(self, args, result, t_end) -> None:
        self.count("io.bytes_written", os.path.getsize(args[0]))

    # ------------------------------------------------------------------
    # results

    def snapshot(self) -> dict:
        with self._lock:
            spans = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                     for k, v in sorted(self.spans.items())}
            counts = dict(sorted(self.counts.items()))
        return {"spans": spans, "counts": counts}
