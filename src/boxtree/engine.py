"""A miniature in-process MapReduce-style dataset engine.

A partitioned dataset is an immutable, ordered collection split into
contiguous partitions. Operators return new datasets and never mutate
their inputs. Partitions are processed on a pool of worker threads
("workers" in the cluster sense: separate cores of one machine stand in
for compute nodes); results are gathered in partition order and every
operator completes fully before the next starts, so collect() output is
identical for any worker count.

Elements of a *pair* dataset are (key, value) 2-tuples; the keyed
operators (sort_by_key, join, group_by_key, flat_map_values) assume that
shape. Operators evaluate eagerly: there is no lazy DAG.

Because a dataset never changes, a value derived from it alone can be
computed once and kept on it (``cached``): ``join`` keeps its right side's
key index there, and the tree search its columnar tree, so an iterative
job that joins against the same dataset on every pass pays for the
derivation only on the first pass. Every derived dataset is a new object
and starts with an empty cache.
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = ["EngineConfig", "Engine", "PartitionedDataset", "PairDataset"]


@dataclass(frozen=True)
class EngineConfig:
    """Worker-pool size; new datasets get one partition per worker by default."""

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class Engine:
    """Owns the worker pool and creates datasets.

    All partition-level work is routed through the pool, including at
    workers=1 (one code path for every worker count, like a local
    single-core cluster). The pool is created lazily; call shutdown() or
    use the engine as a context manager to release the threads.
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def from_items(
        self, items: Iterable[Any], num_partitions: Optional[int] = None
    ) -> "PartitionedDataset":
        """Split ``items`` into contiguous partitions of near-equal size.

        One partition per worker unless ``num_partitions`` is given.
        """
        p = self.config.workers if num_partitions is None else num_partitions
        if p < 1:
            raise ValueError(f"num_partitions must be >= 1, got {p}")
        seq = list(items)
        base, extra = divmod(len(seq), p)
        parts = []
        start = 0
        for i in range(p):
            size = base + (1 if i < extra else 0)
            parts.append(tuple(seq[start : start + size]))
            start += size
        return PartitionedDataset(self, parts)

    def per_partition(self, partitions: Sequence[tuple], fn: Callable) -> list:
        """Run ``fn`` once per partition on the pool; results in partition order."""
        pool = self._ensure_pool()
        futures = [pool.submit(fn, part) for part in partitions]
        return [f.result() for f in futures]

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.workers, thread_name_prefix="worker"
                )
            return self._pool

    def shutdown(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _pair(k, v, w) -> tuple:
    """``join``'s default output for a match: the one element (k, (v, w))."""
    return ((k, (v, w)),)


class PartitionedDataset:
    """Immutable ordered collection of elements split into partitions."""

    __slots__ = ("engine", "partitions", "_cache")

    def __init__(self, engine: Engine, partitions: Iterable[Iterable[Any]]):
        self.engine = engine
        # tuple(t) on a tuple is a no-op, so internal calls avoid re-copies
        self.partitions = tuple(tuple(p) for p in partitions)
        self._cache: dict = {}  # values derived from this dataset; see cached()

    # ------------------------------------------------------------------
    # element-wise operators (partition structure preserved)

    def map(self, fn: Callable[[Any], Any]) -> "PartitionedDataset":
        parts = self.engine.per_partition(
            self.partitions, lambda part, f=fn: tuple(f(e) for e in part)
        )
        return PartitionedDataset(self.engine, parts)

    def filter(self, predicate: Callable[[Any], bool]) -> "PartitionedDataset":
        """Order-preserving selection; partitions may become empty."""
        parts = self.engine.per_partition(
            self.partitions, lambda part, f=predicate: tuple(e for e in part if f(e))
        )
        return PartitionedDataset(self.engine, parts)

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "PartitionedDataset":
        parts = self.engine.per_partition(
            self.partitions,
            lambda part, f=fn: tuple(out for e in part for out in f(e)),
        )
        return PartitionedDataset(self.engine, parts)

    def flat_map_values(
        self, fn: Callable[[Any], Iterable[Any]]
    ) -> "PartitionedDataset":
        """Apply ``fn`` to each pair's value, keeping the key on every output."""
        parts = self.engine.per_partition(
            self.partitions,
            lambda part, f=fn: tuple((k, out) for k, v in part for out in f(v)),
        )
        return PartitionedDataset(self.engine, parts)

    # ------------------------------------------------------------------
    # keyed operators

    def sort_by_key(self) -> "PartitionedDataset":
        """Globally ascending by key: parallel per-partition sort, then merge.

        Deterministic whenever keys are unique (super keys always are).
        """
        key = itemgetter(0)
        sorted_parts = self.engine.per_partition(
            self.partitions, lambda part, k=key: sorted(part, key=k)
        )
        merged = heapq.merge(*sorted_parts, key=key)
        return self.engine.from_items(merged, self.num_partitions)

    def join(
        self,
        other: "PartitionedDataset",
        fn: Callable[[Any, Any, Any], Iterable[Any]] = _pair,
    ) -> "PartitionedDataset":
        """Inner join on keys: each match (k, v1) x (k, v2) is handed to
        ``fn(k, v1, v2)`` and its outputs are emitted, by default the one
        element (k, (v1, v2)).

        The right side is hashed on its first use as a right side and the
        index is kept on it, so later joins against the same dataset skip
        the hash. The left side is streamed in order, so output order is
        left-dataset order (with right-side multiplicity expanded in right
        order). Keys missing on either side are dropped. A fused ``fn``
        runs in the same per-partition pass: no (k, (v1, v2)) tuple is built.
        """
        get = other.cached("join.key_index", _hash_by_key).get

        def work(part):
            out: list = []
            emit = out.extend
            for k, v in part:
                for w in get(k, ()):
                    emit(fn(k, v, w))
            return out

        return PartitionedDataset(self.engine, self.engine.per_partition(self.partitions, work))

    def cached(self, key: str, derive: Callable[["PartitionedDataset"], Any]) -> Any:
        """``derive(self)``, computed on the first call under ``key`` and kept.

        Only for values that depend on nothing but this dataset's elements.
        Two threads racing here both derive; either value is kept. When
        ``derive`` raises, nothing is kept.
        """
        try:
            return self._cache[key]
        except KeyError:
            return self._cache.setdefault(key, derive(self))

    def union(self, other: "PartitionedDataset") -> "PartitionedDataset":
        """Concatenation: this dataset's partitions, then the other's."""
        return PartitionedDataset(self.engine, self.partitions + other.partitions)

    def group_by_key(self) -> "PartitionedDataset":
        """One (key, [values]) pair per distinct key, keys sorted ascending.

        Value lists preserve the first-appearance order of each key's
        values across the whole dataset.
        """
        groups: dict = {}
        for k, v in self.collect():
            groups.setdefault(k, []).append(v)
        items = [(k, tuple(groups[k])) for k in sorted(groups)]
        return self.engine.from_items(items, self.num_partitions)

    # ------------------------------------------------------------------
    # positional operators

    def split_at(
        self, index: int
    ) -> Tuple["PartitionedDataset", Any, "PartitionedDataset"]:
        """Split around the element at global ``index``.

        Per-partition counts are computed in parallel, the owning partition
        is located by prefix sums, and the two sides keep the surviving
        partition fragments as-is.
        """
        counts = self.engine.per_partition(self.partitions, len)
        total = sum(counts)
        if not 0 <= index < total:
            raise IndexError(f"split index {index} out of range for {total} elements")
        pi, offset = self._locate(counts, index)
        part = self.partitions[pi]
        less = self.partitions[:pi] + (part[:offset],)
        greater = (part[offset + 1 :],) + self.partitions[pi + 1 :]
        return (
            PartitionedDataset(self.engine, less),
            part[offset],
            PartitionedDataset(self.engine, greater),
        )

    def element_at(self, index: int) -> Any:
        """The element at global ``index`` (same location strategy as split_at)."""
        counts = self.engine.per_partition(self.partitions, len)
        if not 0 <= index < sum(counts):
            raise IndexError(f"index {index} out of range")
        pi, offset = self._locate(counts, index)
        return self.partitions[pi][offset]

    @staticmethod
    def _locate(counts: Sequence[int], index: int) -> Tuple[int, int]:
        offset = index
        for pi, c in enumerate(counts):
            if offset < c:
                return pi, offset
            offset -= c
        raise IndexError(index)  # unreachable after the range check

    def first(self) -> Any:
        for part in self.partitions:
            if part:
                return part[0]
        raise IndexError("first() on an empty dataset")

    def last(self) -> Any:
        for part in reversed(self.partitions):
            if part:
                return part[-1]
        raise IndexError("last() on an empty dataset")

    # ------------------------------------------------------------------
    # actions

    def collect(self) -> List[Any]:
        """All elements in dataset order (partition order, then in-partition)."""
        return [e for part in self.partitions for e in part]

    def is_empty(self) -> bool:
        return all(len(p) == 0 for p in self.partitions)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def __repr__(self) -> str:
        sizes = [len(p) for p in self.partitions]
        return f"<PartitionedDataset n={sum(sizes)} partitions={sizes}>"


def _hash_by_key(ds: PartitionedDataset) -> dict:
    """key -> [values] in dataset order: the index ``join`` keeps on its right side."""
    index: dict = {}
    for k, v in ds.collect():
        index.setdefault(k, []).append(v)
    return index


# A pair dataset is a partitioned dataset whose elements are (key, value)
# tuples; the alias marks that intent in signatures.
PairDataset = PartitionedDataset
