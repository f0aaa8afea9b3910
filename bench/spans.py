"""In-memory span tracer that wraps adaptidx's layer boundaries from outside.

The engine modules bind their collaborators with ``from .x import y``, so a
function is wrapped under the name its caller looks it up by (for example
``adaptidx.runner.plan_job``, not ``adaptidx.scheduler.plan_job``). Methods
are wrapped on their class. ``install`` patches, ``uninstall`` restores the
originals; an untraced run never calls either.

A span is (id, parent, name, start, end, job_id, thread, n). The parent is
the innermost open span on the same thread; a map task runs on a pool thread
with nothing open, so it takes the open ``run_wave`` span as its parent.
``n`` carries a size the span measured (bytes written, waves run), else 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Optional


def interval_union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge intervals into sorted, disjoint ones."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of sorted, disjoint intervals."""
    return sum(e - s for s, e in intervals)


def overlap(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Length of the intersection of two sorted, disjoint interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job_id: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._scope: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: Callable[..., str] | str,
        *,
        size: Optional[Callable[[object], int]] = None,
        scope: bool = False,
        task: bool = False,
    ) -> Callable:
        """Return `fn` wrapped in a span.

        `name` may be a function of the call's arguments. `size` maps the
        return value to the span's n. A `scope` span is the parent of `task`
        spans that start on a thread with no open span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._scope if task else None)
            span_id = next(tracer._ids)
            label = name(*args, **kwargs) if callable(name) else name
            stack.append(span_id)
            if scope:
                outer, tracer._scope = tracer._scope, span_id
            start = time.perf_counter()
            n = 0
            try:
                out = fn(*args, **kwargs)
                if size is not None:
                    n = size(out)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                if scope:
                    tracer._scope = outer
                tracer.spans.append(
                    (span_id, parent, label, start, end, tracer.job_id, threading.get_ident(), n)
                )

        return traced

    def patch(self, owner: object, attr: str, name, **kwargs) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **kwargs))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run `fn` in a span the benchmark opens itself."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every measured layer boundary of adaptidx."""
        import adaptidx.cluster as cluster
        import adaptidx.execution as execution
        import adaptidx.indexer as indexer
        import adaptidx.lazy as lazy
        import adaptidx.blockfile as blockfile
        import adaptidx.runner as runner
        from adaptidx.blocks import DataBlock
        from adaptidx.registry import ReplicaRegistry

        def scan_kind(split, job, ctx):
            return f"execution.{split.scan_kind.value}"

        def waves(results) -> int:
            return len({r.wave_index for r in results})

        self.patch(runner.WorkloadRunner, "run_job", "runner.run_job")
        self.patch(runner, "plan_job", "scheduler.plan_job")
        self.patch(cluster.Cluster, "upload_dataset", "cluster.upload_dataset")
        self.patch(cluster.Cluster, "run_wave", "cluster.run_wave", size=waves, scope=True)
        self.patch(cluster.Cluster, "drain_indexers", "cluster.drain_indexers")
        self.patch(cluster, "record_reader_scan", scan_kind, task=True)
        self.patch(cluster, "build_index", "indexer.build_index")
        self.patch(indexer, "build_index", "indexer.build_index")
        self.patch(cluster, "write_block", "blockfile.write_block", size=int)
        self.patch(blockfile, "write_block", "blockfile.write_block", size=int)
        self.patch(lazy, "write_block", "blockfile.write_block", size=int)
        self.patch(execution, "read_block", "blockfile.read_block")
        self.patch(lazy, "read_block", "blockfile.read_block")
        self.patch(execution, "read_column_range", "blockfile.read_column_range")
        self.patch(indexer, "publish_block_once", "blockfile.publish_block_once")
        self.patch(lazy, "append_aligned_columns", "lazy.append_aligned_columns")
        self.patch(DataBlock, "checksum", "blocks.checksum")
        self.patch(ReplicaRegistry, "pseudo_count", "registry.pseudo_count")
        self.patch(ReplicaRegistry, "find_index", "registry.find_index")
        self.patch(ReplicaRegistry, "indexed_block_count", "registry.indexed_block_count")
        self.patch(ReplicaRegistry, "register_index", "registry.register_index")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, thread_s (sum), busy_s (union), self_s, n."""
        by_name: dict[str, list[tuple]] = {}
        for span in self.spans:
            by_name.setdefault(span[2], []).append(span)
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[1] is not None:
                children.setdefault(span[1], []).append((span[3], span[4]))
        out = {}
        for name, spans in by_name.items():
            busy = interval_union([(s[3], s[4]) for s in spans])
            kids = interval_union(
                [iv for s in spans for iv in children.get(s[0], ())]
            )
            out[name] = {
                "calls": len(spans),
                "thread_s": sum(s[4] - s[3] for s in spans),
                "busy_s": covered(busy),
                "self_s": covered(busy) - overlap(busy, kids),
                "n": sum(s[7] for s in spans),
            }
        return out

    def write_jsonl(self, path: Path, **fields) -> None:
        """Append every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as f:
            for span_id, parent, name, start, end, job_id, thread, n in self.spans:
                record = {
                    "id": span_id, "parent": parent, "name": name, "start": start,
                    "end": end, "job_id": job_id, "thread": thread, "n": n,
                }
                f.write(json.dumps(record | fields) + "\n")

