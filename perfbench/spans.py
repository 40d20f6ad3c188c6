"""In-memory span recorder and the run-time wrapping of layer boundaries.

A span is one call into a layer: name, start, end, parent span and run
id.  Spans are kept in memory and written out once, when the run ends.
:func:`instrument` wraps the public names the partitioner's own modules
call (``pass_kernel``, the presence-state methods, the shard-round pool,
...) for the duration of a ``with`` block and restores them afterwards,
so nothing under ``src/`` changes.  Spans inside forked children are not
collected.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

from benchmath import self_time

TRACE_SCHEMA = "perfbench.trace/1"
SPAN_FIELDS = ("id", "parent", "name", "start", "end")


class Recorder:
    """Spans of one run on a monotonic clock, with a parent stack.

    The benchmark drives the partitioner from one thread, so a single
    stack gives every span its caller as parent.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []  # [id, parent, name, start, end]
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, name, clock(), None]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()

        return traced

    # ------------------------------------------------------------------
    def subtree(self, root: int) -> "list[list]":
        """The spans below ``root`` (spans are appended in start order,
        so descendants follow their ancestor)."""
        inside = {root}
        out = []
        for rec in self.spans[root + 1 :]:
            if rec[1] in inside:
                inside.add(rec[0])
                out.append(rec)
        return out

    def layer_totals(self, root: int) -> "dict[str, dict]":
        """Per span name below ``root``: outermost ``calls``, their summed
        duration ``s`` and summed self time ``self_s``.

        A span nested inside a span of the same name is part of that
        outer call and is not counted again.
        """
        recs = self.subtree(root)
        by_id = {rec[0]: rec for rec in recs}
        children: dict = {}
        for rec in recs:
            children.setdefault(rec[1], []).append(rec)
        totals: dict = {}
        for rec in recs:
            name = rec[2]
            anc = by_id.get(rec[1])
            nested = False
            while anc is not None:
                if anc[2] == name:
                    nested = True
                    break
                anc = by_id.get(anc[1])
            if nested:
                continue
            kids = [(c[3], c[4]) for c in children.get(rec[0], ())]
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += rec[4] - rec[3]
            t["self_s"] += self_time(rec[3], rec[4], kids)
        return totals

    def to_document(self, **meta) -> dict:
        """The trace file body (see :func:`validate_trace`)."""
        return {
            "schema": TRACE_SCHEMA,
            "run_id": self.run_id,
            "meta": meta,
            "fields": list(SPAN_FIELDS),
            "spans": [
                [sid, parent, name, start, end]
                for sid, parent, name, start, end in self.spans
                if end is not None
            ],
        }

    def write(self, path: "str | Path", **meta) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_document(**meta)))
        return path


def validate_trace(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed trace file."""
    if doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"schema must be {TRACE_SCHEMA!r}")
    if not isinstance(doc.get("run_id"), str) or not doc["run_id"]:
        raise ValueError("run_id must be a non-empty string")
    if doc.get("fields") != list(SPAN_FIELDS):
        raise ValueError(f"fields must be {list(SPAN_FIELDS)}")
    seen: dict = {}
    for row in doc.get("spans", ()):
        if len(row) != len(SPAN_FIELDS):
            raise ValueError(f"span {row!r} has {len(row)} fields")
        sid, parent, name, start, end = row
        if not isinstance(name, str) or not name:
            raise ValueError(f"span {sid} has no name")
        if not end >= start:
            raise ValueError(f"span {sid} ends before it starts")
        if parent is not None:
            if parent not in seen:
                raise ValueError(f"span {sid} has unknown parent {parent}")
            p_start, p_end = seen[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {sid} escapes its parent {parent}")
        seen[sid] = (start, end)


# ----------------------------------------------------------------------
# the layer boundaries a traced run wraps
# ----------------------------------------------------------------------
def _targets():
    """``(owner, attribute, span name)`` for every wrapped public name.

    Module-level functions are wrapped in each module that imported
    them by name, because that is the name its callers resolve.
    """
    import repro.core.hyperpraw as hyperpraw
    import repro.streaming.onepass as onepass
    import repro.streaming.restream as restream
    import repro.streaming.sharded as sharded
    from repro.engine.parallel import ShardRounds
    from repro.engine.states import DenseKernelState
    from repro.streaming.state import StreamingState

    targets = [
        (hyperpraw, "pass_kernel", "kernel"),
        (restream, "pass_kernel", "kernel"),
        (onepass, "pass_kernel", "kernel"),
        (hyperpraw, "partitioning_comm_cost", "pc_cost"),
        (sharded, "merge_shard_tables", "sharded.merge"),
        (ShardRounds, "start", "parallel.start"),
        (ShardRounds, "exchange", "parallel.exchange"),
        (ShardRounds, "stop", "parallel.stop"),
    ]
    for method in (
        "gather", "remove", "place", "gather_block", "lift_block", "insert_block",
    ):
        targets.append((DenseKernelState, method, "dense_state"))
    for method in (
        "gather", "gather_block", "place", "remove", "lift_block",
        "export_table", "seed_table", "rows", "set_rows", "imbalance", "pc_cost",
    ):
        targets.append((StreamingState, method, "lru_state"))
    return targets


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Wrap every layer boundary of :func:`_targets` while the block runs."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
