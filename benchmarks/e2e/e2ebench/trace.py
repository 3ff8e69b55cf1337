"""Spans recorded from outside the program, and the statistics over them.

A span is ``(op, name, parent, start, end, attrs)``: ``op`` is the index of
the statement in the timed stream (``-1`` for lifecycle calls), ``name`` the
layer boundary it was taken at, ``parent`` the name of the span that caused
it.  Spans live in memory and are written out once, when the pass ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

CLIENT_OP = "client.op"
PARSE = "query.parser.parse"
BIND = "api.binder.bind"
PLAN = "api.plan.plan_for"
EXECUTE = "engine.executor.execute"
VIEW_SERVE = "api.session.view_serve"
#: The stage spans under one ``client.op``, in pipeline order.
STAGES = (PARSE, BIND, PLAN, EXECUTE, VIEW_SERVE)

# Lifecycle span names of ``htap_tpch``.
CALIBRATE = "core.cost_model.calibrate"
RECOMMEND_TABLE = "core.advisor.recommend_table"
RECOMMEND_PARTITIONED = "core.advisor.recommend_partitioned"
APPLY = "core.advisor.apply"
RECOMMEND_VIEWS = "core.advisor.recommend_views"
CREATE_VIEWS = "engine.matview.create_views"
RECOVER = "engine.wal.recover"
CHECKPOINT = "engine.wal.checkpoint"
RECOVER_AFTER_CHECKPOINT = "engine.wal.recover_after_checkpoint"
MERGE_DELTAS = "engine.column_store.merge_deltas"
#: What the end-to-end lifecycle metrics of ``htap_tpch`` are the sum of.
LIFECYCLE_METRICS = {
    "advise_s": (CALIBRATE, RECOMMEND_TABLE, RECOMMEND_PARTITIONED),
    "apply_s": (APPLY, RECOMMEND_VIEWS, CREATE_VIEWS),
    "checkpoint_s": (CHECKPOINT,),
    "recover_s": (RECOVER,),
}

Span = Tuple[int, str, Optional[str], float, float, Optional[Dict[str, Any]]]


class Spans:
    def __init__(self) -> None:
        self.rows: List[Span] = []
        #: Lifecycle span name -> summed seconds (several loads share a name).
        self.lifecycle_seconds: Dict[str, float] = {}

    @contextmanager
    def lifecycle(self, name: str, **attrs: Any) -> Iterator[None]:
        """One span around a lifecycle call (load, recommend, checkpoint, ...)."""
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        self.rows.append((-1, name, None, start, end, attrs or None))
        self.lifecycle_seconds[name] = \
            self.lifecycle_seconds.get(name, 0.0) + end - start

    def seconds(self, name: str) -> float:
        """Summed duration of the lifecycle spans called *name*."""
        return self.lifecycle_seconds.get(name, 0.0)

    def write(self, path: str) -> None:
        """One JSON object per line; times in microseconds from the first span."""
        origin = min((row[3] for row in self.rows), default=0.0)
        with open(path, "w") as handle:
            for op, name, parent, start, end, attrs in self.rows:
                record = {
                    "op": op, "name": name, "parent": parent,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


def read_spans(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of *values* (``share`` in 0..1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def durations(spans: Iterable[Span]) -> List[float]:
    return [row[4] - row[3] for row in spans]
