"""Query deadlines and cooperative cancellation.

``Session.execute(timeout=...)`` arms a per-query deadline for the duration
of the statement: the deadline is a field of the current
:class:`~repro.engine.context.ExecutionContext`, armed by the same
:func:`~repro.engine.context.scope` call that enters the session's policy
(:func:`query_deadline` is that call for engine-level callers).  Execution
is single-threaded, so cancellation is *cooperative*: long-running stages
call :func:`deadline_check` at natural yield points — the executor before
each operator, the access paths before each collect, and (most importantly)
the shard gather loop, which polls with a short interval so even a wedged
worker process is abandoned within one poll of the deadline.

The contract on expiry is strict: :class:`~repro.errors.QueryTimeoutError`
propagates before any :class:`~repro.engine.timing.CostBreakdown` is handed
to the caller (sharded execution charges nothing until the gather is fully
in hand, so a cancelled query bills nothing), and the shard pool repairs any
worker it had to abandon, so the next query runs shard-parallel again.

Deadlines nest: an inner ``query_deadline`` can only tighten the deadline an
outer one armed, never extend it.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.engine.context import current, scope
from repro.errors import QueryTimeoutError

__all__ = ["deadline_check", "deadline_remaining", "query_deadline"]


def query_deadline(timeout_s: Optional[float]):
    """Arm a deadline *timeout_s* seconds from now for the ``with`` body.

    ``None`` arms nothing.  Nested deadlines only ever tighten: the
    effective deadline is the minimum of the armed ones.
    """
    return scope(timeout=timeout_s)


def deadline_remaining() -> Optional[float]:
    """Seconds until the armed deadline (clamped at 0), or ``None``."""
    deadline = current().deadline
    if deadline is None:
        return None
    return max(0.0, deadline[0] - time.monotonic())


def deadline_check() -> None:
    """Raise :class:`QueryTimeoutError` if the armed deadline has expired."""
    deadline = current().deadline
    if deadline is not None and time.monotonic() >= deadline[0]:
        raise QueryTimeoutError(
            f"query exceeded its {deadline[1]:.3f}s deadline",
            timeout_s=deadline[1],
        )
