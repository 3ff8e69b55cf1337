"""The execution context: whose policy, deadline and counters a statement runs under.

Everything the engine used to keep as a scoped module global — the
resilience and integrity policies, the armed query deadline, the event
counters — is one immutable :class:`ExecutionContext`, and the process holds
exactly one *current* context.  Engine code reads :func:`current`;
:func:`scope` is the one setter: it installs a changed copy for a ``with``
body and puts the previous object back on exit, whatever the body raised.

A :class:`~repro.api.session.Session` owns an :class:`EngineCounters` and
enters ``scope(counters=..., resilience=..., integrity=..., timeout=...)``
once per statement, so the events a statement causes are counted on the
session that ran it and no policy or deadline outlives the statement.
Engine calls made outside any session count on the process-default context.

The object such a scope installs is a function of two things only: the
*enclosing* context object and the session's fixed changes.  So a session
enters its statements through one :class:`FixedScope`, which keeps
``(enclosing, installed)`` and installs that same ``installed`` object again
while ``current()`` *is* that enclosing object — no copy per statement.
Entering ``shard_config(...)``, ``integrity_disabled()`` or
``query_deadline(...)`` between two statements installs a new enclosing
object, so the next statement builds its context afresh; a statement with
its own ``timeout`` arms its own deadline and always builds its own.

Execution is single-threaded, so the current context is a plain module
attribute; the ``*_disabled()`` toggles, the worker pool and the fault plan
are process-wide by nature and deliberately stay where they are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.config import IntegrityConfig, ResilienceConfig

__all__ = ["EngineCounters", "ExecutionContext", "FixedScope", "current", "scope"]


@dataclass
class EngineCounters:
    """Events of the resilience, integrity and storage layers, counted where they happen."""

    #: Sharded attempts that were retried after a failure.
    shard_retries: int = 0
    #: Worker processes individually replaced by the supervisor.
    worker_replacements: int = 0
    #: Queries that exhausted the sharded retry budget and ran serially.
    shard_degradations: int = 0
    #: Shared-memory segments the close/atexit audit had to reclaim.
    segments_reclaimed: int = 0
    #: Unexpected (non-shutdown-race) errors swallowed during pool teardown.
    teardown_errors: int = 0
    #: Checksum verifications performed (baseline establishment included).
    units_verified: int = 0
    #: Checksum mismatches detected (scan-time or scrub).
    corruption_detected: int = 0
    #: Units placed in quarantine.
    units_quarantined: int = 0
    #: Quarantined units rebuilt by ``Session.repair()``.
    units_repaired: int = 0
    #: Column position indexes built (``CompressedColumn.build_position_index``).
    position_index_builds: int = 0
    #: Filters answered from a position index instead of a scan of the codes.
    position_index_scans: int = 0


@dataclass(frozen=True)
class ExecutionContext:
    """What one statement executes under (see the module docstring)."""

    resilience: ResilienceConfig = ResilienceConfig()
    integrity: IntegrityConfig = IntegrityConfig()
    #: The armed ``(monotonic deadline, requested timeout seconds)``, or ``None``.
    deadline: Optional[Tuple[float, float]] = None
    counters: EngineCounters = field(default_factory=EngineCounters)


_CURRENT = ExecutionContext()


def current() -> ExecutionContext:
    """The context the engine is executing under right now."""
    return _CURRENT


class _Install:
    """Run the ``with`` body under one given context object.

    The previous context object is put back on exit whatever the body
    raised, so nested scopes restore in order and an enclosing scope
    governs again afterwards.  (A class, not a generator: every statement
    enters one.)
    """

    __slots__ = ("_context", "_previous")

    def __init__(self, context: ExecutionContext) -> None:
        self._context = context

    def __enter__(self) -> None:
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self._context

    def __exit__(self, *exc_info) -> None:
        global _CURRENT
        _CURRENT = self._previous


class scope(_Install):
    """Run the ``with`` body under ``replace(current(), **changes)``.

    *timeout* (seconds from now) arms a deadline; it can only tighten the
    one an enclosing scope armed, never extend it.
    """

    __slots__ = ("_timeout", "_changes")

    def __init__(self, timeout: Optional[float] = None, **changes) -> None:
        self._timeout = timeout
        self._changes = changes

    def __enter__(self) -> None:
        global _CURRENT
        previous = self._previous = _CURRENT
        changes = self._changes
        if self._timeout is not None:
            deadline = time.monotonic() + max(0.0, self._timeout)
            if previous.deadline is None or deadline < previous.deadline[0]:
                changes = dict(changes, deadline=(deadline, self._timeout))
        _CURRENT = replace(previous, **changes)


class FixedScope:
    """``scope(timeout, **changes)`` for one fixed set of *changes*.

    Calling it returns the scope of one statement.  Without a *timeout* the
    context it installs is built once per enclosing context object and
    reused while that object is current (see the module docstring); with
    one it is ``scope(timeout, **changes)`` itself.
    """

    __slots__ = ("_changes", "_enclosing", "_installed")

    def __init__(self, **changes) -> None:
        self._changes = changes
        self._enclosing: Optional[ExecutionContext] = None
        self._installed: Optional[ExecutionContext] = None

    def __call__(self, timeout: Optional[float] = None) -> _Install:
        if timeout is not None:
            return scope(timeout, **self._changes)
        enclosing = _CURRENT
        if enclosing is not self._enclosing:
            self._installed = replace(enclosing, **self._changes)
            self._enclosing = enclosing
        return _Install(self._installed)
