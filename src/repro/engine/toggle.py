"""The one implementation behind the engine's ``*_enabled()`` / ``*_disabled()`` pairs.

The modules owning a fast path keep their public function pair (and its
documentation); the state and the save/flip/restore discipline live here.

So does the *settings epoch*: one process-wide counter that every switch
flip and every planner-knob change (``shard_config(...)``) bumps on entry
and on exit.  A recorded plan decision remembers the epoch it was derived
under; an unchanged epoch proves no switch or knob moved since, whichever
of them the decision depended on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_SETTINGS_EPOCH = 0


def settings_epoch() -> int:
    """The current settings epoch (see the module docstring)."""
    return _SETTINGS_EPOCH


def bump_settings_epoch() -> None:
    """Record that a switch or planner knob moved."""
    global _SETTINGS_EPOCH
    _SETTINGS_EPOCH += 1


class Toggle:
    """A process-wide switch, on unless inside a :meth:`disabled` scope."""

    def __init__(self) -> None:
        self.enabled = True

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Switch off for the ``with`` body; nested scopes restore in order."""
        previous = self.enabled
        self.enabled = False
        bump_settings_epoch()
        try:
            yield
        finally:
            self.enabled = previous
            bump_settings_epoch()
