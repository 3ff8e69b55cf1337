"""The one implementation behind the engine's ``*_enabled()`` / ``*_disabled()`` pairs.

The modules owning a fast path keep their public function pair (and its
documentation); the state and the save/flip/restore discipline live here.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class Toggle:
    """A process-wide switch, on unless inside a :meth:`disabled` scope."""

    def __init__(self) -> None:
        self.enabled = True

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Switch off for the ``with`` body; nested scopes restore in order."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous
