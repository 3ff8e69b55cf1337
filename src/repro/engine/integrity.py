"""End-to-end data integrity: content checksums, quarantine, scrub.

PR 6 gave WAL records crc32 framing, but everything *after* the log was
trusted blindly: checkpoint snapshots, the in-memory code arrays and the
shared-memory segments shipped to shard workers would serve a flipped bit
silently (or surface it as a raw pickle/numpy error far from its cause).
This module is the common core of the integrity layer:

* **Unit checksums** — a partition unit here is one column of one
  column-store backend: crc32 over the main code array's bytes, extended
  over the pickled dictionary payload (:func:`unit_checksum`).  The
  :class:`TableIntegrity` state each :class:`ColumnStoreTable` carries
  caches checksums per zone epoch, exactly like the zone-synopsis cache:
  a mutation bumps the epoch, the stale entry is discarded, and the next
  read records a fresh baseline.  Inserts buffered in the column store's
  write buffer are not checksummed: every read — the checks included —
  merges them into the codes first, and the merge keeps the epoch, so the
  baseline of that epoch is taken over the merged unit.

* **Lazy scan verification** — the column store calls
  :meth:`TableIntegrity.verify_on_read` from its read entry points: a
  cheap quarantine gate on every read, plus one full checksum comparison
  per (column, zone epoch).  A mismatch quarantines the unit and raises
  :class:`~repro.errors.DataCorruptionError` naming the exact
  table/partition/column; every later access raises until
  ``Session.repair()`` rebuilds the unit.  Verification is billed **zero
  simulated cost** — no :class:`~repro.engine.timing.CostAccountant`
  interaction — so every differential fuzzer stays bit-identical with
  integrity on or off.

* **Eager shard verification** — at publish the parent stamps one
  :func:`codes_checksum` per ``(column, epoch, shard bounds)`` from
  canonical memory and ships each task the crcs of its own row range;
  the worker recomputes them, in place, over exactly the rows it is about
  to read — on every task, so damage after the first query is still
  caught.  A mismatch fails the task, which feeds PR 9's degradation
  ladder: republish → retry (fresh segments copied from canonical
  memory) → serial, which never touches a segment at all.

* **The scrubber** — :func:`scrub` walks every table's partition units
  (``integrity_units()`` on ``StoredTable``/``PartitionedTable``),
  verifies each against its recorded baseline and returns an
  :class:`IntegrityReport`; ``Session.verify_integrity()`` is the public
  entry point and ``Session.repair()`` consumes the report.

The policy (:class:`~repro.config.IntegrityConfig`) and the event counters
are fields of the current :class:`~repro.engine.context.ExecutionContext`:
a verification counts on whichever session's statement caused it.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.config import IntegrityConfig
from repro.engine.context import current, scope
from repro.errors import DataCorruptionError

# -- checksums -------------------------------------------------------------------------


def codes_checksum(codes: np.ndarray) -> int:
    """crc32 of a code array's contents — the bytes a shared segment holds.

    The crc runs over the array's own buffer: contiguous int64 (the layout
    both the canonical main store and the published shared-memory segments
    use, and any row-range slice of either) is read in place, anything else
    is converted first, so the parent and a worker computing this over equal
    contents always agree.
    """
    return zlib.crc32(np.ascontiguousarray(codes, dtype=np.int64))


def unit_checksum(codes: np.ndarray, dictionary) -> int:
    """Full content checksum of one unit: code array + dictionary payload.

    The dictionary payload is the pickled tuple of its (sorted) values —
    deterministic for equal values, NULL/NaN entries included — continued
    from the code-array crc so a flip in either part changes the result.
    """
    payload = pickle.dumps(
        tuple(dictionary.values), protocol=pickle.HIGHEST_PROTOCOL
    )
    return zlib.crc32(payload, codes_checksum(codes))


# -- scoped configuration --------------------------------------------------------------


def integrity_scope(config: IntegrityConfig):
    """Run the ``with`` body under *config*'s integrity policy."""
    return scope(integrity=config)


def integrity_enabled() -> bool:
    """Whether checksum maintenance and verification run at all."""
    return current().integrity.enabled


def verify_on_scan_enabled() -> bool:
    policy = current().integrity
    return policy.enabled and policy.verify_on_scan


def integrity_disabled():
    """Scope with all checksum verification off (reference runs, tests).

    Quarantine state already recorded keeps raising — disabling
    verification must never un-quarantine corrupt data.
    """
    return scope(integrity=replace(current().integrity, enabled=False))


# -- per-backend state -----------------------------------------------------------------


class TableIntegrity:
    """Checksum and quarantine state of one column-store backend.

    Owned by :class:`~repro.engine.column_store.ColumnStoreTable`; the
    partitioning layer labels the instance with its partition (``"main"``,
    ``"hot"``, ``"main.row"``/``"main.column"`` for vertical halves) so
    corruption errors name the exact unit.  Checksums are cached per zone
    epoch: every mutator bumps the epoch, which invalidates the entry, and
    the next read records a fresh baseline — detection therefore means "the
    content changed *without* a mutation", exactly the definition of silent
    corruption.
    """

    __slots__ = ("table", "partition", "_checksums", "_scan_verified",
                 "_quarantined")

    def __init__(self, table: str) -> None:
        self.table = table
        self.partition: Optional[str] = None
        #: column -> (zone epoch, full unit crc)
        self._checksums: Dict[str, Tuple[int, int]] = {}
        #: column -> zone epoch at which the lazy scan check last ran
        self._scan_verified: Dict[str, int] = {}
        #: column -> reason; entries survive until repair replaces the unit
        self._quarantined: Dict[str, str] = {}

    # -- quarantine ----------------------------------------------------------------

    def location(self, column: str) -> str:
        if self.partition is None:
            return f"table {self.table!r}, column {column!r}"
        return (f"table {self.table!r}, partition {self.partition!r}, "
                f"column {column!r}")

    def quarantined_columns(self) -> List[str]:
        return sorted(self._quarantined)

    def quarantine_reason(self, column: str) -> Optional[str]:
        return self._quarantined.get(column)

    def check_quarantine(self, column: str) -> None:
        """Raise :class:`DataCorruptionError` if *column* is quarantined."""
        reason = self._quarantined.get(column)
        if reason is not None:
            raise DataCorruptionError(
                f"quarantined unit ({self.location(column)}): {reason}",
                table=self.table, partition=self.partition, column=column,
            )

    def quarantine(self, column: str, reason: str) -> None:
        if column not in self._quarantined:
            self._quarantined[column] = reason
            current().counters.units_quarantined += 1

    # -- checksums -----------------------------------------------------------------

    def verify(self, column: str, codes: np.ndarray, dictionary,
               epoch: int) -> bool:
        """Recompute the unit checksum and compare with the recorded one.

        Records the baseline (and trivially passes) when none exists for the
        current epoch — a mutation legitimately changed the content.  A
        mismatch quarantines the unit and returns ``False`` — the caller
        decides whether to raise.
        """
        current().counters.units_verified += 1
        actual = unit_checksum(codes, dictionary)
        cached = self._checksums.get(column)
        if cached is None or cached[0] != epoch:
            self._checksums[column] = (epoch, actual)
            return True
        if actual == cached[1]:
            return True
        current().counters.corruption_detected += 1
        self.quarantine(
            column,
            f"checksum mismatch (expected {cached[1]:#010x}, "
            f"found {actual:#010x})",
        )
        return False

    def scan_pending(self, column: str, epoch: int) -> bool:
        """Whether the lazy scan check still owes a verification at *epoch*.

        Marks the epoch as checked — at most one full checksum comparison
        per (column, epoch), so repeated scans (and the insert-heavy
        benches, which never read) pay nothing.
        """
        if self._scan_verified.get(column) == epoch:
            return False
        self._scan_verified[column] = epoch
        return True


# -- the scrubber ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptUnit:
    """One quarantined partition unit found by the scrubber."""

    table: str
    partition: Optional[str]
    column: str
    reason: str


@dataclass
class IntegrityReport:
    """What one scrub pass found (see ``Session.verify_integrity``)."""

    #: Units whose checksum was verified this pass (baselines included).
    units_verified: int = 0
    #: Units checksummed for the first time this pass (no prior baseline —
    #: scrubbing cannot vouch for content it never saw intact).
    baselines_recorded: int = 0
    #: Corrupt units, newly detected and previously quarantined alike.
    corrupt: List[CorruptUnit] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt


def scrub(table_objects: Iterable) -> IntegrityReport:
    """Walk every partition unit of *table_objects* and verify checksums.

    *table_objects* are ``StoredTable``/``PartitionedTable`` instances (duck
    typed via ``integrity_units()`` to keep this module import-light).
    Row-store units carry no checksums and are skipped.  Corrupt units are
    quarantined as a side effect; already-quarantined units are re-reported,
    not re-verified.  With integrity disabled the walk only reports existing
    quarantine state.
    """
    report = IntegrityReport()
    for table_object in table_objects:
        for label, backend in table_object.integrity_units():
            state = getattr(backend, "integrity", None)
            if state is None:
                continue  # row-store unit: not checksummed
            if label is not None:
                state.partition = label
            for name in backend.schema.column_names:
                reason = state.quarantine_reason(name)
                if reason is not None:
                    report.corrupt.append(
                        CorruptUnit(state.table, state.partition, name, reason)
                    )
                    continue
                if not integrity_enabled():
                    continue
                epoch = backend.zone_epoch
                had_baseline = (
                    state._checksums.get(name, (None,))[0] == epoch
                )
                compressed = backend.compressed_column(name)
                report.units_verified += 1
                if not had_baseline:
                    report.baselines_recorded += 1
                if not state.verify(
                    name, compressed.codes, compressed.dictionary, epoch
                ):
                    report.corrupt.append(
                        CorruptUnit(state.table, state.partition, name,
                                    state.quarantine_reason(name))
                    )
    return report
