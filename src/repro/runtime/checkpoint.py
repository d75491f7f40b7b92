"""Checkpoint files for durable ``ColorReduce`` runs.

The recursion of both drivers is a depth-first walk whose every call is
identified by a *positional salt* (:func:`repro.core.driver.child_salt`):
the root is salt 1 and a child's salt is a pure function of its parent's
salt and its bin ordinal.  A subtree's entire computation — candidate
enumeration, selections, classifications, colorings — is therefore
reproducible in isolation, which reduces checkpoint/resume to *salt-keyed
memoization*:

* while running, every **completed** subtree at shallow depth (at most
  :data:`CHECKPOINT_RECORD_DEPTH`) is recorded: its coloring, its merged
  :class:`~repro.accounting.CostLedger`, its recursion-tree node and its
  contribution to the run counters.  When a parent completes, the entries
  of its descendants are pruned (the parent's entry subsumes them), so the
  frontier stays small;
* on resume, the drivers replay the same deterministic walk; whenever a
  call's salt has a recorded entry, the stored results are returned
  without recomputing, and everything *not* recorded is recomputed
  bit-identically.  The resumed run's coloring, recursion tree and ledger
  are exactly those of an uninterrupted run.

File format: a checkpoint at ``path`` is two *slot* files, ``path``
itself (slot A) and ``<path>.1`` (slot B); see :func:`checkpoint_files`.
Each slot holds one record: ``MAGIC``, a fixed header (sequence number,
sha256 digest over the sequence number then the payload, payload length)
and the pickled payload (fingerprint header + entries).  Bytes past the
payload length are ignored, because slots are never truncated.  The
digest is verified *before* unpickling, so a truncated or corrupted slot
is never fed to ``pickle``, and since it covers the sequence number a
torn header cannot pair a new number with an old payload.  Loading
returns the highest-numbered slot that verifies and raises
:class:`~repro.errors.CheckpointError` only when neither does; a file in
the older single-file format (``REPROCKPT\\x01``) is rejected by name.

Writing overwrites in place, at offset 0, the slot that does not hold the
newest verified checkpoint (slot A at a fresh path), then fsyncs it; the
parent directory is fsynced once, when a slot file is created.  A write
killed at any byte therefore leaves the previous checkpoint whole in the
other slot.  No write truncates, unlinks or renames a file: a rename
frees the replaced file's blocks, which is synchronous on a
``discard``-mounted file system and cost more than the rest of a
checkpointed run.

Fingerprints: a checkpoint is only valid for the exact run that produced
it.  The header binds the algorithm name, a parameter fingerprint (every
field of the parameter set *except* the durability knobs themselves and
the worker count — you may resume with a different budget, checkpoint
cadence or ``parallel_workers``, but not with a different seed, strategy
or batch routing), an instance fingerprint (graph CSR content + palette
contents) and the run's global node count.  A mismatch on resume is a
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import struct
from dataclasses import fields
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import CheckpointError, ConfigurationError

#: File magic of every checkpoint slot (version byte included).
MAGIC = b"REPROCKPT\x02"

#: Magic of the older single-file format, named when it is rejected.
_V1_MAGIC = b"REPROCKPT\x01"

#: Fixed-size header after the magic: sequence number, sha256 digest over
#: ``seq`` then the payload, payload length.
_HEADER = struct.Struct("<Q32sQ")
_SEQ = struct.Struct("<Q")

#: Subtrees completing at depth <= this are recorded into the frontier.
#: Deeper completions are folded into their (recorded) ancestors, keeping
#: the entry count bounded by ~bins^depth while still losing at most one
#: depth-3 subtree of work on a kill.
CHECKPOINT_RECORD_DEPTH = 3

#: Parameter fields that do NOT participate in the fingerprint: resuming
#: with a different checkpoint path, cadence, budget or deadline is the
#: whole point; everything else must match bit-for-bit.
DURABILITY_FIELDS = frozenset(
    {
        "checkpoint_path",
        "resume_path",
        "checkpoint_every_levels",
        "memory_budget_mb",
        "deadline_seconds",
    }
)

#: Fields :func:`fingerprint_params` skips: the durability knobs plus the
#: worker count, which only decides where candidates are scored (outputs
#: are bit-identical for every value).  Unlike the durability knobs it stays
#: a service override, so it is not in :data:`DURABILITY_FIELDS`.
_UNFINGERPRINTED = DURABILITY_FIELDS | {"parallel_workers"}

#: Test hook: when set to ``N``, the process SIGKILLs itself immediately
#: after the ``N``-th checkpoint write — a deterministic "host died at a
#: level boundary" for the chaos suite.
KILL_AFTER_CHECKPOINTS_ENV = "REPRO_TEST_KILL_AFTER_CHECKPOINTS"


# --------------------------------------------------------------------------
# fingerprints
# --------------------------------------------------------------------------
def fingerprint_params(params: Any) -> str:
    """sha256 over the fields of a parameter dataclass that can change the
    output: all but the durability knobs and ``parallel_workers``."""
    items = [("__params__", type(params).__name__)]
    for spec in fields(params):
        if spec.name in _UNFINGERPRINTED:
            continue
        items.append((spec.name, repr(getattr(params, spec.name))))
    return hashlib.sha256(repr(sorted(items)).encode("utf-8")).hexdigest()


def hash_array(h: Any, array: Any) -> None:
    """Feed a 1-d array to the hash ``h`` behind a tag of its dtype and length.

    The tag keeps arrays apart whose raw bytes coincide: the int64 value
    ``1 + 2 * 2**32`` and the int32 pair ``1, 2``, or one array's tail read
    as the next array's head.
    """
    import numpy as np

    array = np.ascontiguousarray(array)
    h.update(f"{array.dtype.str}:{array.shape[0]};".encode("ascii"))
    h.update(array.tobytes())


def fingerprint_instance(graph: Any, palettes: Any) -> str:
    """sha256 over the canonical instance: node ids, CSR arrays, palettes.

    The instance is first put in sorted node order
    (:func:`~repro.graph.palettes.canonical_instance`; a no-op inside a
    run, whose instance already is), so for mutually comparable ids the
    digest depends on the graph and palettes only, never on the order
    they were given in.  Every array goes through :func:`hash_array`.
    Ids or colors that are not int64 integers fall back to a ``repr``
    sweep.
    """
    from repro.graph.csr import integer_array
    from repro.graph.palettes import canonical_instance

    graph, palettes = canonical_instance(graph, palettes)
    h = hashlib.sha256()
    csr = graph.csr()
    ids = integer_array(csr.node_ids)
    if ids is not None:
        hash_array(h, ids)
    else:
        h.update(repr(csr.node_ids).encode("utf-8"))
    hash_array(h, csr.indptr)
    hash_array(h, csr.indices)
    store = palettes.store()
    if store is not None:
        hash_array(h, store.offsets)
        hash_array(h, store.flat)
    else:
        for node in graph.nodes():
            h.update(repr((node, sorted(palettes.palette(node)))).encode("utf-8"))
    return h.hexdigest()


def run_header(
    algorithm: str, params: Any, graph: Any, palettes: Any, global_nodes: int
) -> Dict[str, Any]:
    """The fingerprint header binding a checkpoint to one exact run."""
    return {
        "format": 1,
        "algorithm": algorithm,
        "params": fingerprint_params(params),
        "instance": fingerprint_instance(graph, palettes),
        "global_nodes": int(global_nodes),
    }


def validate_header(
    recorded: Dict[str, Any], expected: Dict[str, Any], path: str
) -> None:
    """Reject a resume against a run the checkpoint was not recorded for."""
    mismatched = [
        key
        for key in ("format", "algorithm", "params", "instance", "global_nodes")
        if recorded.get(key) != expected.get(key)
    ]
    if mismatched:
        raise ConfigurationError(
            f"checkpoint {path} was recorded for a different run "
            f"(mismatched: {', '.join(mismatched)}); --resume requires the "
            "same graph, palettes and parameters (durability knobs and "
            "the worker count may differ)"
        )


# --------------------------------------------------------------------------
# codec
# --------------------------------------------------------------------------
def checkpoint_files(path: str) -> Tuple[str, str]:
    """The two slot files of the checkpoint at ``path``: slot A is ``path``
    itself (a fresh path's first write lands there), slot B is ``<path>.1``."""
    return path, f"{path}.1"


class _Slot(NamedTuple):
    """What one slot file holds: ``seq`` from a complete header (else 0),
    the digest-verified payload ``blob`` (else ``None``, with ``reason``)."""

    exists: bool
    seq: int
    blob: Optional[memoryview]
    reason: str


def _digest(seq: int, blob: Any) -> bytes:
    h = hashlib.sha256(_SEQ.pack(seq))
    h.update(blob)
    return h.digest()


def _read_slot(name: str) -> _Slot:
    try:
        with open(name, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        exists = not isinstance(exc, FileNotFoundError)
        return _Slot(exists, 0, None, f"cannot read checkpoint {name}: {exc}")
    if not data.startswith(MAGIC):
        if data.startswith(_V1_MAGIC):
            reason = (
                f"{name} is a checkpoint in the older single-file format "
                "(REPROCKPT v1), which this version cannot resume; rerun "
                "without --resume"
            )
        else:
            reason = f"{name} is not a repro checkpoint (bad or missing magic)"
        return _Slot(True, 0, None, reason)
    start = len(MAGIC) + _HEADER.size
    if len(data) < start:
        return _Slot(True, 0, None, f"{name} is truncated (incomplete header)")
    seq, digest, length = _HEADER.unpack_from(data, len(MAGIC))
    blob = memoryview(data)[start:start + length]
    if len(blob) != length:
        return _Slot(
            True, seq, None,
            f"{name} is truncated ({len(blob)} payload bytes, expected {length})",
        )
    if _digest(seq, blob) != digest:
        return _Slot(True, seq, None, f"{name} is corrupt (payload digest mismatch)")
    return _Slot(True, seq, blob, "")


def _newest(slots: List[_Slot]) -> Optional[int]:
    """Index of the highest-``seq`` slot that verifies, if any does."""
    best = None
    for i, slot in enumerate(slots):
        if slot.blob is not None and (best is None or slot.seq > slots[best].seq):
            best = i
    return best


def _fsync_directory(name: str) -> None:
    fd = os.open(os.path.dirname(os.path.abspath(name)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_checkpoint(path: str, payload: Dict[str, Any]) -> int:
    """Durably write ``payload`` as the newest checkpoint at ``path``;
    returns the payload size.

    The record overwrites, in place, the slot that does not hold the
    newest verified checkpoint (slot A when neither verifies), with a
    sequence number above both slots' headers.  A write killed at any byte
    therefore leaves the previous checkpoint intact in the other slot.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    names = checkpoint_files(path)
    slots = [_read_slot(name) for name in names]
    newest = _newest(slots)
    target = 0 if newest is None else 1 - newest
    seq = 1 + max(slot.seq for slot in slots)
    record = MAGIC + _HEADER.pack(seq, _digest(seq, blob), len(blob)) + blob
    fd = os.open(names[target], os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(record)
        written = 0
        while written < len(record):
            written += os.pwrite(fd, view[written:], written)
        os.fsync(fd)
    finally:
        os.close(fd)
    if not slots[target].exists:
        _fsync_directory(names[target])
    return len(blob)


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read the newest verified checkpoint at ``path``.

    Returns the payload of the highest-``seq`` slot whose digest verifies;
    the digest is checked before ``pickle`` ever sees the bytes.  Raises
    :class:`~repro.errors.CheckpointError` when no slot verifies, worded
    from slot A's reason.
    """
    slots = [_read_slot(name) for name in checkpoint_files(path)]
    newest = _newest(slots)
    if newest is None:
        raise CheckpointError(slots[0].reason)
    try:
        payload = pickle.loads(slots[newest].blob)
    except Exception as exc:  # pragma: no cover - digest already vouched
        raise CheckpointError(f"{path} cannot be decoded: {exc}") from exc
    if not isinstance(payload, dict) or "header" not in payload or "entries" not in payload:
        raise CheckpointError(f"{path} has an unexpected payload layout")
    return payload


# --------------------------------------------------------------------------
# the frontier
# --------------------------------------------------------------------------
class CheckpointManager:
    """Salt-keyed frontier of completed subtrees, flushed atomically.

    ``entries`` maps a call's positional salt to a dict with keys
    ``depth``, ``ancestors`` (the salts on the path from the root,
    exclusive), ``coloring``, ``ledger`` (a :class:`CostLedger` copy),
    ``tree`` (the subtree's recursion node) and the run-counter deltas
    (``bad_nodes``, ``violations``).  ``path`` may be ``None`` — the
    frontier is then kept in memory only (a guard abort still raises, just
    without a resumable file).
    """

    def __init__(
        self,
        path: Optional[str],
        header: Dict[str, Any],
        entries: Optional[Dict[int, Dict[str, Any]]] = None,
        every: int = 1,
        record_depth: int = CHECKPOINT_RECORD_DEPTH,
        telemetry: Any = None,
    ) -> None:
        self.path = path
        self.header = header
        self.entries: Dict[int, Dict[str, Any]] = dict(entries or {})
        self.record_depth = record_depth
        self._every = max(1, int(every))
        self._pending = 0
        self._written = 0
        self._telemetry = telemetry

    # -- restore -------------------------------------------------------
    def has(self, salt: int) -> bool:
        return salt in self.entries

    def restored(self, salt: int) -> Optional[Dict[str, Any]]:
        """The recorded entry for ``salt``, if its subtree already ran."""
        return self.entries.get(salt)

    # -- record --------------------------------------------------------
    def record(
        self, salt: int, depth: int, ancestors: Tuple[int, ...], build_entry
    ) -> bool:
        """Record one completed subtree (``build_entry`` is called lazily).

        Entries of descendants are pruned — the new entry subsumes them —
        and the file is flushed once ``checkpoint_every_levels`` recordings
        have accumulated.
        """
        if depth > self.record_depth:
            return False
        for key in [k for k, e in self.entries.items() if salt in e["ancestors"]]:
            del self.entries[key]
        entry = build_entry()
        entry["depth"] = depth
        entry["ancestors"] = tuple(ancestors)
        self.entries[salt] = entry
        self._pending += 1
        if self._telemetry is not None:
            self._telemetry.bump("subtrees_recorded")
        if self._pending >= self._every:
            self.flush()
        return True

    # -- flush ---------------------------------------------------------
    def flush(self, force: bool = False) -> bool:
        """Write the frontier if anything changed (or ``force``)."""
        if self.path is None:
            self._pending = 0
            return False
        if self._pending == 0 and not force:
            return False
        size = write_checkpoint(
            self.path, {"header": self.header, "entries": self.entries}
        )
        self._pending = 0
        self._written += 1
        if self._telemetry is not None:
            self._telemetry.bump("checkpoints_written")
            self._telemetry.checkpoint_bytes = size
        self._maybe_kill_for_test()
        return True

    def _maybe_kill_for_test(self) -> None:
        raw = os.environ.get(KILL_AFTER_CHECKPOINTS_ENV)
        if raw and self._written >= int(raw):
            os.kill(os.getpid(), signal.SIGKILL)


def resume_entries(
    path: str, expected_header: Dict[str, Any]
) -> Dict[int, Dict[str, Any]]:
    """Load, validate and return the frontier of a checkpoint to resume."""
    payload = load_checkpoint(path)
    validate_header(payload["header"], expected_header, path)
    return payload["entries"]
