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

File format: ``MAGIC``, a fixed header (sha256 digest + length of the
payload), then the pickled payload (fingerprint header + entries).  The
digest is verified *before* unpickling, so a truncated or corrupted file
is rejected with :class:`~repro.errors.CheckpointError` instead of feeding
garbage to ``pickle``.  Writes go to ``<path>.tmp`` and are renamed into
place (atomic on POSIX), so the file on disk is always a complete,
verifiable checkpoint; a stale ``.tmp`` left by a SIGKILL mid-write is
removed by the next write or load.

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
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.errors import CheckpointError, ConfigurationError

#: File magic of every checkpoint (version byte included).
MAGIC = b"REPROCKPT\x01"

#: Fixed-size header after the magic: payload sha256 digest + length.
_HEADER = struct.Struct("<32sQ")

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
def write_checkpoint(path: str, payload: Dict[str, Any]) -> int:
    """Atomically write ``payload`` to ``path``; returns the payload size."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).digest()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(MAGIC)
        handle.write(_HEADER.pack(digest, len(blob)))
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(blob)


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read and verify one checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` for anything that is not
    a complete, digest-verified checkpoint; the digest is checked before
    ``pickle`` ever sees the bytes.  Removes a stale ``<path>.tmp`` left by
    a write that was killed before its rename.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        os.unlink(f"{path}.tmp")
    except OSError:
        pass
    if not data.startswith(MAGIC):
        raise CheckpointError(
            f"{path} is not a repro checkpoint (bad or missing magic)"
        )
    body = data[len(MAGIC):]
    if len(body) < _HEADER.size:
        raise CheckpointError(f"{path} is truncated (incomplete header)")
    digest, length = _HEADER.unpack_from(body, 0)
    blob = body[_HEADER.size:]
    if len(blob) != length:
        raise CheckpointError(
            f"{path} is truncated ({len(blob)} payload bytes, expected {length})"
        )
    if hashlib.sha256(blob).digest() != digest:
        raise CheckpointError(f"{path} is corrupt (payload digest mismatch)")
    try:
        payload = pickle.loads(blob)
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
