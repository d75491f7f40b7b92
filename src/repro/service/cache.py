"""Content-addressed result cache of the coloring service.

The engine is bit-deterministic: the same graph, palettes, parameters and
algorithm always produce the identical coloring, recursion tree and
ledger.  That makes results *content-addressable* — a cache key derived
purely from the inputs is a complete identity for the output:

    key = sha256(algorithm
                 || instance fingerprint   (CSR arrays + palette store)
                 || parameter fingerprint  (every field but the durability
                                            knobs and the worker count))

The two fingerprints are exactly the ones the checkpoint layer already
binds resume files with (:func:`repro.runtime.checkpoint.fingerprint_instance`,
:func:`repro.runtime.checkpoint.fingerprint_params`) — one derivation,
two consumers, no drift.  Durability knobs and ``parallel_workers`` are
excluded on purpose: a result computed under a different checkpoint
cadence, memory budget or worker count is still the same result.

Invalidation is purely *by construction*: any change to the graph, the
palettes (including the submission seed that generates them), any
fingerprinted parameter, or the algorithm yields a different key; there
is no TTL and no by-hand invalidation, because a cached value can never
become wrong — only unreferenced.  The in-memory tier is a bounded LRU;
the optional disk tier (one ``<key>.json`` per result, written atomically)
is unbounded and makes repeat submissions hit across service restarts.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.runtime.checkpoint import fingerprint_instance, fingerprint_params


def cache_key(algorithm: str, graph: Any, palettes: Any, params: Any) -> str:
    """The content address of one coloring result (sha256 hex)."""
    material = "\n".join(
        (
            algorithm,
            fingerprint_instance(graph, palettes),
            fingerprint_params(params),
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Two-tier (memory LRU + optional disk) result store, thread-safe.

    Payloads are plain JSON-able dicts (the result documents the API
    serves).  Disk files are written via tmp-file + ``os.replace`` so a
    crashed write can never leave a half-result; a file that fails to
    parse, or whose recorded ``cache_key`` does not match its name, is
    treated as absent and removed.
    """

    def __init__(
        self,
        capacity: int = 256,
        directory: Optional[str] = None,
        telemetry: Any = None,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.directory = directory
        self._telemetry = telemetry
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._evictions = 0
        self._disk_hits = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    def _bump(self, counter: str) -> None:
        if self._telemetry is not None:
            self._telemetry.bump(counter)

    def _path(self, key: str) -> Optional[str]:
        return None if self.directory is None else os.path.join(self.directory, f"{key}.json")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` (counts hit/miss)."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
                self._bump("cache_hits")
                return payload
            payload = self._load_from_disk(key)
            if payload is not None:
                self._remember(key, payload)
                self._disk_hits += 1
                self._bump("cache_hits")
                return payload
            self._bump("cache_misses")
            return None

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store one result payload under its content address."""
        with self._lock:
            self._remember(key, payload)
            self._bump("cache_stores")
            path = self._path(key)
            if path is None:
                return
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        path = self._path(key)
        return path is not None and os.path.exists(path)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "evictions": self._evictions,
                "disk_hits": self._disk_hits,
                "persistent": self.directory is not None,
            }

    # ------------------------------------------------------------------
    def _remember(self, key: str, payload: Dict[str, Any]) -> None:
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def _load_from_disk(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or payload.get("cache_key") != key:
                raise ValueError("payload does not match its content address")
            return payload
        except (OSError, ValueError):
            # A torn or foreign file under our name: drop it and recompute.
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - unlink race
                pass
            return None
