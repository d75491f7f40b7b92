"""Chaos suite for the run-level durability subsystem (:mod:`repro.runtime`).

The contract under test (docs/ARCHITECTURE.md, "Failure semantics"):

* a run killed at any point and resumed from its checkpoint produces the
  *bit-identical* coloring, recursion tree and round ledger of an
  uninterrupted run — checkpoint/resume is salt-keyed memoization of a
  deterministic walk, so restoring any subset of recorded subtrees is
  outcome-neutral;
* checkpoints are two digest-verified slot files written in turn: a write
  torn at any byte leaves the previous checkpoint loadable, a truncated,
  corrupted or foreign file is rejected with a typed error before
  ``pickle`` sees a byte, and a fingerprint mismatch (different instance,
  parameters or algorithm) is a :class:`ConfigurationError`;
* resource-guard aborts (memory budget, deadline) and signal shutdowns
  (SIGTERM/SIGINT) are controlled stops at recursion boundaries: final
  checkpoint flushed, pools drained, shared memory unlinked, distinct
  exit codes.

The SIGKILL chaos tests run the CLI in a subprocess with the
``REPRO_TEST_KILL_AFTER_CHECKPOINTS`` hook (the process SIGKILLs itself
right after the N-th checkpoint write — a deterministic "host died"), then
resume in-process and compare against an uninterrupted in-process run of
the same workload.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import RunDurability
from repro.core.color_reduce import ColorReduce
from repro.core.low_space.color_reduce import LowSpaceColorReduce
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    DeadlineExceededError,
    ResourceBudgetExceeded,
)
from repro.experiments.workloads import build_workload
from repro.graph import Graph, PaletteAssignment, generators
from repro.runtime.checkpoint import (
    MAGIC,
    checkpoint_files,
    fingerprint_instance,
    fingerprint_params,
    hash_array,
    load_checkpoint,
    write_checkpoint,
)
from repro.runtime.guard import ResourceGuard


REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _cli_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


def _tree_signature(node):
    """Structural signature of either driver's recursion tree: every field
    except ``children``, then the children recursively."""
    fields = {
        name: value
        for name, value in vars(node).items()
        if name != "children"
    }
    return (
        tuple(sorted(fields.items())),
        tuple(_tree_signature(child) for child in node.children),
    )


def _assert_same_run(resumed, reference) -> None:
    """The full bit-identity contract: coloring, tree and ledger."""
    assert resumed.coloring == reference.coloring
    assert _tree_signature(resumed.recursion_root) == _tree_signature(
        reference.recursion_root
    )
    assert resumed.ledger.snapshot() == reference.ledger.snapshot()
    assert resumed.rounds == reference.rounds


@pytest.fixture
def instance():
    graph = generators.erdos_renyi(400, 0.1, seed=7)
    palettes = generators.shared_universe_palettes(graph, seed=8)
    return graph, palettes


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------
class TestCheckpointCodec:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        payload = {"header": {"format": 1}, "entries": {1: {"coloring": {0: 1}}}}
        size = write_checkpoint(path, payload)
        assert size > 0
        assert load_checkpoint(path) == payload

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncation_rejected(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        write_checkpoint(path, {"header": {}, "entries": {}})
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_header_only_truncation_rejected(self, tmp_path):
        path = tmp_path / "h.ckpt"
        path.write_bytes(MAGIC + b"\x00" * 10)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    @settings(max_examples=25, deadline=None)
    @given(flip=st.integers(min_value=0, max_value=10_000), data=st.data())
    def test_corruption_anywhere_in_the_payload_is_rejected(
        self, tmp_path_factory, flip, data
    ):
        """Flipping any payload byte must fail the digest check, never
        reach ``pickle`` and never return a half-valid payload."""
        tmp_path = tmp_path_factory.mktemp("corrupt")
        path = str(tmp_path / "c.ckpt")
        payload = {
            "header": {"format": 1, "algorithm": "color-reduce"},
            "entries": {s: {"coloring": {i: i % 7 for i in range(40)}} for s in range(5)},
        }
        write_checkpoint(path, payload)
        blob = bytearray(open(path, "rb").read())
        body_start = len(MAGIC) + 48  # past magic + seq + digest + length
        position = body_start + flip % (len(blob) - body_start)
        flip_bit = data.draw(st.integers(min_value=1, max_value=255))
        blob[position] ^= flip_bit
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt|truncated"):
            load_checkpoint(path)

    def test_writes_touch_only_the_two_slot_files(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        assert checkpoint_files(path) == (path, path + ".1")
        for i in range(5):
            write_checkpoint(path, {"header": {}, "entries": {i: {}}})
            assert load_checkpoint(path)["entries"] == {i: {}}
            if i == 0:  # a fresh path's first write lands in slot A
                assert os.listdir(tmp_path) == ["s.ckpt"]
        assert sorted(os.listdir(tmp_path)) == ["s.ckpt", "s.ckpt.1"]

    @pytest.mark.parametrize("next_entries", [1, 40], ids=["shorter", "longer"])
    def test_torn_write_at_any_byte_loads_the_previous_payload(
        self, tmp_path, next_entries
    ):
        """A write killed after any prefix of its record leaves the slot it
        was overwriting torn; loading returns the previous checkpoint,
        exactly, and never a half-written one."""
        import shutil

        def payload(n):
            return {"header": {"n": n}, "entries": {s: {"c": s * 3} for s in range(n)}}

        path = str(tmp_path / "torn.ckpt")
        write_checkpoint(path, payload(8))  # slot A
        write_checkpoint(path, payload(9))  # slot B, the previous checkpoint
        slot_a = checkpoint_files(path)[0]
        old_a = open(slot_a, "rb").read()
        # The next write goes to slot A; record its bytes on a copy.
        done = tmp_path / "done"
        done.mkdir()
        done_path = str(done / "torn.ckpt")
        for name, done_name in zip(checkpoint_files(path), checkpoint_files(done_path)):
            shutil.copyfile(name, done_name)
        size = write_checkpoint(done_path, payload(next_entries))
        record = open(done_path, "rb").read()[: len(MAGIC) + 48 + size]
        assert record != old_a[: len(record)]
        # Prefixes in increasing order only ever grow the slot, so writing
        # in place leaves exactly the torn bytes (and truncates nothing).
        fd = os.open(slot_a, os.O_WRONLY)
        try:
            for cut in range(len(record)):
                os.pwrite(fd, record[:cut], 0)
                assert load_checkpoint(path) == payload(9), cut
            os.pwrite(fd, record, 0)
        finally:
            os.close(fd)
        assert open(slot_a, "rb").read() == record + old_a[len(record):]
        assert load_checkpoint(path) == payload(next_entries)

    @pytest.mark.parametrize("damage_a", ["truncate", "corrupt"])
    @pytest.mark.parametrize("damage_b", ["truncate", "corrupt"])
    def test_both_slots_damaged_is_a_checkpoint_error(
        self, tmp_path, damage_a, damage_b
    ):
        path = str(tmp_path / "both.ckpt")
        write_checkpoint(path, {"header": {}, "entries": {1: {}}})
        write_checkpoint(path, {"header": {}, "entries": {2: {}}})
        for name, damage in zip(checkpoint_files(path), (damage_a, damage_b)):
            data = bytearray(open(name, "rb").read())
            if damage == "truncate":
                data = data[:-3]
            else:
                data[-1] ^= 0xFF
            open(name, "wb").write(bytes(data))
        with pytest.raises(CheckpointError, match="truncated|corrupt"):
            load_checkpoint(path)

    def test_older_single_file_format_is_named(self, tmp_path):
        import hashlib
        import pickle
        import struct

        path = str(tmp_path / "v1.ckpt")
        blob = pickle.dumps({"header": {}, "entries": {}})
        with open(path, "wb") as handle:
            handle.write(b"REPROCKPT\x01")
            handle.write(struct.pack("<32sQ", hashlib.sha256(blob).digest(), len(blob)))
            handle.write(blob)
        with pytest.raises(CheckpointError, match="older single-file format"):
            load_checkpoint(path)
        # A fresh run at that path simply supersedes it.
        write_checkpoint(path, {"header": {"fresh": True}, "entries": {}})
        assert load_checkpoint(path)["header"] == {"fresh": True}

    def test_write_never_overwrites_the_only_verified_slot(self, tmp_path):
        """Slot B carries the higher ``seq`` but fails its digest, slot A
        verifies: the next write must go to B and leave A untouched."""
        path = str(tmp_path / "d.ckpt")
        slot_a, slot_b = checkpoint_files(path)
        write_checkpoint(path, {"header": {}, "entries": {1: {}}})
        write_checkpoint(path, {"header": {}, "entries": {2: {}}})
        data = bytearray(open(slot_b, "rb").read())
        data[-1] ^= 0xFF
        open(slot_b, "wb").write(bytes(data))
        assert load_checkpoint(path)["entries"] == {1: {}}
        before = open(slot_a, "rb").read()
        write_checkpoint(path, {"header": {}, "entries": {3: {}}})
        assert open(slot_a, "rb").read() == before
        assert load_checkpoint(path)["entries"] == {3: {}}


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------
class TestFingerprints:
    def test_durability_knobs_do_not_change_the_params_fingerprint(self):
        base = ColorReduceParameters.scaled(num_bins=4)
        tweaked = ColorReduceParameters.scaled(
            num_bins=4,
            checkpoint_path="/tmp/x.ckpt",
            memory_budget_mb=512.0,
            deadline_seconds=60.0,
            checkpoint_every_levels=5,
        )
        assert fingerprint_params(base) == fingerprint_params(tweaked)

    def test_algorithm_knobs_do_change_the_params_fingerprint(self):
        a = ColorReduceParameters.scaled(num_bins=4)
        b = ColorReduceParameters.scaled(num_bins=6)
        assert fingerprint_params(a) != fingerprint_params(b)

    @pytest.mark.parametrize("cls", [ColorReduceParameters, LowSpaceParameters])
    def test_worker_count_does_not_change_the_params_fingerprint(self, cls):
        # Outputs are bit-identical for every worker count, so a checkpoint
        # or cached result serves them all.
        assert fingerprint_params(cls(parallel_workers=1)) == fingerprint_params(
            cls(parallel_workers=2)
        )

    def test_param_set_class_participates(self):
        assert fingerprint_params(ColorReduceParameters()) != fingerprint_params(
            LowSpaceParameters()
        )

    def test_instance_fingerprint_sees_graph_and_palettes(self, instance):
        graph, palettes = instance
        other_graph = generators.erdos_renyi(400, 0.1, seed=9)
        other_palettes = generators.shared_universe_palettes(graph, seed=99)
        assert fingerprint_instance(graph, palettes) != fingerprint_instance(
            other_graph, palettes
        )
        assert fingerprint_instance(graph, palettes) != fingerprint_instance(
            graph, other_palettes
        )

    def test_resume_against_wrong_instance_is_a_configuration_error(
        self, tmp_path, instance
    ):
        graph, palettes = instance
        ck = str(tmp_path / "r.ckpt")
        params = ColorReduceParameters.scaled(num_bins=4, checkpoint_path=ck)
        ColorReduce(params=params).run(graph, palettes)
        other = generators.erdos_renyi(400, 0.1, seed=1234)
        other_palettes = generators.shared_universe_palettes(other, seed=8)
        with pytest.raises(ConfigurationError, match="different run"):
            ColorReduce(
                params=ColorReduceParameters.scaled(num_bins=4, resume_path=ck)
            ).run(other, other_palettes)

    def test_resume_from_an_id_keyed_format_1_checkpoint_is_refused(
        self, tmp_path, instance
    ):
        # Format 1 stored each subtree's coloring as an id-keyed dict;
        # format 2 stores root positions and colors as arrays.
        graph, palettes = instance
        ck = str(tmp_path / "old.ckpt")
        params = ColorReduceParameters.scaled(num_bins=4, checkpoint_path=ck)
        ColorReduce(params=params).run(graph, palettes)
        payload = load_checkpoint(ck)
        assert payload["header"]["format"] == 2
        assert all({"nodes", "colors"} <= set(e) for e in payload["entries"].values())
        payload["header"]["format"] = 1
        write_checkpoint(ck, payload)
        with pytest.raises(ConfigurationError, match="mismatched: format"):
            ColorReduce(
                params=ColorReduceParameters.scaled(num_bins=4, resume_path=ck)
            ).run(graph, palettes)

    def test_resume_across_algorithms_is_a_configuration_error(
        self, tmp_path, instance
    ):
        graph, palettes = instance
        ck = str(tmp_path / "x.ckpt")
        LowSpaceColorReduce(
            params=LowSpaceParameters.scaled(
                num_bins=4, low_degree_threshold=6, checkpoint_path=ck
            )
        ).run(graph, palettes)
        with pytest.raises(ConfigurationError, match="different run"):
            ColorReduce(
                params=ColorReduceParameters.scaled(num_bins=4, resume_path=ck)
            ).run(graph, palettes)



class TestStableInstanceFingerprint:
    """``fingerprint_instance`` is a stable content hash of the instance."""

    @staticmethod
    def _instance(seed):
        graph = generators.gnm_random(40, 90, seed=seed)
        return graph, generators.shared_universe_palettes(graph, seed=seed)

    @staticmethod
    def _shuffled(graph, palettes, rng):
        nodes = graph.nodes()
        rng.shuffle(nodes)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()]
        rng.shuffle(edges)
        lists = {node: sorted(palettes.palette(node), reverse=True) for node in nodes}
        return Graph(nodes=nodes, edges=edges), PaletteAssignment(lists)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_deterministic(self, seed):
        graph, palettes = self._instance(seed)
        again_graph, again_palettes = self._instance(seed)
        assert fingerprint_instance(graph, palettes) == fingerprint_instance(
            again_graph, again_palettes
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_changes_with_the_content(self, seed):
        graph, palettes = self._instance(seed)
        digest = fingerprint_instance(graph, palettes)
        u, v = next(iter(graph.edges()))
        fewer_edges = Graph(nodes=graph.nodes(), edges=[e for e in graph.edges() if e != (u, v)])
        assert fingerprint_instance(fewer_edges, palettes) != digest
        lists = {node: palettes.palette(node) for node in graph.nodes()}
        lists[u] = lists[u] | {10**6}
        assert fingerprint_instance(graph, PaletteAssignment(lists)) != digest

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_invariant_under_node_and_edge_order(self, seed):
        import random

        graph, palettes = self._instance(seed)
        shuffled_graph, shuffled_palettes = self._shuffled(graph, palettes, random.Random(seed))
        assert fingerprint_instance(shuffled_graph, shuffled_palettes) == fingerprint_instance(
            graph, palettes
        )

    @staticmethod
    def _tagged(*arrays):
        import hashlib

        h = hashlib.sha256()
        for array in arrays:
            hash_array(h, array)
        return h.hexdigest()

    def test_dtype_tags_keep_int32_and_int64_bytes_apart(self):
        import numpy as np

        # The int64 value 1 + 2 * 2**32 has the bytes of the int32 pair 1, 2.
        wide = np.array([1 + 2 * 2**32], dtype=np.int64)
        narrow = np.array([1, 2], dtype=np.int32)
        assert wide.tobytes() == narrow.tobytes()
        assert self._tagged(wide) != self._tagged(narrow)

    def test_length_tags_keep_array_boundaries_apart(self):
        import numpy as np

        left = (np.array([1, 2], dtype=np.int64), np.array([3], dtype=np.int64))
        right = (np.array([1], dtype=np.int64), np.array([2, 3], dtype=np.int64))
        assert b"".join(a.tobytes() for a in left) == b"".join(a.tobytes() for a in right)
        assert self._tagged(*left) != self._tagged(*right)

    def test_every_instance_array_is_tagged(self):
        import hashlib

        import numpy as np

        graph, palettes = self._instance(0)
        csr, store = graph.csr(), palettes.store()
        arrays = (
            np.asarray(csr.node_ids, dtype=np.int64),
            csr.indptr,
            csr.indices,
            store.offsets,
            store.flat,
        )
        untagged = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))
        assert fingerprint_instance(graph, palettes) == self._tagged(*arrays)
        assert fingerprint_instance(graph, palettes) != untagged.hexdigest()


# ---------------------------------------------------------------------------
# in-process resume bit-identity
# ---------------------------------------------------------------------------
class TestResumeBitIdentity:
    def test_linear_driver_checkpoint_then_resume(self, tmp_path, instance):
        graph, palettes = instance
        reference = ColorReduce(
            params=ColorReduceParameters.scaled(num_bins=4)
        ).run(graph, palettes)
        ck = str(tmp_path / "lin.ckpt")
        checkpointed = ColorReduce(
            params=ColorReduceParameters.scaled(num_bins=4, checkpoint_path=ck)
        ).run(graph, palettes)
        _assert_same_run(checkpointed, reference)
        assert checkpointed.durability.checkpoints_written >= 1
        resumed = ColorReduce(
            params=ColorReduceParameters.scaled(num_bins=4, resume_path=ck)
        ).run(graph, palettes)
        _assert_same_run(resumed, reference)
        assert resumed.durability.resumed
        assert resumed.durability.nodes_restored > 0

    def test_low_space_driver_checkpoint_then_resume(self, tmp_path, instance):
        graph, palettes = instance
        scaled = dict(num_bins=4, low_degree_threshold=6)
        reference = LowSpaceColorReduce(
            params=LowSpaceParameters.scaled(**scaled)
        ).run(graph, palettes)
        ck = str(tmp_path / "ls.ckpt")
        LowSpaceColorReduce(
            params=LowSpaceParameters.scaled(**scaled, checkpoint_path=ck)
        ).run(graph, palettes)
        resumed = LowSpaceColorReduce(
            params=LowSpaceParameters.scaled(**scaled, resume_path=ck)
        ).run(graph, palettes)
        _assert_same_run(resumed, reference)
        assert resumed.durability.resumed

    @pytest.mark.parametrize("drop_seed", [0, 1, 2, 3])
    def test_resuming_any_partial_frontier_is_outcome_neutral(
        self, tmp_path, instance, drop_seed
    ):
        """The strong determinism property behind the whole design: delete
        an arbitrary subset of recorded subtrees from a full checkpoint and
        the resumed run still reproduces the reference bit-for-bit — the
        dropped subtrees are simply recomputed."""
        import random

        graph, palettes = instance
        params = ColorReduceParameters.scaled(num_bins=4, collect_factor=0.25)
        reference = ColorReduce(params=params).run(graph, palettes)
        ck = str(tmp_path / "full.ckpt")
        ColorReduce(
            params=ColorReduceParameters.scaled(
                num_bins=4, collect_factor=0.25, checkpoint_path=ck
            )
        ).run(graph, palettes)
        payload = load_checkpoint(ck)
        salts = sorted(payload["entries"])
        assert salts, "expected a non-empty frontier"
        rng = random.Random(drop_seed)
        kept = {
            s: payload["entries"][s]
            for s in salts
            if rng.random() < 0.5
        }
        write_checkpoint(ck, {"header": payload["header"], "entries": kept})
        resumed = ColorReduce(
            params=ColorReduceParameters.scaled(
                num_bins=4, collect_factor=0.25, resume_path=ck
            )
        ).run(graph, palettes)
        _assert_same_run(resumed, reference)

    def test_resume_is_neutral_with_parallel_workers(
        self, tmp_path, instance, monkeypatch
    ):
        graph, palettes = instance
        scaled = dict(num_bins=4, parallel_workers=2)
        from repro.parallel import MIN_PAIRS_ENV, shutdown_executors

        monkeypatch.setenv(MIN_PAIRS_ENV, "2")

        try:
            reference = ColorReduce(
                params=ColorReduceParameters.scaled(**scaled)
            ).run(graph, palettes)
            ck = str(tmp_path / "par.ckpt")
            ColorReduce(
                params=ColorReduceParameters.scaled(**scaled, checkpoint_path=ck)
            ).run(graph, palettes)
            resumed = ColorReduce(
                params=ColorReduceParameters.scaled(**scaled, resume_path=ck)
            ).run(graph, palettes)
        finally:
            shutdown_executors()
        _assert_same_run(resumed, reference)


# ---------------------------------------------------------------------------
# SIGKILL chaos: kill the CLI mid-run, resume, compare
# ---------------------------------------------------------------------------
class TestKillAndResume:
    @pytest.mark.parametrize("kill_after", [1, 2, 4])
    def test_sigkilled_linear_run_resumes_bit_identically(
        self, tmp_path, kill_after
    ):
        ck = str(tmp_path / "kill.ckpt")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "color", "--nodes", "400",
             "--checkpoint", ck],
            env=_cli_env(REPRO_TEST_KILL_AFTER_CHECKPOINTS=str(kill_after)),
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert os.path.exists(ck), "no checkpoint survived the kill"
        load_checkpoint(ck)

        # The CLI's defaults are the dataclass defaults, so an in-process
        # run of the same workload is the uninterrupted reference.
        graph, palettes, _spec = build_workload("dense-random-lists", 400, seed=1)
        reference = ColorReduce(params=ColorReduceParameters()).run(graph, palettes)
        resumed = ColorReduce(
            params=ColorReduceParameters(resume_path=ck)
        ).run(graph, palettes)
        _assert_same_run(resumed, reference)
        assert resumed.durability.resumed

    def test_sigkilled_low_space_run_resumes_bit_identically(self, tmp_path):
        ck = str(tmp_path / "kill-ls.ckpt")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "color", "--nodes", "600",
             "--seed", "3", "--algorithm", "low-space", "--checkpoint", ck],
            env=_cli_env(REPRO_TEST_KILL_AFTER_CHECKPOINTS="3"),
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        graph, palettes, _spec = build_workload("dense-random-lists", 600, seed=3)
        reference = LowSpaceColorReduce(params=LowSpaceParameters()).run(
            graph, palettes
        )
        resumed = LowSpaceColorReduce(
            params=LowSpaceParameters(resume_path=ck)
        ).run(graph, palettes)
        _assert_same_run(resumed, reference)
        assert resumed.durability.resumed

    @pytest.mark.parametrize(
        "algorithm, driver, params_cls, nodes, seed, kill_after",
        [
            ("congested-clique", ColorReduce, ColorReduceParameters, 400, 1, 2),
            ("low-space", LowSpaceColorReduce, LowSpaceParameters, 600, 3, 3),
        ],
        ids=["color-reduce", "low-space"],
    )
    def test_checkpoint_at_one_worker_resumes_at_two(
        self, tmp_path, monkeypatch, algorithm, driver, params_cls, nodes, seed,
        kill_after,
    ):
        """The worker count is not part of a run's identity: a run killed
        at one worker resumes with the pool engaged, bit-identically."""
        from dataclasses import astuple

        from repro.parallel import MIN_PAIRS_ENV, shutdown_executors

        ck = str(tmp_path / "one-worker.ckpt")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "color", "--nodes", str(nodes),
             "--seed", str(seed), "--algorithm", algorithm, "--checkpoint", ck],
            env=_cli_env(REPRO_TEST_KILL_AFTER_CHECKPOINTS=str(kill_after)),
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        graph, palettes, _spec = build_workload("dense-random-lists", nodes, seed=seed)
        reference = driver(params=params_cls()).run(graph, palettes)
        monkeypatch.setenv(MIN_PAIRS_ENV, "0")
        try:
            resumed = driver(
                params=params_cls(parallel_workers=2, resume_path=ck)
            ).run(graph, palettes)
        finally:
            shutdown_executors()
        assert resumed.coloring == reference.coloring
        assert astuple(resumed.recursion_root) == astuple(reference.recursion_root)
        assert resumed.rounds == reference.rounds
        assert resumed.ledger.snapshot() == reference.ledger.snapshot()
        assert resumed.durability.subtrees_restored >= 1
        # The pool really scored part of the resumed walk.
        assert resumed.pool_health.bytes_shared + resumed.pool_health.bytes_shipped > 0

    def test_fresh_run_at_a_used_path_supersedes_the_old_checkpoint(self, tmp_path):
        """A fresh run at a path holding another run's finished checkpoint,
        killed after its first write, resumes from its own record."""
        ck = str(tmp_path / "reused.ckpt")
        finished = subprocess.run(
            [sys.executable, "-m", "repro", "color", "--nodes", "400",
             "--checkpoint", ck],
            env=_cli_env(),
            capture_output=True,
            timeout=300,
        )
        assert finished.returncode == 0, finished.stderr.decode()
        killed = subprocess.run(
            [sys.executable, "-m", "repro", "color", "--nodes", "300",
             "--checkpoint", ck],
            env=_cli_env(REPRO_TEST_KILL_AFTER_CHECKPOINTS="1"),
            capture_output=True,
            timeout=300,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr.decode()
        graph, palettes, _spec = build_workload("dense-random-lists", 300, seed=1)
        reference = ColorReduce(params=ColorReduceParameters()).run(graph, palettes)
        resumed = ColorReduce(
            params=ColorReduceParameters(resume_path=ck)
        ).run(graph, palettes)
        _assert_same_run(resumed, reference)
        assert resumed.durability.subtrees_restored >= 1

    def test_cli_resume_after_kill_completes_with_exit_zero(self, tmp_path):
        ck = str(tmp_path / "cli.ckpt")
        killed = subprocess.run(
            [sys.executable, "-m", "repro", "color", "--nodes", "400",
             "--checkpoint", ck],
            env=_cli_env(REPRO_TEST_KILL_AFTER_CHECKPOINTS="2"),
            capture_output=True,
            timeout=300,
        )
        assert killed.returncode == -signal.SIGKILL
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "color", "--nodes", "400",
             "--resume", ck],
            env=_cli_env(),
            capture_output=True,
            timeout=300,
            text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "subtrees_restored=" in resumed.stdout


# ---------------------------------------------------------------------------
# signal-safe shutdown
# ---------------------------------------------------------------------------
class TestSignalShutdown:
    def test_sigterm_finishes_level_checkpoints_and_exits_143(self, tmp_path):
        # This instance walks on for ~0.15 s after its first flush.
        self._sigterm_then_resume(tmp_path, ["--nodes", "20000"])

    def test_sigterm_low_space_run_exits_143_and_resumes(self, tmp_path):
        # This instance walks on for ~0.6 s after its first flush.
        self._sigterm_then_resume(
            tmp_path, ["--algorithm", "low-space", "--nodes", "5000", "--seed", "5"]
        )

    @staticmethod
    def _sigterm_then_resume(tmp_path, args):
        # The first checkpoint flush happens inside the walk, where the
        # handler is installed, so signal as soon as the file exists.
        ck = str(tmp_path / "term.ckpt")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "color", *args, "--checkpoint", ck],
            env=_cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.monotonic() + 300
        while not os.path.exists(ck) and proc.poll() is None:
            assert time.monotonic() < deadline, "no checkpoint was written"
            time.sleep(0.001)
        if proc.poll() is not None:
            _out, err = proc.communicate()
            pytest.fail(
                f"the SIGTERM did not land: the run exited ({proc.returncode}) "
                f"before its first checkpoint was seen\n{err}"
            )
        proc.send_signal(signal.SIGTERM)
        _out, err = proc.communicate(timeout=300)
        assert proc.returncode == 128 + signal.SIGTERM, (
            f"the SIGTERM did not land inside the walk (exit {proc.returncode})\n{err}"
        )
        assert "interrupted" in err and "--resume" in err
        load_checkpoint(ck)
        leaked = [
            name for name in os.listdir("/dev/shm")
            if name.startswith(f"repro_{proc.pid}_")
        ] if os.path.isdir("/dev/shm") else []
        assert not leaked, f"SIGTERM left shared-memory residue: {leaked}"
        # ... and the checkpoint it left is a valid resume point.
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "color", *args, "--resume", ck],
            env=_cli_env(),
            capture_output=True,
            timeout=600,
            text=True,
        )
        assert resumed.returncode == 0, resumed.stderr


# ---------------------------------------------------------------------------
# resource guard
# ---------------------------------------------------------------------------
class _FakeRun:
    prefetch_allowed = True

    def __init__(self):
        self.events = []
        self.telemetry = RunDurability()

    def disable_prefetch(self):
        self.events.append("prefetch-off")

    def abort(self, error):
        self.events.append(type(error).__name__)
        raise error


class TestResourceGuard:
    def _guard(self, budget=100.0, deadline=None):
        self.rss = [50.0]
        self.clock = [0.0]
        return ResourceGuard(
            memory_budget_mb=budget,
            deadline_seconds=deadline,
            rss_reader=lambda: self.rss[0],
            clock=lambda: self.clock[0],
            poll_interval=0.0,
        )

    def test_ladder_disables_prefetch_at_80_percent(self):
        guard = self._guard()
        run = _FakeRun()
        guard.poll(run)
        assert run.events == []
        self.rss[0] = 85.0
        guard.poll(run)
        assert run.events == ["prefetch-off"]

    def test_ladder_shrinks_buffers_once_at_90_percent(self):
        guard = self._guard()
        run = _FakeRun()
        self.rss[0] = 95.0
        guard.poll(run)
        guard.poll(run)
        assert run.telemetry.buffer_shrinks == 1  # the gc/drain rung fires once

    def test_ladder_aborts_resumably_at_100_percent(self):
        guard = self._guard()
        run = _FakeRun()
        self.rss[0] = 101.0
        with pytest.raises(ResourceBudgetExceeded):
            guard.poll(run)
        assert run.events[-1] == "ResourceBudgetExceeded"
        assert run.telemetry.rss_peak_mb == pytest.approx(101.0)

    def test_deadline_aborts(self):
        guard = self._guard(budget=None, deadline=10.0)
        run = _FakeRun()
        guard.poll(run)
        self.clock[0] = 11.0
        with pytest.raises(DeadlineExceededError):
            guard.poll(run)

    def test_budget_abort_is_resumable_end_to_end(self, tmp_path, instance):
        """A run aborted by its memory budget leaves a checkpoint that a
        later, unconstrained run completes from bit-identically — the
        acceptance contract 'never an uncontrolled OOM'."""
        graph, palettes = instance
        ck = str(tmp_path / "oom.ckpt")
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            ColorReduce(
                params=ColorReduceParameters.scaled(
                    num_bins=4, checkpoint_path=ck, memory_budget_mb=1.0
                )
            ).run(graph, palettes)
        assert excinfo.value.checkpoint_path == ck
        reference = ColorReduce(
            params=ColorReduceParameters.scaled(num_bins=4)
        ).run(graph, palettes)
        resumed = ColorReduce(
            params=ColorReduceParameters.scaled(num_bins=4, resume_path=ck)
        ).run(graph, palettes)
        _assert_same_run(resumed, reference)

    def test_deadline_abort_exits_75_from_the_cli(self, tmp_path):
        ck = str(tmp_path / "dl.ckpt")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "color", "--nodes", "400",
             "--checkpoint", ck, "--deadline-seconds", "0.000001"],
            env=_cli_env(),
            capture_output=True,
            timeout=300,
            text=True,
        )
        assert proc.returncode == 75, proc.stderr
        assert "aborted" in proc.stderr and "--resume" in proc.stderr


# ---------------------------------------------------------------------------
# orphaned shared-memory sweep
# ---------------------------------------------------------------------------
class TestOrphanSweep:
    def test_dead_owner_segments_are_swept_live_ones_kept(self, tmp_path):
        from repro.parallel.slabs import SEGMENT_PREFIX, sweep_orphan_segments

        if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
            pytest.skip("/dev/shm not available")
        reaper = subprocess.Popen(["sleep", "0"])
        reaper.wait()
        dead_pid = reaper.pid
        dead = f"/dev/shm/{SEGMENT_PREFIX}{dead_pid}_1"
        live = f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_999999"
        unparsable = f"/dev/shm/{SEGMENT_PREFIX}notapid_1"
        for path in (dead, live, unparsable):
            with open(path, "wb") as handle:
                handle.write(b"x" * 8)
        try:
            swept = sweep_orphan_segments()
            assert swept == 1
            assert not os.path.exists(dead)
            assert os.path.exists(live), "a live owner's segment was removed"
            assert os.path.exists(unparsable), "an unparsable name was removed"
        finally:
            for path in (dead, live, unparsable):
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass

    def test_executor_startup_sweeps_and_counts(self, tmp_path):
        from repro.parallel.executor import SlabExecutor
        from repro.parallel.slabs import SEGMENT_PREFIX

        if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
            pytest.skip("/dev/shm not available")
        reaper = subprocess.Popen(["sleep", "0"])
        reaper.wait()
        orphan = f"/dev/shm/{SEGMENT_PREFIX}{reaper.pid}_7"
        with open(orphan, "wb") as handle:
            handle.write(b"x" * 8)
        executor = SlabExecutor(num_workers=2)
        try:
            assert not os.path.exists(orphan)
            assert executor.health.orphan_segments_swept == 1
            # Sweeping is hygiene, not a fault: it must not mark the pool
            # degraded (it sits in the volume-counter exclusion).
            assert not executor.health.degraded
        finally:
            executor.close()


def _process_gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie nobody reaps counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


class TestOrphanWorkers:
    def test_workers_of_a_sigkilled_owner_exit(self):
        """A pool owner killed outright never sends its workers the stop
        sentinel; they notice the reparenting and exit, so nothing keeps the
        owner's stdout open (a caller reading it to EOF would hang)."""
        if not os.path.isdir("/proc"):  # pragma: no cover - non-Linux
            pytest.skip("/proc not available")
        script = (
            "import os, signal\n"
            "from repro.parallel.executor import SlabExecutor\n"
            "pool = SlabExecutor(num_workers=2)\n"
            "print(*(process.pid for process in pool._processes), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        owner = subprocess.Popen(
            [sys.executable, "-c", script],
            env=_cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        workers = [int(pid) for pid in owner.stdout.readline().split()]
        assert owner.wait(timeout=60) == -signal.SIGKILL
        assert len(workers) == 2
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not all(map(_process_gone, workers)):
            time.sleep(0.1)
        survivors = [pid for pid in workers if not _process_gone(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors, "pool workers outlived their SIGKILLed owner"
        assert owner.stdout.read() == b""
        owner.stdout.close()


# ---------------------------------------------------------------------------
# acceptance scale (nightly)
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestAcceptanceScale:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_e5_nodes_sigkill_resume_bit_identical(
        self, tmp_path, monkeypatch, workers
    ):
        """n = 10^5: SIGKILL the run mid-flight, resume, and require the
        bit-identical coloring/tree/ledger — at 1 worker and with the
        multiprocess pool engaged."""
        graph = generators.erdos_renyi(100_000, 16 / 100_000, seed=42)
        palettes = generators.degree_plus_one_palettes(graph, seed=43)
        scaled = dict(num_bins=4, collect_factor=0.25)
        child_env = dict(REPRO_TEST_KILL_AFTER_CHECKPOINTS="2")
        if workers > 1:
            scaled.update(parallel_workers=workers)
            child_env.update(REPRO_PARALLEL_MIN_PAIRS="2")
            monkeypatch.setenv("REPRO_PARALLEL_MIN_PAIRS", "2")
        from repro.parallel import shutdown_executors

        try:
            reference = LowSpaceColorReduce(
                params=LowSpaceParameters.scaled(
                    num_bins=4, low_degree_threshold=6,
                    **({k: v for k, v in scaled.items() if k.startswith("parallel")}),
                )
            ).run(graph, palettes)
            ck = str(tmp_path / f"scale-{workers}.ckpt")
            code = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    (
                        "from repro.core.low_space.color_reduce import LowSpaceColorReduce\n"
                        "from repro.core.low_space.params import LowSpaceParameters\n"
                        "from repro.graph import generators\n"
                        "g = generators.erdos_renyi(100_000, 16 / 100_000, seed=42)\n"
                        "p = generators.degree_plus_one_palettes(g, seed=43)\n"
                        f"extra = dict(parallel_workers={workers}) if {workers} > 1 else dict()\n"
                        "params = LowSpaceParameters.scaled(num_bins=4, low_degree_threshold=6,\n"
                        f"    checkpoint_path={ck!r}, **extra)\n"
                        "LowSpaceColorReduce(params=params).run(g, p)\n"
                    ),
                ],
                env=_cli_env(**child_env),
                capture_output=True,
                timeout=1800,
            )
            assert code.returncode == -signal.SIGKILL, code.stderr.decode()
            assert os.path.exists(ck)
            resumed = LowSpaceColorReduce(
                params=LowSpaceParameters.scaled(
                    num_bins=4, low_degree_threshold=6, resume_path=ck,
                    **({k: v for k, v in scaled.items() if k.startswith("parallel")}),
                )
            ).run(graph, palettes)
        finally:
            shutdown_executors()
        _assert_same_run(resumed, reference)
        assert resumed.durability.resumed
