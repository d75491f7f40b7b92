"""The coloring service: lifecycle, cache, cancellation, HTTP contract.

The acceptance claims of the service layer, each machine-checked here:

* a job's result is **bit-identical** to running the engine directly on
  the same instance (the service adds no nondeterminism);
* a repeated submission is a **cache hit with zero recompute** — the
  ``cache-hit`` audit event appears and ``jobs_computed`` does not move;
* invalid graphs and parameters are **rejected with actionable errors**
  before anything is queued;
* **cancel mid-run** is a controlled stop: a resumable checkpoint in the
  spool, no ``/dev/shm`` residue, and resume completes bit-identically;
* the HTTP layer maps the facade onto the documented status codes.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters
from repro.errors import ConfigurationError
from repro.service import (
    ColoringService,
    InvalidTransitionError,
    JobState,
    ServiceSettings,
    UnknownJobError,
    cache_key,
)
from repro.service.app import make_server

#: A small triangle-plus-tail instance: fast, and valid for low-space.
EDGES = [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4]]


def shm_residue():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm") if name.startswith("repro_")]


@pytest.fixture
def make_service(tmp_path):
    """Factory for isolated service instances; everything shuts down."""
    services = []

    def factory(**overrides):
        overrides.setdefault("spool_dir", str(tmp_path / "spool"))
        overrides.setdefault("workers", 1)
        service = ColoringService(ServiceSettings(**overrides))
        services.append(service)
        return service

    yield factory
    for service in services:
        service.shutdown()


def wait_for(service, job_id, deadline=120.0):
    """Poll until the job leaves queued/running; return the final status."""
    start = time.monotonic()
    while True:
        document = service.status(job_id)
        if document["state"] not in (JobState.QUEUED, JobState.RUNNING):
            return document
        if time.monotonic() - start > deadline:  # pragma: no cover
            raise AssertionError(f"job {job_id} never finished: {document}")
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# Results are bit-identical to driving the engine directly.


def test_edges_submission_matches_direct_run(make_service):
    service = make_service()
    document = service.submit({"algorithm": "low-space", "edges": EDGES, "seed": 7})
    document = wait_for(service, document["job"])
    assert document["state"] == JobState.DONE, document
    result = service.result(document["job"])

    from repro import LowSpaceColorReduce
    from repro.graph.generators import degree_plus_one_palettes
    from repro.graph.io import parse_edge_list

    graph = parse_edge_list([f"{u} {v}" for u, v in EDGES], source="direct")
    palettes = degree_plus_one_palettes(graph, seed=7)
    direct = LowSpaceColorReduce(LowSpaceParameters()).run(graph, palettes)

    assert result["coloring"] == [
        [node, color] for node, color in sorted(direct.coloring.items())
    ]
    assert result["rounds"] == direct.rounds
    assert result["ledger"] == {
        label: list(pair) for label, pair in direct.ledger.snapshot().items()
    }


def test_workload_submission_matches_direct_run(make_service):
    service = make_service()
    body = {"workload": "dense-random-lists", "nodes": 130, "seed": 3}
    document = wait_for(service, service.submit(body)["job"])
    assert document["state"] == JobState.DONE, document
    result = service.result(document["job"])

    from repro import ColorReduce
    from repro.experiments.workloads import build_workload

    graph, palettes, _ = build_workload("dense-random-lists", 130, seed=3)
    direct = ColorReduce(ColorReduceParameters()).run(graph, palettes)
    assert result["coloring"] == [
        [node, color] for node, color in sorted(direct.coloring.items())
    ]
    assert result["total_bad_nodes"] == direct.total_bad_nodes


# ---------------------------------------------------------------------------
# Content-addressed cache: compute once, serve repeats with zero recompute.


def test_repeat_submission_is_cache_hit_with_zero_recompute(make_service):
    service = make_service()
    body = {"algorithm": "low-space", "edges": EDGES, "seed": 7}
    first = wait_for(service, service.submit(body)["job"])
    assert service.telemetry.jobs_computed == 1

    second = service.submit(body)
    # Served at submit time: already done, no queueing, no compute.
    assert second["state"] == JobState.DONE
    assert second["cache"]["hit"] is True
    assert [e["event"] for e in second["audit"]] == ["submitted", "cache-hit"]
    assert service.telemetry.jobs_computed == 1  # the zero-recompute marker
    assert service.telemetry.cache_hits == 1
    assert service.result(second["job"]) == service.result(first["job"])


def test_repeat_submission_with_other_worker_count_is_cache_hit(make_service):
    # Outputs are bit-identical for every worker count, so the worker
    # count is not part of the cache key; it stays a valid override.
    service = make_service()
    body = {"algorithm": "low-space", "edges": EDGES, "seed": 7}
    first = wait_for(service, service.submit(body)["job"])
    assert service.telemetry.jobs_computed == 1

    second = service.submit(dict(body, params={"parallel_workers": 2}))
    assert second["state"] == JobState.DONE
    assert second["cache"]["hit"] is True
    assert service.telemetry.jobs_computed == 1
    assert service.result(second["job"]) == service.result(first["job"])


def test_cache_survives_service_restart(make_service, tmp_path):
    spool = str(tmp_path / "persistent-spool")
    body = {"algorithm": "low-space", "edges": EDGES, "seed": 9}
    first = make_service(spool_dir=spool)
    wait_for(first, first.submit(body)["job"])
    assert first.telemetry.jobs_computed == 1

    second = make_service(spool_dir=spool)  # fresh instance, same spool
    document = second.submit(body)
    assert document["state"] == JobState.DONE
    assert document["cache"]["hit"] is True
    assert second.telemetry.jobs_computed == 0
    assert second.cache.stats()["disk_hits"] == 1


def test_memory_only_cache_forgets_across_restarts(make_service, tmp_path):
    spool = str(tmp_path / "volatile-spool")
    body = {"algorithm": "low-space", "edges": EDGES, "seed": 9}
    first = make_service(spool_dir=spool, persist_cache=False)
    wait_for(first, first.submit(body)["job"])

    second = make_service(spool_dir=spool, persist_cache=False)
    document = second.submit(body)
    assert document["state"] == JobState.QUEUED  # recompute needed
    wait_for(second, document["job"])


def test_cache_key_changes_with_every_input_dimension():
    from repro.graph.generators import degree_plus_one_palettes
    from repro.graph.io import parse_edge_list

    graph = parse_edge_list(["0 1", "1 2", "2 0"], source="t")
    palettes_a = degree_plus_one_palettes(graph, seed=1)
    palettes_b = degree_plus_one_palettes(graph, seed=2)
    base = cache_key("low-space", graph, palettes_a, LowSpaceParameters())
    assert cache_key("low-space", graph, palettes_b, LowSpaceParameters()) != base
    assert (
        cache_key("congested-clique", graph, palettes_a, LowSpaceParameters()) != base
    )
    assert (
        cache_key("low-space", graph, palettes_a, LowSpaceParameters(epsilon=0.4))
        != base
    )
    other = parse_edge_list(["0 1", "1 2"], source="t")
    assert cache_key("low-space", other, palettes_a, LowSpaceParameters()) != base


def test_cache_key_ignores_durability_knobs(tmp_path):
    from repro.graph.generators import degree_plus_one_palettes
    from repro.graph.io import parse_edge_list

    graph = parse_edge_list(["0 1", "1 2", "2 0"], source="t")
    palettes = degree_plus_one_palettes(graph, seed=1)
    plain = cache_key("low-space", graph, palettes, LowSpaceParameters())
    durable = cache_key(
        "low-space",
        graph,
        palettes,
        LowSpaceParameters(
            checkpoint_path=str(tmp_path / "x.ckpt"), memory_budget_mb=512.0
        ),
    )
    assert plain == durable  # same result under different budgets


# ---------------------------------------------------------------------------
# Validation: rejected before anything is queued, with actionable errors.


@pytest.mark.parametrize(
    ("body", "fragment"),
    [
        ("not a dict", "JSON object"),
        ({"bogus": 1, "edges": EDGES}, "unknown request field"),
        ({}, "exactly one instance source"),
        ({"edges": EDGES, "workload": "near-regular"}, "exactly one instance source"),
        ({"edges": [[0, 0]]}, "self-loop"),
        ({"edges": [[0, 1], [1]]}, "edges[1]"),
        ({"edges": []}, "no edges found"),
        ({"edge_list": "1 2\nx y\n"}, "edge_list:2"),
        ({"edges": EDGES, "nodes": 50}, "'nodes' conflicts"),
        ({"workload": "nope"}, "unknown workload"),
        ({"workload": "near-regular", "nodes": -1}, "'nodes' must be a positive"),
        ({"edges": EDGES, "seed": "x"}, "'seed' must be an integer"),
        ({"edges": EDGES, "algorithm": "quantum"}, "unknown algorithm"),
        ({"edges": EDGES, "params": 7}, "'params' must be a JSON object"),
        ({"edges": EDGES, "params": {"nope": 1}}, "unknown parameter"),
        (
            {"edges": EDGES, "params": {"checkpoint_path": "/tmp/x"}},
            "service-owned",
        ),
        (
            {"edges": EDGES, "params": {"selection_strategy": "psychic"}},
            "unknown selection_strategy",
        ),
        (
            {"edges": EDGES, "params": {"independence": 4.0}},
            "'independence' must be an integer",
        ),
        (
            {"edges": EDGES, "params": {"selection_max_candidates": "10"}},
            "'selection_max_candidates' must be an integer",
        ),
        (
            {"edges": EDGES, "params": {"parallel_workers": 1.5}},
            "'parallel_workers' must be an integer",
        ),
        (
            {"edges": EDGES, "params": {"selection_batch_size": 2.5}},
            "'selection_batch_size' must be an integer",
        ),
        (
            {"edges": EDGES, "params": {"parallel_workers": True}},
            "'parallel_workers' must be an integer",
        ),
        (
            {"edges": EDGES, "params": {"num_bins_override": 3.0}},
            "'num_bins_override' must be an integer or null",
        ),
        (
            {"edges": EDGES, "algorithm": "low-space", "params": {"epsilon": "0.5"}},
            "'epsilon' must be a number",
        ),
        # a flag retired from the engine is an unknown name, not a no-op
        ({"edges": EDGES, "params": {"graph_use_batch": False}}, "unknown parameter"),
        (
            {"edges": EDGES, "algorithm": "low-space", "params": {"max_recursion_depth": 0}},
            "max_recursion_depth must be positive",
        ),
        # the pool's retired tuning knobs are unknown names too
        ({"edges": EDGES, "params": {"parallel_transport": "shm"}}, "unknown parameter"),
        (
            {"edges": EDGES, "algorithm": "low-space", "params": {"parallel_shard_timeout": 30.0}},
            "unknown parameter",
        ),
        # the machine-level classification's slack went with it
        (
            {"edges": EDGES, "algorithm": "low-space", "params": {"palette_slack_exponent": 0.7}},
            "unknown parameter",
        ),
    ],
)
def test_invalid_submissions_rejected(make_service, body, fragment):
    service = make_service()
    with pytest.raises(ConfigurationError) as excinfo:
        service.submit(body)
    assert fragment in str(excinfo.value)
    assert service.telemetry.jobs_rejected == 1
    assert service.store.job_ids() == []  # nothing queued for a rejected body


def test_congested_clique_palette_precheck_suggests_low_space(make_service):
    service = make_service()
    # A path: deg+1 palettes give the endpoints 2 colors, but Delta = 2.
    with pytest.raises(ConfigurationError) as excinfo:
        service.submit({"edges": [[0, 1], [1, 2]]})
    assert "low-space" in str(excinfo.value)
    assert "Delta" in str(excinfo.value)


def test_request_limits_enforced(make_service):
    service = make_service(max_nodes=3)
    with pytest.raises(ConfigurationError) as excinfo:
        service.submit({"algorithm": "low-space", "edges": EDGES})
    assert "max_nodes" in str(excinfo.value)


def test_params_reach_the_engine(make_service):
    service = make_service()
    body = {
        "algorithm": "low-space",
        "edges": EDGES,
        "params": {"epsilon": 0.4},
    }
    document = wait_for(service, service.submit(body)["job"])
    assert document["state"] == JobState.DONE
    # A different epsilon is a different cache key than the default.
    other = service.submit({"algorithm": "low-space", "edges": EDGES})
    assert other["cache"]["key"] != document["cache"]["key"]


# ---------------------------------------------------------------------------
# Cancellation and resume.


def test_cancel_mid_run_leaves_resumable_checkpoint(make_service, tmp_path):
    service = make_service()
    body = {"workload": "dense-random-lists", "nodes": 150, "seed": 12}
    # The deterministic hook: the supervisor cancels the job itself after
    # two completed subtrees — no timing races.
    document = service.submit(body, cancel_after_subtrees=2)
    document = wait_for(service, document["job"])
    assert document["state"] == JobState.CANCELLED
    assert document["resumable"] is True
    assert document["progress"]["subtrees_completed"] >= 2
    checkpoint = os.path.join(
        service.settings.job_dir(document["job"]), "run.ckpt"
    )
    assert os.path.exists(checkpoint)
    assert shm_residue() == []
    assert service.telemetry.jobs_cancelled == 1

    resumed = wait_for(service, service.resume(document["job"])["job"])
    assert resumed["state"] == JobState.DONE
    assert resumed["attempts"] == 2
    result = service.result(document["job"])
    # The frontier consolidates finished children under their ancestors,
    # so >= 1 restored entry is the guarantee, not one per completed tick.
    assert result["durability"]["subtrees_restored"] >= 1
    assert result["durability"]["nodes_restored"] > 0
    assert service.telemetry.jobs_resumed == 1
    events = [event["event"] for event in resumed["audit"]]
    assert events == [
        "submitted",
        "queued",
        "started",
        "cancelled",
        "resume-requested",
        "started",
        "completed",
    ]

    # Bit-identity: an uninterrupted run of the same instance agrees.
    fresh = make_service(spool_dir=str(tmp_path / "fresh-spool"))
    fresh_doc = wait_for(fresh, fresh.submit(body)["job"])
    assert fresh.result(fresh_doc["job"])["coloring"] == result["coloring"]
    assert fresh.result(fresh_doc["job"])["ledger"] == result["ledger"]
    # A finished job leaves neither of its checkpoint's slot files behind.
    for service_, job in ((service, document["job"]), (fresh, fresh_doc["job"])):
        job_dir = service_.settings.job_dir(job)
        assert [n for n in os.listdir(job_dir) if n.startswith("run.ckpt")] == []


def test_cancel_queued_job_and_resume(make_service):
    service = make_service()
    service.executor.shutdown()  # nothing dequeues: jobs stay queued
    document = service.submit({"algorithm": "low-space", "edges": EDGES})
    assert document["state"] == JobState.QUEUED
    cancelled = service.cancel(document["job"])
    assert cancelled["state"] == JobState.CANCELLED
    assert cancelled["resumable"] is False  # it never ran; nothing to resume from


def test_lifecycle_violations_are_conflict_errors(make_service):
    service = make_service()
    document = wait_for(
        service, service.submit({"algorithm": "low-space", "edges": EDGES})["job"]
    )
    job_id = document["job"]
    with pytest.raises(InvalidTransitionError):
        service.cancel(job_id)  # cancelling a done job
    with pytest.raises(InvalidTransitionError):
        service.resume(job_id)  # resuming a done job
    with pytest.raises(UnknownJobError):
        service.status("job-999999")


def test_result_of_unfinished_job_is_conflict(make_service):
    service = make_service()
    service.executor.shutdown()
    document = service.submit({"algorithm": "low-space", "edges": EDGES})
    with pytest.raises(InvalidTransitionError) as excinfo:
        service.result(document["job"])
    assert "queued" in str(excinfo.value)


# ---------------------------------------------------------------------------
# The HTTP layer.


@pytest.fixture
def http_service(make_service):
    service = make_service(port=0)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield service, base
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def call(base, method, path, body=None):
    request = urllib.request.Request(f"{base}{path}", method=method)
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, data=data, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_submit_poll_result_flow(http_service):
    service, base = http_service
    status, health = call(base, "GET", "/v1/healthz")
    assert status == 200 and health["status"] == "ok"

    body = {"algorithm": "low-space", "edges": EDGES, "seed": 7}
    status, document = call(base, "POST", "/v1/jobs", body)
    assert status == 202
    job_id = document["job"]
    document = wait_for(service, job_id)
    assert document["state"] == JobState.DONE

    status, result = call(base, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200
    assert result["colors_used"] >= 3  # the triangle forces three colors
    assert result["cache_key"] == document["cache"]["key"]

    # Repeat over HTTP: instant done + cache hit, still one compute.
    status, repeat = call(base, "POST", "/v1/jobs", body)
    assert (status, repeat["state"], repeat["cache"]["hit"]) == (202, "done", True)
    status, health = call(base, "GET", "/v1/healthz")
    assert health["telemetry"]["jobs_computed"] == 1

    status, index = call(base, "GET", "/v1/jobs")
    assert status == 200
    assert [entry["job"] for entry in index["jobs"]] == sorted(
        service.store.job_ids()
    )


def test_http_events_stream_ends_at_terminal_state(http_service):
    service, base = http_service
    _, document = call(
        base, "POST", "/v1/jobs", {"algorithm": "low-space", "edges": EDGES}
    )
    job_id = document["job"]
    with urllib.request.urlopen(f"{base}/v1/jobs/{job_id}/events", timeout=60) as resp:
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        frames = [json.loads(line) for line in resp.read().decode().splitlines()]
    assert frames, "the stream emitted no frames"
    assert frames[-1]["state"] == JobState.DONE
    assert all(frame["job"] == job_id for frame in frames)


def test_http_error_statuses(http_service):
    _, base = http_service
    assert call(base, "GET", "/v1/jobs/job-999999")[0] == 404
    assert call(base, "GET", "/v1/nope")[0] == 404
    assert call(base, "POST", "/v1/jobs", {"bogus": 1})[0] == 400
    assert call(base, "POST", "/v1/jobs")[0] == 400  # empty body
    assert call(base, "GET", "/v1/jobs/job-000001/cancel")[0] == 405

    status, document = call(
        base, "POST", "/v1/jobs", {"algorithm": "low-space", "edges": EDGES}
    )
    wait_for(http_service[0], document["job"])
    status, error = call(base, "POST", f"/v1/jobs/{document['job']}/cancel")
    assert status == 409
    assert "queued or running" in error["error"]


def test_http_error_bodies_are_actionable(http_service):
    _, base = http_service
    status, error = call(base, "POST", "/v1/jobs", {"edges": [[0, 0]]})
    assert status == 400
    assert "self-loop" in error["error"]
    assert "edges:1" in error["error"]  # same source:lineno contract as the CLI


# ---------------------------------------------------------------------------
# Shutdown hygiene.


def test_shutdown_leaves_no_shm_residue(tmp_path):
    service = ColoringService(
        ServiceSettings(spool_dir=str(tmp_path / "spool"), workers=2)
    )
    document = service.submit({"algorithm": "low-space", "edges": EDGES, "seed": 3})
    wait_for(service, document["job"])
    service.shutdown()
    assert shm_residue() == []


def test_typed_overrides_accepted():
    """A float field takes an int, an Optional field takes null."""
    from repro.service.contracts import build_params

    params = build_params(
        "congested-clique",
        {"collect_factor": 5, "num_bins_override": None, "level_use_batch": False},
    )
    assert params.collect_factor == 5
    assert params.num_bins_override is None
    assert params.level_use_batch is False
    assert build_params("low-space", {"epsilon": 1}).epsilon == 1
