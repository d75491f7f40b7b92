"""Docs sanity: markdown links resolve, the quickstart CLI and the examples run.

The CI docs job runs exactly this module (plus a bare ``--help`` probe),
so a broken README link or an import error behind ``python -m repro``
fails the build rather than the next reader.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "PAPER.md",
    REPO_ROOT / "docs" / "ARCHITECTURE.md",
    REPO_ROOT / "docs" / "SERVICE.md",
]

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def _relative_links(path: Path):
    """All relative (non-http, non-anchor) markdown link targets in a file."""
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_doc_exists(doc):
    assert doc.is_file(), f"{doc} is missing"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    broken = [
        target
        for target in _relative_links(doc)
        if target and not (doc.parent / target).exists()
    ]
    assert not broken, f"{doc.name} has broken relative links: {broken}"


def test_readme_names_the_verify_command():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "python -m pytest -x -q" in readme  # the tier-1 command
    assert "pip install -e ." in readme


#: ``Graph.<attr>`` / ``PaletteAssignment.<attr>`` as the docs name them.
_CLASS_ATTRIBUTE = re.compile(r"\b(Graph|PaletteAssignment)\.(\w+)")


@pytest.mark.parametrize(
    "doc",
    [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md"],
    ids=lambda p: p.name,
)
def test_docs_name_existing_graph_and_palette_attributes(doc):
    from repro.graph import Graph, PaletteAssignment

    classes = {"Graph": Graph, "PaletteAssignment": PaletteAssignment}
    named = set(_CLASS_ATTRIBUTE.findall(doc.read_text(encoding="utf-8")))
    assert named, f"{doc.name} names no Graph / PaletteAssignment attribute"
    missing = sorted(
        f"{owner}.{attribute}"
        for owner, attribute in named
        if not hasattr(classes[owner], attribute)
    )
    assert not missing, f"{doc.name} names attributes that do not exist: {missing}"


def _run_python(*args, timeout=120):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=timeout,
    )


def _run_cli(*args):
    return _run_python("-m", "repro", *args)


def test_cli_help_exits_zero():
    result = _run_cli("--help")
    assert result.returncode == 0, result.stderr
    assert "repro" in result.stdout


def test_cli_list_workloads_exits_zero():
    result = _run_cli("list-workloads")
    assert result.returncode == 0, result.stderr
    assert "dense-random" in result.stdout


EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(example):
    """Every example runs to exit 0, so a public-API change cannot break
    one silently."""
    result = _run_python(str(example), timeout=300)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# SERVICE.md drift checks: the documented contract must exist in code.

_ENDPOINT_HEADER = re.compile(r"### `(GET|POST) (/v1/[^`]+)`")


def _documented_endpoints():
    text = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
    return set(_ENDPOINT_HEADER.findall(text))


def test_service_doc_documents_every_route_and_no_ghosts():
    """Every documented endpoint routes; every route is documented."""
    from repro.service.app import ROUTES

    documented = _documented_endpoints()
    assert documented, "SERVICE.md documents no endpoints"
    # Documented → routed: substitute the doc's <id> placeholder and match.
    for method, path in documented:
        concrete = path.replace("<id>", "job-000001")
        assert any(
            route_method == method and pattern.match(concrete)
            for route_method, pattern, _ in ROUTES
        ), f"SERVICE.md documents {method} {path} but no route matches it"
    # Routed → documented: same cardinality means nothing undocumented.
    assert len(documented) == len(ROUTES), (
        f"SERVICE.md documents {len(documented)} endpoints but the route "
        f"table has {len(ROUTES)}; document the new route(s)"
    )


def test_service_doc_flags_match_serve_parser():
    """Every flag in the deployment-knobs table is a real serve flag, and
    every serve flag is in the table."""
    text = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
    knobs_section = text.split("## Deployment knobs", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)`", knobs_section))
    help_text = _run_cli("serve", "--help").stdout
    actual = set(re.findall(r"(--[a-z-]+)", help_text)) - {"--help"}
    assert documented == actual, (
        f"SERVICE.md deployment knobs drifted from `repro serve --help`: "
        f"only documented: {sorted(documented - actual)}, "
        f"only in code: {sorted(actual - documented)}"
    )


def test_service_doc_names_real_modules():
    """The layering diagram in SERVICE.md lists files that exist."""
    text = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
    for module in re.findall(r"^(repro/service/\w+\.py)", text, flags=re.MULTILINE):
        assert (REPO_ROOT / "src" / module).is_file(), f"SERVICE.md names missing {module}"


def test_service_doc_job_states_match_code():
    from repro.service.jobs import JobState

    text = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
    for state in JobState.ALL:
        assert f"`{state}`" in text, f"SERVICE.md does not document state {state!r}"


def test_readme_service_quickstart_flow(tmp_path):
    """Smoke-run the README's submit → poll → fetch quickstart for real."""
    import json
    import signal
    import urllib.request

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--spool-dir", "spool", "--no-cache-persist"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    try:
        banner = proc.stdout.readline().strip()
        assert "repro service listening on http://" in banner, banner
        port = int(banner.rsplit(":", 1)[1])
        base = f"http://127.0.0.1:{port}"
        body = json.dumps(
            {"algorithm": "low-space", "edges": [[0, 1], [1, 2], [2, 0]], "seed": 7}
        ).encode()
        request = urllib.request.Request(f"{base}/v1/jobs", data=body, method="POST")
        with urllib.request.urlopen(request, timeout=30) as response:
            job_id = json.loads(response.read())["job"]
        deadline = 60.0
        import time

        start = time.monotonic()
        while True:
            with urllib.request.urlopen(f"{base}/v1/jobs/{job_id}", timeout=30) as response:
                state = json.loads(response.read())["state"]
            if state not in ("queued", "running"):
                break
            assert time.monotonic() - start < deadline, "quickstart job never finished"
            time.sleep(0.05)
        assert state == "done", state
        with urllib.request.urlopen(f"{base}/v1/jobs/{job_id}/result", timeout=30) as response:
            result = json.loads(response.read())
        assert result["colors_used"] >= 3  # a triangle needs three colors
    finally:
        proc.send_signal(signal.SIGTERM)
        returncode = proc.wait(timeout=60)
        tail = proc.stdout.read()
    assert returncode == 0, f"serve did not shut down cleanly: {tail}"
    assert "repro service stopped cleanly" in tail
