"""Shared helpers for the benchmark harness.

Each ``bench_e*.py`` file regenerates one experiment from DESIGN.md's index
(E1–E9).  The benchmarks run each experiment exactly once under
``pytest-benchmark`` (the quantity of interest is the experiment's *output
tables*, not the harness's wall-clock time), print the tables so they land in
``bench_output.txt``, and assert the experiment's headline claim.

Select the sweep size with ``--experiment-scale={smoke,default,full}``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The bench_p* files time the array kernels against the scalar references
# kept in tests/scalar_oracle.py.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--experiment-scale",
        action="store",
        default="default",
        choices=("smoke", "default", "full"),
        help="sweep size used by the experiment benchmarks",
    )


@pytest.fixture(scope="session")
def experiment_scale(request: pytest.FixtureRequest) -> str:
    return request.config.getoption("--experiment-scale")


def run_once(benchmark, runner, scale: str):
    """Run an experiment exactly once under pytest-benchmark and print it."""
    result = benchmark.pedantic(runner, args=(scale,), rounds=1, iterations=1)
    print()
    print(result.render())
    return result

