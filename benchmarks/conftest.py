"""Shared helpers for the paper reproductions.

Every module here regenerates one table or figure of the paper (Tables
1-2, Figures 5-7) or one ablation of a design choice, on the simulated
engine, and asserts the qualitative claims: who wins, by roughly what
factor, where crossovers fall.  Nothing here measures this
implementation's speed -- that is ``bench/run.py``'s job.  Two knobs
scale the reproductions:

* ``REPRO_EXP1_TUPLES``  -- Experiment 1 stream length (default 5000,
  the paper's size);
* ``REPRO_EXP2_HOURS``   -- Experiment 2 horizon (default 2.0; the paper
  ran 18 h -- set ``REPRO_EXP2_HOURS=18`` for full scale).

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
rendered figures inline.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    # Assertion-only tests legitimately leave the auto-injected benchmark
    # fixture untouched; the plugin's nag about it is noise here.
    config.addinivalue_line(
        "filterwarnings", "ignore:Benchmark fixture was not used"
    )


@pytest.fixture(autouse=True)
def _benchmark_everything(benchmark):
    """Opt every test in benchmarks/ into pytest-benchmark collection.

    The harness mixes timed runs with shape/conformance assertions on the
    same artifacts; ``--benchmark-only`` must execute both, so every test
    transitively uses the benchmark fixture.
    """
    yield


def run_once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark.

    The experiments are deterministic simulations -- repeating them only
    repeats identical work -- so a single round is both honest and fast.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def report():
    """Collect printable lines and emit them at teardown (visible via -s)."""
    lines: list[str] = []
    yield lines
    if lines:
        print()
        for line in lines:
            print(line)
