"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They check that inputs are a function of the seed, that every metric
named in ``BENCHMARK.json`` is printed with its unit, that event counts
reconcile, that the service and the single-threaded engine agree on the
same seed, that calibration slices are kept out of program time, that
tracing wrappers come off cleanly, and that the benchmark refuses to
run without the program.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from repro.engines.stores import PartialMatchStore  # noqa: E402
from repro.service.ingest import Ingestor  # noqa: E402

from repro.events import Event  # noqa: E402

from layers import Recorder  # noqa: E402
from measure import SEGMENT_S  # noqa: E402
from workloads import WORKLOADS, closed_loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 1):
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    first = workload.generate(7)["digest"]
    assert workload.generate(7)["digest"] == first
    assert workload.generate(8)["digest"] != first


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(name, trace):
    done = _run(name, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if not trace:
        for metric in section:
            assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("name", ["stock-shared", "keyed", "keyed-service"])
def test_counts_reconcile(name):
    """Offered = processed + shed + late-dropped."""
    workload = WORKLOADS[name]
    data = workload.generate(4)
    data["events"] = data["events"][:3000]
    setup = workload.setup(data)
    try:
        result = workload.run_pass(data, setup)
    finally:
        workload.close(setup)
    metrics = result.metrics
    assert result.events == len(data["events"])
    assert result.events == (
        metrics.events_processed + result.lost
    )
    assert result.lost == 0


def test_service_matches_the_single_threaded_engine():
    data = WORKLOADS["keyed"].generate(5)
    data["events"] = data["events"][:5000]
    digests = []
    for name in ("keyed", "keyed-service"):
        workload = WORKLOADS[name]
        setup = workload.setup(data)
        try:
            digests.append(workload.run_pass(data, setup).digest)
        finally:
            workload.close(setup)
    assert digests[0] == digests[1]


def test_calibration_slices_are_not_program_time():
    """Closed-loop passes run calibration slices between segments; the
    raw wall counts only the calls, and per-call scaled times add up to
    the scaled wall."""

    class Sleeper:
        def process(self, item):
            time.sleep(0.002)
            return []

        def finalize(self):
            return []

    items = [Event("A", float(i), {}) for i in range(150)]
    started = time.perf_counter()
    wall, raw_wall, outputs, latencies, calls = closed_loop(Sleeper(), items)
    elapsed = time.perf_counter() - started
    assert raw_wall >= 150 * 0.002 > 2 * SEGMENT_S
    assert elapsed > raw_wall
    assert sum(calls) == pytest.approx(wall, rel=0.1)
    assert outputs == [] and len(latencies) == 0


def test_recorder_self_time_and_clean_uninstall():
    rec = Recorder("selftest")

    def inner():
        time.sleep(0.02)

    wrapped_inner = rec._wrap(inner, "inner", None)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    rec._wrap(outer, "outer", None)()
    aggs = rec.aggregates()
    assert aggs["outer"].calls == aggs["inner"].calls == 1
    assert aggs["outer"].busy >= aggs["inner"].busy
    assert aggs["outer"].self_time == pytest.approx(
        aggs["outer"].busy - aggs["inner"].busy
    )

    original = PartialMatchStore.__dict__["insert"]
    rec.install()
    assert PartialMatchStore.__dict__["insert"].__wrapped__ is original
    rec.uninstall()
    assert PartialMatchStore.__dict__["insert"] is original


def test_recorder_times_the_await_of_a_blocking_put():
    rec = Recorder("selftest")

    async def put(gate):
        await gate.wait()

    wrapped_put = rec._wrap(put, "put", None)

    async def producer():
        gate = asyncio.Event()
        asyncio.get_running_loop().call_later(0.05, gate.set)
        await wrapped_put(gate)

    asyncio.run(producer())
    agg = rec.aggregates()["put"]
    assert agg.calls == 1
    assert agg.self_time >= 0.04

    rec.install()
    try:
        assert inspect.iscoroutinefunction(Ingestor.put)
    finally:
        rec.uninstall()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = _run("keyed", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
