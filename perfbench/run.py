"""The repository benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload keyed --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no observation in
the program; ``--trace 1`` is the separate traced run that gives the
per-layer metrics and the tracing overhead, and writes a trace file
under ``perfbench/results/`` that ``python -m repro.observe.report`` and
Perfetto (the ``.perfetto.json`` twin) can open.  Human-readable detail
(sample counts, tail percentile used, load validity, ``nproc``, Python
version, input digest) goes to standard output first; the last line is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.

Times are reported at a reference host speed.  On a host whose cores
are shared, the same code runs up to ~1.8x faster or slower from one
second to the next, so :class:`measure.HostSpeed` interleaves a fixed
calibration loop with the timed work and scales each segment of it by
the loop's speed around it.  The unscaled figures (``raw_*``) are
printed too.

The program is imported from ``src/`` of the checkout holding this
directory; without it the benchmark exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

# The program (``src/``) is importable only after _import_program();
# these two modules do not import it.
from layers import Recorder
from measure import (
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    spearman,
    tail,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: keyed-service phase A is valid only if, from its first tenth to its
#: last, generator lateness grew by less than this (seconds) ...
MAX_LATENESS_GROWTH = 0.1
#: ... and the ingest queue by less than one flush frame (events).
MAX_DEPTH_GROWTH = 256


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(
            f"perfbench: cannot import the program from {ROOT / 'src'}: "
            f"{error}",
            file=sys.stderr,
        )
        return False
    return True


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _tenths(values):
    """Median of the first and of the last tenth of ``values``."""
    k = max(1, len(values) // 10)
    return median(values[:k]), median(values[-k:])


def _load_validity(phase) -> dict:
    lateness = phase.extra["lateness"]
    depth = phase.extra["queue_depth"] or [0]
    late_start, late_end = _tenths(lateness)
    depth_start, depth_end = _tenths(depth)
    q, lag = tail(lateness, cap=99.0)
    return {
        "valid": (
            late_end - late_start < MAX_LATENESS_GROWTH
            and depth_end - depth_start < MAX_DEPTH_GROWTH
        ),
        "lateness_start_ms": _ms(late_start),
        "lateness_end_ms": _ms(late_end),
        "queue_depth_start": depth_start,
        "queue_depth_end": depth_end,
        "gen_lag_percentile": q,
        "gen_lag_ms": _ms(lag),
        "gen_lag_samples": len(lateness),
    }


def _check(passes, reference) -> int:
    """Events of passes whose net matches differ from the reference
    (a sorted fingerprint list)."""
    from workloads import fingerprint_digest

    digest = fingerprint_digest(reference)
    return sum(p.events for p in passes if p.digest != digest)


def _quiet():
    """Collect garbage and freeze the survivors (inputs, set-up), so
    collections inside set-up or a pass traverse only what it allocated."""
    gc.collect()
    gc.freeze()


def _corrections(passes) -> dict:
    """Correction call time by stream position (disorder workload)."""
    rows = [row for p in passes for row in p.extra.get("corrections", ())]
    if not rows:
        return {}
    first = [dt for pos, dt in rows if pos <= 0.25]
    last = [dt for pos, dt in rows if pos > 0.75]
    return {
        "correction_p50_ms": _metric(_ms(median([dt for _, dt in rows])), "ms"),
        "correction_first_quarter_p50_ms": _metric(
            _ms(median(first)) if first else 0.0, "ms"
        ),
        "correction_last_quarter_p50_ms": _metric(
            _ms(median(last)) if last else 0.0, "ms"
        ),
        "correction_samples": _metric(len(rows), "count"),
    }


def timed_run(workload, data, seconds: float) -> tuple:
    """Untraced run: every end-to-end metric."""
    from workloads import setup_median

    _quiet()
    setup, setup_times = setup_median(workload, data)
    detail: dict = {"setup": setup_times}
    try:
        _quiet()
        # Peak RSS is measured over the timed region only: set-up and
        # input generation may not mask it.
        rss_base = reset_peak_rss()
        started = time.perf_counter()
        phase_a = None
        if workload.name == "keyed-service":
            phase_a = workload.open_loop(data, setup, seconds / 2)
        passes = []
        while not passes or time.perf_counter() - started < seconds:
            gc.collect()
            passes.append(workload.run_pass(data, setup))
        rss_peak = peak_rss_mb()
    finally:
        workload.close(setup)

    reference = workload.reference(data, setup)
    checked = passes + ([phase_a] if phase_a else [])
    if phase_a is not None:
        # Phase A may cover only a prefix of the stream.
        reference_a = (
            reference
            if phase_a.events == len(data["events"])
            else workload.reference(
                {**data, "events": data["events"][: phase_a.events]}, setup
            )
        )
        failed = _check(passes, reference) + _check([phase_a], reference_a)
    else:
        failed = _check(passes, reference)
    attempted = sum(p.events for p in checked)
    failed += sum(p.lost for p in checked)

    # Latency per sample set: the open-loop phase, or each closed-loop
    # pass; the median over passes keeps a minority of passes run in a
    # slow host phase from setting the tail.
    sample_sets = [phase_a.latencies] if phase_a else [p.latencies for p in passes]
    tails = [tail(values, cap=99.0) for values in sample_sets]
    p50 = median([median(values) for values in sample_sets])
    p_tail = median([value for _, value in tails])
    q = min(q for q, _ in tails)
    q_top, p_top = tail(sample_sets[0])
    throughput = median([p.events / p.wall for p in passes])
    raw_throughput = median([p.events / p.raw_wall for p in passes])
    metrics = {
        "throughput_eps": _metric(throughput, "1/s"),
        "detect_p50_ms": _metric(_ms(p50), "ms"),
        "rss_peak_mb": _metric(rss_peak, "MiB"),
        "setup_s": _metric(setup_times["setup_s"], "s"),
    }
    detail.update(
        passes=len(passes),
        pass_walls_s=[p.wall for p in passes],
        raw_pass_walls_s=[p.raw_wall for p in passes],
        latency_samples=[len(values) for values in sample_sets],
        latency_quantiles_ms=[
            {q: _ms(percentile(values, q)) for q in (50, 90, 95, 99)}
            for values in sample_sets
        ],
        detect_tail_percentile=q,
        detect_top_percentile=q_top,
        detect_top_ms=_ms(p_top),
    )
    # End-to-end figures printed with the metrics but kept out of the
    # bounded result: exact counts that move with the seed's data, the
    # latency tail (data bursts and host phases move it by ~45% from
    # seed to seed), the RSS growth over the timed region (a few MiB,
    # moved by whole allocator arenas), workload-specific figures, and
    # the error rate, which is zero on a healthy run and is reported as
    # ``failed``.
    also = {
        "detect_p99_ms": _metric(_ms(p_tail), "ms"),
        "matches": _metric(passes[0].matches, "count"),
        "peak_state": _metric(passes[0].metrics.peak_memory_units, "count"),
        "rss_growth_mb": _metric(rss_peak - rss_base, "MiB"),
        "raw_throughput_eps": _metric(raw_throughput, "1/s"),
        **_corrections(passes),
    }
    correct = failed == 0
    if phase_a is not None:
        validity = _load_validity(phase_a)
        detail["phase_a"] = dict(
            validity,
            rate_eps=workload.RATE,
            events=phase_a.events,
            wall_s=phase_a.wall,
        )
        also["gen_lag_p99_ms"] = _metric(validity["gen_lag_ms"], "ms")
        if not validity["valid"]:
            # Backlog grew: the latency numbers do not describe the rate.
            correct = False
            failed += phase_a.events
            del metrics["detect_p50_ms"], also["detect_p99_ms"]
    also["error_rate"] = _metric(failed / attempted, "ratio")
    detail["also"] = also
    return correct, attempted, failed, metrics, detail


def traced_run(workload, data, seconds: float, seed: int) -> tuple:
    """Traced run: per-layer metrics and the tracing overhead."""
    from repro.observe import Tracer, write_chrome_trace, write_json
    from workloads import kernels, setup_median

    run_id = f"{workload.name}-{seed}"
    rec = Recorder(run_id)
    _quiet()
    setup, setup_times = setup_median(workload, data, rec)
    executor = None
    untraced, traced = [], []
    try:
        _quiet()
        # Untraced passes first, for the overhead baseline; then the
        # wrappers go in before any traced engine or pool is built.
        started = time.perf_counter()
        while not untraced or time.perf_counter() - started < seconds / 2:
            gc.collect()
            with rec.span("pass", traced=False):
                untraced.append(workload.run_pass(data, setup))
        rec.install()
        try:
            traced_setup = setup
            if workload.name == "keyed-service":
                executor = workload.traced_executor(setup)
                traced_setup = dataclasses.replace(setup, executor=executor)
            started = time.perf_counter()
            while not traced or time.perf_counter() - started < seconds / 2:
                tracer = Tracer(run_id)
                gc.collect()
                with rec.span("pass", traced=True):
                    traced.append(workload.run_pass(data, traced_setup, tracer))
        finally:
            rec.uninstall()
    finally:
        if executor is not None:
            executor.close()
        workload.close(setup)

    reference = workload.reference(data, setup)
    failed = _check(untraced + traced, reference)
    attempted = sum(p.events for p in untraced + traced)
    failed += sum(p.lost for p in untraced + traced)

    n = len(traced)
    # Layer self times are raw wall time, so their shares are of raw walls.
    traced_wall = sum(p.raw_wall for p in traced)
    untraced_median = median([p.wall for p in untraced])
    traced_median = median([p.wall for p in traced])
    aggs = rec.aggregates()

    def calls(name):
        agg = aggs.get(name)
        return agg.calls / n if agg else 0.0

    def share(name):
        agg = aggs.get(name)
        return 100.0 * agg.self_time / traced_wall if agg else 0.0

    def useful_ratio(name):
        agg = aggs.get(name)
        return agg.useful / agg.calls if agg and agg.calls else 0.0

    last = traced[-1]
    m = last.metrics
    nodes = last.nodes
    rho = spearman(
        [node["created"] for node in nodes], [node["wall"] for node in nodes]
    )
    node_wall = sum(node["wall"] for node in nodes)
    is_service = workload.name == "keyed-service"
    extra = last.extra
    metrics = {
        "patterns.parse_s": _metric(setup_times["parse_s"], "s"),
        "patterns.kernels_generated": _metric(
            kernels(m) if is_service else setup.kernels, "count"
        ),
        "stats.catalog_s": _metric(setup_times["catalog_s"], "s"),
        "optimizers.plan_s": _metric(setup_times["plan_s"], "s"),
        "optimizers.plan_cost": _metric(setup.plan_cost, "cost"),
        "optimizers.cost_rank_corr": _metric(
            rho if rho is not None else 0.0, "rho"
        ),
        "multiquery.process_calls": _metric(calls("multiquery.process"), "count"),
        "multiquery.process_pct": _metric(share("multiquery.process"), "%"),
        "multiquery.node_wall_pct": _metric(
            0.0 if workload.name != "stock-shared"
            else 100.0 * node_wall / last.raw_wall,
            "%",
        ),
        "engines.process_calls": _metric(calls("engines.process"), "count"),
        "engines.process_pct": _metric(share("engines.process"), "%"),
        "engines.matches": _metric(last.matches, "count"),
        "engines.peak_state": _metric(m.peak_memory_units, "count"),
        "engines.pm_created": _metric(m.partial_matches_created, "count"),
        "engines.pm_expired": _metric(m.pm_expired, "count"),
        "engines.predicate_evals": _metric(m.predicate_evaluations, "count"),
        "engines.kernel_calls": _metric(m.predicate_kernel_calls, "count"),
        "engines.index_hit_ratio": _metric(
            m.index_hits / m.index_probes if m.index_probes else 0.0, "ratio"
        ),
        "engines.pm_useful_ratio": _metric(
            last.matches / m.partial_matches_created
            if m.partial_matches_created
            else 0.0,
            "ratio",
        ),
    }
    for layer, ops in (
        ("stores", ("insert", "probe", "expire")),
        ("buffers", ("admit", "probe", "prune")),
        ("negation", ("offer", "violated")),
    ):
        for op in ops:
            name = f"{layer}.{op}"
            metrics[f"engines.{name}_calls"] = _metric(calls(name), "count")
            metrics[f"engines.{name}_pct"] = _metric(share(name), "%")
    metrics["engines.stores.expire_useful_ratio"] = _metric(
        useful_ratio("stores.expire"), "ratio"
    )
    corrections = [dt for _, dt in extra.get("corrections", ())]
    metrics.update(
        {
            "streams.offer_pct": _metric(share("streams.offer"), "%"),
            "streams.process_pct": _metric(share("streams.process"), "%"),
            "streams.events_reordered": _metric(m.events_reordered, "count"),
            "streams.replays": _metric(extra.get("replays", 0), "count"),
            "streams.replayed_events": _metric(
                extra.get("replayed_events", 0), "count"
            ),
            "streams.corrections": _metric(len(corrections), "count"),
            "streams.correction_pct": _metric(
                100.0 * sum(corrections) / last.wall, "%"
            ),
            "streams.incremental_retractions": _metric(
                max(0, m.retractions_processed - extra.get("replays", 0))
                if corrections
                else 0,
                "count",
            ),
            "service.put_calls": _metric(calls("service.put"), "count"),
            "service.put_wait_pct": _metric(share("service.put"), "%"),
            "service.queue_depth_max": _metric(
                max(extra.get("queue_depth") or [0]), "count"
            ),
            "service.feed_calls": _metric(calls("service.feed"), "count"),
            "service.feed_pct": _metric(share("service.feed"), "%"),
            "service.frontier_lag_max": _metric(
                max(extra.get("frontier_lag") or [0]), "count"
            ),
            "parallel.route_pct": _metric(share("parallel.route"), "%"),
            "parallel.submit_calls": _metric(calls("parallel.submit"), "count"),
            "parallel.submit_pct": _metric(share("parallel.submit"), "%"),
            "parallel.drain_calls": _metric(calls("parallel.drain"), "count"),
            "parallel.drain_pct": _metric(share("parallel.drain"), "%"),
            "parallel.events_routed": _metric(
                m.events_routed if is_service else 0, "count"
            ),
            "parallel.worker_engine_pct": _metric(
                100.0 * node_wall / last.raw_wall if is_service else 0.0, "%"
            ),
            "trace.untraced_wall_s": _metric(untraced_median, "s"),
            "trace.traced_wall_s": _metric(traced_median, "s"),
            "trace.overhead_pct": _metric(
                100.0 * (traced_median - untraced_median) / untraced_median,
                "%",
            ),
        }
    )

    RESULTS.mkdir(exist_ok=True)
    snapshot = {
        "run_id": run_id,
        "spans": rec.spans + rec.aggregate_spans(),
        "nodes": nodes,
        "metrics": m.summary(),
    }
    trace_path = RESULTS / f"trace-{run_id}.json"
    write_json(snapshot, str(trace_path))
    write_chrome_trace(
        snapshot, str(RESULTS / f"trace-{run_id}.perfetto.json")
    )
    detail = {
        "setup": setup_times,
        "untraced_passes": len(untraced),
        "traced_passes": n,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "aggregates": {
            name: {
                "calls": agg.calls,
                "busy_s": agg.busy,
                "self_s": agg.self_time,
                "useful": agg.useful,
            }
            for name, agg in sorted(aggs.items())
        },
        "also": _corrections(traced),
    }
    return failed == 0, attempted, failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _import_program():
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    data = workload.generate(args.seed)
    run = traced_run if args.trace else timed_run
    if args.trace:
        correct, attempted, failed, metrics, detail = run(
            workload, data, args.seconds, args.seed
        )
    else:
        correct, attempted, failed, metrics, detail = run(
            workload, data, args.seconds
        )
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": data["digest"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "detail": detail,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload.name}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for key in ("input_digest", "nproc", "python"):
        print(f"{key}: {record[key]}")
    for key, value in detail.items():
        if key not in ("aggregates", "also"):
            print(f"{key}: {value}")
    for name, metric in {**detail["also"], **metrics}.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
