"""Layered SZx benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-64k --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off.
``--trace 1`` runs the per-layer ladder (see ``ladder.py``), then the
workload's own loop in alternating untraced and traced segments, and
reports the per-layer metrics; its spans go to
``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is the result object; the line before
it carries the details (tail percentiles and sample counts, the host
calibration before and after the run, input and cache sizes).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import repro  # noqa: E402  (needs the path above)
from repro import observe  # noqa: E402

if not pathlib.Path(repro.__file__).resolve().is_relative_to(HERE.parent / "src"):
    raise SystemExit(f"repro imported from {repro.__file__}, not this checkout")

import workloads  # noqa: E402
from ladder import DIRECTIONS, Ladder, memory_rungs  # noqa: E402
from measure import (  # noqa: E402
    NO_TRACE,
    Tracer,
    host_calib_ms,
    median,
    peak_rss_mb,
    reset_peak_rss,
    tail,
)

#: Cache sizes of the host the workloads were sized against.
L2_BYTES = 4 << 20
L3_BYTES = 300 << 20

#: Stages of the server timeline a NetClient receives.
NET_STAGES = ("read", "admission", "cache_lookup", "queue_wait",
              "serve_wait", "kernel", "execute", "stitch")
#: Stages the server attributes out of band, inside ``execute``; they
#: are left out of the sum the unattributed remainder subtracts.
NESTED_STAGES = ("serve_wait", "kernel")

#: Metrics left out, rather than misreported, where VmHWM cannot be reset.
NEEDS_RSS_RESET = {"peak_rss_mb", "kernels.peak_rss_mb", "parallel.peak_rss_mb"}

def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json declares for the mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# -- end-to-end ----------------------------------------------------------------

def e2e_metrics(w, ops, wall_s, setup_times, peak) -> tuple[dict, dict]:
    metrics, detail = {}, {}
    for d in DIRECTIONS:
        mine = [op for op in ops if op.kind == d]
        done = [op.seconds for op in mine if op.seconds is not None]
        metrics[f"{d}_mb_s"] = w.raw_bytes / 1e6 / median(done)
        t = tail(done, len(mine) - len(done), w.tail_percentile)
        metrics[f"{d}_tail_ms"] = t["value_ms"]
        detail[f"{d}_tail"] = {"percentile": t["percentile"], "n": t["n"]}
    moved = sum(op.raw_bytes for op in ops if op.seconds is not None)
    metrics["throughput_mb_s"] = moved / 1e6 / wall_s
    metrics["ratio"], metrics["psnr_db"] = w.quality(ops)
    metrics["ok_frac"] = sum(1 for op in ops if op.ok) / len(ops)
    metrics["setup_s"] = median(setup_times)
    detail["setup_s_all"] = setup_times
    if peak is None:
        detail["peak_rss_mb"] = "missing: VmHWM could not be reset"
    else:
        metrics["peak_rss_mb"] = peak
    return metrics, detail


def run_untraced(w, seconds):
    setup_times, session, peak = [], None, None
    try:
        for _ in range(w.setup_reps):
            if session is not None:
                w.close(session)
                session = None
            t0 = time.perf_counter()
            session = w.setup()
            setup_times.append(time.perf_counter() - t0)
        reset_ok = reset_peak_rss()
        ops, wall_s = w.run_phase(session, seconds, NO_TRACE, None)
        if reset_ok:
            peak = peak_rss_mb()
    finally:
        if session is not None:
            w.close(session)
    workloads.settle_compress_ops(w, ops)
    metrics, detail = e2e_metrics(w, ops, wall_s, setup_times, peak)
    failed = sum(1 for op in ops if not op.ok)
    return metrics, detail, len(ops), failed


# -- per layer -----------------------------------------------------------------

def net_metrics(requests) -> dict:
    """Server-timeline stage medians and the unattributed remainder,
    from ``(direction, round-trip seconds, timeline)`` triples."""
    m = {}
    for d in DIRECTIONS:
        rows = [(s, tl or {}) for kind, s, tl in requests if kind == d]
        for stage in NET_STAGES:
            m[f"net.stage.{stage}_ms.{d}"] = median(
                [tl.get(stage, 0.0) for _, tl in rows])
        m[f"net.unattributed_ms.{d}"] = median([
            s * 1e3 - sum(v for k, v in tl.items() if k not in NESTED_STAGES)
            for s, tl in rows
        ])
    return m


def server_metrics(stats: dict) -> dict:
    totals = stats["shards"]["totals"]
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.batch_fill": (totals["batched_jobs"] / totals["batches"]
                             if totals["batches"] else 0.0),
        "serve.rejected": totals["rejected"],
        "serve.retries": totals["retries"],
        "serve.failed": totals["failed"],
        "net.cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
    }


def run_traced(w, seconds):
    tracer = Tracer(enabled=True)
    metrics = memory_rungs(w.input(0))
    attempted = failed = 0

    root = tracer.start("ladder")
    with Ladder(tracer) as ladder:
        ladder.run(w.ladder_inputs(), seconds / 2, root)
        ladder_stats = ladder.server_stats()
    tracer.end(root)
    metrics.update(ladder.metrics(w.raw_bytes))
    attempted += ladder.attempted
    failed += ladder.failed

    # The workload's own loop for the other half of the time, alternating
    # untraced and traced segments so host drift falls on both alike.
    moved = {False: 0, True: 0}
    walls = {False: 0.0, True: 0.0}
    ops = []
    session = w.setup()
    try:
        for traced in (False, True, False, True):
            if traced:
                with observe.trace():
                    seg = tracer.start("segment.traced")
                    seg_ops, wall_s = w.run_phase(session, seconds / 8,
                                                  tracer, seg)
                    tracer.end(seg)
            else:
                seg_ops, wall_s = w.run_phase(session, seconds / 8,
                                              NO_TRACE, None)
            moved[traced] += sum(op.raw_bytes for op in seg_ops
                                 if op.seconds is not None)
            walls[traced] += wall_s
            ops.extend(seg_ops)
        stats = w.server_stats(session) if w.has_server else ladder_stats
    finally:
        w.close(session)
    workloads.settle_compress_ops(w, ops)
    attempted += len(ops)
    failed += sum(1 for op in ops if not op.ok)

    if w.has_server:
        requests = [(op.kind, op.seconds, op.timeline) for op in ops
                    if op.seconds is not None]
    else:
        requests = ladder.net_requests
    metrics.update(net_metrics(requests))
    metrics.update(server_metrics(stats))
    metrics["observe.overhead_frac"] = (
        (moved[False] / walls[False]) / (moved[True] / walls[True]) - 1.0
    )
    detail = {"ladder_inputs": len(ladder.rows)}
    return metrics, detail, attempted, failed, tracer


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    units = declared_units(args.trace)

    calib_before = host_calib_ms()
    w = workloads.make(args.workload, args.seed)
    try:
        if args.trace:
            metrics, detail, attempted, failed, tracer = run_traced(
                w, args.seconds)
        else:
            metrics, detail, attempted, failed = run_untraced(w, args.seconds)
    finally:
        w.shutdown()
    calib_after = host_calib_ms()
    if args.trace:
        metrics["host.calib_ms"] = (calib_before + calib_after) / 2

    detail.update({
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed", "clients": w.clients,
        "input_bytes": w.raw_bytes, "l2_bytes": L2_BYTES,
        "l3_bytes": L3_BYTES,
        "host_calib_ms": {"before": calib_before, "after": calib_after},
    })
    if args.trace:
        out = HERE / "out" / f"trace-{w.name}-seed{args.seed}.json"
        tracer.write(out, {"detail": detail, "metrics": metrics})
        detail["trace_file"] = str(out.relative_to(HERE.parent))
    print(json.dumps(detail))
    missing = units.keys() - metrics.keys() - NEEDS_RSS_RESET
    if missing or metrics.keys() - units.keys():
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing "
                         f"{sorted(missing)}, undeclared "
                         f"{sorted(metrics.keys() - units.keys())}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
        raise SystemExit("a metric is not finite; no result reported")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
