"""The per-layer ladder for the traced run.

Each input is timed through every layer's public entry point in turn::

    kernels  core.kernels.compress_blocks / decompress_blocks
    stream   StreamComponents.to_bytes / core.stream.parse_stream
    codec    SZxCodec(workers=1)
    parallel SZxCodec(workers=2, backend="thread")
    serve    CompressionService(workers=2), one caller
    net      NetClient round trip to an in-process NetServer

and a layer's cost is the difference between adjacent rungs, paired per
input and summarised by the median.  Every rung's output is checked: the
compressed streams must all be byte-identical to in-process
``SZxCodec``, and every reconstruction must meet the pointwise bound.
"""

from __future__ import annotations

import asyncio
import time

from repro import SZxCodec, observe
from repro.core.kernels import compress_blocks, decompress_blocks
from repro.core.stream import parse_stream
from repro.net import NetClient
from repro.serve import CompressionService

from measure import (
    median,
    peak_rss_mb,
    rel_abs_bound,
    reset_peak_rss,
    within_bound,
)
from workloads import BLOCK, REL, ServerThread, codec_config

#: Inputs every ladder times, whatever the time budget.
MIN_INPUTS = 3
#: Stages of the fused kernel chain, as the program's spans name them.
KERNEL_STAGES = ("block_stats", "encode_blocks", "encode_tail",
                 "broadcast_const", "decode_blocks", "decode_tail")
DIRECTIONS = ("compress", "decompress")


def memory_rungs(x) -> dict:
    """VmHWM over one ``compress_blocks`` and over one 2-worker codec
    compress; empty when the peak cannot be reset."""
    abs_bound = rel_abs_bound(x, REL)
    if not reset_peak_rss():
        return {}
    compress_blocks(x, abs_bound, BLOCK)
    kernels = peak_rss_mb()
    reset_peak_rss()
    SZxCodec(codec_config(workers=2)).compress(x)
    return {"kernels.peak_rss_mb": kernels,
            "parallel.peak_rss_mb": peak_rss_mb()}


def _timed(tracer, name, parent, fn, *args):
    sp = tracer.start(name, parent)
    t0 = time.perf_counter()
    out = fn(*args)
    dt = time.perf_counter() - t0
    tracer.end(sp)
    return dt, out


class Ladder:
    def __init__(self, tracer):
        self.tracer = tracer
        self.codec1 = SZxCodec(codec_config(workers=1))
        self.codec2 = SZxCodec(codec_config(workers=2))
        self.service = CompressionService(workers=2)
        self.server = ServerThread()
        self.loop = asyncio.new_event_loop()
        self.client = None
        self.rows: list[dict] = []
        self.stages: dict[str, list[float]] = {s: [] for s in KERNEL_STAGES}
        #: (direction, round-trip seconds, server timeline) per net rung.
        self.net_requests: list[tuple] = []
        self.attempted = 0
        self.failed = 0

    def __enter__(self):
        try:
            port = self.server.start()
            self.client = self.loop.run_until_complete(
                NetClient.connect("127.0.0.1", port))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        try:
            if self.client is not None:
                self.loop.run_until_complete(self.client.aclose())
        finally:
            self.service.close()
            self.server.stop()
            self.loop.close()

    def server_stats(self) -> dict:
        return self.loop.run_until_complete(self.client.stats())

    def _check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def _net(self, direction, parent, coro):
        """Time one NetClient request, keeping its server timeline."""
        async def timed():
            sp = self.tracer.start(f"rung.net.{direction}", parent)
            t0 = time.perf_counter()
            out = await coro
            dt = time.perf_counter() - t0
            self.tracer.end(sp, self.client.last_request_id)
            return dt, out

        dt, out = self.loop.run_until_complete(timed())
        self.net_requests.append((direction, dt, self.client.last_timeline))
        return dt, out

    def run(self, inputs, seconds: float, root) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.rows) < MIN_INPUTS or time.perf_counter() < deadline:
            key, x = next(inputs)
            sp = self.tracer.start("ladder.input", root, request_id=key)
            self._one(x, sp)
            self.tracer.end(sp)

    def _one(self, x, parent) -> None:
        t = self.tracer
        abs_bound = rel_abs_bound(x, REL)
        r = {}
        r["kernels.compress"], comps = _timed(
            t, "rung.kernels.compress", parent,
            compress_blocks, x, abs_bound, BLOCK)
        r["stream.pack"], s_kernels = _timed(
            t, "rung.stream.pack", parent, comps.to_bytes)
        r["codec.compress"], reference = _timed(
            t, "rung.codec.compress", parent, self.codec1.compress, x)
        self._check(s_kernels == reference)
        for layer, fn, args in (
            ("parallel", self.codec2.compress, (x,)),
            ("serve", self.service.compress, (x, codec_config())),
        ):
            r[f"{layer}.compress"], stream = _timed(
                t, f"rung.{layer}.compress", parent, fn, *args)
            self._check(stream == reference)
        r["net.compress"], (stream, _) = self._net(
            "compress", parent,
            self.client.compress(x, err_bound=REL, mode="rel",
                                 block_size=BLOCK))
        self._check(stream == reference)

        r["stream.parse"], parsed = _timed(
            t, "rung.stream.parse", parent, parse_stream, reference)
        for layer, fn, arg in (
            ("kernels", decompress_blocks, parsed),
            ("codec", self.codec1.decompress, reference),
            ("parallel", self.codec2.decompress, reference),
            ("serve", self.service.decompress, reference),
        ):
            r[f"{layer}.decompress"], out = _timed(
                t, f"rung.{layer}.decompress", parent, fn, arg)
            self._check(within_bound(x, out, abs_bound))
            del out
        r["net.decompress"], (out, _) = self._net(
            "decompress", parent, self.client.decompress(reference))
        self._check(within_bound(x, out, abs_bound))
        del out
        self.rows.append(r)
        self._stage_pass(x, abs_bound, parsed)

    def _stage_pass(self, x, abs_bound, parsed) -> None:
        """One extra kernels call per direction with the program's own
        spans on, collected by an InMemorySink."""
        with observe.trace() as sink:
            with observe.span("bench.kernels"):
                compress_blocks(x, abs_bound, BLOCK)
                decompress_blocks(parsed)
        totals = dict.fromkeys(KERNEL_STAGES, 0.0)

        def walk(sp):
            if sp.name in totals:
                totals[sp.name] += sp.wall_s
            for child in sp.children:
                walk(child)

        for root in sink.spans:
            walk(root)
        for name, seconds in totals.items():
            self.stages[name].append(seconds)

    # -- metrics ------------------------------------------------------
    def metrics(self, raw_bytes: int) -> dict:
        rows = self.rows

        def med(fn):
            return median([fn(r) for r in rows])

        m = {
            "kernels.compress_mb_s":
                raw_bytes / 1e6 / med(lambda r: r["kernels.compress"]),
            "kernels.decompress_mb_s":
                raw_bytes / 1e6 / med(lambda r: r["kernels.decompress"]),
            "stream.pack_ms": med(lambda r: r["stream.pack"]) * 1e3,
            "stream.parse_ms": med(lambda r: r["stream.parse"]) * 1e3,
            "codec.self_ms.compress": med(
                lambda r: r["codec.compress"] - r["kernels.compress"]
                - r["stream.pack"]) * 1e3,
            "codec.self_ms.decompress": med(
                lambda r: r["codec.decompress"] - r["kernels.decompress"]
                - r["stream.parse"]) * 1e3,
        }
        for name in KERNEL_STAGES:
            m[f"kernels.{name}_ms"] = median(self.stages[name]) * 1e3
        for d in DIRECTIONS:
            m[f"parallel.speedup_{d}"] = med(
                lambda r: r[f"codec.{d}"] / r[f"parallel.{d}"])
            m[f"serve.overhead_ms.{d}"] = med(
                lambda r: r[f"serve.{d}"] - r[f"codec.{d}"]) * 1e3
            m[f"net.overhead_ms.{d}"] = med(
                lambda r: r[f"net.{d}"] - r[f"serve.{d}"]) * 1e3
        return m
