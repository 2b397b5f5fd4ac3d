"""The three workloads and their closed-loop timed phases.

* ``dump-64m`` — one caller, ``SZxCodec(workers=2, backend="thread")``
  compress then decompress of one 256^3 float32 field (64 MiB: 16x the
  4 MiB per-core L2, below the 300 MiB shared L3).  Kernels and the
  thread pool do nearly all the work; serve and net are bypassed.
* ``serve-1m`` — an in-process ``NetServer`` (1 shard, 2 thread
  workers, default cache and batching) driven by two client
  connections, each a closed loop of compress then decompress of a
  distinct 64^3 field (1 MiB, cache-resident).
* ``serve-64k`` — the same server, one connection, distinct 16x32x32
  fields (64 KiB), where the fixed per-request cost dominates.

Every workload uses float32 data, a REL 1e-3 bound and block size 128.
Each phase records one :class:`Op` per compress and per decompress;
correctness is checked inline for decompress (pointwise bound) and
after the phase for compress (byte identity with in-process
``SZxCodec``).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import CodecConfig, SZxCodec
from repro.net import NetClient, NetError, NetServer

from inputs import WindowSource, gaussian_random_field
from measure import (
    NO_TRACE,
    digest,
    psnr_db,
    rel_abs_bound,
    sq_error_sum,
    within_bound,
)

REL = 1e-3
BLOCK = 128
#: Raw bytes of fields the ratio and PSNR are computed over (serve).
QUALITY_BYTES = 16 << 20
#: Warm-up round trips per connection at each set-up (never timed).
WARMUP_ROUNDS = 3


def codec_config(workers: int = 1) -> CodecConfig:
    return CodecConfig(err_bound=REL, mode="rel", block_size=BLOCK,
                       workers=workers, backend="thread")


@dataclass
class Op:
    """One compress or decompress as the caller saw it."""

    kind: str                  # "compress" | "decompress"
    seconds: float | None      # None: the request failed or was refused
    raw_bytes: int
    key: int                   # which input field
    ok: bool | None = None     # compress ops are settled after the phase
    stream_digest: bytes | None = None
    timeline: dict | None = None   # server stage ledger (serve only)


class ServerThread:
    """A ``NetServer`` on its own event loop thread, as a remote
    server would be: client-side work never blocks its loop."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.server = NetServer(shards=1, workers_per_shard=2,
                                backend="thread")
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="bench-server", daemon=True
        )

    def start(self) -> int:
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=60)
        return self.server.port

    def stop(self) -> None:
        if self.thread.is_alive():
            try:
                if self.server.shards is not None:
                    asyncio.run_coroutine_threadsafe(
                        self.server.drain(), self.loop
                    ).result(timeout=60)
            finally:
                self.loop.call_soon_threadsafe(self.loop.stop)
                self.thread.join(timeout=60)
        if not self.thread.is_alive():
            self.loop.close()


class DumpWorkload:
    name = "dump-64m"
    shape = (256, 256, 256)
    clients = 1
    has_server = False
    setup_reps = 3
    #: Fewer than twenty operations per direction: the median.
    tail_percentile = 50.0

    def __init__(self, seed: int):
        self.field = gaussian_random_field(self.shape, seed)
        self.abs_bound = rel_abs_bound(self.field, REL)
        self.raw_bytes = int(self.field.nbytes)
        self._reference: bytes | None = None

    def setup(self):
        """Codec and pool construction plus one warm-up round trip."""
        codec = SZxCodec(codec_config(workers=2))
        codec.decompress(codec.compress(self.field))
        return codec

    def close(self, session) -> None:
        pass

    def shutdown(self) -> None:
        pass

    def run_phase(self, codec, seconds: float, tracer, parent):
        ops: list[Op] = []
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while True:  # at least one round trip, however short the phase
            sp = tracer.start("dump.compress", parent)
            t0 = time.perf_counter()
            stream = codec.compress(self.field)
            t1 = time.perf_counter()
            tracer.end(sp)
            ops.append(Op("compress", t1 - t0, self.raw_bytes, 0,
                          stream_digest=digest(stream)))
            sp = tracer.start("dump.decompress", parent)
            t0 = time.perf_counter()
            out = codec.decompress(stream)
            t1 = time.perf_counter()
            tracer.end(sp)
            ops.append(Op("decompress", t1 - t0, self.raw_bytes, 0,
                          ok=within_bound(self.field, out, self.abs_bound)))
            del stream, out
            if time.perf_counter() >= deadline:
                return ops, time.perf_counter() - t_start

    def input(self, key: int) -> np.ndarray:
        return self.field

    def reference(self, key: int) -> bytes:
        if self._reference is None:
            self._reference = SZxCodec(codec_config()).compress(self.field)
        return self._reference

    def quality(self, ops) -> tuple[float, float]:
        stream = self.reference(0)
        out = SZxCodec(codec_config()).decompress(stream)
        value_range = float(self.field.max()) - float(self.field.min())
        return (self.raw_bytes / len(stream),
                psnr_db(value_range, sq_error_sum(self.field, out),
                        self.field.size))

    def ladder_inputs(self):
        """Copies of the field, each with one value nudged by one ULP so
        its content digest is new (the net rung must miss the cache)."""
        n = self.field.size
        for key in itertools.count(1):
            x = self.field.copy()
            i = (key * 2654435761) % n
            flat = x.reshape(-1)
            flat[i] = np.nextafter(flat[i], np.float32(0))
            yield key, x


@dataclass
class ServeSession:
    server: ServerThread
    clients: list


class ServeWorkload:
    has_server = True
    setup_reps = 11

    def __init__(self, name, seed, *, volume, window, clients,
                 tail_percentile):
        self.name = name
        self.clients = clients
        self.tail_percentile = tail_percentile
        self.windows = WindowSource(volume, window, seed)
        self.raw_bytes = self.windows.nbytes
        self.loop = asyncio.new_event_loop()
        self._phase_first_key: int | None = None

    # -- set-up -------------------------------------------------------
    def setup(self) -> ServeSession:
        """Server start, client connections, warm-up round trips."""
        server = ServerThread()
        try:
            port = server.start()
            clients = self.loop.run_until_complete(self._connect(port))
        except BaseException:
            server.stop()
            raise
        session = ServeSession(server, clients)
        try:
            ops = self.loop.run_until_complete(self._warm_up(clients))
        except BaseException:
            self.close(session)
            raise
        if not all(op.ok for op in ops if op.kind == "decompress"):
            self.close(session)
            raise RuntimeError("warm-up round trip failed its bound check")
        return session

    async def _connect(self, port):
        return [await NetClient.connect("127.0.0.1", port)
                for _ in range(self.clients)]

    async def _warm_up(self, clients):
        ops: list[Op] = []
        for _ in range(WARMUP_ROUNDS):
            for cli in clients:
                await self._round_trip(cli, ops, NO_TRACE, None)
        return ops

    def close(self, session: ServeSession) -> None:
        try:
            self.loop.run_until_complete(
                _gather(cli.aclose() for cli in session.clients))
        finally:
            session.server.stop()

    def shutdown(self) -> None:
        self.loop.close()

    def server_stats(self, session: ServeSession) -> dict:
        return self.loop.run_until_complete(session.clients[0].stats())

    # -- timed phase --------------------------------------------------
    def run_phase(self, session: ServeSession, seconds: float, tracer, parent):
        if self._phase_first_key is None:
            self._phase_first_key = self.windows.taken
        ops: list[Op] = []
        t_start = time.perf_counter()
        deadline = t_start + seconds

        async def client_loop(cli):
            while True:  # at least one round trip, however short the phase
                await self._round_trip(cli, ops, tracer, parent)
                if time.perf_counter() >= deadline:
                    return

        self.loop.run_until_complete(
            _gather(client_loop(cli) for cli in session.clients))
        return ops, time.perf_counter() - t_start

    async def _round_trip(self, cli, ops, tracer, parent) -> None:
        key, x = self.windows.take()
        sp = tracer.start("client.compress", parent)
        t0 = time.perf_counter()
        try:
            stream, _ = await cli.compress(x, err_bound=REL, mode="rel",
                                           block_size=BLOCK)
        except (NetError, OSError):
            tracer.end(sp)
            ops.append(Op("compress", None, x.nbytes, key, ok=False))
            return
        t1 = time.perf_counter()
        tracer.end(sp, cli.last_request_id)
        ops.append(Op("compress", t1 - t0, x.nbytes, key,
                      stream_digest=digest(stream),
                      timeline=cli.last_timeline))
        sp = tracer.start("client.decompress", parent)
        t0 = time.perf_counter()
        try:
            out, _ = await cli.decompress(stream)
        except (NetError, OSError):
            tracer.end(sp)
            ops.append(Op("decompress", None, x.nbytes, key, ok=False))
            return
        t1 = time.perf_counter()
        tracer.end(sp, cli.last_request_id)
        ops.append(Op("decompress", t1 - t0, x.nbytes, key,
                      ok=within_bound(x, out, rel_abs_bound(x, REL)),
                      timeline=cli.last_timeline))

    # -- checks -------------------------------------------------------
    def input(self, key: int) -> np.ndarray:
        return self.windows.window(key)

    def reference(self, key: int) -> bytes:
        return SZxCodec(codec_config()).compress(self.windows.window(key))

    def quality(self, ops) -> tuple[float, float]:
        """Ratio and mean PSNR over the phase's first QUALITY_BYTES of
        windows, which the seed fixes."""
        first = self._phase_first_key or 0
        codec = SZxCodec(codec_config())
        raw = packed = 0
        psnrs = []
        for key in range(first, first + QUALITY_BYTES // self.raw_bytes):
            x = self.windows.window(key)
            stream = codec.compress(x)
            out = codec.decompress(stream)
            raw += x.nbytes
            packed += len(stream)
            value_range = float(x.max()) - float(x.min())
            psnrs.append(psnr_db(value_range, sq_error_sum(x, out), x.size))
        return raw / packed, math.fsum(psnrs) / len(psnrs)

    def ladder_inputs(self):
        while True:
            yield self.windows.take()


async def _gather(coros):
    return await asyncio.gather(*coros)


def settle_compress_ops(workload, ops) -> None:
    """Mark each compress op correct iff its stream is byte-identical to
    in-process ``SZxCodec`` on the same input (run after the phase)."""
    refs: dict[int, bytes] = {}
    for op in ops:
        if op.kind != "compress" or op.ok is False:
            continue
        if op.key not in refs:
            refs[op.key] = digest(workload.reference(op.key))
        op.ok = op.stream_digest == refs[op.key]


def make(name: str, seed: int):
    if name == "dump-64m":
        return DumpWorkload(seed)
    if name == "serve-1m":
        return ServeWorkload(name, seed, volume=(128, 128, 128),
                             window=(64, 64, 64), clients=2,
                             tail_percentile=90.0)
    if name == "serve-64k":
        return ServeWorkload(name, seed, volume=(64, 64, 64),
                             window=(16, 32, 32), clients=1,
                             tail_percentile=95.0)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("dump-64m", "serve-1m", "serve-64k")
