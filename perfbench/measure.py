"""Measurement helpers: spans, percentiles, memory, host calibration.

The benchmark records its own spans (around its calls into each layer)
and runs its own correctness checks instead of relying on the program's
instrumentation and oracles, so a change to the program cannot change
what the benchmark measures or accepts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


# -- spans -------------------------------------------------------------------

class Tracer:
    """In-memory span recorder: name, start, end, parent, request id.

    Spans are kept in a list and written once, by :meth:`write`, when
    the run ends.  A disabled tracer records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def start(self, name: str, parent: dict | None = None,
              request_id=None) -> dict | None:
        if not self.enabled:
            return None
        sp = {
            "id": next(self._ids), "name": name,
            "parent": parent["id"] if parent else None,
            "request_id": request_id,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(sp)
        return sp

    @staticmethod
    def end(sp: dict | None, request_id=None) -> None:
        if sp is None:
            return
        sp["end"] = time.perf_counter()
        if request_id is not None:
            sp["request_id"] = request_id

    def with_self_times(self) -> list[dict]:
        """Each span plus ``self_ms``: its duration minus the part of
        its interval that its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sp in self.spans:
            if sp["parent"] is not None and sp["end"] is not None:
                children.setdefault(sp["parent"], []).append(
                    (sp["start"], sp["end"])
                )
        out = []
        for sp in self.spans:
            if sp["end"] is None:
                continue
            covered, reach = 0.0, sp["start"]
            for lo, hi in sorted(children.get(sp["id"], ())):
                lo, hi = max(lo, reach), min(hi, sp["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            dur = sp["end"] - sp["start"]
            out.append({**sp, "dur_ms": dur * 1e3,
                        "self_ms": (dur - covered) * 1e3})
        return out

    def write(self, path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["spans"] = self.with_self_times()
        path.write_text(json.dumps(doc, indent=1))


#: The tracer for untraced runs and segments.
NO_TRACE = Tracer(enabled=False)


# -- statistics --------------------------------------------------------------

def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def tail(latencies_s, failures: int, percentile: float) -> dict:
    """The workload's tail *percentile* of the latencies.

    When fewer than ten samples lie beyond it, the highest lower
    candidate with ten beyond is used instead, down to the median.
    Failed or refused operations count as infinitely slow, so they are
    always beyond the tail.
    """
    values = np.concatenate([
        np.asarray(latencies_s, dtype=np.float64),
        np.full(failures, np.inf),
    ])
    n = int(values.size)
    pct = next(
        (p for p in TAIL_PERCENTILES
         if p <= percentile and n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND),
        50.0,
    )
    value = float(np.percentile(values, pct, method="higher")) if n else math.inf
    return {"value_ms": value * 1e3, "percentile": pct, "n": n}


# -- memory ------------------------------------------------------------------

def reset_peak_rss() -> bool:
    """Reset this process's VmHWM to its current RSS; False if refused."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc/self/status")


# -- host drift --------------------------------------------------------------

def host_calib_ms() -> float:
    """Median time of a fixed numpy loop: a host-speed reading, reported
    beside the metrics and never used to correct them."""
    a = np.arange(1 << 18, dtype=np.float32)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            b = a * np.float32(1.0001) + np.float32(0.5)
            acc += float(np.sort(b[::64]).sum())
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


# -- correctness -------------------------------------------------------------

def rel_abs_bound(x: np.ndarray, rel: float) -> float:
    """The absolute bound a value-range-relative bound resolves to."""
    return rel * (float(x.max()) - float(x.min()))


def within_bound(x: np.ndarray, y: np.ndarray, abs_bound: float) -> bool:
    """Pointwise ``|x - y| <= abs_bound`` allowing the half-ULP of
    rounding the float32 reconstruction carries."""
    if x.shape != y.shape or y.dtype != x.dtype:
        return False
    fx, fy = x.reshape(-1), y.reshape(-1)
    chunk = 1 << 21
    worst = 0.0
    for lo in range(0, fx.size, chunk):
        d = np.abs(fx[lo:lo + chunk].astype(np.float64)
                   - fy[lo:lo + chunk].astype(np.float64))
        worst = max(worst, float(d.max()))
    slack = float(np.finfo(np.float32).eps) * max(1.0, worst)
    return worst <= abs_bound + slack


def sq_error_sum(x: np.ndarray, y: np.ndarray) -> float:
    fx, fy = x.reshape(-1), y.reshape(-1)
    chunk = 1 << 21
    total = 0.0
    for lo in range(0, fx.size, chunk):
        d = fx[lo:lo + chunk].astype(np.float64) - fy[lo:lo + chunk]
        total += float(np.dot(d, d))
    return total


def psnr_db(value_range: float, sq_sum: float, n: int) -> float:
    return 20.0 * math.log10(value_range / math.sqrt(sq_sum / n))


def digest(stream: bytes) -> bytes:
    return hashlib.blake2b(stream, digest_size=16).digest()
