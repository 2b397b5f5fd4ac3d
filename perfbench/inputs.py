"""Seeded inputs for the benchmark workloads.

Every field is a float32 Gaussian random field with power spectrum
``P(k) ~ k^-3`` (the smooth, compressible regime of the paper's
simulation data), generated here so the program under test only ever
sees the arrays.  The serve workloads need a stream of *distinct*
fields, so that every content digest is new and the server's chunk
cache never hits: they cut windows at distinct offsets out of one
larger periodic field, in an order fixed by the seed.
"""

from __future__ import annotations

import math

import numpy as np

SLOPE = 3.0


def gaussian_random_field(shape, seed: int) -> np.ndarray:
    """Zero-mean, unit-std float32 field with ``P(k) ~ k^-SLOPE``."""
    shape = tuple(int(s) for s in shape)
    rng = np.random.default_rng(seed)
    spec = np.fft.rfftn(rng.standard_normal(shape, dtype=np.float32))
    k2 = np.zeros(spec.shape, dtype=np.float32)
    for axis, n in enumerate(shape):
        last = axis == len(shape) - 1
        f = (np.fft.rfftfreq(n) if last else np.fft.fftfreq(n)).astype(np.float32)
        view = [1] * len(shape)
        view[axis] = f.size
        k2 += f.reshape(view) ** 2
    k0 = np.float32(1.0 / max(shape))
    spec *= (np.sqrt(k2) + k0) ** np.float32(-SLOPE / 2.0)
    del k2
    field = np.fft.irfftn(spec, s=shape)
    del spec
    field -= field.mean(dtype=np.float64)
    field /= field.std(dtype=np.float64)
    return np.ascontiguousarray(field, dtype=np.float32)


class WindowSource:
    """Distinct fixed-shape windows of one seeded volume.

    ``take()`` hands out windows in a seed-fixed order, one offset each,
    so the *k*-th window taken is the same on every run with that seed.
    """

    def __init__(self, volume_shape, window_shape, seed: int):
        self.volume = gaussian_random_field(volume_shape, seed)
        self.window_shape = tuple(int(s) for s in window_shape)
        self._counts = tuple(
            v - w + 1 for v, w in zip(self.volume.shape, self.window_shape)
        )
        self._order = np.random.default_rng(seed + 1).permutation(
            math.prod(self._counts)
        )
        self.taken = 0

    @property
    def nbytes(self) -> int:
        return math.prod(self.window_shape) * 4

    def take(self) -> tuple[int, np.ndarray]:
        """The next unused window, as ``(index, contiguous copy)``."""
        index = self.taken
        if index >= self._order.size:
            raise RuntimeError("window source exhausted")
        self.taken += 1
        return index, self.window(index)

    def window(self, index: int) -> np.ndarray:
        start = np.unravel_index(int(self._order[index]), self._counts)
        sl = tuple(slice(s, s + w) for s, w in zip(start, self.window_shape))
        return np.ascontiguousarray(self.volume[sl])
