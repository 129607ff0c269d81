"""Seeded random streams and weight initializers with prescribed moments.

Dense matrices and vectors are plain float64 numpy arrays throughout the
package; this module owns how randomness enters them.  A weight draw is one
raw fill (fill_raw: standard normals, uniforms on [0, 1) or 0/1 integers)
followed by InitDistribution.transform, the per-layer scale and shift.
Consecutive fills from one generator continue one sequence, so a single
fill of a whole network followed by each layer's transform gives, bit for
bit, the per-layer InitDistribution.sample calls of init_network: the Monte
Carlo engine in theory draws each trial's network with one generator call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

GAUSSIAN = "gaussian"
UNIFORM = "uniform"
RADEMACHER = "rademacher"

DISTRIBUTION_KINDS = (GAUSSIAN, UNIFORM, RADEMACHER)

# Stream index reserved for auxiliary draws (e.g. a fixed probe input shared
# by all Monte Carlo trials); trial i always uses stream index i.
AUX_STREAM = 0xFFFF_FFFF


@dataclass(frozen=True)
class RngStream:
    """Deterministic, independently seeded random stream.

    The same (master_seed, stream_index) pair always reproduces the same
    sample sequence, and distinct stream indices are statistically
    independent, so work items keyed by index may run in any order or in
    parallel without changing results.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.stream_index <= AUX_STREAM:
            raise DimensionError(f"stream_index out of range: {self.stream_index}")

    def generator(self) -> np.random.Generator:
        """Return a fresh generator positioned at the start of the stream."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)


def as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class InitDistribution:
    """Symmetric zero-mean weight distribution with second moment 1/fan_in.

    kind is one of "gaussian" (variance 1/fan_in), "uniform" (symmetric
    interval scaled to variance 1/fan_in), or "rademacher" (two-point
    +-1/sqrt(fan_in), which realizes the second moment exactly).
    """

    kind: str = GAUSSIAN
    fan_in: int = 1

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise DimensionError(f"unknown distribution kind: {self.kind!r}")
        if self.fan_in < 1:
            raise DimensionError(f"fan_in must be >= 1, got {self.fan_in}")

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Turn fill_raw's draws of this kind into weights, in place, and
        return raw.  The values are, bit for bit (signed zeros included),
        those of gen.normal(0.0, scale), gen.uniform(-h, h) or the +-scale
        two-point law from the same generator state.
        """
        scale = 1.0 / math.sqrt(self.fan_in)
        if self.kind == GAUSSIAN:
            # gen.normal(0.0, scale) evaluates 0.0 + scale * z per draw.
            raw *= scale
            raw += 0.0
        elif self.kind == UNIFORM:
            # gen.uniform(low, high) evaluates low + (high - low) * u per draw.
            half_width = math.sqrt(3.0) * scale  # uniform on [-h, h] has variance h^2 / 3
            raw *= half_width - (-half_width)
            raw += -half_width
        else:
            raw *= 2.0
            raw -= 1.0
            raw *= scale
        return raw

    def sample(self, shape, rng: "RngStream | np.random.Generator") -> np.ndarray:
        """A new array of the given shape: fill_raw, then transform."""
        return self.transform(fill_raw(self.kind, as_generator(rng), np.empty(shape)))


def fill_raw(kind: str, gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 array out with one generator call of
    kind's raw draws (standard normals, uniforms on [0, 1), or 0/1 integers
    as floats) and return it."""
    if kind == GAUSSIAN:
        gen.standard_normal(out=out)
    elif kind == UNIFORM:
        gen.random(out=out)
    else:
        out[...] = gen.integers(0, 2, size=out.shape)
    return out
