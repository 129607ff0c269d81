"""Seeded random streams and weight initializers with prescribed moments.

Dense matrices and vectors are plain float64 numpy arrays throughout the
package; this module owns how randomness enters them.  InitDistribution.sample
fills either a new array or a caller's block in place, with the same bits
either way: the Monte Carlo engine in theory draws trial i's weights straight
into its block stacks, bit for bit what init_network draws for trial i.
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

    def sample(
        self, shape, rng: "RngStream | np.random.Generator", out: np.ndarray | None = None
    ) -> np.ndarray:
        """Draw an array of the given shape into out, or into a new array.

        out, if given, must be a C-contiguous float64 array of that shape; it
        is filled in place and returned.  Either way the values are, bit for
        bit (signed zeros included), those of gen.normal(0.0, scale) or
        gen.uniform(-h, h) from the same generator state, and the generator
        advances by the same amount.
        """
        gen = as_generator(rng)
        scale = 1.0 / math.sqrt(self.fan_in)
        if out is None:
            out = np.empty(shape)
        elif out.shape != tuple(shape) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise DimensionError(
                f"out must be a C-contiguous float64 array of shape {tuple(shape)}, "
                f"got {out.dtype} {out.shape}"
            )
        if self.kind == GAUSSIAN:
            # gen.normal(0.0, scale) evaluates 0.0 + scale * z per draw.
            gen.standard_normal(out=out)
            out *= scale
            out += 0.0
        elif self.kind == UNIFORM:
            # gen.uniform(low, high) evaluates low + (high - low) * u per draw.
            half_width = math.sqrt(3.0) * scale  # uniform on [-h, h] has variance h^2 / 3
            gen.random(out=out)
            out *= half_width - (-half_width)
            out += -half_width
        else:
            signs = gen.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
            np.multiply(signs, scale, out=out)
        return out
