"""Synthetic dependence patterns for power studies.

Six generators carry genuine dependence that survives the rank transform
(wave, rotated_square, circle, valley, cross, ring); the seventh,
four_clusters, draws each margin independently from a bimodal mixture, so
it shows strong visual structure yet is exactly independent -- the control
case a dependence measure must not flag.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .substreams import stream

PATTERN_KINDS = (
    "wave",
    "rotated_square",
    "circle",
    "valley",
    "cross",
    "ring",
    "four_clusters",
)

_DEFAULT_NOISE = {
    "wave": 0.25,
    "valley": 0.25,
    "cross": 0.1,
    "ring": 0.1,
}


@dataclass(frozen=True)
class PatternSpec:
    """Which pattern to draw, how many points, noise scale, and seed.

    ``noise=None`` selects the pattern's default scale; patterns without a
    noise parameter ignore it.  ``seed`` is an integer >= 0.
    """

    kind: str
    n: int
    noise: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"kind must be one of {PATTERN_KINDS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.noise is not None and not 0 <= self.noise < math.inf:
            raise ValueError("noise must be finite and >= 0")
        # an integer, as a binning seed must be (TypeError), and >= 0
        if operator.index(self.seed) < 0:
            raise ValueError("seed must be >= 0")


def generate(spec: PatternSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw n paired observations of the requested pattern, deterministically."""
    rng = stream(spec.seed)
    n = spec.n
    noise = spec.noise
    if noise is None:
        noise = _DEFAULT_NOISE.get(spec.kind, 0.0)

    if spec.kind == "wave":
        x = rng.uniform(-1.0, 1.0, n)
        y = np.sin(4.0 * np.pi * x) + rng.normal(0.0, noise, n)
    elif spec.kind == "rotated_square":
        u = rng.uniform(-1.0, 1.0, n)
        v = rng.uniform(-1.0, 1.0, n)
        x = (u + v) / np.sqrt(2.0)
        y = (u - v) / np.sqrt(2.0)
    elif spec.kind == "circle":
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        r = np.sqrt(rng.uniform(0.0, 1.0, n))
        x = r * np.cos(theta)
        y = r * np.sin(theta)
    elif spec.kind == "valley":
        x = rng.uniform(-1.0, 1.0, n)
        y = x**2 + rng.normal(0.0, noise, n)
    elif spec.kind == "cross":
        x = rng.uniform(-1.0, 1.0, n)
        sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y = sign * x + rng.normal(0.0, noise, n)
    elif spec.kind == "ring":
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        r = 1.0 + rng.normal(0.0, noise, n)
        x = r * np.cos(theta)
        y = r * np.sin(theta)
    else:  # four_clusters
        x = rng.choice([-1.0, 1.0], n) + rng.normal(0.0, 0.15, n)
        y = rng.choice([-1.0, 1.0], n) + rng.normal(0.0, 0.15, n)
    return x, y


def pattern_to_csv(x: np.ndarray, y: np.ndarray) -> str:
    """Two-column CSV text with header ``x,y``."""
    lines = ["x,y"]
    for xi, yi in zip(x, y):
        lines.append(f"{float(xi)!r},{float(yi)!r}")
    return "\n".join(lines) + "\n"
