"""Marginal rank transforms with uniform random tie-breaking.

Ranking a sample maps it onto the integers 1..n, so that a pair of ranked
margins lives on the lattice {1..n}^2 where, under independence, every
axis-aligned rectangle is expected to hold (area / n) points.  Runs of tied
values are assigned their block of consecutive ranks in an order drawn
uniformly at random, which keeps the rank vectors complete permutations and
makes every downstream statistic well defined (at the price of making it
stochastic on tied data, hence the explicit random stream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class RankedPair:
    """Paired rank vectors ``s`` and ``t``, each a permutation of 1..n."""

    s: np.ndarray
    t: np.ndarray
    n: int

    def __post_init__(self):
        s, t = np.asarray(self.s), np.asarray(self.t)
        if self.n < 1:
            raise ValueError("RankedPair requires n >= 1")
        if s.shape != (self.n,) or t.shape != (self.n,):
            raise ValueError("rank vectors must both have length n")
        # the values as given, so one that is no integer is refused, not cast
        full = np.arange(1, self.n + 1)
        if not np.array_equal(np.sort(s), full):
            raise ValueError("s is not a permutation of 1..n")
        if not np.array_equal(np.sort(t), full):
            raise ValueError("t is not a permutation of 1..n")
        object.__setattr__(self, "s", s.astype(np.int64, copy=False))
        object.__setattr__(self, "t", t.astype(np.int64, copy=False))


def _trusted_pair(s: np.ndarray, t: np.ndarray, n: int) -> RankedPair:
    """A ``RankedPair`` of int64 permutations of 1..n, built without the check.

    Only for rank vectors that are permutations by construction, such as
    ``rank``'s output; everything else goes through ``RankedPair``.
    """
    pair = object.__new__(RankedPair)
    object.__setattr__(pair, "s", s)
    object.__setattr__(pair, "t", t)
    object.__setattr__(pair, "n", n)
    return pair


def _sample(values) -> np.ndarray:
    """``values`` as a float sample ``rank`` accepts; refuses one that is
    not one-dimensional, is empty or holds a non-finite value."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"can only rank a one-dimensional sample, not shape {v.shape}")
    if v.size == 0:
        raise ValueError("cannot rank an empty sequence")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot rank non-finite values")
    return v


def _ranks(order: np.ndarray) -> np.ndarray:
    """The int64 ranks that put ``order[k]`` at rank k + 1."""
    out = np.empty(order.size, dtype=np.int64)
    out[order] = np.arange(1, order.size + 1)
    return out


def _untied_ranks(v: np.ndarray) -> np.ndarray | None:
    """A checked sample's ranks by one default (SIMD) sort, which no shuffle
    changes; None if two values tie (``-0.0 == 0.0``, as in the stable sort)."""
    order = np.argsort(v)
    ascending = v[order]
    return None if (ascending[1:] == ascending[:-1]).any() else _ranks(order)


def _shuffled_ranks(v: np.ndarray, shuffle: np.ndarray) -> np.ndarray:
    """A checked sample's ranks, each tied run ordered as the permutation
    ``shuffle`` meets it: the stable sort of the shuffled sample."""
    return _ranks(shuffle[np.argsort(v[shuffle], kind="stable")])


def rank(values, rng: np.random.Generator) -> np.ndarray:
    """Rank a sample onto 1..n, breaking ties uniformly at random.

    An untied value receives the count of elements less than or equal to it.
    A run of m tied values receives its m consecutive ranks in an order
    drawn uniformly from the m! arrangements, by the stable sort of a copy
    shuffled from ``rng``; the shuffle is drawn even for a tie-free sample.

    Raises ``ValueError`` on input that is not one-dimensional or is empty,
    and on non-finite values.
    """
    v = _sample(values)
    shuffle = rng.permutation(v.size)
    ranks = _untied_ranks(v)
    return ranks if ranks is not None else _shuffled_ranks(v, shuffle)


def rank_pair(x, y, rng: np.random.Generator) -> RankedPair:
    """Rank both margins of a paired sample, preserving the pairing.

    Each margin is ranked independently; tie-breaking draws for ``x`` and
    ``y`` come from disjoint parts of the supplied stream.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    s = rank(x, rng)
    t = rank(y, rng)
    return _trusted_pair(s, t, s.size)
