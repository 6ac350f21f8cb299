"""Deterministic random-number utilities.

Every stochastic component in the library accepts either an integer seed or
a :class:`numpy.random.Generator`. Centralizing the coercion here keeps the
whole system reproducible: a single experiment seed fans out into
independent child streams (via :func:`spawn`) so that, e.g., the corpus
generator and the placement algorithm never share (and therefore never
perturb) each other's stream.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` produces a non-deterministic generator (fresh OS entropy);
    an ``int`` or :class:`~numpy.random.SeedSequence` produces a
    deterministic one; an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``.

    The parent stream is advanced once per call, so repeated calls with the
    same parent yield different (but still deterministic) children.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def choice_without_replacement(
    rng: np.random.Generator,
    items: Sequence,
    k: int,
    *,
    weights: Optional[np.ndarray] = None,
) -> list:
    """Sample ``k`` distinct items, optionally weighted.

    A thin wrapper over :meth:`numpy.random.Generator.choice` that accepts
    arbitrary Python sequences (numpy's ``choice`` would coerce tuples of
    heterogeneous objects into object arrays with surprising shapes) and
    normalizes weights.

    A weighted single pick (``k == 1``) skips ``Generator.choice`` and its
    per-call validation and ``np.unique``: it draws one ``rng.random()``
    and inverts the normalized cumulative weights, which is the draw and
    the arithmetic ``choice(n, 1, replace=False, p=p)`` performs. It
    returns the same item and leaves ``rng`` at the same stream position.
    """
    n = len(items)
    if k > n:
        raise ValueError(f"cannot sample {k} items from a population of {n}")
    if k == 0:
        return []
    p = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError(f"weights shape {w.shape} != ({n},)")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must not sum to zero")
        if not np.isfinite(total):
            raise ValueError("weights must be finite")
        p = w / total
        if k == 1:
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            return [items[int(cdf.searchsorted(rng.random(), side="right"))]]
    idx = rng.choice(n, size=k, replace=False, p=p)
    return [items[int(i)] for i in idx]


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Return normalized Zipf popularity weights for ranks ``1..n``.

    Used by workload generators: rank-1 content is most popular, with
    probability proportional to ``rank ** -exponent``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-exponent
    return w / w.sum()
