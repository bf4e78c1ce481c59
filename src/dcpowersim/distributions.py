"""Count and discrete-distribution sampling shared by the workload generators."""

from __future__ import annotations

import numpy as np


def sample_nb2(mu, alpha: float, rng: np.random.Generator):
    """Draw NB2 counts with mean ``mu`` and variance ``mu + alpha * mu**2``.

    Implemented as a gamma-Poisson mixture: the Poisson rate is drawn from a
    gamma distribution with shape ``1 / alpha`` and scale ``alpha * mu``, so
    the mixture has mean ``mu`` and the quadratic NB2 variance. ``alpha == 0``
    degenerates to a plain Poisson draw.

    ``mu`` may be a scalar or an array; entries equal to zero yield zero
    counts. Returns an integer scalar for scalar input, otherwise an array.
    """
    arr = np.asarray(mu, dtype=float)
    if alpha == 0.0:
        out = rng.poisson(arr)
    else:
        lam = rng.gamma(1.0 / alpha, alpha * arr)
        out = rng.poisson(lam)
    if np.isscalar(mu) or np.ndim(mu) == 0:
        return int(out)
    return out


# Guide-table buckets. A power of two, so ``u * GUIDE_BUCKETS`` and every
# bucket edge ``k / GUIDE_BUCKETS`` are exact in binary floating point.
GUIDE_BUCKETS = 2**16

# uniforms drawn and located per pass, so a large draw needs no temporaries
# of its own size
_DRAWS_PER_PASS = 2**16


class CategoricalSampler:
    """Inverse-CDF draws from one pmf, located through a guide table.

    A draw ``u`` gets index ``searchsorted(cdf, u, side="right")`` on the
    normalized cumulative sum, bit for bit, but looks most draws up in one
    step (Chen & Asau, AIIE Trans. 1974). It compares in bucket units: the
    sampler holds ``cdf * GUIDE_BUCKETS`` and scales each draw the same way,
    both exactly, so every comparison has the unscaled outcome.
    ``first[k]`` counts the CDF values at or below ``k / GUIDE_BUCKETS``,
    so a draw in bucket ``b`` has its index in ``[first[b], first[b + 1]]``.
    With at most one CDF value in the bucket that index is ``first[b]``,
    plus one when ``cdf[first[b]] <= u``; draws in the rare wide buckets,
    those with ``first[b + 1] - first[b] > 1``, fall back to a binary
    search.
    """

    def __init__(self, pmf) -> None:
        cdf = np.cumsum(np.asarray(pmf, dtype=float))
        cdf /= cdf[-1]
        edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
        self.first = np.searchsorted(cdf, edges, side="right").astype(np.int32)
        self.wide = np.diff(self.first) > 1
        cdf *= GUIDE_BUCKETS
        self.scaled_cdf = cdf

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` indices, one per uniform of ``rng.random(size)``. The
        uniforms come ``_DRAWS_PER_PASS`` at a time, which draws the same
        numbers in the same order."""
        out = np.empty(size, dtype=np.intp)
        for start in range(0, size, _DRAWS_PER_PASS):
            chunk = out[start:start + _DRAWS_PER_PASS]
            u = rng.random(chunk.size)
            u *= GUIDE_BUCKETS
            bucket = u.astype(np.intp)
            lo = self.first[bucket]
            # the scaled cdf ends at GUIDE_BUCKETS > u, so lo is a valid
            # index, and scaled_cdf[lo] > u whenever the bucket holds no
            # CDF value
            np.add(lo, self.scaled_cdf[lo] <= u, out=chunk)
            wide = np.flatnonzero(self.wide[bucket])
            chunk[wide] = np.searchsorted(self.scaled_cdf, u[wide], side="right")
        return out
