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
    if alpha < 0:
        raise ValueError("dispersion must be nonnegative")
    arr = np.asarray(mu, dtype=float)
    if np.any(arr < 0):
        raise ValueError("mean must be nonnegative")
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


class CategoricalSampler:
    """Inverse-CDF draws from one pmf, located through a guide table.

    A draw ``u`` gets index ``searchsorted(cdf, u, side="right")`` on the
    normalized cumulative sum, bit for bit, but looks most draws up in one
    step (Chen & Asau, AIIE Trans. 1974). ``first[k]`` counts the CDF values
    at or below ``k / GUIDE_BUCKETS``, so a draw in bucket ``b`` has its
    index in ``[first[b], first[b + 1]]``. With at most one CDF value in the
    bucket that index is ``first[b]``, plus one when ``cdf[first[b]] <= u``;
    draws in the rare wider buckets fall back to a binary search.
    """

    def __init__(self, pmf) -> None:
        cdf = np.cumsum(np.asarray(pmf, dtype=float))
        if cdf[-1] <= 0:
            raise ValueError("pmf has no mass")
        cdf /= cdf[-1]
        self.cdf = cdf
        edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
        self.first = np.searchsorted(cdf, edges, side="right").astype(np.int32)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` indices, one per uniform of ``rng.random(size)``."""
        u = rng.random(size)
        bucket = (u * GUIDE_BUCKETS).astype(np.intp)
        lo = self.first[bucket]
        # cdf[-1] is 1 > u, so lo is a valid index, and cdf[lo] > u whenever
        # the bucket holds no CDF value
        out = lo.astype(np.intp)
        out += self.cdf[lo] <= u
        wide = np.flatnonzero(self.first[bucket + 1] - lo > 1)
        out[wide] = np.searchsorted(self.cdf, u[wide], side="right")
        return out
