"""Rayleigh-fading power gains with reproducible, parallel-safe draws.

Gains are exponential: H_k = |h_k|^2 with h_k ~ CN(0, lambda_k), so H_k has
mean lambda_k. Draws are keyed by (master seed, block index) only, never by
execution order, so any worker can regenerate any trial.
"""

from dataclasses import dataclass

import numpy as np

# Trials per random block. Fixed so that trial t always lives at row
# t % CHUNK of block t // CHUNK, whatever the worker count.
CHUNK = 1 << 14

_GAIN_DOMAIN = 0


@dataclass(frozen=True)
class ChannelParams:
    """Mean power gains, one per receiver."""

    variances: tuple

    def __post_init__(self):
        if len(self.variances) == 0:
            raise ValueError("need at least one receiver")
        if not all(0 < v < np.inf for v in self.variances):  # NaN fails too
            raise ValueError("variances must be positive and finite")


def block_rng(master, block_index):
    """Generator for one block of trials, keyed by (seed, block) alone."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=(_GAIN_DOMAIN, block_index))
    return np.random.default_rng(ss)


def sample_block(params, master, block_index, count=CHUNK):
    """Draw the gains for one block as a (count, K) array in column-major
    order, so each receiver's column block[:, k] is contiguous.

    The full block is always generated, row by row, before slicing, so row i
    holds the same trial no matter how many rows the caller asked for, and
    the layout changes where the values sit, never what they are. Exact
    zeros (measure zero, but the gain contract is strict positivity) are
    redrawn.
    """
    if not 0 < count <= CHUNK:
        raise ValueError("count must be in 1..%d" % CHUNK)
    rng = block_rng(master, block_index)
    lam = np.asarray(params.variances, dtype=np.float64)
    # standard_exponential is exponential(1.0) without its scale multiply,
    # the same values from the same stream. Each column is scaled straight
    # into the column-major block.
    e = rng.standard_exponential(size=(CHUNK, lam.size))
    g = np.empty((CHUNK, lam.size), order="F")
    for k in range(lam.size):
        np.multiply(e[:, k], lam[k], out=g[:, k])
    bad = ~(g > 0)
    while bad.any():
        # Boolean indexing reads in row order whatever the layout, so the
        # redraws land where a row-major draw puts them.
        g[bad] = rng.standard_exponential(size=int(bad.sum())) * np.broadcast_to(lam, g.shape)[bad]
        bad = ~(g > 0)
    return np.asfortranarray(g[:count])
