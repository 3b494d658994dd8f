"""Column reductions of an R x M score matrix, one value per column.

The statistics call them as ``_kernels.<name>``, looked up on this module
at call time, so a profiler can wrap the reductions for the length of a
run without touching their callers. They reduce through the array methods
(``z.max``, ``z.sum``): the same ufunc reduction as ``np.max`` and
``np.sum``, bit for bit, without their Python-level dispatch, which a
region pays once per grid point on a single column.
"""

import numpy as np


def sup_abs_cols(z):
    """Column-wise sup norm of a 2-d array: out[m] = max_r |z[r, m]|."""
    if z.shape[0] == 0:
        return np.zeros(z.shape[1])
    return np.abs(z).max(axis=0)


def block_max_norm_cols(z, block_ids, n_blocks):
    """Column-wise max of block 2-norms.

    ``block_ids[r]`` assigns row r to a block; out[m] is the largest
    euclidean norm among the blocks of column m.
    """
    sq = np.zeros((n_blocks, z.shape[1]))
    np.add.at(sq, block_ids, z * z)
    return np.sqrt(sq.max(axis=0))


def norm_cols(z):
    """Column-wise euclidean norms."""
    return np.sqrt((z * z).sum(axis=0))
