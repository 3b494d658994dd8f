"""Column reductions of an R x M score matrix, or of a (G, R, M) stack of
them, one value per column: each acts on the last two axes, reducing over
the rows (``axis=-2``), so a calibration batch and a confidence region's
stacked candidates take the same code.

The statistics call them as ``_kernels.<name>``, looked up on this module
at call time, so a profiler can wrap the reductions for the length of a
run without touching their callers. They reduce through the array methods
(``z.max``, ``z.sum``): the same ufunc reduction as ``np.max`` and
``np.sum``, bit for bit, without their Python-level dispatch. Each
column's sum adds its rows in the order it has on its own, so a column of
a stack gets the bits of the same column in a batch.
"""

import numpy as np


def sup_abs_cols(z):
    """Column-wise sup norm: out[..., m] = max_r |z[..., r, m]|."""
    if z.shape[-2] == 0:
        return np.zeros(z.shape[:-2] + z.shape[-1:])
    return np.abs(z).max(axis=-2)


def block_max_norm_cols(z, block_ids, n_blocks):
    """Column-wise max of block 2-norms.

    ``block_ids[r]`` assigns row r to a block; out[..., m] is the largest
    euclidean norm among the blocks of column m.
    """
    sq = np.zeros(z.shape[:-2] + (n_blocks, z.shape[-1]))
    # rows first: each block's squares are added row by row, in row order
    np.add.at(np.moveaxis(sq, -2, 0), block_ids, np.moveaxis(z * z, -2, 0))
    return np.sqrt(sq.max(axis=-2))


def norm_cols(z):
    """Column-wise euclidean norms."""
    return np.sqrt((z * z).sum(axis=-2))
