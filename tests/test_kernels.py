"""The column reductions agree with their dense definitions."""

import numpy as np
import pytest

from threshtest import _kernels


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def _dense_block_max(z, ids, n_blocks):
    """max over blocks l of ||z[rows of block l], m||_2, one block at a time."""
    ids = np.asarray(ids)
    return np.max([np.linalg.norm(z[ids == l], axis=0) for l in range(n_blocks)],
                  axis=0)


class TestKernelAgreement:
    def test_sup_abs_cols(self, rng):
        z = rng.standard_normal((17, 23))
        np.testing.assert_array_equal(_kernels.sup_abs_cols(z),
                                      np.max(np.abs(z), axis=0))

    def test_sup_abs_cols_empty_rows(self):
        z = np.zeros((0, 4))
        np.testing.assert_array_equal(_kernels.sup_abs_cols(z), np.zeros(4))
        np.testing.assert_array_equal(_kernels.norm_cols(z), np.zeros(4))
        np.testing.assert_array_equal(
            _kernels.block_max_norm_cols(z, np.zeros(0, dtype=np.int64), 2),
            np.zeros(4))

    def test_block_max_norm_cols(self, rng):
        z = rng.standard_normal((9, 13))
        ids = np.array([0, 0, 1, 1, 1, 2, 2, 0, 2], dtype=np.int64)
        np.testing.assert_allclose(_kernels.block_max_norm_cols(z, ids, 3),
                                   _dense_block_max(z, ids, 3), rtol=1e-12)

    def test_block_ids_unsorted_and_int32(self, rng):
        z = rng.standard_normal((12, 7))
        ids = rng.permutation(np.arange(12) % 4)
        want = _dense_block_max(z, ids, 4)
        for dtype in (np.int64, np.int32):
            np.testing.assert_allclose(
                _kernels.block_max_norm_cols(z, ids.astype(dtype), 4), want,
                rtol=1e-12)

    def test_block_singletons_equal_sup(self, rng):
        z = rng.standard_normal((6, 8))
        ids = np.arange(6, dtype=np.int64)
        np.testing.assert_allclose(_kernels.block_max_norm_cols(z, ids, 6),
                                   np.max(np.abs(z), axis=0), rtol=1e-15)

    def test_norm_cols(self, rng):
        z = rng.standard_normal((11, 7))
        np.testing.assert_allclose(_kernels.norm_cols(z),
                                   np.linalg.norm(z, axis=0), rtol=1e-12)
        # the same reduction as np.sum's, bit for bit
        np.testing.assert_array_equal(_kernels.norm_cols(z), np.sqrt(np.sum(z * z, axis=0)))

    def test_noncontiguous_input(self, rng):
        z = rng.standard_normal((10, 10))[::2, ::2]
        assert not z.flags.c_contiguous
        np.testing.assert_array_equal(_kernels.sup_abs_cols(z),
                                      np.max(np.abs(z), axis=0))
        np.testing.assert_allclose(_kernels.norm_cols(z),
                                   np.linalg.norm(z, axis=0), rtol=1e-12)
        ids = np.array([1, 0, 1, 0, 2])
        np.testing.assert_allclose(_kernels.block_max_norm_cols(z, ids, 3),
                                   _dense_block_max(z, ids, 3), rtol=1e-12)

    def test_module_defines_only_the_reductions(self):
        public = {name for name in vars(_kernels)
                  if not name.startswith("_") and callable(getattr(_kernels, name))}
        assert public == {"sup_abs_cols", "block_max_norm_cols", "norm_cols"}
