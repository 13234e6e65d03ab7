"""Property-based tests shared by every compressor.

These are the library's headline invariants:

* the point-wise absolute error bound is respected for arbitrary fields,
* decompress(compress(x)) equals the reconstruction reported by compress,
* the compression ratio is monotone (non-strictly) in the error bound for
  fixed data.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors.mgard import MGARDCompressor
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor

COMPRESSOR_CLASSES = [SZCompressor, ZFPCompressor, MGARDCompressor]

field_strategy = hnp.arrays(
    np.float64,
    st.tuples(st.integers(min_value=9, max_value=40), st.integers(min_value=9, max_value=40)),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
)

bound_strategy = st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1, 1.0])


@pytest.mark.parametrize("compressor_cls", COMPRESSOR_CLASSES, ids=lambda c: c.name)
class TestCompressorProperties:
    @given(field=field_strategy, bound=bound_strategy)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_error_bound_holds_for_arbitrary_fields(self, compressor_cls, field, bound):
        compressor = compressor_cls(bound)
        compressed = compressor.compress(field)
        assert np.abs(compressed.reconstruction - field).max(initial=0.0) <= bound * (1 + 1e-9)

    @given(field=field_strategy, bound=bound_strategy)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_decompress_matches_reported_reconstruction(self, compressor_cls, field, bound):
        compressor = compressor_cls(bound)
        compressed = compressor.compress(field)
        decompressed = compressor.decompress(compressed)
        np.testing.assert_allclose(decompressed, compressed.reconstruction, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_cr_monotone_in_error_bound(self, compressor_cls, seed):
        field = np.random.default_rng(seed).normal(size=(48, 48))
        bounds = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        crs = [compressor_cls(b).compress(field).compression_ratio for b in bounds]
        for tighter, looser in zip(crs, crs[1:]):
            assert looser >= tighter * 0.999  # allow tiny header-noise inversions

    @given(
        field=hnp.arrays(
            np.float64,
            (20, 20),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_compressed_blob_is_self_contained(self, compressor_cls, field):
        bound = 1e-3
        producer = compressor_cls(bound)
        compressed = producer.compress(field)
        consumer = compressor_cls(1.0)  # differently configured instance
        decompressed = consumer.decompress(compressed)
        assert np.abs(decompressed - field).max(initial=0.0) <= bound * (1 + 1e-9)
