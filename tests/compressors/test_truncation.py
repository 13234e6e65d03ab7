"""A cut payload raises ``EOFError``: never ``struct.error``, never an array.

Every strict prefix of a small sz / zfp / mgard container (2D and 3D,
plain, halo-coded and raw fallback) is decoded, and each decode must stop
with ``EOFError`` at the first framed read whose bytes are missing.  zfp
has no raw fallback container, so its third variant stores exact blocks
instead (a field scaled by 1e14 under a 1e-9 bound).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors.base import CompressedField
from repro.compressors.halo import TileHalo
from repro.compressors.mgard import MGARDCompressor
from repro.compressors.sz import SZCompressor
from repro.compressors.zfp import ZFPCompressor

CODECS = {"sz": SZCompressor, "zfp": ZFPCompressor, "mgard": MGARDCompressor}
SHAPES = {"2d": (8, 8), "3d": (8, 8, 8)}
#: Raw-fallback shapes: mgard stores fields too small for one coarsening
#: step verbatim, sz and zfp fall back on magnitude instead.
RAW_SHAPES = {"2d": (4, 4), "3d": (3, 3, 3)}


def _field(shape, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(size=shape), axis=-1) / 4.0


def _container(codec_name, dims, variant):
    """``(codec, compressed field, halo)`` for one case."""

    shape = SHAPES[dims]
    if variant == "raw":
        codec = CODECS[codec_name](1e-9)
        field = _field(RAW_SHAPES[dims], 1) * 1e14
        return codec, codec.compress(field), None
    codec = CODECS[codec_name](1e-3)
    field = _field(shape, 2)
    halo = None
    if variant == "halo":
        donor = _field(shape, 3)
        context = codec.compress(donor, collect_context=True).entropy_context
        planes = [np.take(donor, -1, axis=axis) for axis in range(donor.ndim)]
        halo = TileHalo.build(planes=planes, context=context)
    return codec, codec.compress(field, halo=halo), halo


@pytest.mark.parametrize("variant", ["plain", "halo", "raw"])
@pytest.mark.parametrize("dims", sorted(SHAPES))
@pytest.mark.parametrize("codec_name", sorted(CODECS))
def test_every_strict_prefix_raises_eof(codec_name, dims, variant):
    codec, compressed, halo = _container(codec_name, dims, variant)
    blob = compressed.data
    np.testing.assert_array_equal(
        codec.decompress(compressed, halo=halo), compressed.reconstruction
    )
    for cut in range(len(blob)):
        prefix = CompressedField(
            data=blob[:cut],
            original_shape=compressed.original_shape,
            original_dtype=compressed.original_dtype,
            compressor=compressed.compressor,
            error_bound=compressed.error_bound,
        )
        with pytest.raises(EOFError):
            codec.decompress(prefix, halo=halo)
