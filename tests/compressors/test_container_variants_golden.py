"""Golden pins for the container variants no other fixture holds.

``nd_refactor_golden.npz`` pins MGARD reconstructions but not bytes,
``format_tags_golden.npz`` pins the zfp tags, and no encoding stream was
pinned anywhere.  This fixture fills those gaps, so a change to the
framing code must reproduce every byte:

* ``SZR1`` / ``SZV1`` with flag 1 (raw fallback: a field scaled by 1e14
  under a 1e-9 bound overflows the integer grid) and flag 2 (halo-coded:
  neighbour planes plus an entropy context);
* ``MGR2`` 2D with flags 0, 1 and 2, and 3D with flags 1 and 2;
* one :class:`~repro.compressors.base.LosslessBackend` stream for each
  tag ``H``, ``D``, ``P``, ``R``, ``Z`` and ``C``.

Every entry pins the payload bytes and the values they decode to.

Regenerate the fixture ONLY alongside a deliberate container change (and
then bump the tag, per the policy in tests/store/test_format.py)::

    PYTHONPATH=src python tests/compressors/test_container_variants_golden.py --regenerate
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.compressors.base import CompressedField, LosslessBackend
from repro.compressors.halo import TileHalo
from repro.compressors.mgard import MGARDCompressor
from repro.compressors.sz import SZCompressor
from repro.encoding.context import EntropyContext

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "container_variants_golden.npz"

BOUND = 1e-3
RAW_BOUND = 1e-9


def _smooth(rng, shape, axis=-1):
    return np.cumsum(rng.normal(size=shape), axis=axis) / 4.0


def _halo(codec, donor_field, planes):
    """A halo of ``planes`` plus the entropy context of ``donor_field``."""

    donor = codec.compress(donor_field, collect_context=True)
    return TileHalo.build(planes=planes, context=donor.entropy_context)


def _codec_cases():
    """``{name: (codec, field, halo, expected magic, expected flag)}``."""

    rng = np.random.default_rng(20261018)
    plane = _smooth(rng, (16, 16))
    volume = _smooth(rng, (8, 8, 8))
    donor_plane = _smooth(rng, (16, 16), axis=0)
    donor_volume = _smooth(rng, (8, 8, 8), axis=0)
    sz = SZCompressor(BOUND)
    sz_raw = SZCompressor(RAW_BOUND)
    mgard = MGARDCompressor(BOUND)
    mgard_2d_halo = _halo(mgard, donor_plane, [None, None])
    mgard_3d_halo = _halo(mgard, donor_volume, [None, None, None])
    sz_2d_halo = _halo(sz, donor_plane, [donor_plane[-1, :], donor_plane[:, -1]])
    sz_3d_halo = _halo(
        sz,
        donor_volume,
        [donor_volume[-1], donor_volume[:, -1], donor_volume[:, :, -1]],
    )
    return {
        "szr1_raw": (sz_raw, plane * 1e14, None, b"SZR1", 1),
        "szv1_raw": (sz_raw, volume * 1e14, None, b"SZV1", 1),
        "szr1_halo": (sz, plane, sz_2d_halo, b"SZR1", 2),
        "szv1_halo": (sz, volume, sz_3d_halo, b"SZV1", 2),
        "mgr2_2d_plain": (mgard, plane, None, b"MGR2", 0),
        "mgr2_2d_raw": (mgard, plane[:6, :6], None, b"MGR2", 1),
        "mgr2_2d_halo": (mgard, plane, mgard_2d_halo, b"MGR2", 2),
        "mgr2_3d_raw": (mgard, volume[:6, :6, :6], None, b"MGR2", 1),
        "mgr2_3d_halo": (mgard, volume, mgard_3d_halo, b"MGR2", 2),
    }


def _stream_cases():
    """``{name: (backend, symbols, context, expected tag)}``."""

    rng = np.random.default_rng(7)
    runs = np.repeat(rng.integers(0, 4, size=64), rng.integers(2, 9, size=64))
    # Interleaving two skewed streams on disjoint values leaves no runs.
    skewed = np.empty(600, dtype=np.int64)
    skewed[0::2] = rng.geometric(0.5, size=300) - 1
    skewed[1::2] = rng.geometric(0.5, size=300) + 40
    uniform = rng.integers(0, 256, size=300)
    long_runs = np.repeat(rng.integers(0, 4, size=32), 64)
    reference = rng.geometric(0.3, size=800) - 1
    similar = rng.geometric(0.3, size=400) - 1
    context = EntropyContext.from_streams([reference])
    return {
        "stream_h": (LosslessBackend("huffman"), runs, None, b"H"),
        "stream_d": (LosslessBackend("huffman"), skewed, None, b"D"),
        "stream_p": (LosslessBackend("huffman"), uniform, None, b"P"),
        "stream_r": (LosslessBackend("raw"), skewed[:50], None, b"R"),
        "stream_z": (LosslessBackend("zstd"), long_runs, None, b"Z"),
        "stream_c": (LosslessBackend("huffman"), similar, context, b"C"),
    }


def _as_field(blob: bytes, codec, shape) -> CompressedField:
    return CompressedField(
        data=blob,
        original_shape=tuple(shape),
        original_dtype=np.dtype(np.float64),
        compressor=codec.name,
        error_bound=codec.error_bound,
    )


def _build():
    """``{name: bytes}`` payloads and ``{name: array}`` decoded values."""

    payloads, decoded = {}, {}
    for name, (codec, field, halo, _, _) in _codec_cases().items():
        blob = codec.compress(field, halo=halo).data
        payloads[name] = blob
        decoded[name] = codec.decompress(_as_field(blob, codec, field.shape), halo=halo)
    for name, (backend, symbols, context, _) in _stream_cases().items():
        blob = backend.encode_symbols(symbols, context=context)
        payloads[name] = blob
        decoded[name] = backend.decode_symbols(blob, context=context)
    return payloads, decoded


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return {name: data[name] for name in data.files}


class TestContainerVariantsGolden:
    @pytest.mark.parametrize("name", sorted(_codec_cases()))
    def test_container_tag_and_flag(self, golden, name):
        _, _, _, magic, flag = _codec_cases()[name]
        blob = bytes(golden[name + "_bytes"])
        assert blob[:4] == magic
        assert blob[4] == flag

    @pytest.mark.parametrize("name", sorted(_stream_cases()))
    def test_stream_tag(self, golden, name):
        assert bytes(golden[name + "_bytes"])[:1] == _stream_cases()[name][3]

    def test_build_matches_golden_bytes(self, golden):
        payloads, _ = _build()
        for name, blob in payloads.items():
            assert bytes(golden[name + "_bytes"]) == blob, (
                f"{name} bytes drifted from the pinned golden; a layout "
                "change needs a tag bump plus a regenerated fixture"
            )

    @pytest.mark.parametrize("name", sorted(_codec_cases()))
    def test_pinned_container_decodes_to_pinned_values(self, golden, name):
        codec, field, halo, _, _ = _codec_cases()[name]
        blob = bytes(golden[name + "_bytes"])
        values = codec.decompress(_as_field(blob, codec, field.shape), halo=halo)
        np.testing.assert_array_equal(values, golden[name + "_values"])
        assert np.abs(values - field).max() <= codec.error_bound * (1 + 1e-9)

    @pytest.mark.parametrize("name", sorted(_stream_cases()))
    def test_pinned_stream_decodes_to_pinned_symbols(self, golden, name):
        backend, symbols, context, _ = _stream_cases()[name]
        decoded = backend.decode_symbols(bytes(golden[name + "_bytes"]), context=context)
        np.testing.assert_array_equal(decoded, golden[name + "_values"])
        np.testing.assert_array_equal(decoded, symbols)


if __name__ == "__main__":  # pragma: no cover — golden regeneration
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("usage: python test_container_variants_golden.py --regenerate")
    payloads, decoded = _build()
    arrays = {}
    for name, blob in payloads.items():
        arrays[name + "_bytes"] = np.frombuffer(blob, dtype=np.uint8)
        arrays[name + "_values"] = decoded[name]
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    np.savez(GOLDEN_PATH, **arrays)
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")
