"""Golden pin of the bytes the store's codec policies write.

A 32^3 Miranda-like volume (seed 0) is stored in 16^3 chunks under the
policies ``sz``, ``best``, ``best:sz+zfp`` and ``best:zfp+mgard`` (the
one where a codec other than sz wins), each with halo chunking off and
on: rows 0-15 are written, then rows 16-31 appended.  The SHA-1 of
every store's ``meta.json``, ``index.bin`` and ``chunks.bin`` must
match ``data/policy_store_sha1.json``, so a change to how a policy
picks its codec (``best``'s tie-breaking, the order candidates are
tried in) or to how a spec is canonicalised and persisted cannot slip
through.

Chunk statistics are off: the variogram fit behind them is a numerical
optimiser whose last bits need not agree across platforms, and the pin
is about codec choice, not statistics.

Regenerate the fixture ONLY alongside a deliberate format change::

    PYTHONPATH=src python tests/store/test_policy_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.datasets.miranda import generate_miranda_like_volume
from repro.store import ArrayStore

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "policy_store_sha1.json"

POLICIES = ("sz", "best", "best:sz+zfp", "best:zfp+mgard")
FILES = ("meta.json", "index.bin", "chunks.bin")


def _volume():
    return generate_miranda_like_volume((32, 32, 32), seed=0)


def _build_store(root: pathlib.Path, volume, codec: str, halo: bool) -> dict:
    """Write, append and hash one store; ``{file name: sha1}``."""

    bound = 1e-3 * float(volume.max() - volume.min())
    path = root / f"{codec.replace(':', '_').replace('+', '_')}-halo{int(halo)}"
    store = ArrayStore.create(
        str(path),
        chunk_shape=16,
        error_bound=bound,
        codec=codec,
        chunk_stats=False,
        halo=halo,
    )
    store.write(volume[:16])
    store.append(volume[16:])
    return {
        name: hashlib.sha1((path / name).read_bytes()).hexdigest() for name in FILES
    }


def _key(codec: str, halo: bool) -> str:
    return f"{codec}/halo={'on' if halo else 'off'}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def volume():
    return _volume()


@pytest.mark.parametrize("halo", [False, True], ids=["plain", "halo"])
@pytest.mark.parametrize("codec", POLICIES)
def test_store_files_match_pinned_sha1(tmp_path, golden, volume, codec, halo):
    assert _build_store(tmp_path, volume, codec, halo) == golden[_key(codec, halo)]


if __name__ == "__main__":  # pragma: no cover — golden regeneration
    import sys
    import tempfile

    if "--regenerate" not in sys.argv:
        sys.exit("usage: python test_policy_golden.py --regenerate")
    field = _volume()
    with tempfile.TemporaryDirectory() as scratch:
        pins = {
            _key(codec, halo): _build_store(pathlib.Path(scratch), field, codec, halo)
            for codec in POLICIES
            for halo in (False, True)
        }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(pins)} stores)")
