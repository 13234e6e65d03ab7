"""Absolute bars on the volume pipeline: design properties with fixed
bounds that must hold on any machine.  Kept out of tier-1: the stream
bar writes a 128 MiB volume, and the speedup bar needs idle cores.

    PYTHONPATH=src python -m pytest benchmarks/test_bars.py -q -s
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED
from repro.datasets.miranda import generate_miranda_like_volume
from repro.utils.parallel import ParallelConfig
from repro.volumes.pipeline import compress_volume, decompress_volume

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prints the peak RSS growth (bytes) of streaming the ``.npy`` file
#: argv[1] through the compressor.  execve resets ``VmHWM`` (fork+exec
#: keeps ``ru_maxrss``), and a tiny warm-up stream of the ``.npy`` file
#: argv[2] first pins the interpreter and NumPy into the mark, so the
#: delta is the streaming run's own.
_PEAK_PROBE = """
import sys
import numpy as np
from repro.volumes.streaming import compress_volume_stream

def peak_kb():
    with open('/proc/self/status') as fh:
        return int([line for line in fh if line.startswith('VmHWM')][0].split()[1])

compress_volume_stream(sys.argv[2], 'sz', 1e-3, tile_shape=(8, 8, 8))
before = peak_kb()
compress_volume_stream(sys.argv[1], 'sz', 1e-3, tile_shape=(32, 32, 32))
print((peak_kb() - before) * 1024)
"""


def _peak_rss_growth(path: Path, warm: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", _PEAK_PROBE, str(path), str(warm)],
                            capture_output=True, text=True, env=env, check=True)
    return int(result.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc VmHWM")
def test_stream_peak_rss(tmp_path):
    """Streaming a 256^3 volume keeps its peak RSS growth below twice the
    measured peak of streaming one 32-row slab.  The one-slab peak is
    measured rather than assumed because the codec's own transient
    buffers dwarf the raw slab; keeping per-slab state blows past 2x."""

    big = generate_miranda_like_volume((256, 256, 256), seed=BENCH_SEED)
    np.save(tmp_path / "vol256.npy", big)
    np.save(tmp_path / "slab.npy", np.ascontiguousarray(big[:32]))
    np.save(tmp_path / "warm.npy", np.ones((8, 8, 8)))
    del big
    one_slab = _peak_rss_growth(tmp_path / "slab.npy", tmp_path / "warm.npy")
    stream = _peak_rss_growth(tmp_path / "vol256.npy", tmp_path / "warm.npy")
    print(f"\nstream-peak-rss: {stream / 2**20:.1f} MiB (one slab {one_slab / 2**20:.1f} MiB)")
    assert stream < 2 * one_slab


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU cannot show a parallel gain")
def test_vol_decode_speedup():
    """The parallel wavefront decode of a 64^3 halo volume is >= 1.5x the
    serial decode, best of three each.  The shared process pool outlives
    each call, so at least the last two parallel decodes run on warm
    workers and the best of three does not pay pool start-up."""

    volume = generate_miranda_like_volume((64, 64, 64), seed=BENCH_SEED)
    compressed = compress_volume(
        volume, "sz", 1e-3, tile_shape=(32, 32, 32), halo=True
    )
    parallel = ParallelConfig(workers=min(4, os.cpu_count() or 1))
    best = {}
    for name, config in (("serial", None), ("parallel", parallel)):
        best[name] = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            decompress_volume(compressed, parallel=config)
            best[name] = min(best[name], time.perf_counter() - start)
    speedup = best["serial"] / best["parallel"]
    print(f"\nvol-decode-speedup: {speedup:.2f}x with {parallel.workers} workers")
    assert speedup >= 1.5
