"""The tile halo carried between neighbouring tiles/chunks.

A :class:`TileHalo` bundles everything a tile codec may borrow from its
*already reconstructed* low-index neighbours:

* ``planes`` — per axis, the one reconstructed plane adjacent to the
  tile's low face (``planes[a]`` has the tile's shape with axis ``a``
  dropped, i.e. the neighbour's high face).  The SZ-like block codec feeds
  these to its Lorenzo predictor so prediction crosses the tile seam
  instead of restarting (:mod:`repro.compressors.blocks`).
* ``context`` — the neighbour's :class:`repro.encoding.context.EntropyContext`
  (pooled symbol statistics of one designated *reference* neighbour), used
  by every container to entropy code its streams without re-paying the
  per-tile table bootstrap.

Both parts come from reconstructed data only, so the encoder and the
decoder can derive bit-identical halos — the decoder reconstructs the
neighbours first (wavefront order in the volume pipeline, anchor-chunk
parity in the array store) and passes the same object to ``decompress``.
The error bound is unaffected: halos steer *prediction and entropy
coding*, while residual quantization stays against the original values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.encoding.context import EntropyContext

__all__ = ["TileHalo", "reconstruction_faces"]


def reconstruction_faces(values: Optional[np.ndarray]) -> dict:
    """High-index face planes of a reconstruction, keyed by axis.

    These are exactly the planes the tile's high neighbours predict from
    — the only part of a reconstruction halo producers need to retain
    (or ship across process boundaries).  Returns ``{}`` when no
    reconstruction is available.
    """

    if values is None:
        return {}
    return {
        axis: np.ascontiguousarray(np.take(values, -1, axis=axis))
        for axis in range(values.ndim)
    }


@dataclass(frozen=True)
class TileHalo:
    """Low-face neighbour planes and the reference entropy context."""

    planes: Tuple[Optional[np.ndarray], ...] = ()
    context: Optional[EntropyContext] = None

    @classmethod
    def build(
        cls,
        planes: Sequence[Optional[np.ndarray]],
        context: Optional[EntropyContext] = None,
    ) -> Optional["TileHalo"]:
        """Normalise inputs; returns ``None`` when the halo carries nothing."""

        normalised = tuple(
            None if p is None else np.ascontiguousarray(p, dtype=np.float64)
            for p in planes
        )
        if all(p is None for p in normalised) and (
            context is None or not context
        ):
            return None
        return cls(planes=normalised, context=context)

    @property
    def axes_mask(self) -> int:
        """Bit ``a`` set when a plane for axis ``a`` is present."""

        mask = 0
        for axis, plane in enumerate(self.planes):
            if plane is not None:
                mask |= 1 << axis
        return mask

    def plane(self, axis: int) -> Optional[np.ndarray]:
        if axis >= len(self.planes):
            return None
        return self.planes[axis]

    def digest(self) -> str:
        """Content hash — memo/dedup keys must distinguish halos."""

        h = hashlib.sha1()
        for axis, plane in enumerate(self.planes):
            h.update(axis.to_bytes(2, "little"))
            if plane is None:
                h.update(b"-")
            else:
                h.update(str(plane.shape).encode())
                h.update(np.ascontiguousarray(plane).tobytes())
        if self.context is not None and self.context:
            h.update(self.context.digest().encode())
        return h.hexdigest()
