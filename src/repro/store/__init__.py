"""Chunked compressed array store (zarr-style persistence layer).

The rest of the repository measures compression in one-shot experiments:
compress a field, record the ratio, throw the bytes away.  This package
keeps the bytes — an N-d float array is sharded into fixed-size chunks,
each chunk is compressed independently with any registry codec, and the
result is persisted as a small directory:

```
store/
  meta.json    # shape, dtype, chunk shape, bound, policy, per-chunk stats
  index.bin    # binary chunk index: offset / length / codec / checksum
  chunks.bin   # concatenated compressed chunk payloads
```

Random-access partial reads decode **only** the chunks intersecting the
requested region.  A store's codec policy is the list of codecs it may
use (``sz``, ``fixed:zfp``, ``best``, ``best:sz+zfp``): each chunk keeps
the smallest payload among them, so ``best`` records per chunk which
codec compresses that window of the field best.

Public API: :class:`ArrayStore` (create / open / write / read / append /
compact / info), :class:`StoreSnapshot` (immutable concurrent-reader-safe
read views, see :mod:`repro.store.snapshot`), the region text syntax
(:func:`parse_region_text` / :func:`format_region`), the codec policy
parser (:func:`parse_policy`) and the index format helpers in
:mod:`repro.store.format`.
"""

from repro.store.array_store import (
    ArrayStore,
    ChunkRecord,
    ReadReport,
)
from repro.store.format import (
    INDEX_VERSION,
    IndexRecord,
    StoreCorruptionError,
    StoreFormatError,
    pack_index,
    unpack_index,
)
from repro.store.region import format_region, parse_region_text
from repro.store.snapshot import StoreSnapshot, load_store_state
from repro.store.policy import parse_policy

__all__ = [
    "ArrayStore",
    "ChunkRecord",
    "ReadReport",
    "StoreSnapshot",
    "load_store_state",
    "parse_region_text",
    "format_region",
    "IndexRecord",
    "INDEX_VERSION",
    "StoreFormatError",
    "StoreCorruptionError",
    "pack_index",
    "unpack_index",
    "parse_policy",
]
