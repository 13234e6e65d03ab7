"""The array store's codec policy: a spec string and the codecs it lists.

Every chunk is compressed with each listed codec and keeps the smallest
payload (the first listed wins a tie), so one rule covers both forms:

* ``"NAME"`` or ``"fixed:NAME"`` lists one registry codec;
* ``"best"`` or ``"best:NAME+NAME"`` lists several (``best`` alone means
  ``sz+zfp+mgard``).

The canonical spec (``"fixed:sz"``, ``"best:sz+zfp+mgard"``) is what
``meta.json`` persists and what the store's chunk cache keys include.
"""

from __future__ import annotations

from typing import Tuple

from repro.compressors.registry import available_compressors

__all__ = ["DEFAULT_CANDIDATES", "parse_policy"]

#: The codecs a bare ``best`` lists.
DEFAULT_CANDIDATES = ("sz", "zfp", "mgard")


def parse_policy(spec: str) -> Tuple[str, Tuple[str, ...]]:
    """``(canonical spec, candidate codecs)`` of a policy spec.

    Raises :class:`ValueError` naming the spec when it is not a string,
    has an unknown form, or lists no codec, an unknown codec or one
    codec twice.
    """

    if not isinstance(spec, str) or not spec:
        raise ValueError(f"invalid codec policy spec {spec!r}")
    head, colon, tail = spec.partition(":")
    if head == "best":
        candidates = tuple(tail.split("+")) if tail else DEFAULT_CANDIDATES
    elif head == "fixed" and tail:
        candidates = (tail,)
    elif not colon:
        head, candidates = "fixed", (spec,)
    else:
        raise ValueError(
            f"invalid codec policy spec {spec!r}; expected NAME, fixed:NAME, "
            "best or best:NAME+NAME"
        )
    known = available_compressors()
    for name in candidates:
        if name not in known:
            raise ValueError(
                f"codec policy spec {spec!r} names unknown codec {name!r}; "
                f"available: {known}"
            )
    if len(set(candidates)) != len(candidates):
        raise ValueError(f"codec policy spec {spec!r} lists a codec twice")
    return f"{head}:{'+'.join(candidates)}", candidates
