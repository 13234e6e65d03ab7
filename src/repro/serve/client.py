"""Blocking stdlib client for the array service (``http.client`` only).

:class:`StoreClient` mirrors the server routes: ``ls`` / ``info`` /
``get`` / ``put`` / ``append`` / ``compact`` / ``chunk`` / ``stats``.
``get`` supports both transfer modes:

* ``decode="server"`` — the server decodes and ships ``.npy`` bytes.
* ``decode="client"`` — the server ships index records plus the needed
  still-compressed chunk payloads (``mode=chunks``); the client rebuilds
  a :class:`~repro.store.snapshot.StoreSnapshot` over the body and
  decodes locally through the exact store read path, so the result is
  bit-identical to a server-side decode by construction — and the server
  spends no decode CPU on the request.

Connections are keep-alive and reused; a request that trips over a
server-closed idle connection is retried once on a fresh connection
(only before any response bytes arrive, so it never doubles a mutation).
"""

from __future__ import annotations

import http.client
import io
import json
import socket
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode, urlsplit

import numpy as np

from repro.store.format import IndexRecord
from repro.store.region import format_region
from repro.store.snapshot import ReadReport, StoreSnapshot

__all__ = ["StoreClient", "ServeError"]


class ServeError(Exception):
    """Non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.message = str(message)


class StoreClient:
    """One connection to a ``repro serve`` endpoint.

    ``url`` is the server base, e.g. ``http://127.0.0.1:8787``.  Usable
    as a context manager; safe to share across sequential calls but not
    across threads (each load-generator thread opens its own).
    """

    def __init__(self, url: str, *, timeout: float = 60.0) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"only http:// endpoints are supported, got {url!r}")
        if not split.hostname:
            raise ValueError(f"no host in server url {url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = float(timeout)
        self._conn: Optional[http.client.HTTPConnection] = None
        #: Header dict of the most recent response (lower-cased names).
        self.last_headers: Dict[str, str] = {}

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- plumbing --------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        target = path + (f"?{urlencode(query)}" if query else "")
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._conn.request(method, target, body=body, headers=headers or {})
                response = self._conn.getresponse()
                payload = response.read()
            except (
                http.client.BadStatusLine,
                http.client.CannotSendRequest,
                ConnectionError,
                BrokenPipeError,
                socket.timeout,
            ):
                # Stale keep-alive connection; retry once on a fresh one.
                self.close()
                if attempt:
                    raise
                continue
            self.last_headers = {
                name.lower(): value for name, value in response.getheaders()
            }
            if response.will_close:
                self.close()
            return response.status, payload
        raise AssertionError("unreachable")

    def _check(self, status: int, payload: bytes) -> bytes:
        if status >= 400:
            message = payload.decode("utf-8", "replace")
            try:
                message = json.loads(message)["error"]
            except (json.JSONDecodeError, KeyError, TypeError):
                pass
            raise ServeError(status, message)
        return payload

    def _json(self, status: int, payload: bytes) -> Dict:
        return json.loads(self._check(status, payload).decode("utf-8"))

    # -- routes ----------------------------------------------------------
    def healthz(self) -> bool:
        status, _ = self._request("GET", "/healthz")
        return status == 200

    def stats(self) -> Dict:
        return self._json(*self._request("GET", "/stats"))

    def debug_vars(self, window: Optional[float] = None) -> Dict:
        """``GET /debug/vars`` — the server's metrics-history series."""

        query = {"window": str(window)} if window is not None else None
        return self._json(*self._request("GET", "/debug/vars", query))

    def debug_requests(self) -> Dict:
        """``GET /debug/requests`` — captured slow requests by route."""

        return self._json(*self._request("GET", "/debug/requests"))

    def ls(self) -> List[str]:
        return self._json(*self._request("GET", "/ds"))["datasets"]

    def info(self, name: str) -> Dict:
        return self._json(*self._request("GET", f"/ds/{name}/info"))

    def get(
        self, name: str, region=None, *, decode: str = "server"
    ) -> np.ndarray:
        """Fetch a region (``decode="server"`` → npy, ``"client"`` → local)."""

        if decode not in ("server", "client"):
            raise ValueError(f"decode must be 'server' or 'client', got {decode!r}")
        query = {"region": format_region(region)}
        if decode == "client":
            query["mode"] = "chunks"
            payload = self._check(
                *self._request("GET", f"/ds/{name}", query=query)
            )
            values, _report = decode_chunks_body(payload, region)
            return values
        payload = self._check(*self._request("GET", f"/ds/{name}", query=query))
        return np.load(io.BytesIO(payload), allow_pickle=False)

    def put(
        self,
        name: str,
        array: np.ndarray,
        *,
        codec: str = "sz",
        error_bound: float = 1e-3,
        chunk: Optional[int] = None,
        halo: bool = False,
    ) -> Dict:
        query = {"codec": codec, "error_bound": repr(float(error_bound))}
        if chunk is not None:
            query["chunk"] = str(int(chunk))
        if halo:
            query["halo"] = "1"
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
        return self._json(
            *self._request("PUT", f"/ds/{name}", query=query, body=buffer.getvalue())
        )

    def append(self, name: str, array: np.ndarray) -> Dict:
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
        return self._json(
            *self._request("POST", f"/ds/{name}/append", body=buffer.getvalue())
        )

    def compact(self, name: str) -> Dict:
        return self._json(*self._request("POST", f"/ds/{name}/compact"))

    def chunk(
        self, name: str, linear: int, *, etag: Optional[str] = None
    ) -> Tuple[Optional[bytes], str]:
        """Fetch one raw chunk payload; ``(None, etag)`` on a 304 hit."""

        headers = {"If-None-Match": etag} if etag else {}
        status, payload = self._request(
            "GET", f"/ds/{name}/chunk/{int(linear)}", headers=headers
        )
        if status == 304:
            return None, self.last_headers.get("etag", etag or "")
        self._check(status, payload)
        return payload, self.last_headers.get("etag", "")


def decode_chunks_body(body: bytes, region=None) -> Tuple[np.ndarray, ReadReport]:
    """Decode a ``mode=chunks`` response body locally.

    Rebuilds a :class:`StoreSnapshot` whose data source is the body's
    payload section and whose index is the rebased records, then runs the
    ordinary snapshot read — one code path for server- and client-side
    decoding, which is what makes the two modes bit-identical.
    """

    if len(body) < 8:
        raise ValueError("chunks body too short for its header length")
    header_len = int.from_bytes(body[:8], "little")
    if len(body) < 8 + header_len:
        raise ValueError("chunks body shorter than its declared header")
    header = json.loads(body[8 : 8 + header_len].decode("utf-8"))
    if header.get("format") != "repro-serve-chunks" or header.get("version") != 1:
        raise ValueError(f"unsupported chunks payload: {header.get('format')!r}")
    payloads = body[8 + header_len :]
    index = [
        IndexRecord(
            offset=int(offset),
            length=int(length),
            codec=str(codec),
            checksum=int(checksum),
            flags=int(flags),
        )
        for offset, length, codec, checksum, flags in header["records"]
    ]
    snapshot = StoreSnapshot(header["meta"], index, data=payloads)
    return snapshot.read(region)
