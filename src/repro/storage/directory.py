"""The directory backend: one JSON file per entry.

One ``<key>.json`` file per entry, written atomically via ``mkstemp`` +
``os.replace`` — byte-compatible with the flat cache directories written
by every previous release (a ``--cache-dir`` populated before the storage
layer existed is a valid ``dir:`` backend and vice versa).  Failure
semantics are :class:`~repro.storage.base.StorageBackend`'s: a corrupt
entry reads as a miss, is counted in ``read_errors`` and evicted, and
``BREAKER_THRESHOLD`` failed writes in a row trip the write breaker for
the rest of the process.

This class is also the file-backend core of
:class:`~repro.storage.sharded.ShardedDirectoryBackend`, which overrides
only the layout (``_path``, ``_entry_paths``, ``_write_lock``) and the
entry format (``_encode``/``_decode``).

Single-writer worldview: concurrent writers from *different processes*
do not corrupt entries (the rename is atomic) but share no eviction or
accounting; for many-writer shared storage use
:class:`repro.storage.sharded.ShardedDirectoryBackend`, for real
eviction/TTL/hit statistics use :class:`repro.storage.sqlite.SqliteBackend`
(decision guide in ``docs/storage.md``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .base import EntryInfo, StorageBackend, check_storable

__all__ = ["DirectoryBackend"]


class DirectoryBackend(StorageBackend):
    """A flat directory of JSON entries (see module docstring)."""

    scheme = "dir"

    def __init__(self, directory: str | os.PathLike):
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- layout and entry format (the sharded backend overrides these) -------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _entry_paths(self) -> list[Path]:
        """Every entry file, in no particular order (may raise OSError)."""
        return list(self.directory.glob("*.json"))

    @contextmanager
    def _write_lock(self, folder: Path) -> Iterator[None]:
        """Held around one entry write; the flat layout takes no lock."""
        yield

    def _encode(self, key: str, value: Any) -> str:
        return json.dumps(value)

    def _decode(self, key: str, text: str, verify: bool = False) -> Any:
        """The value an entry holds; raises ``ValueError``, ``KeyError``
        or ``TypeError`` when the entry is corrupt.  Flat entries carry
        no digest, so *verify* (a full re-check) adds nothing here."""
        return json.loads(text)

    # -- data plane ----------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        if self._admit("get") == "skip":
            return default
        path = self._path(key)
        try:
            with open(path) as fh:
                value = self._decode(key, fh.read())
        except FileNotFoundError:
            self._record_miss()
            return default
        except (OSError, ValueError, TypeError, KeyError):
            # The entry exists but does not decode (truncated write, bit
            # rot, filed under the wrong key): a miss, plus eviction so it
            # cannot keep failing.
            self._record_miss(read_error=True)
            try:
                os.unlink(path)
            except OSError:
                pass
            return default
        self._record_hit()
        return value

    def put(self, key: str, value: Any) -> None:
        """Best-effort write: a failed put is counted, never raised.

        Serialization errors (a non-JSON-able value) are caught like I/O
        errors — a cache write must never abort an otherwise-successful
        evaluation — and the temp file is always cleaned up rather than
        leaked into the cache directory.
        """
        check_storable(value)
        mode = self._admit("put")
        if mode == "skip":
            return
        path = self._path(key)
        tmp: str | None = None
        try:
            text = self._encode(key, value)
            if mode == "torn":
                # An injected torn write: the rename lands but the payload
                # is a truncated prefix (a crash on a non-atomic
                # filesystem); the next read or verify() flags it corrupt.
                text = text[:max(1, len(text) // 2)]
            with self._write_lock(path.parent):
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, path)
        except (OSError, TypeError, ValueError):
            self._record_write_error()
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        else:
            self._record_write()

    def delete(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
        except OSError:
            return False
        return True

    # -- control plane -------------------------------------------------------

    def _entries(self) -> Iterator[tuple[str, Path, os.stat_result]]:
        try:
            found = sorted((path.stem, path) for path in self._entry_paths())
        except OSError:
            return
        for key, path in found:
            try:
                yield key, path, path.stat()
            except OSError:
                continue

    def scan(self) -> Iterator[EntryInfo]:
        for key, _path, st in self._entries():
            yield EntryInfo(key=key, size=st.st_size, created=st.st_mtime,
                            last_used=st.st_mtime)

    def _store_stats(self) -> dict[str, Any]:
        try:
            return {"entries": len(self._entry_paths())}
        except OSError:
            return {"entries": 0}

    def verify(self) -> list[str]:
        """Corrupt keys: entries that do not decode or sit at the wrong
        path.  Flat entries are checked structurally (the format predates
        the storage layer); the sharded envelope also re-hashes values."""
        corrupt: list[str] = []
        for key, path, _st in self._entries():
            try:
                with open(path) as fh:
                    self._decode(key, fh.read(), verify=True)
                ok = path == self._path(key)
            except (OSError, ValueError, TypeError, KeyError):
                ok = False
            if not ok:
                corrupt.append(key)
        return corrupt

    def evict_older_than(self, seconds: float) -> int:
        cutoff = time.time() - seconds
        evicted = 0
        for _key, path, st in list(self._entries()):
            if st.st_mtime < cutoff:
                try:
                    os.unlink(path)
                except OSError:
                    continue
                evicted += 1
        return evicted
