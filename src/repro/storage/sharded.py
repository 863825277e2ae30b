"""The sharded directory backend: many writer processes, one tier.

The flat :class:`~repro.storage.directory.DirectoryBackend` is safe for
one writer; on shared storage with many batch/serve processes it piles
every entry (and every temp file) into one directory.  This backend
splits the keyspace by fingerprint prefix into ``shards`` subdirectories
(``int(key[:8], 16) % shards``) and makes each write crash- and
contention-safe:

* **Atomic rename per entry** — ``mkstemp`` in the destination shard,
  then ``os.replace``; readers see the old entry or the new one, never a
  torn mix.  A writer hard-killed mid-put leaves at most a stray
  ``*.tmp`` file, never a corrupt entry.
* **Advisory lock per shard** — writers take ``flock`` on the shard's
  ``.lock`` file for the duration of a put, so concurrent writers to the
  same shard serialize instead of racing temp-file churn (platforms
  without ``fcntl`` degrade to lock-free atomic renames, which are still
  torn-read safe).
* **Self-verifying envelope** — entries are stored as
  ``{"k": key, "d": digest, "v": value}``; a read checks the embedded
  key (so an entry copied or renamed under the wrong name is a corrupt
  miss, counted and evicted), while :meth:`verify` additionally
  re-hashes every value against ``d`` to catch bit rot.  The hot read
  path skips the re-hash on purpose: torn writes cannot exist under
  atomic renames, and re-hashing every warm hit would double its JSON
  cost (the bench gates warm hits at ≤25% over the flat dir backend).

The shard count is pinned in a ``_shards.json`` marker at the root so
every process slicing the tree agrees on the layout; opening an existing
tier with a conflicting explicit ``shards=`` is an error rather than a
silent re-hash.  Everything else — the read and write paths, corrupt-entry
eviction, the write breaker and the fault accounting — is
:class:`~repro.storage.directory.DirectoryBackend`'s, inherited unchanged.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..serving.fingerprint import digest
from .directory import DirectoryBackend

__all__ = ["ShardedDirectoryBackend"]

_META_NAME = "_shards.json"
_DEFAULT_SHARDS = 16


class ShardedDirectoryBackend(DirectoryBackend):
    """Fingerprint-prefix shards with locked atomic writes (see module doc)."""

    scheme = "shard"

    def __init__(self, directory: str | os.PathLike,
                 shards: int | None = None):
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        super().__init__(directory)
        self.shards = self._pin_shard_count(shards)
        self._width = max(2, len(f"{self.shards - 1:x}"))
        # Shard directories are addressed on every get/put; precompute
        # the Path objects instead of re-formatting hex names per call.
        self._shard_dirs = [
            self.directory / f"{i:0{self._width}x}"
            for i in range(self.shards)]

    # -- layout --------------------------------------------------------------

    def _pin_shard_count(self, requested: int | None) -> int:
        """Agree on the shard count with every other process on this tree.

        The first opener writes ``_shards.json`` (atomically, so a racing
        pair converges on whichever rename lands); later openers inherit
        it, and an *explicit* conflicting request is an error — silently
        re-hashing a populated tree would orphan every entry.
        """
        meta_path = self.directory / _META_NAME
        for _attempt in range(2):
            try:
                with open(meta_path) as fh:
                    pinned = int(json.load(fh)["shards"])
            except FileNotFoundError:
                pinned = None
            except (OSError, ValueError, TypeError, KeyError) as exc:
                raise ValueError(
                    f"unreadable shard marker {meta_path}: {exc}") from exc
            if pinned is not None:
                if requested is not None and requested != pinned:
                    raise ValueError(
                        f"{self.directory} is sharded {pinned} ways; "
                        f"refusing to open it with shards={requested}")
                return pinned
            count = requested if requested is not None else _DEFAULT_SHARDS
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump({"shards": count}, fh)
            os.replace(tmp, meta_path)
            # Loop once more to read back whichever writer won the race.
        raise ValueError(f"could not pin shard count under {self.directory}")

    def _shard_index(self, key: str) -> int:
        try:
            prefix = int(key[:8], 16)
        except ValueError:
            # Keys are fingerprint hex in practice; anything else still
            # deserves a stable home.
            prefix = zlib.crc32(key.encode("utf-8"))
        return prefix % self.shards

    def _path(self, key: str) -> Path:
        return self._shard_dirs[self._shard_index(key)] / f"{key}.json"

    def _entry_paths(self) -> list[Path]:
        paths: list[Path] = []
        for shard_dir in self.directory.iterdir():
            if not shard_dir.is_dir():
                continue
            try:
                paths.extend(shard_dir.glob("*.json"))
            except OSError:
                continue
        return paths

    @contextmanager
    def _write_lock(self, shard_dir: Path) -> Iterator[None]:
        """Exclusive advisory lock on one shard, created on first use
        (lock-free where ``flock`` is unavailable)."""
        shard_dir.mkdir(parents=True, exist_ok=True)
        try:
            fh = open(shard_dir / ".lock", "a") if fcntl is not None else None
        except OSError:
            fh = None
        if fh is None:
            yield
            return
        with fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX)
            except OSError:
                pass
            try:
                yield
            finally:
                try:
                    fcntl.flock(fh, fcntl.LOCK_UN)
                except OSError:
                    pass

    # -- the {"k", "d", "v"} envelope ----------------------------------------

    def _encode(self, key: str, value: Any) -> str:
        return json.dumps(
            {"k": key, "d": digest(json.dumps(value)), "v": value})

    def _decode(self, key: str, text: str, verify: bool = False) -> Any:
        # Key check only on the hot path; the digest re-hash is verify()'s
        # job (see the module doc for why).
        entry = json.loads(text)
        value, stored = entry["v"], entry["d"]
        if entry["k"] != key or (
                verify and digest(json.dumps(value)) != stored):
            raise ValueError(f"entry {key} fails its envelope check")
        return value

    def _store_stats(self) -> dict[str, Any]:
        return {"shards": self.shards, **super()._store_stats()}
