"""Content-addressed artifact store + campaign indexes.

The store is the durable, serveable half of results-as-a-service: every
rendered deliverable (sweep JSON, figure text, Table I text) is written
once as an immutable blob keyed by the SHA-256 of its bytes, and each
campaign gets one small mutable *index* document mapping its entries to
blob digests.  Layout::

    <root>/objects/ab/abcdef....bin     # immutable, content-addressed
    <root>/campaigns/<name>.json        # index: campaign -> digests

Properties shared with :class:`~repro.exec.cache.ResultCache`:

* **Atomic.**  Blobs and indexes are written via a unique temp file +
  ``os.replace`` — readers (including a live ``repro-serve``) never see
  a partial file.
* **Deduplicating.**  Identical bytes (e.g. the unchanged figure text of
  a re-published campaign) occupy one blob regardless of how many
  indexes reference it.
* **Self-verifying.**  Reads re-hash the blob and refuse digest
  mismatches, so silent on-disk corruption cannot be served as results.
* **Version-stamped.**  Indexes carry the artifact provenance stamp
  (:mod:`repro.exec.artifact`); serving results produced by a different
  simulator version requires an explicit ``allow_stale``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.exec.artifact import check_artifact_stamp, stamp_artifact
from repro.exec.cache import atomic_write_text

_DIGEST_PATTERN = re.compile(r"^[0-9a-f]{64}$")


class ArtifactStore:
    """On-disk content-addressed blob store with per-campaign indexes."""

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        try:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            (self.root / "campaigns").mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"store root {str(self.root)!r} exists and is not a "
                f"directory") from exc

    # ------------------------------------------------------------------ #
    # blobs
    # ------------------------------------------------------------------ #
    def _blob_path(self, digest: str) -> Path:
        if not _DIGEST_PATTERN.match(digest):
            raise ValueError(f"not a SHA-256 hex digest: {digest!r}")
        return self.root / "objects" / digest[:2] / f"{digest}.bin"

    def put_bytes(self, data: bytes) -> str:
        """Store ``data``; returns its digest.  Idempotent by content."""
        digest = hashlib.sha256(data).hexdigest()
        path = self._blob_path(digest)
        if not path.is_file():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
            tmp.write_bytes(data)
            os.replace(tmp, path)
        return digest

    def put_text(self, text: str) -> str:
        """Store UTF-8 encoded ``text``; returns its digest."""
        return self.put_bytes(text.encode("utf-8"))

    def get_bytes(self, digest: str) -> bytes:
        """Load a blob, verifying its content still hashes to ``digest``."""
        data = self._blob_path(digest).read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise ValueError(f"corrupt blob {digest[:12]}…: content hashes "
                             f"to {actual[:12]}…")
        return data

    def get_text(self, digest: str) -> str:
        """Load a blob as UTF-8 text (verified, like :meth:`get_bytes`)."""
        return self.get_bytes(digest).decode("utf-8")

    def has_blob(self, digest: str) -> bool:
        """Whether a blob with this digest exists (no content check)."""
        return self._blob_path(digest).is_file()

    def blob_digests(self) -> List[str]:
        """Every stored blob digest, sorted."""
        return sorted(path.stem
                      for path in self.root.glob("objects/??/*.bin"))

    # ------------------------------------------------------------------ #
    # campaign indexes
    # ------------------------------------------------------------------ #
    def _index_path(self, campaign: str) -> Path:
        if not re.match(r"^[A-Za-z0-9][A-Za-z0-9._-]*$", campaign):
            raise ValueError(f"not a valid campaign name: {campaign!r}")
        return self.root / "campaigns" / f"{campaign}.json"

    def campaigns(self) -> List[str]:
        """Every indexed campaign name, sorted."""
        return sorted(path.stem
                      for path in self.root.glob("campaigns/*.json"))

    def put_index(self, campaign: str, document: Dict[str, object]) -> Path:
        """Write (or atomically replace) a campaign's index document.

        The stored document is stamped with artifact provenance; pass
        the digest mapping only — the stamp fields are added here.  An
        index that already holds exactly these bytes is left untouched,
        so republishing an unchanged campaign writes nothing.
        """
        path = self._index_path(campaign)
        payload = stamp_artifact(dict(document))
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        try:
            unchanged = path.read_bytes() == text.encode("utf-8")
        except OSError:
            unchanged = False
        if not unchanged:
            atomic_write_text(path, text)
        return path

    def _read_index(self, campaign: str,
                    allow_stale: bool) -> Tuple[bytes, Dict[str, object]]:
        """One read of a campaign's index: its bytes and checked document."""
        path = self._index_path(campaign)
        try:
            data = path.read_bytes()
        except OSError:
            known = ", ".join(self.campaigns()) or "(none)"
            raise KeyError(f"no index for campaign {campaign!r}; "
                           f"indexed campaigns: {known}") from None
        document = json.loads(data.decode("utf-8"))
        check_artifact_stamp(document, f"campaign index {campaign!r}",
                             allow_stale=allow_stale)
        return data, document

    def get_index(self, campaign: str,
                  allow_stale: bool = False) -> Dict[str, object]:
        """Load a campaign's index, enforcing the provenance stamp."""
        return self._read_index(campaign, allow_stale)[1]

    def index_bytes(self, campaign: str, allow_stale: bool = False) -> bytes:
        """The raw index file bytes (what ``repro-serve`` returns).

        The stamp is checked on the very bytes returned, as
        :meth:`get_index` checks it, from one read of the file.
        """
        return self._read_index(campaign, allow_stale)[0]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ArtifactStore(root={str(self.root)!r}, "
                f"campaigns={len(self.campaigns())}, "
                f"blobs={len(self.blob_digests())})")
