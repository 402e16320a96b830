"""Audit logging for the protected pipeline.

Every decision — benign or flagged — is recorded as one JSON line so a
deployment can answer "what did the detector see and why" after the fact.
Flagged inputs can additionally be quarantined as PNG files next to the
log. Both pieces are plain files; no services, no databases.
"""

from __future__ import annotations

import json
import secrets
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.result import EnsembleDetection
from repro.errors import ReproError
from repro.imaging.png import encode_png, write_png

__all__ = ["AuditRecord", "AuditLog", "decision_fields"]

#: Longest quarantine file stem taken from an image id, in UTF-8 bytes.
#: With a collision suffix and a ``.<artifact label>.png`` suffix it stays
#: well under the 255-byte file-name limit of common file systems.
_MAX_STEM_BYTES = 128


def _safe_name(text: str) -> str:
    """*text* with every character outside ``[alnum-_]`` replaced by ``_``.

    Strict allowlist: no dots, so identifiers like "../../x" cannot
    produce traversal-looking names.
    """
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in text)


def decision_fields(detection: EnsembleDetection) -> dict:
    """The decision as the wire verdict and the audit record both carry it:
    verdict, votes, and per-detector scores and threshold rules."""
    return {
        "verdict": "attack" if detection.is_attack else "benign",
        "votes_for_attack": detection.votes_for_attack,
        "votes_total": detection.votes_total,
        "scores": {
            f"{d.method}/{d.metric}": float(d.score) for d in detection.detections
        },
        "thresholds": {
            f"{d.method}/{d.metric}": d.threshold.describe(d.metric)
            for d in detection.detections
        },
    }


#: The wire-verdict keys an audit record copies.
_VERDICT_FIELDS = (
    "image_id",
    "verdict",
    "action",
    "votes_for_attack",
    "votes_total",
    "scores",
    "thresholds",
)


@dataclass(frozen=True)
class AuditRecord:
    """One pipeline decision, as persisted to the JSONL log."""

    image_id: str
    sequence: int
    verdict: str  # "benign" | "attack"
    action: str  # "accepted" | "rejected" | "quarantined" | "sanitized"
    votes_for_attack: int
    votes_total: int
    scores: dict[str, float]
    thresholds: dict[str, str]
    quarantine_path: str | None = None

    @classmethod
    def from_detection(
        cls,
        image_id: str,
        sequence: int,
        detection: EnsembleDetection,
        action: str,
        quarantine_path: str | None = None,
    ) -> "AuditRecord":
        return cls(
            image_id=image_id,
            sequence=sequence,
            action=action,
            quarantine_path=quarantine_path,
            **decision_fields(detection),
        )

    @classmethod
    def from_verdict(
        cls, verdict: dict, sequence: int, quarantine_path: str | None = None
    ) -> "AuditRecord":
        """The record for one wire verdict
        (:func:`repro.serving.pipeline.verdict_payload`). Raises
        ``KeyError``/``TypeError`` when *verdict* lacks a field."""
        return cls(
            sequence=sequence,
            quarantine_path=quarantine_path,
            **{name: verdict[name] for name in _VERDICT_FIELDS},
        )


class AuditLog:
    """Append-only JSONL decision log with an optional quarantine folder.

    With ``max_bytes`` set, the log rotates before an append would push the
    current file past the limit: ``log`` becomes ``log.1``, ``log.1``
    becomes ``log.2``, and so on up to ``backup_count`` rotated files (the
    oldest is dropped). A long-running server therefore occupies at most
    ``(backup_count + 1) * max_bytes`` bytes of disk, give or take one
    record. Rotation happens under the same I/O lock as appends, so
    concurrent writers never interleave partial lines or lose records.
    """

    def __init__(
        self,
        log_path: str | Path,
        *,
        quarantine_dir: str | Path | None = None,
        max_bytes: int | None = None,
        backup_count: int = 5,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ReproError(f"max_bytes must be positive, got {max_bytes}")
        if backup_count < 1:
            raise ReproError(f"backup_count must be >= 1, got {backup_count}")
        self.log_path = Path(log_path)
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir = Path(quarantine_dir) if quarantine_dir else None
        if self.quarantine_dir:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.backup_count = backup_count
        # Serializes appends so concurrent pipeline submissions cannot
        # interleave partial lines, without the pipeline holding its own
        # lock across file I/O.
        self._io_lock = threading.Lock()

    def quarantine(
        self,
        image_id: str,
        image: np.ndarray,
        *,
        artifacts: dict[str, np.ndarray] | None = None,
    ) -> str:
        """Persist a flagged image; returns the stored path.

        The file is ``<id>.png`` with the id sanitized and cut to
        :data:`_MAX_STEM_BYTES`. The name is claimed exclusively: when it
        is taken (a retried id, two ids that sanitize alike, or another
        shard writing to the same directory), a short random suffix is
        added, so no request overwrites another's file.

        *artifacts* are labeled explanation images (the detectors' round
        trip, filtered image, log spectrum — whatever scoring already
        computed), written next to the quarantined input as
        ``<stem>.<label>.png`` so an analyst sees *what the detectors saw*
        without re-running them.
        """
        if self.quarantine_dir is None:
            raise ReproError("AuditLog was created without a quarantine directory")
        safe = _safe_name(image_id).encode()[:_MAX_STEM_BYTES].decode(errors="ignore")
        encoded = encode_png(np.clip(image, 0, 255))
        stem = safe
        while True:
            path = self.quarantine_dir / f"{stem}.png"
            try:
                with open(path, "xb") as handle:
                    handle.write(encoded)
                break
            except FileExistsError:
                # Random, not counted: a retried id costs one more try,
                # not a scan past every earlier copy.
                stem = f"{safe}-{secrets.token_hex(4)}"
        for label, artifact in (artifacts or {}).items():
            write_png(
                self.quarantine_dir / f"{stem}.{_safe_name(label)}.png",
                np.clip(artifact, 0, 255),
            )
        return str(path)

    def _rotated_path(self, index: int) -> Path:
        return self.log_path.with_name(f"{self.log_path.name}.{index}")

    def _rotate_locked(self) -> None:  # analyze: ignore[io-under-lock]
        """Shift ``log -> log.1 -> ... -> log.N`` (caller holds the lock).

        Rotation must be atomic with respect to appends — renaming files
        while another thread writes would tear records — so doing this I/O
        under the I/O lock is the contract, not an accident.
        """
        oldest = self._rotated_path(self.backup_count)
        if oldest.exists():
            oldest.unlink()
        for index in range(self.backup_count - 1, 0, -1):
            source = self._rotated_path(index)
            if source.exists():
                source.replace(self._rotated_path(index + 1))
        if self.log_path.exists():
            self.log_path.replace(self._rotated_path(1))

    def append(self, record: AuditRecord) -> None:  # analyze: ignore[io-under-lock]
        """Write one record as a JSON line (rotating first when needed).

        The whole point of ``_io_lock`` is to serialize exactly this file
        I/O — the pipeline deliberately calls ``append`` *outside* its own
        lock so a slow disk only stalls other writers (see PR 1); the
        analyzer's io-under-lock rule is therefore suppressed here, at the
        one place in the repo whose contract is "I/O under my own lock".
        """
        line = json.dumps(asdict(record)) + "\n"
        with self._io_lock:
            if self.max_bytes is not None:
                try:
                    size = self.log_path.stat().st_size
                except FileNotFoundError:
                    size = 0
                # Rotate *before* crossing the limit so the active file
                # never exceeds max_bytes (unless one record alone does).
                if size and size + len(line.encode("utf-8")) > self.max_bytes:
                    self._rotate_locked()
            with self.log_path.open("a", encoding="utf-8") as handle:
                handle.write(line)

    def flush(self) -> None:
        """Barrier for shutdown: returns once every in-flight append has
        reached the filesystem. Appends open/write/close per record, so
        taking the I/O lock is the whole job."""
        with self._io_lock:
            pass

    def rotated_paths(self) -> list[Path]:
        """Existing rotated files, newest (``.1``) first."""
        return [
            path
            for index in range(1, self.backup_count + 1)
            if (path := self._rotated_path(index)).exists()
        ]

    def records(self, *, include_rotated: bool = False) -> list[AuditRecord]:
        """Read records back (for reports and tests).

        By default only the active file is read; ``include_rotated=True``
        prepends the surviving rotated files in chronological order.
        """
        paths = list(reversed(self.rotated_paths())) if include_rotated else []
        if self.log_path.exists():
            paths.append(self.log_path)
        out = []
        for path in paths:
            for line in path.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                try:
                    out.append(AuditRecord(**json.loads(line)))
                except (json.JSONDecodeError, TypeError) as exc:
                    raise ReproError(f"corrupt audit log line: {exc}") from exc
        return out
