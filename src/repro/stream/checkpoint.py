"""Durable checkpoint/restore of streaming-engine state.

A long-running classification service must survive restarts without
replaying days of updates.  The engine therefore periodically serialises its
full state — shard dedup sets, window clock, incremental classifier records,
counters — through a :class:`CheckpointManager`:

* checkpoints are written atomically and durably (temp file, ``fsync``,
  ``os.replace``, ``fsync`` of the directory) so neither a crash mid-write
  nor a power loss after it leaves a truncated latest checkpoint;
* files are sequence-numbered and pruned to the ``keep`` most recent;
* every checkpoint embeds a format version and is rejected on mismatch.

The payload is Python pickle: every object in the engine state is a plain
data holder from this package, and the checkpoint directory is private to
the operator (the same trust model as a database's WAL directory).
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional

#: Bump when the engine state layout changes incompatibly.
CHECKPOINT_VERSION = 3

_FILENAME_RE = re.compile(r"^stream-ckpt-(\d{8})\.pkl$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or restored."""


#: Method switches that format-3 checkpoints written before their removal
#: carry (as ``StreamConfig`` attributes or classifier-state keys), with the
#: value every run that never set them wrote.
_REMOVED_SWITCHES: Dict[str, object] = {
    "sanitation": None,
    "max_columns": None,
    "stop_when_stalled": True,
}


def refuse_removed_switches(state: Mapping[str, object]) -> None:
    """Refuse *state* that set a method switch this version no longer has.

    At their defaults the switches are ignored; any other value counted by a
    method this version does not run.
    """
    for name, default in _REMOVED_SWITCHES.items():
        value = state.get(name, default)
        if value != default:
            raise CheckpointError(
                f"checkpoint was written with {name}={value!r}, a switch this "
                "version no longer has; start the stream without --resume"
            )


class CheckpointManager:
    """Writes, rotates, and restores engine state snapshots in a directory."""

    def __init__(self, directory: os.PathLike, *, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"must keep at least one checkpoint, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- discovery ----------------------------------------------------------------------
    def checkpoints(self) -> List[Path]:
        """All checkpoint files, oldest first."""
        found = []
        for path in self.directory.iterdir():
            match = _FILENAME_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _, path in sorted(found)]

    def latest(self) -> Optional[Path]:
        """The most recent checkpoint, or ``None`` if there is none."""
        existing = self.checkpoints()
        return existing[-1] if existing else None

    def _next_sequence(self) -> int:
        existing = self.checkpoints()
        if not existing:
            return 1
        return int(_FILENAME_RE.match(existing[-1].name).group(1)) + 1

    # -- write --------------------------------------------------------------------------
    def save(self, state: Dict[str, object]) -> Path:
        """Atomically persist *state* as the newest checkpoint."""
        payload = {"version": CHECKPOINT_VERSION, "state": state}
        sequence = self._next_sequence()
        target = self.directory / f"stream-ckpt-{sequence:08d}.pkl"
        descriptor, temp_name = tempfile.mkstemp(
            prefix=".stream-ckpt-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        # The rename itself is durable only once the directory entry is.
        directory = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        self._prune()
        return target

    def _prune(self) -> None:
        existing = self.checkpoints()
        for stale in existing[: max(0, len(existing) - self.keep)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - racing cleanup is fine
                pass

    # -- read ---------------------------------------------------------------------------
    def load(self, path: Optional[os.PathLike] = None) -> Dict[str, object]:
        """Load a checkpoint (the latest when *path* is omitted)."""
        target = Path(path) if path is not None else self.latest()
        if target is None:
            raise CheckpointError(f"no checkpoint found in {self.directory}")
        try:
            with open(target, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError) as error:
            # Attribute/ImportError: the file names classes this version no
            # longer has (the payload unpickles before its version is read).
            raise CheckpointError(f"cannot read checkpoint {target}: {error}") from error
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {target} has version {version!r}, expected {CHECKPOINT_VERSION}"
            )
        return payload["state"]
