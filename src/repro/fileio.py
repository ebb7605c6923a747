"""Atomic file replacement for the artefacts the package writes.

Snapshots, fault plans, checking traces, flight-recorder dumps, Chrome
trace exports, the SLO evaluation artefacts and CSV exports all go
through :func:`atomic_write`, so a crash mid-write never leaves a torn
file where a complete one stood.  (The append-only JSONL mirrors are
the exception: they tolerate a torn last line instead, see
:mod:`repro.obs.jsonl`.)
"""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator, Optional, Union


@contextlib.contextmanager
def atomic_write(
    path: Union[str, "os.PathLike[str]"], *, newline: Optional[str] = None
) -> Iterator[IO[str]]:
    """Write ``path`` through a temporary file in the same directory.

    On a clean exit the file is flushed, fsynced and renamed over
    ``path`` with :func:`os.replace`: readers see either the previous
    file or the complete new one.  If the body raises, the temporary
    file is removed and ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
