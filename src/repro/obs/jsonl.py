"""One event log and one reader for every JSONL mirror: decision,
rebalance and alert ledgers, and span files.

:class:`EventLog` is the writer the three ledgers share: a bounded
in-memory ring of plain-dict records, mirrored one ``sort_keys`` JSON
object per line when given a path, so two runs over identical streams
write byte-identical files.  Every record carries a ``"kind"`` field
(``"tick"``, ``"round"`` or ``"alert"``) that :func:`read_jsonl` filters
on.

Each mirror is appended one record per line, so a crash mid-write leaves
at most one torn line, and only at the end of the file: unterminated and
unparsable.  :func:`read_jsonl` drops exactly that line and counts it in
:attr:`JsonlRecords.dropped`, so ``repro explain`` can still explain the
crash a ledger recorded.  An unparsable line anywhere else is corruption,
not a torn write, and raises.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterator, Iterable, List, Optional


class EventLog:
    """Bounded ring of records, optionally mirrored as JSONL on disk."""

    def __init__(self, ring: int = 1024, path: Optional[str] = None) -> None:
        self._ring: deque = deque(maxlen=ring)
        self.path = path
        self._fh = open(path, "a", buffering=1) if path else None

    def append(self, record: Dict) -> None:
        self._ring.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    @property
    def records(self) -> List[Dict]:
        """The retained records, oldest first (a copy)."""
        return list(self._ring)

    def __iter__(self) -> Iterator[Dict]:
        return iter(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()


class JsonlRecords(list):
    """Parsed records (a plain list) plus the torn final lines dropped."""

    def __init__(self, records: Iterable = (), dropped: int = 0) -> None:
        super().__init__(records)
        self.dropped = dropped


def read_jsonl(path: str, kind: Optional[str] = None) -> JsonlRecords:
    """Parse ``path`` one JSON object per line, skipping blank lines.

    With ``kind``, keep only records whose ``"kind"`` field equals it.
    An unterminated, unparsable last line is dropped and counted; any
    other unparsable line raises ``ValueError`` naming its line number.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    records: List[dict] = []
    dropped = 0
    last = len(lines) - 1  # the text after the final newline
    for number, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if number == last:
                dropped += 1
                continue
            raise ValueError(f"{path}:{number + 1}: unparsable JSONL record") from exc
        if kind is None or record.get("kind") == kind:
            records.append(record)
    return JsonlRecords(records, dropped)
