"""The rebalance ledger: per-move provenance for ``repro explain``.

Every rebalance round appends one record in the PR 5 decision-ledger
style (:mod:`repro.obs.ledger`): ``{"kind": "round", "meta": {...},
"moves": [...]}`` in a bounded in-memory ring, mirrored line-buffered
as JSONL when a path is given.  ``meta`` carries the round context
(round number, snapshot time, seed, pressure before/after,
fragmentation, skip histogram); each move record carries the full
decision chain — goal, victim-selection rule, best-fit target, Eq. 7
headroom at the target after the move, pre-copy cost breakdown, score —
so ``repro explain --move vm-X`` can answer "why did vm-X move"
the same way ``repro explain vm-0 0 --tick 3`` answers "why this cap".
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.jsonl import JsonlRecords, read_jsonl

_VICTIM_RULES = {
    "pressure": "smallest VM covering the Eq. 7 deficit, else largest",
    "drain": "evacuate all, largest guarantee first",
    "consolidate": "whole-node evacuation onto used nodes, largest first",
}


class RebalanceLedger:
    """Bounded ring of per-round move records, optionally on disk."""

    def __init__(self, ring_rounds: int = 1024, path: Optional[str] = None) -> None:
        self._ring: deque = deque(maxlen=ring_rounds)
        self.path = path
        self._fh = open(path, "a", buffering=1) if path else None

    def record_round(self, meta: Dict, moves: List[Dict]) -> None:
        entry = {"kind": "round", "meta": meta, "moves": moves}
        self._ring.append(entry)
        if self._fh is not None:
            self._fh.write(json.dumps(entry, sort_keys=True) + "\n")

    @property
    def rounds(self) -> List[Dict]:
        return list(self._ring)

    def lookup(
        self, vm: str, round_no: Optional[int] = None
    ) -> Optional[Tuple[Dict, Dict]]:
        """The ``(meta, move)`` pair for one migration, or ``None``."""
        return lookup_move(self._ring, vm, round_no)

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()


def load_rebalance_jsonl(path: str) -> JsonlRecords:
    """Load round entries back from a JSONL mirror file (a torn last
    line is dropped and counted in ``.dropped``)."""
    return read_jsonl(path, kind="round")


def lookup_move(
    entries: Iterable[Dict], vm: str, round_no: Optional[int] = None
) -> Optional[Tuple[Dict, Dict]]:
    """Latest (or round-pinned) move record for one VM."""
    found: Optional[Tuple[Dict, Dict]] = None
    for entry in entries:
        meta = entry["meta"]
        if round_no is not None and meta["round"] != round_no:
            continue
        for move in entry["moves"]:
            if move["vm"] == vm:
                found = (meta, move)
    return found


# ---------------------------------------------------------------------------
# ``repro explain --move`` rendering
# ---------------------------------------------------------------------------


def explain_move(meta: Dict, move: Dict) -> str:
    """Human-readable derivation of one planned migration."""
    lines: List[str] = []
    lines.append(
        f"migration derivation for {move['vm']} in rebalance round "
        f"{meta['round']} (t={meta['t']:g}, seed={meta['seed']})"
    )
    lines.append(
        f"  goal      {move['reason']} "
        f"(cluster pressure {meta.get('pressure_before_mhz', 0.0):.1f} MHz, "
        f"fragmentation {meta.get('fragmentation_before', 0.0):.3f})"
    )
    lines.append(
        f"  victim    {move['vm']} on {move['source']}: "
        f"guarantee {move['demand_mhz']:.1f} MHz, {move['memory_mb']} MB"
    )
    rule = _VICTIM_RULES.get(move["reason"])
    if rule:
        lines.append(f"            rule: {rule}")
    lines.append(
        f"  target    {move['target']} (best-fit, Eq. 7-admissible; "
        f"headroom after move {move.get('target_headroom_after_mhz', 0.0):.1f} MHz)"
    )
    lines.append(
        f"  cost      pre-copy {move['transfer_s']:.3f} s transfer + "
        f"{move['downtime_s']:.3f} s stop-and-copy = {move['cost_s']:.3f} s "
        f"(MigrationModel)"
    )
    lines.append(
        f"  score     {move['relief_mhz']:.1f} guarantee MHz relieved / "
        f"{move['cost_s']:.3f} s = {move['score']:.1f} MHz/s"
    )
    if move.get("executed", True):
        lines.append(
            f"  executed  blackout on {move['source']}+{move['target']}, "
            f"VM paused {move['downtime_s']:.3f} s at cut-over"
        )
    else:
        lines.append(
            f"  NOT executed: {move.get('reject_reason', 'unknown')}"
        )
    after = meta.get("pressure_after_mhz")
    if after is not None:
        lines.append(
            f"  round     {meta.get('n_moves', len(meta.get('moves_by_reason', {})))} "
            f"move(s); planned cluster pressure "
            f"{meta.get('pressure_before_mhz', 0.0):.1f} -> {after:.1f} MHz"
        )
    return "\n".join(lines)


def explain_move_from_entries(
    entries: Iterable[Dict], vm: str, round_no: Optional[int] = None
) -> str:
    """Render the derivation, or raise ``KeyError`` with what exists."""
    entries = list(entries)
    found = lookup_move(entries, vm, round_no)
    if found is None:
        rounds = sorted({e["meta"]["round"] for e in entries})
        window = f"{rounds[0]}..{rounds[-1]}" if rounds else "none"
        moved = sorted({m["vm"] for e in entries for m in e["moves"]})
        hint = f"; moved VMs: {', '.join(moved[:8])}" if moved else ""
        raise KeyError(
            f"no rebalance record for vm={vm!r}"
            + (f" round={round_no}" if round_no is not None else "")
            + f" (recorded rounds: {window}{hint})"
        )
    meta, move = found
    return explain_move(meta, move)
