"""The decision ledger: per-``cpu.max``-write provenance.

For every capping the controller enforces, one record holds the full
causal chain of the paper's pipeline:

=================  =========================================================
field              meaning
=================  =========================================================
``consumed``       ``u_{i,j,t}`` — stage-1 observation (µs of CPU)
``estimate``       ``e_{i,j,t}`` — stage-2 Eq. 3 trend decision (+ case)
``guarantee``      ``C_i`` — Eq. 2, from the VM's registered vfreq
``base``           Eq. 5 base capping ``min(e, C_i)`` (or the reserved
                   ``C_i`` floor under ``reserve_guarantee``)
``purchased``      auction cycles won (Alg. 1)
``free_share``     stage-5 free-distribution share
``fallback``       degraded-mode override, or ``None`` when healthy
``allocation``     the cycles actually enforced
``quota_us``       the ``cpu.max`` quota those cycles scale to
=================  =========================================================

so ``allocation`` is *reconstructible*:

    ``min(base + purchased + free_share, p_us)``   (or ``fallback``)

bit-for-bit — both engines build the allocation with exactly this
association order, and :func:`recompute_allocation` repeats it.  That
equality is what ``repro explain`` prints and what
``tests/obs/test_ledger.py`` asserts against the invariant oracles'
independent arithmetic.

:func:`decision_rows` builds these records once per tick, from the
finished report and the controller's registries; the hub's ledger and
flight frame, the billing meter and the SLO plane all read the same
rows.  Storage is one record per tick (``{"kind": "tick", "meta": ...,
"decisions": [...]}``) in an :class:`~repro.obs.jsonl.EventLog`,
mirrored as JSONL when the hub has an ``out_dir`` and read back with
``read_jsonl(path, kind="tick")``.  Records are engine-agnostic: the
scalar and bulk engines must produce identical ledgers (fuzz-checked).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


def recompute_allocation(decision: Dict, p_us: float) -> float:
    """Re-derive the enforced cycles from the recorded causal chain.

    Repeats the engines' exact float association order, so the result
    is bit-identical to ``decision["allocation"]`` — any difference
    means the ledger (or an engine) mis-recorded its own arithmetic.
    """
    if decision.get("fallback") is not None:
        return float(decision["fallback"])
    return min(
        decision["base"] + decision["purchased"] + decision["free_share"],
        p_us,
    )


def decision_rows(controller, report) -> List[Dict]:
    """The per-vCPU decision records of one finished tick.

    One row per enforced allocation: samples first (in sample order),
    then degraded-only paths enforced without a fresh sample.  Built at
    most once per report and cached on it, so the hub's ledger and
    flight frame, the billing meter and the SLO plane all read the same
    rows.  Callers must not mutate them.
    """
    rows = report._rows
    if rows is None:
        rows = report._rows = _build_rows(controller, report)
    return rows


def _build_rows(controller, report) -> List[Dict]:
    from repro.core.backend import vm_component

    rows: List[Dict] = []
    if not report.allocations:
        return rows  # config A / empty host: nothing enforced
    cfg = controller.config
    reserve = cfg.reserve_guarantee
    quota_us = controller.enforcer.quota_us
    vfreqs = controller._vm_vfreq
    guarantees = controller._guarantee
    purchased = report.auction.purchased if report.auction else {}
    free = report.free_shares
    degraded = report.degraded
    seen = set()
    for s in report.samples:
        path = s.cgroup_path
        alloc = report.allocations.get(path)
        if alloc is None:
            continue
        seen.add(path)
        d = report.decisions.get(path)
        vm = s.vm_name
        g = guarantees.get(vm)
        base = None
        if d is not None and g is not None:
            base = min(d.estimate_cycles, g)
            if reserve:
                base = max(base, g)
        rows.append({
            "vm": vm,
            "vcpu": s.vcpu_index,
            "path": path,
            "consumed": s.consumed_cycles,
            "estimate": d.estimate_cycles if d is not None else None,
            "trend": d.trend if d is not None else None,
            "case": d.case.name.lower() if d is not None else None,
            "vfreq": vfreqs.get(vm),
            "guarantee": g,
            "base": base,
            "reserve_guarantee": reserve,
            "purchased": purchased.get(path, 0.0),
            "free_share": free.get(path, 0.0),
            "fallback": degraded.get(path),
            "allocation": alloc,
            "quota_us": quota_us(alloc),
        })
    for path, alloc in report.allocations.items():
        if path in seen:
            continue
        # Degraded-only paths: enforced without a fresh sample.
        vm = vm_component(path, controller.machine_slice)
        rows.append({
            "vm": vm,
            "vcpu": _vcpu_index_of(path),
            "path": path,
            "consumed": None,
            "estimate": None,
            "trend": None,
            "case": None,
            "vfreq": vfreqs.get(vm),
            "guarantee": guarantees.get(vm),
            "base": None,
            "reserve_guarantee": reserve,
            "purchased": purchased.get(path, 0.0),
            "free_share": free.get(path, 0.0),
            "fallback": degraded.get(path, alloc),
            "allocation": alloc,
            "quota_us": quota_us(alloc),
        })
    return rows


def _vcpu_index_of(path: str) -> int:
    """Trailing vcpu index of a cgroup path (``.../vcpu3`` -> 3)."""
    tail = path.rsplit("/", 1)[-1]
    digits = ""
    for ch in reversed(tail):
        if ch.isdigit():
            digits = ch + digits
        else:
            break
    return int(digits) if digits else -1


def shortfall(row: Dict) -> bool:
    """The SLA-shortfall rule: the vCPU wanted at least its guarantee
    and got less.  Billing credits it; the SLO plane counts it bad."""
    guarantee = row["guarantee"]
    estimate = row["estimate"]
    return (
        guarantee is not None
        and row["allocation"] < guarantee
        and (estimate is None or estimate >= guarantee)
    )


def lookup(
    entries: Iterable[Dict], vm: str, vcpu: int, tick: int
) -> Optional[Tuple[Dict, Dict]]:
    for entry in entries:
        meta = entry["meta"]
        if meta["tick"] != tick:
            continue
        for decision in entry["decisions"]:
            if decision["vm"] == vm and decision["vcpu"] == vcpu:
                return meta, decision
    return None


# ---------------------------------------------------------------------------
# ``repro explain`` rendering
# ---------------------------------------------------------------------------


def explain(meta: Dict, decision: Dict) -> str:
    """Human-readable derivation of one vCPU's cap at one tick."""
    p_us = meta["p_us"]
    lines: List[str] = []
    lines.append(
        f"cpu.max derivation for {decision['vm']}/vcpu{decision['vcpu']} "
        f"at tick {meta['tick']} (t={meta['t']:g}, engine={meta['engine']})"
    )
    lines.append(f"  path: {decision['path']}")
    if decision.get("consumed") is not None:
        lines.append(
            f"  stage 1  monitor    u = {decision['consumed']:.3f} cycles consumed"
        )
    else:
        lines.append("  stage 1  monitor    (not observed this tick)")
    if decision.get("estimate") is not None:
        lines.append(
            f"  stage 2  estimate   e = {decision['estimate']:.3f} "
            f"(case={decision.get('case', '?')}, "
            f"trend={decision.get('trend', 0.0):+.3f})           [Eq. 3]"
        )
    g = decision.get("guarantee")
    if g is not None:
        lines.append(
            f"  stage 3  guarantee  C_i = {g:.3f} "
            f"(vfreq {decision.get('vfreq', 0.0):g} MHz of "
            f"F_MAX {meta.get('fmax_mhz', 0.0):g} MHz)    [Eq. 2]"
        )
    if decision.get("base") is not None:
        rule = (
            "max(min(e, C_i), C_i)" if decision.get("reserve_guarantee")
            else "min(e, C_i)"
        )
        lines.append(
            f"           base cap   {rule} = {decision['base']:.3f}"
            f"                 [Eq. 5]"
        )
    wallet_before = meta.get("wallets_before", {}).get(decision["vm"])
    wallet_after = meta.get("wallets_after", {}).get(decision["vm"])
    spent = meta.get("spent_per_vm", {}).get(decision["vm"], 0.0)
    if decision.get("purchased") is not None:
        wallet = ""
        if wallet_before is not None and wallet_after is not None:
            wallet = (
                f" (VM spent {spent:.3f} credits, wallet "
                f"{wallet_before:.3f} -> {wallet_after:.3f})"
            )
        lines.append(
            f"  stage 4  auction    +{decision['purchased']:.3f} cycles won"
            f"{wallet}  [Alg. 1]"
        )
        lines.append(
            f"           market     {meta.get('market_initial', 0.0):.3f} "
            f"initial -> {meta.get('market_left', 0.0):.3f} left after "
            f"{meta.get('rounds', 0)} round(s)            [Eq. 6]"
        )
    if decision.get("free_share") is not None:
        lines.append(
            f"  stage 5  free dist  +{decision['free_share']:.3f} of "
            f"{meta.get('freely_distributed', 0.0):.3f} freely distributed"
        )
    if decision.get("fallback") is not None:
        lines.append(
            f"  stage 6  RESILIENCE fallback override -> "
            f"{decision['fallback']:.3f} cycles (vCPU degraded)"
        )
    lines.append(
        f"  stage 6  cap        min(base + bought + free, p_us={p_us:g}) "
        f"= {decision['allocation']:.3f} cycles"
    )
    lines.append(
        f"           enforced   cpu.max quota {decision['quota_us']} µs / "
        f"{meta.get('enforcement_period_us', 0)} µs"
    )
    recomputed = recompute_allocation(decision, p_us)
    if recomputed == decision["allocation"]:
        lines.append("  verification: recomputed == recorded allocation (bit-exact)")
    else:
        lines.append(
            f"  verification: MISMATCH — recomputed {recomputed!r} != "
            f"recorded {decision['allocation']!r}"
        )
    return "\n".join(lines)


def explain_from_entries(
    entries: Iterable[Dict], vm: str, vcpu: int, tick: int
) -> str:
    """Render the derivation, or raise ``KeyError`` with what exists."""
    entries = list(entries)
    found = lookup(entries, vm, vcpu, tick)
    if found is None:
        ticks = sorted({e["meta"]["tick"] for e in entries})
        window = f"{ticks[0]}..{ticks[-1]}" if ticks else "none"
        raise KeyError(
            f"no ledger record for vm={vm!r} vcpu={vcpu} tick={tick} "
            f"(recorded ticks: {window})"
        )
    meta, decision = found
    return explain(meta, decision)
