"""Exposition: render registry snapshots as one-line JSON or
Prometheus text format.

Both renderers consume the JSON-shaped :meth:`MetricsRegistry.snapshot`
dict (optionally several, merged with :func:`merge_snapshots` — the
``metrics`` serve op merges the per-server registry with the
process-global one).  :func:`gauge_family` bridges the legacy
dict-shaped stats surfaces (``EngineStats.as_dict``, store
``stats_dict``, kernel counters) into gauge entries at exposition time,
so those dataclasses stay byte-compatible and collision-free — they
are *views*, not registered metrics.
"""

from __future__ import annotations

import json
import re

from .metrics import flat_name

__all__ = [
    "gauge_family",
    "merge_snapshots",
    "render_json",
    "render_prometheus",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_KEY_SPLIT = re.compile(r"^([^{]+)(?:\{(.*)\})?$")


def _prom_name(name: str) -> str:
    if _NAME_OK.match(name):
        return name
    fixed = _NAME_FIX.sub("_", name)
    if not re.match(r"[a-zA-Z_:]", fixed):
        fixed = "_" + fixed
    return fixed


def _prom_key(flat: str) -> str:
    """``name{k=v,...}`` flat key -> Prometheus ``name{k="v",...}``."""
    match = _KEY_SPLIT.match(flat)
    name = _prom_name(match.group(1))
    raw = match.group(2)
    if not raw:
        return name
    pairs = []
    for part in raw.split(","):
        key, _, value = part.partition("=")
        value = value.replace("\\", "\\\\").replace('"', '\\"')
        pairs.append(f'{_prom_name(key)}="{value}"')
    return f"{name}{{{','.join(pairs)}}}"


def _labelled(flat: str, extra: str, suffix: str = "") -> str:
    """Rebuild a flat key as ``name+suffix`` with one extra
    pre-rendered ``k="v"`` label appended."""
    match = _KEY_SPLIT.match(flat)
    name = _prom_name(match.group(1)) + suffix
    raw = match.group(2)
    if not raw:
        return f"{name}{{{extra}}}"
    rendered = _prom_key(f"{match.group(1)}{{{raw}}}")
    labels = rendered[rendered.index("{") + 1:-1]
    return f"{name}{{{labels},{extra}}}"


def merge_snapshots(*snapshots: dict) -> dict:
    """Union several registry snapshots (later keys win on collision —
    callers keep namespaces disjoint by metric-name prefix)."""
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        for section in out:
            out[section].update(snap.get(section, {}))
    return out


def gauge_family(prefix: str, stats: dict,
                 labels: dict | None = None) -> dict:
    """Bridge a legacy dict-shaped stats surface into snapshot gauge
    entries: ``{"gauges": {prefix_key: value, ...}}``, numeric values
    only (booleans ride as 0/1, non-numerics are dropped)."""
    gauges = {}
    for key, value in stats.items():
        if isinstance(value, bool):
            value = int(value)
        elif not isinstance(value, (int, float)):
            continue
        gauges[flat_name(f"{prefix}_{key}", labels)] = value
    return {"gauges": gauges}


def render_json(snapshot: dict, traces: list | None = None) -> str:
    """One-line JSON: the snapshot dict verbatim (plus the recent-trace
    ring when given)."""
    payload = dict(snapshot)
    if traces is not None:
        payload["traces"] = traces
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _family(flat: str) -> str:
    """The Prometheus family (metric) name of a flat series key."""
    return _prom_name(_KEY_SPLIT.match(flat).group(1))


def render_prometheus(snapshot: dict) -> str:
    """Prometheus text format: counters as counters, gauges as gauges,
    histograms as cumulative ``_bucket{le=...}`` series with
    ``_sum``/``_count``.  Series are grouped by family, and each family
    gets exactly one ``# TYPE`` line ahead of its series, as the text
    format requires."""
    lines: list = []
    typed: set = set()

    def series(section: str, kind: str):
        items = snapshot.get(section, {}).items()
        for flat, value in sorted(items, key=lambda i: (_family(i[0]), i[0])):
            base = _family(flat)
            if base not in typed:
                typed.add(base)
                lines.append(f"# TYPE {base} {kind}")
            yield flat, value

    for flat, value in series("counters", "counter"):
        lines.append(f"{_prom_key(flat)} {value}")
    for flat, value in series("gauges", "gauge"):
        lines.append(f"{_prom_key(flat)} {value}")
    for flat, entry in series("histograms", "histogram"):
        for upper, cumulative in entry.get("buckets", []):
            le = 'le="%g"' % upper
            lines.append(f"{_labelled(flat, le, '_bucket')} {cumulative}")
        inf = 'le="+Inf"'
        lines.append(f"{_labelled(flat, inf, '_bucket')} {entry['count']}")
        match = _KEY_SPLIT.match(flat)
        raw = match.group(2)
        suffix = f"{{{raw}}}" if raw else ""
        sum_key = _prom_key(f"{match.group(1)}_sum{suffix}")
        count_key = _prom_key(f"{match.group(1)}_count{suffix}")
        lines.append(f"{sum_key} {entry['sum']:g}")
        lines.append(f"{count_key} {entry['count']}")
    return "\n".join(lines) + "\n"
