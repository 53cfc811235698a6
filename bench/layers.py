"""Per-layer metrics from the spans that ``launch.py`` records.

A span's self time is the part of its interval in which it is a leaf: no
span that it caused is running.  When several leaves run at once (pool
workers under one interpreter lock) they share the interval equally, so the
self times of one invocation add up to the time its spans cover.  A layer's
self time is the sum over its spans.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "presets", "coding", "words", "language", "complexity",
          "debruijn", "repetitivity", "boshernitzan", "spectral", "parallel",
          "verdicts")

# span-name groups inside the spectral layer
SUBLAYERS = {
    "spectral.lyapunov": ("spectral.lyapunov_estimate", "spectral.lyapunov_over_grid",
                          "spectral.transfer_cocycle", "spectral.step_matrix"),
    "spectral.section": ("spectral.finite_section", "spectral.finite_section_spectrum"),
}

# (name, unit, better)
METRICS = (
    *((f"{layer}.{kind}", unit, "lower") for layer in LAYERS
      for kind, unit in (("self_s", "s"), ("calls", "count"))),
    ("process.start_s", "s", "lower"),
    ("process.exit_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("coding.cache_hit_ratio", "ratio", "higher"),
    ("words.symbols", "bytes", "lower"),
    ("language.factors", "count", "lower"),
    ("language.windows", "count", "lower"),
    ("language.cache_hit_ratio", "ratio", "higher"),
    ("repetitivity.oracle_calls", "count", "lower"),
    ("repetitivity.host_scans", "count", "lower"),
    ("spectral.lyapunov.self_s", "s", "lower"),
    ("spectral.cocycle_steps", "count", "lower"),
    ("spectral.cocycle_flops", "count", "lower"),
    ("spectral.section.self_s", "s", "lower"),
    ("spectral.section_bytes", "bytes", "lower"),
    ("parallel.jobs", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
METRIC_UNITS = {name: unit for name, unit, _ in METRICS}

FLOPS_PER_STEP = 12  # one 2x2 product: 8 multiplications, 4 additions


def self_times(spans) -> dict[int, float]:
    """Span id -> self time, for spans given as (id, name, start, end, parent)."""
    parent = {s[0]: s[4] for s in spans}

    def depth(sid):
        d = 0
        while sid in parent:
            sid = parent[sid]
            d += 1
        return d

    events = []
    for sid, _, start, end, _ in spans:
        d = depth(sid)
        # at equal times: ends before starts, inner ends and outer starts first
        events.append((start, 1, d, sid))
        events.append((end, 0, -d, sid))
    events.sort()
    active: dict[int, int] = {}  # span id -> number of running children
    out: dict[int, float] = defaultdict(float)
    last = None
    for t, is_start, _, sid in events:
        if active and t > last:
            leaves = [s for s, n in active.items() if n == 0]
            share = (t - last) / len(leaves)
            for s in leaves:
                out[s] += share
        last = t
        p = parent[sid]
        if is_start:
            active[sid] = 0
            if p in active:
                active[p] += 1
        else:
            del active[sid]
            if p in active:
                active[p] -= 1
    return out


def _group(name: str) -> str | None:
    for group, members in SUBLAYERS.items():
        if name in members or any(name.startswith(m + ".") for m in members):
            return group
    return None


def summarize(records) -> dict[str, float]:
    """Every metric in METRICS, summed over the invocations of one pass.

    `records` are the dicts ``launch.py`` writes, each with the parent's
    ``t_spawn`` and ``t_reaped`` added.  ``trace.overhead_s`` stays 0 here:
    only the caller, which also times untraced passes, can measure it.
    """
    total: dict[str, float] = defaultdict(float)
    caches = {"coding": [0, 0], "language": [0, 0]}
    for rec in records:
        spans = rec["spans"]
        own = self_times(spans)
        for sid, name, *_ in spans:
            layer = name.split(".", 1)[0]
            total[f"{layer}.self_s"] += own.get(sid, 0.0)
            if not name.endswith(".mapped"):
                total[f"{layer}.calls"] += 1
            group = _group(name)
            if group is not None:
                total[f"{group}.self_s"] += own.get(sid, 0.0)
        total["process.start_s"] += rec["t_start"] - rec["t_spawn"]
        total["process.exit_s"] += rec["t_reaped"] - rec["t_main_end"]
        total["cli.import_s"] += rec["t_imported"] - rec["t_start"]
        for key, value in rec["counters"].items():
            if key == "parallel.jobs":
                total[key] = max(total[key], value)
            else:
                total[key] += value
        for kind, (hits, misses) in rec["caches"].items():
            caches[kind][0] += hits
            caches[kind][1] += misses
    for kind, (hits, misses) in caches.items():
        total[f"{kind}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    total["spectral.cocycle_flops"] = FLOPS_PER_STEP * total["spectral.cocycle_steps"]
    return {name: float(total[name]) for name, _, _ in METRICS}
