"""The per-layer table of a traced worker, built from its spans.

Every ``*.s`` / ``*_s`` time below is a *self* time from
``spans.attribute`` over the timed window, plus ``import.s`` for the
imports at process start; together they add up to ``trace.wall_s``.
Counts and ratios come from attributes recorded on the spans. Spans
recorded during set-up are outside the window: they only seed the
"previous artifact" each experiment call is compared against.
"""

from __future__ import annotations

import statistics

import spans as spanlib

#: layer -> its self-time metric.
SELF_METRIC = {
    "synth": "synth.s",
    "cluster.workload": "cluster.workload.s",
    "cluster.scheduler": "cluster.scheduler.s",
    "cluster.sacct": "cluster.sacct.s",
    "io.jsonl": "io.jsonl.s",
    "report.experiments": "report.experiments.s",
    "report.document": "report.document.s",
    "core.pipeline": "core.pipeline.self_s",
    "core.cache.get": "core.cache.get_s",
    "core.cache.put": "core.cache.put_s",
    "core.journal": "core.journal.s",
    "serve.wal.append": "serve.wal.append_s",
    "serve.wal.snapshot": "serve.wal.snapshot_s",
    "serve.service": "serve.service.self_s",
    "obs": "obs.publish_s",
    "trace": "trace.self_s",
    "harness": "harness.s",
    "loadgen.idle": "loadgen.idle_s",
    "unattributed": "unattributed.s",
}

# span fields
PID, TID, LAYER, NAME, T0, T1, KIND, ATTRS = range(8)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(spans: list[list], key: str) -> float:
    return float(sum(s[ATTRS].get(key, 0) for s in spans))


def useful_calls(exp_spans: list[list], appends: list[list], lineages: list[float], w0: float):
    """(calls, useful) overall and per feed, for experiment calls in the window.

    A call is useful when its artifact differs from the one the same
    experiment last produced in the same lineage (one durable root or one
    service). A window call is tagged with the feed of the last append
    that accepted rows before it.
    """
    events = [(t, 0, None) for t in lineages] + [(s[T0], 1, s) for s in exp_spans]
    events.sort(key=lambda e: (e[0], e[1]))
    accepted = sorted((s[T0], s[NAME]) for s in appends if s[ATTRS].get("accepted"))
    last: dict[str, str] = {}
    tally = {"all": [0, 0], "sacct": [0, 0], "responses": [0, 0]}
    k, feed = 0, None
    for t, kind, span in events:
        if kind == 0:
            last.clear()
            continue
        while k < len(accepted) and accepted[k][0] <= t:
            feed = accepted[k][1]
            k += 1
        digest = span[ATTRS].get("digest")
        useful = last.get(span[NAME]) != digest
        last[span[NAME]] = digest
        if t < w0:
            continue
        for key in ("all", feed):
            if key in tally:
                tally[key][0] += 1
                tally[key][1] += useful
    return tally


def table(all_spans: list[list], window, lanes, import_s: float, ctx) -> dict[str, float]:
    w0, w1 = window
    self_s = spanlib.attribute(all_spans, window, lanes)
    spans = [s for s in all_spans if s[T0] >= w0 and s[T1] <= w1]
    by_layer: dict[str, list[list]] = {}
    for s in spans:
        by_layer.setdefault(s[LAYER], []).append(s)

    def layer(name: str) -> list[list]:
        return by_layer.get(name, [])

    out = {metric: self_s.get(name, 0.0) for name, metric in SELF_METRIC.items()}
    out["import.s"] = import_s
    out["trace.wall_s"] = import_s + (w1 - w0)
    total = sum(out[metric] for metric in SELF_METRIC.values()) + import_s
    if abs(total - out["trace.wall_s"]) > 1e-6 * out["trace.wall_s"]:
        raise ValueError(f"self times add up to {total} s, not {out['trace.wall_s']} s")

    out["synth.calls"] = len(layer("synth"))
    out["cluster.workload.jobs"] = _sum(layer("cluster.workload"), "rows")
    appends = [s for s in all_spans if s[LAYER] == "serve.wal.append"]
    window_appends = layer("serve.wal.append")
    new_sacct = _sum([s for s in window_appends if s[NAME] == "sacct"], "accepted")
    out["cluster.sacct.rows"] = _sum(layer("cluster.sacct"), "rows")
    out["cluster.sacct.reparse_ratio"] = _ratio(out["cluster.sacct.rows"], new_sacct)
    out["io.jsonl.rows"] = _sum(layer("io.jsonl"), "rows")

    exp_spans = [s for s in all_spans if s[LAYER] == "report.experiments"]
    useful = useful_calls(exp_spans, appends, ctx.lineages, w0)
    out["report.experiments.calls"] = useful["all"][0]
    out["report.experiments.useful_ratio"] = _ratio(useful["all"][1], useful["all"][0])
    for feed in ("sacct", "responses"):
        out[f"report.experiments.useful_ratio_{feed}"] = _ratio(useful[feed][1], useful[feed][0])

    out["core.pipeline.steps_computed"] = _sum(layer("core.pipeline"), "computed")
    out["core.pipeline.steps_cached"] = _sum(layer("core.pipeline"), "cached")
    gets = layer("core.cache.get")
    out["core.cache.hit_ratio"] = _ratio(_sum(gets, "hits"), len(gets))
    out["core.cache.bytes_written"] = _sum(layer("core.cache.put"), "bytes")
    out["core.cache.fsyncs"] = _sum(layer("core.cache.put"), "fsyncs")
    out["core.journal.records"] = len([s for s in layer("core.journal") if s[NAME] == "record"])
    out["core.journal.fsyncs"] = _sum(layer("core.journal"), "fsyncs")

    accepted = _sum(window_appends, "accepted")
    out["serve.wal.fsyncs"] = _sum(window_appends, "fsyncs")
    out["serve.wal.rows_deduped"] = _sum(window_appends, "deduped")
    out["serve.wal.bytes_per_row"] = _ratio(ctx.extra.get("wal_bytes", 0.0), accepted)
    out["serve.wal.rows_reread"] = _sum(layer("serve.wal.snapshot"), "rows")

    service = layer("serve.service")
    refreshes = [s for s in service if s[NAME] == "refresh"]
    durations = [s[T1] - s[T0] for s in refreshes]
    out["serve.service.refresh_s"] = statistics.median(durations) if durations else 0.0
    out["serve.service.refreshes"] = len(refreshes)
    out["serve.service.refresh_duty"] = sum(durations) / (w1 - w0)
    out["serve.service.fsyncs"] = _sum(service, "fsyncs")
    # A read waited out a refresh when one ran between its due time and
    # its answer (on the other thread, or inline on its own).
    blocked = sum(
        1 for due, done in ctx.reads if any(f[T0] < done and due < f[T1] for f in refreshes)
    )
    out["serve.service.read_blocked_share"] = _ratio(blocked, len(ctx.reads))

    out["obs.publishes"] = len([s for s in layer("obs") if s[NAME] == "publish"])
    out["obs.fsyncs"] = _sum(layer("obs"), "fsyncs")
    out["core.trace.events_retained"] = ctx.extra.get("events_retained", 0)
    out["loadgen.late_ms"] = statistics.median(ctx.late) * 1e3 if ctx.late else 0.0
    return {k: float(v) for k, v in out.items()}
