"""Exporters: Chrome trace-event JSON (Perfetto-loadable) and helpers.

The Chrome trace-event format is the least-common-denominator every trace
UI loads (chrome://tracing, Perfetto, speedscope).  The mapping is:

* ``pid`` = partition (one "process" per fault-isolation domain, so the
  Perfetto track grouping mirrors the S-EL2 partition boundaries),
* ``tid`` = enclave (or the span category for host-side spans),
* one ``"ph": "X"`` complete event per closed span, ``ts``/``dur`` in
  simulated microseconds,
* ``args`` carries the causal identity (``trace_id``, ``span_id``,
  ``parent_id``, ``seq``) plus the span's attributes.

:func:`validate_chrome_trace` is the schema gate CI runs via
``scripts/check_trace_schema.py``: required keys, well-formed ids,
parented spans whose parents exist (no dangling parents).
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Tuple

_HOST_PARTITION = "normal-world"


def _identity_maps(spans) -> Tuple[Dict[str, int], Dict[Tuple[str, str], int]]:
    """Stable integer pids per partition and tids per (partition, lane)."""
    partitions = sorted({s.partition or _HOST_PARTITION for s in spans})
    pids = {name: index + 1 for index, name in enumerate(partitions)}
    lanes = sorted({(s.partition or _HOST_PARTITION, _lane(s)) for s in spans})
    tids = {lane: index + 1 for index, lane in enumerate(lanes)}
    return pids, tids


def _lane(span) -> str:
    """The thread-level grouping: the enclave if known, else the category."""
    if span.enclave is not None:
        return str(span.enclave)
    return span.category or "host"


def chrome_trace(spans) -> Dict[str, object]:
    """Render spans (e.g. ``recorder.spans()``) as a Chrome trace-event
    JSON object; spans not yet ended are left out."""
    spans = [s for s in spans if s.end_us is not None]
    spans.sort(key=lambda s: (s.start_us, s.context.seq))
    pids, tids = _identity_maps(spans)
    events: List[Dict[str, object]] = []
    for name, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": name},
            }
        )
    for (partition, lane), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name", "ph": "M",
                "pid": pids[partition], "tid": tid,
                "args": {"name": lane},
            }
        )
    for span in spans:
        partition = span.partition or _HOST_PARTITION
        args: Dict[str, object] = {
            "trace_id": span.context.trace_id,
            "span_id": span.context.span_id,
            "parent_id": span.context.parent_id,
            "seq": span.context.seq,
        }
        for key in sorted(span.attrs):
            args[key] = span.attrs[key]
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": round(span.start_us, 3),
                "dur": round(span.duration_us, 3),
                "pid": pids[partition],
                "tid": tids[(partition, _lane(span))],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def annotate_chrome_trace(data: Mapping[str, object], alerts) -> Dict[str, object]:
    """Annotate an exported trace with fired alerts as Chrome instant
    events (``"ph": "i"``, global scope) at the alert's virtual
    timestamp — this is the "recovery trace attached to alert" format
    the alert engine dumps.  Returns a new trace object; the input's
    event list is not mutated."""
    events = list(data.get("traceEvents", ()))
    for alert in alerts:
        events.append(
            {
                "name": f"alert:{alert.rule}",
                "cat": "alert",
                "ph": "i",
                "s": "g",
                "ts": round(alert.t_us, 3),
                "pid": 0,
                "tid": 0,
                "args": {
                    "alert_id": alert.alert_id,
                    "rule": alert.rule,
                    "severity": alert.severity,
                    "value": alert.value,
                    "threshold": alert.threshold,
                    "labels": {k: v for k, v in alert.labels},
                    "exemplar_trace_ids": list(alert.exemplar_trace_ids),
                },
            }
        )
    out = dict(data)
    out["traceEvents"] = events
    return out


def alert_annotations(data: Mapping[str, object]) -> List[Dict[str, object]]:
    """The alert instant events of an annotated trace, in file order."""
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return []
    return [
        e for e in events
        if isinstance(e, dict) and e.get("ph") == "i" and e.get("cat") == "alert"
    ]


def write_chrome_trace(recorder, path: str, *, trace_id: Optional[int] = None) -> str:
    """Write the Perfetto-loadable JSON to ``path``; returns the path."""
    data = chrome_trace(recorder.spans(trace_id=trace_id))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# -- schema validation (the CI gate) -----------------------------------------
_REQUIRED_EVENT_KEYS = ("name", "ph", "pid", "tid")
_REQUIRED_SPAN_ARGS = ("trace_id", "span_id", "parent_id", "seq")


def validate_chrome_trace(data: Mapping[str, object]) -> List[str]:
    """Validate an exported trace; returns a list of problems (empty = ok).

    Checks the acceptance gate's three properties: required keys on every
    event, span identity args on every ``X`` event, and every non-null
    ``parent_id`` resolving to a ``span_id`` in the *same trace* (no
    dangling parents).
    """
    problems: List[str] = []
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["top-level 'traceEvents' missing or not a list"]
    if not events:
        problems.append("trace contains no events")
    known: Dict[int, set] = {}
    span_events = []
    seen_seq = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{index} is not an object")
            continue
        for key in _REQUIRED_EVENT_KEYS:
            if key not in event:
                problems.append(f"event #{index} missing required key {key!r}")
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase == "C":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"event #{index}: 'ts' missing or non-numeric")
            cargs = event.get("args")
            if (
                not isinstance(cargs, dict)
                or not cargs
                or not all(isinstance(v, (int, float)) for v in cargs.values())
            ):
                problems.append(
                    f"event #{index}: counter 'args' must be a non-empty "
                    "mapping of numeric series"
                )
            continue
        if phase == "i":
            # Alert-annotation instant events (annotate_chrome_trace).
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"event #{index}: 'ts' missing or non-numeric")
            iargs = event.get("args")
            if (
                not isinstance(iargs, dict)
                or not isinstance(iargs.get("rule"), str)
                or not isinstance(iargs.get("severity"), str)
            ):
                problems.append(
                    f"event #{index}: instant-event 'args' must carry "
                    "string 'rule' and 'severity'"
                )
            continue
        if phase != "X":
            problems.append(f"event #{index}: unexpected phase {phase!r}")
            continue
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"event #{index}: 'ts' missing or non-numeric")
        if not isinstance(event.get("dur"), (int, float)) or event.get("dur", 0) < 0:
            problems.append(f"event #{index}: 'dur' missing or negative")
        args = event.get("args")
        if not isinstance(args, dict):
            problems.append(f"event #{index}: 'args' missing")
            continue
        missing = [k for k in _REQUIRED_SPAN_ARGS if k not in args]
        if missing:
            problems.append(f"event #{index}: args missing {missing}")
            continue
        span_events.append((index, args))
        seq = args["seq"]
        if seq in seen_seq:
            problems.append(f"event #{index}: duplicate seq {seq}")
        seen_seq.add(seq)
        known.setdefault(args["trace_id"], set()).add(args["span_id"])
    for index, args in span_events:
        parent = args["parent_id"]
        if parent is None:
            continue
        if parent not in known.get(args["trace_id"], ()):
            problems.append(
                f"event #{index}: dangling parent {parent} "
                f"(not a span_id in trace {args['trace_id']})"
            )
    return problems


# -- recovery-phase accounting ------------------------------------------------
#: Canonical phase order of the figure-9 proceed-trap recovery path.
RECOVERY_PHASES = ("detect", "trap", "scrub", "reload", "resubmit")


def recovery_phases(recorder, *, trace_id: Optional[int] = None) -> Dict[str, float]:
    """Per-phase simulated-microsecond totals from the recovery spans.

    Sums the durations of ``recovery.<phase>`` spans (category
    ``"recovery"``), optionally restricted to one trace.  Every canonical
    phase appears in the result (0.0 when it never ran), in the canonical
    detect → trap → scrub → reload → resubmit order.
    """
    totals = {phase: 0.0 for phase in RECOVERY_PHASES}
    for span in recorder.spans(trace_id=trace_id, category="recovery"):
        if span.end_us is None or not span.name.startswith("recovery."):
            continue
        phase = span.name.split(".", 1)[1]
        if phase in totals:
            totals[phase] += span.duration_us
    return totals
