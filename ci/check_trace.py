#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file emitted by the flight recorder.

Usage: check_trace.py TRACE.json [--min-threads N] [--require-counter NAME]
                                 [--require-thread NAME]

Checks (all must pass):
  * the file is well-formed JSON with a `traceEvents` array;
  * every event carries the required keys for its phase (`ph`);
  * at least N `thread_name` metadata tracks exist (default 2), with
    distinct tids — one per recorded thread;
  * per tid, B/E events are balanced and stack-disciplined (depth never
    goes negative, ends at zero) — on every recorded thread's track;
  * timestamps are non-negative and B/E pairs are non-inverted;
  * each `--require-counter NAME` appears as a C event with a numeric
    `args.value`;
  * each `--require-thread NAME` appears as a `thread_name` metadata
    track (e.g. `--require-thread main` pins the main thread's track).

Exit code 0 on success; 1 with a diagnostic on the first failure.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"check_trace: FAIL: {msg}")
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--min-threads", type=int, default=2)
    ap.add_argument("--require-counter", action="append", default=[])
    ap.add_argument("--require-thread", action="append", default=[])
    args = ap.parse_args()

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {args.trace}: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("missing `traceEvents` array")
    if not events:
        fail("trace is empty")

    thread_names = {}  # tid -> name
    depth = {}  # tid -> [depth, open-span stack of (name, ts)]
    counters_seen = set()

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event #{i} is not an object")
        ph = ev.get("ph")
        if ph is None:
            fail(f"event #{i} has no `ph`")
        if ph == "M":
            if ev.get("name") == "thread_name":
                tid = ev.get("tid")
                name = (ev.get("args") or {}).get("name")
                if tid is None or not name:
                    fail(f"metadata event #{i} lacks tid or args.name")
                thread_names[tid] = name
            continue
        # Non-metadata events need a tid and a non-negative timestamp.
        tid, ts = ev.get("tid"), ev.get("ts")
        if tid is None or ts is None:
            fail(f"{ph} event #{i} lacks tid or ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{ph} event #{i} has bad ts {ts!r}")
        if ph == "B":
            depth.setdefault(tid, []).append((ev.get("name"), ts))
        elif ph == "E":
            stack = depth.setdefault(tid, [])
            if not stack:
                fail(f"tid {tid}: E at ts {ts} with no open span (event #{i})")
            _, begin_ts = stack.pop()
            if ts < begin_ts:
                fail(f"tid {tid}: span ends at {ts} before it begins at {begin_ts}")
        elif ph == "C":
            value = (ev.get("args") or {}).get("value")
            if not isinstance(value, (int, float)):
                fail(f"counter event #{i} ({ev.get('name')}) has no numeric args.value")
            counters_seen.add(ev.get("name"))
        elif ph == "i":
            pass
        else:
            fail(f"event #{i} has unexpected phase {ph!r}")

    for tid, stack in depth.items():
        if stack:
            names = ", ".join(n for n, _ in stack)
            fail(f"tid {tid}: {len(stack)} span(s) never closed: {names}")

    if len(thread_names) < args.min_threads:
        fail(
            f"only {len(thread_names)} thread track(s) "
            f"({sorted(thread_names.values())}), need >= {args.min_threads}"
        )

    for name in args.require_counter:
        if name not in counters_seen:
            fail(f"required counter track `{name}` absent (saw {sorted(counters_seen)})")

    for name in args.require_thread:
        if name not in thread_names.values():
            fail(
                f"required thread track `{name}` absent "
                f"(saw {sorted(thread_names.values())})"
            )

    spans = sum(1 for ev in events if ev.get("ph") == "B")
    print(
        f"check_trace: OK: {len(events)} events, {len(thread_names)} thread tracks "
        f"({', '.join(sorted(thread_names.values()))}), {spans} balanced spans, "
        f"{len(counters_seen)} counter track(s)"
    )


if __name__ == "__main__":
    main()
