#!/usr/bin/env python3
"""Compare two bfc/repro JSON reports, ignoring mode-describing keys.

Usage: strip_mode_keys.py <a.json> <b.json> [label]

The compressed-smoke CI job runs the same program under different
execution modes (raw vs grammar-compressed trace replay) and requires
the reports to be identical except for the keys that merely describe
*how* the run executed (`compressed`, `trace_bytes`, `memo`, and the
input `file` path) — races, counters, and space
accounting must match byte for byte.
"""

import json
import sys

MODE_KEYS = {
    "compressed",
    "trace_bytes",
    "memo",
    "file",
}


def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in MODE_KEYS}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def main():
    a_path, b_path = sys.argv[1], sys.argv[2]
    label = sys.argv[3] if len(sys.argv) > 3 else f"{a_path} vs {b_path}"
    with open(a_path) as f:
        a = strip(json.load(f))
    with open(b_path) as f:
        b = strip(json.load(f))
    if a != b:
        print(f"{label}: verdicts diverge:")
        print(json.dumps(a, indent=2, sort_keys=True))
        print("--- vs ---")
        print(json.dumps(b, indent=2, sort_keys=True))
        sys.exit(1)
    print(f"{label}: verdicts identical")


if __name__ == "__main__":
    main()
