"""Self-test of the host-speed benchmark at a tiny size.

Checks that all three workloads run untraced and traced and pass the
correctness gate, that every metric ``BENCHMARK.json`` names is emitted
with its unit (and nothing else), and that the gate trips on a wrong
pinned fingerprint.  Takes about half a minute::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys

import run

SCALE = 0.05


def main() -> int:
    run.import_program()
    from workloads import DEFAULT_SEED

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    quiet = lambda *_: None  # noqa: E731
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, want in wanted.items():
            before = len(failures)
            doc = run.run_benchmark(
                workload, seed=DEFAULT_SEED, seconds=0, trace=trace,
                scale=SCALE, log=quiet,
            )
            label = f"{workload} trace={int(trace)}"
            if not doc["correct"]:
                failures.append(f"{label}: the correctness gate failed")
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
                failures.append(
                    f"{label}: missing {missing}, unexpected {extra}, wrong units {units}"
                )
            if any(not isinstance(m["value"], (int, float)) for m in doc["metrics"].values()):
                failures.append(f"{label}: a metric value is not a number")
            print(f"{label}: {'ok' if len(failures) == before else 'FAILED'}")
    wrong = {"llm-crash": {"token": "0" * 64}}
    doc = run.run_benchmark(
        "llm-crash", seed=DEFAULT_SEED, seconds=0, trace=False,
        scale=SCALE, pinned=wrong, log=quiet,
    )
    if doc["correct"] or not doc["failed"]:
        failures.append("a wrong pinned fingerprint did not trip the gate")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
