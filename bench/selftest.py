"""Self-test of the benchmark at toy size.

    python3 bench/selftest.py

Runs every workload on a 20x20 fleet (grid 11, short iteration caps) once
untraced and once traced, and checks that every end-to-end and per-layer
metric declared in BENCHMARK.json is emitted, finite, with its declared unit.
Then it runs a workload whose check is made to fail, and one whose operation
raises, and checks that both are counted as failed. At toy size the
statistical checks of the full-size workloads may fail; that is reported but
not asserted. Exits 1 on any problem.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys

import run  # sets the thread variables before numpy is imported


def _declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    sys.dont_write_bytecode = True
    run._import_package()
    import workloads
    from spe.errors import MaxIterExceeded

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")

    for name in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run(workloads.WORKLOADS[name], workloads.SMOKE, 4, 0.0, trace)
            emitted = run.result_line(record)["metrics"]
            for metric, unit in _declared(spec, key).items():
                got = emitted.get(metric)
                if got is None:
                    problems.append(f"{name} trace={int(trace)}: {metric} not emitted")
                elif got["unit"] != unit:
                    problems.append(f"{name}: {metric} unit {got['unit']!r}, declared {unit!r}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{name}: {metric} is {got['value']}")
            failed = [op["problems"] for op in record["ops"] if op["problems"]]
            print(f"{name} trace={int(trace)}: {len(emitted)} metrics, "
                  f"{len(record['ops'])} ops, toy-size check failures: {failed or 'none'}")

    base = workloads.WORKLOADS["cold_solve"]

    def raises(inputs):
        raise MaxIterExceeded("deliberate failure", residual=1.0, iterations=1)

    sabotaged = {
        "failing check": dataclasses.replace(base, check=lambda inputs, result: ["deliberate failure"]),
        "raising operation": dataclasses.replace(base, op=raises),
    }
    for label, workload in sabotaged.items():
        record = run.run(workload, workloads.SMOKE, 4, 0.0, False)
        line = run.result_line(record)
        counted = (
            line["failed"] == line["attempted"] >= 1
            and not line["correct"]
            and line["metrics"]["ops_ok"]["value"] == 0.0
        )
        print(f"{label}: attempted {line['attempted']} failed {line['failed']} correct {line['correct']}")
        if not counted:
            problems.append(f"{label} was not counted as a failed operation: {line}")

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
