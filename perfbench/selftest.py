#!/usr/bin/env python3
"""Self-test of the benchmark against BENCHMARK.json.

    python3 perfbench/selftest.py

Checks the file's shape, then runs every workload for one short cycle
with ``--trace 0`` and ``--trace 1`` and checks that the last line of
output names every declared metric, and nothing else, with its declared
unit, that the run is correct, and that a second traced run of the same
seed repeats every ``.calls`` count exactly.  Takes about a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec) -> list:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction in {m}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("a bound outside (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    return problems


def run(spec, workload, trace, seed=3):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, declared) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"run not correct: {result['failed']} of {result['attempted']} failed")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            problems.append(f"{name}: declared unit {want.get(name)}, emitted {got.get(name)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(spec, w["name"], trace)
            problems += [f"{w['name']} --trace {trace}: {p}"
                         for p in check_result(result, declared)]
            print(f"ran {w['name']} --trace {trace}", file=sys.stderr)
        again = run(spec, w["name"], 1)["metrics"]
        for name, value in result["metrics"].items():
            if name.endswith(".calls") and again[name] != value:
                problems.append(f"{w['name']}: {name} {value['value']} then "
                                f"{again[name]['value']} on the same seed")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
