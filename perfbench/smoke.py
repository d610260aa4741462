"""Smoke check of the benchmark harness itself, at reduced instance sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced, then the untraced run again with
the same seed, and checks that each result line follows BENCHMARK.json,
that every answer passed or failed only as a known defect, and that the
solution and trace hashes of one seed repeat byte for byte.  Finally it
checks that the harness refuses to run in a copy that holds only
BENCHMARK.json and perfbench/.  Takes about a minute; exits nonzero on the
first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170)


def result(workload: str, trace: int, spec: dict) -> dict:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: result keys {sorted(line)}")
    if trace and set(record(workload, trace)["per_layer"]) \
            != {m["name"] for m in spec["per_layer"]}:
        raise SystemExit(f"{workload}: traced layers differ from BENCHMARK.json")
    for name, metric in line["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise SystemExit(f"{workload}: {name} is not a number")
    if not line["correct"] or line["attempted"] < 1:
        raise SystemExit(f"{workload} trace={trace}: {line}")
    return line


def record(workload: str, trace: int) -> dict:
    return json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json")
                      .read_text())


def digests(workload: str, trace: int) -> list:
    return [op["digest"] for op in record(workload, trace)["ops"]]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        result(workload, 1, spec)
        traced = digests(workload, 1)
        for _ in range(2):
            result(workload, 0, spec)
            if digests(workload, 0) != traced:
                raise SystemExit(f"{workload}: outputs differ between runs")
        print(f"ok {workload}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("run.py must refuse a checkout without sources")
    print("ok refuses a checkout without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
