"""Solver benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload dense-kkt --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout.  Set-up is sampled in
SETUP_SAMPLES fresh worker processes; the middle one also runs the timed
rounds.  Human-readable lines come first; the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1).  Exits nonzero, without a result, when the
checkout has no sources, a worker fails, or a solve breaks the
closed-form iteration law.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0


def spawn(args, extra, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", str(OUT),
           "--spawned-at", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(doc: dict, workload: str) -> None:
    env = doc["environment"]
    print(f"workload {workload} seed {env['seed']} rounds {len(doc['rounds'])}"
          f" ({sum(r['traced'] for r in doc['rounds'])} traced)")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for op in doc["ops"]:
        print(f"op {op['op']:<22} known={op['known_status']:<18} "
              f"sha256={op['digest']}")
    for f in doc["failures"]:
        print(f"failed {f['op']}: {f['reason']}"
              f"{' (known defect)' if f['known'] else ''}")
    print(f"deterministic across rounds: {doc['deterministic']}")
    for name, value in doc["end_to_end"].items():
        print(f"metric {name} = {value!r}")
    for name, value in doc.get("per_layer", {}).items():
        print(f"layer {name} = {value!r}")
    if doc.get("absent"):
        print("absent wrapped names: " + ", ".join(doc["absent"]))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced instances for checking the harness")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker, instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "socpath" / "__init__.py").is_file():
        print(f"no socpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.monotonic()
    OUT.mkdir(exist_ok=True)
    # Set-up probes run before and after the timed worker, so that the
    # samples span the run rather than one moment of a shared machine.
    probes = SETUP_SAMPLES // 2
    setups = [spawn(args, ["--setup-only"], WORKER_TIMEOUT_S)["setup_s"]
              for _ in range(probes)]
    doc = spawn(args, [], WORKER_TIMEOUT_S - (time.monotonic() - began))
    setups.append(doc["setup_s"])
    setups += [spawn(args, ["--setup-only"], WORKER_TIMEOUT_S)["setup_s"]
               for _ in range(SETUP_SAMPLES - 1 - probes)]
    doc["end_to_end"]["setup_s"] = statistics.median(setups)
    doc["setup_samples_s"] = setups
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(doc, indent=1) + "\n")
    report(doc, args.workload)

    values = doc["per_layer"] if args.trace else doc["end_to_end"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
