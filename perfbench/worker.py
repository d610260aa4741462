"""One workload in one fresh process: set up, run timed rounds, check.

Run by run.py; prints one JSON document on its last stdout line.
"""

import os

# BLAS threads are pinned before numpy is imported: with the default
# thread count the per-iteration time on a small shared box measures the
# scheduler more than the solver (see NOTES.md).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import socpath.solver  # noqa: E402

from checks import LawViolation, answer_failure, check_law  # noqa: E402
from tracer import LAYERS, Tracer, untraced_call  # noqa: E402
from workloads import KNOWN_WRONG_STATUS, SIZES, WORKLOADS  # noqa: E402


# A round takes 8-18 s on the full sizes, so a 40-s run has two to four;
# with --trace 1 the first two are one untraced and one traced round.
MIN_ROUNDS = 2

# The time of a pass is estimated from windows of WINDOW consecutive
# Newton steps of one solve, pooled over the solves of one shape in the
# untraced rounds; a step is charged the WINDOW_QUANTILE quantile of the
# window means (see pass_time).
WINDOW = 50
WINDOW_QUANTILE = 0.75


class SolveLog:
    """Stands in for `solve` and records every call for the law check,
    including solves whose result never reaches the user.  While
    `stamping()` is active it also records, per solve, its shape and the
    time at which each Newton step ends."""

    def __init__(self, solve):
        self._solve = solve
        self.calls: List = []
        self.stamps: List[Tuple[str, List[float]]] = []  # one per solve
        self._current: List[float] = []

    def clear(self) -> None:
        self.calls.clear()
        self.stamps.clear()

    @contextlib.contextmanager
    def stamping(self):
        """Wrap the solver's per-iteration `step_point` with a time stamp.
        If a refactor removes that name, no stamps are taken and the
        estimate falls back to whole operations (see `pass_time`)."""
        original = vars(socpath.solver).get("step_point")
        if original is None:
            yield
            return
        clock = time.perf_counter

        def stamped(*args, **kwargs):
            point = original(*args, **kwargs)
            self._current.append(clock())
            return point

        socpath.solver.step_point = stamped
        try:
            yield
        finally:
            socpath.solver.step_point = original

    def install(self) -> None:
        """Rebind `solve` in every socpath module that imported it."""
        for name, module in list(sys.modules.items()):
            if name.startswith("socpath.") \
                    and vars(module).get("solve") is self._solve \
                    and module is not socpath.solver:
                module.solve = self

    def __call__(self, problem, start, params):
        self._current = []
        self.stamps.append((solve_shape(problem, params), self._current))
        result = self._solve(problem, start, params)
        self.calls.append((problem, start, params, result.iterations))
        return result


@dataclass
class Round:
    tracer: Optional[Tracer]
    wall_s: float = 0.0
    op_s: List[float] = field(default_factory=list)
    # per operation, (shape, step-to-step intervals) of each of its solves
    intervals: List[List[Tuple[str, np.ndarray]]] = \
        field(default_factory=list)
    useful_iters: int = 0
    executed_iters: int = 0
    solves: int = 0
    attempted: int = 0
    failures: List[Dict] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    warm_saving: int = 0

    @property
    def traced(self) -> bool:
        return self.tracer is not None


def run_round(ops, log: SolveLog, tracer: Optional[Tracer]) -> Round:
    rnd = Round(tracer)
    call = tracer.call if tracer is not None else untraced_call
    for op in ops:
        log.clear()
        answer, error = None, None
        t0 = time.perf_counter()
        try:
            answer = op.run(call, log)
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        op_s = time.perf_counter() - t0
        rnd.wall_s += op_s
        rnd.op_s.append(op_s)
        rnd.intervals.append([(shape, np.diff(np.array(stamps)))
                              for shape, stamps in log.stamps
                              if len(stamps) > 1])
        for problem, start, params, iters in log.calls:
            check_law(problem, start, params, iters)
            rnd.executed_iters += iters
        rnd.solves += len(log.calls)
        rnd.attempted += 1
        if answer is not None:
            rnd.useful_iters += answer.iterations
            rnd.digests.append(answer.digest)
            if op.cold_count is not None:
                rnd.warm_saving += op.cold_count - answer.iterations
            error = answer_failure(op.instance.status, answer.status,
                                   op.instance.problem, answer.point,
                                   op.epsilon)
            if error is None and not log.calls:
                error = "no solve observed, so the iteration law went unchecked"
        else:
            rnd.digests.append("")
        if error is not None:
            known = (answer is not None and answer.status
                     == KNOWN_WRONG_STATUS.get(op.instance.name))
            rnd.failures.append({"op": op.label, "reason": error,
                                 "known": known})
    return rnd


def run_rounds(ops, seconds: float, trace: bool) -> List[Round]:
    """Alternate untraced and (with trace) traced rounds until the next
    round would end past `seconds`, but run at least MIN_ROUNDS."""
    log = SolveLog(socpath.solver.solve)
    log.install()
    rounds: List[Round] = []
    began = time.perf_counter()
    while True:
        if trace and len(rounds) % 2 == 1:
            tracer = Tracer()
            with tracer.installed():
                rounds.append(run_round(ops, log, tracer))
        else:
            with log.stamping():
                rounds.append(run_round(ops, log, None))
        elapsed = time.perf_counter() - began
        if len(rounds) >= MIN_ROUNDS \
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def window_means(intervals: np.ndarray) -> List[float]:
    """Means of consecutive WINDOW-long runs of one solve's step-to-step
    intervals; the tail is dropped, and a shorter solve is one window."""
    n = len(intervals) // WINDOW
    if n == 0:
        return [float(intervals.mean())]
    return intervals[:n * WINDOW].reshape(n, WINDOW).mean(axis=1).tolist()


def solve_shape(problem, params) -> str:
    """What a Newton step's work depends on: the cone sizes, the number of
    equality rows and the step's options, but not the data's values."""
    cones = problem.cones
    return (f"l={cones.l} soc={list(cones.soc_dims)} p={problem.p} "
            f"scaling={getattr(params, 'scaling', None)} "
            f"trace={getattr(params, 'trace_enabled', None)} "
            f"directions={getattr(params, 'collect_directions', None)}")


def pass_time(rounds: List[Round]) -> Tuple[float, Dict]:
    """Seconds for one pass over the operations, and the figures it was
    built from.

    The host this runs on is shared.  It has a usual speed, and for
    seconds at a time it runs the same code up to 1.9 times faster (its
    neighbours idle) or slower; a 40-s run catches anywhere from none to
    over half of its time in fast spells, and its median round moves with
    that share.  Every round does the same work, and every Newton step of
    one shape (`solve_shape`) does the same work, so each operation's time
    is split into its solves' step-to-step intervals and the rest.  The
    intervals are grouped into windows (`window_means`), the windows of
    one shape are pooled over all operations and rounds, and every step
    is charged the WINDOW_QUANTILE quantile of its shape's window means,
    which stays at the usual speed while fast spells fill less than three
    quarters of the run and slow ones less than a quarter.  The rest
    (start-up of each solve, its first step, file and CLI work) is
    charged its median over the rounds.  Without stamps (the stepping
    function renamed away) each operation is its median round.
    """
    means: Dict[str, List[float]] = {}
    for rnd in rounds:
        for solves in rnd.intervals:
            for shape, intervals in solves:
                means.setdefault(shape, []).extend(window_means(intervals))
    steps: Dict[str, int] = {}
    for solves in rounds[0].intervals:
        for shape, intervals in solves:
            steps[shape] = steps.get(shape, 0) + len(intervals)
    total, parts = 0.0, {"shapes": [], "rest_s": []}
    for shape, count in steps.items():
        step_s = float(np.quantile(means[shape], WINDOW_QUANTILE))
        total += count * step_s
        parts["shapes"].append({
            "shape": shape, "steps": count, "step_s": step_s,
            "window_ms": [round(1e3 * m, 4) for m in means[shape]]})
    for i in range(len(rounds[0].op_s)):
        rest_s = statistics.median(
            rnd.op_s[i] - sum(float(a.sum()) for _, a in rnd.intervals[i])
            for rnd in rounds)
        total += rest_s
        parts["rest_s"].append(rest_s)
    return total, parts


def environment(seed: int) -> Dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def openblas_threads() -> Optional[int]:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def layer_metrics(traced: List[Round], untraced: List[Round]) -> Dict:
    """Per-round layer figures, medians over the traced rounds."""
    first = traced[0]
    totals = [r.tracer.layer_totals() for r in traced]
    iters = first.executed_iters
    metrics: Dict[str, float] = {}
    for name in LAYERS:
        calls = totals[0][name][0]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = statistics.median(
            [t[name][1] for t in totals])
        metrics[f"{name}.calls_per_iter"] = calls / iters if iters else 0.0
    orders = np.array(first.tracer.kkt_orders, dtype=float)
    commands = totals[0]["cli.main"][0]
    solves_in_cli = first.tracer.solves_under_cli()
    traced_wall = statistics.median([r.wall_s for r in traced])
    untraced_wall = statistics.median([r.wall_s for r in untraced])
    metrics.update({
        "kkt.order": int(orders.max()) if orders.size else 0,
        "kkt.factor_gflop": float(np.sum(2.0 / 3.0 * orders ** 3)) * 1e-9,
        "kkt.matrix_mb": float(np.sum(8.0 * orders ** 2)) * 1e-6,
        "fileio.trace_bytes": first.tracer.trace_bytes,
        "cli.solve.calls_per_cmd": solves_in_cli / commands if commands else 0.0,
        "cli.solve.useful_ratio": commands / solves_in_cli if solves_in_cli else 0.0,
        "law.checked_solves": first.solves,
        "solver.iterations": iters,
        "warm_saving_iters": first.warm_saving,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
        "trace.spans": len(first.tracer.start),
        "trace.absent": len(first.tracer.absent),
    })
    return metrics


def write_spans(path: Path, traced: List[Round]) -> None:
    path.write_text("id,parent,name,start_ns,end_ns\n")
    offset = 0
    for rnd in traced:
        offset = rnd.tracer.write_csv(path, offset)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workdir = args.out / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    ops = WORKLOADS[args.workload](rng, SIZES[args.size], workdir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        rounds = run_rounds(ops, args.seconds, bool(args.trace))
    except LawViolation as exc:
        print(f"iteration law violated: {exc}", file=sys.stderr)
        return 3
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    reference = rounds[0].digests
    deterministic = all(r.digests == reference for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    wall_s, parts = pass_time(untraced)
    e2e = {
        "wall_s": wall_s,
        "iter_ms": 1e3 * wall_s / untraced[0].useful_iters,
        "pass_rate": (attempted - len(failures)) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_rate": len(failures) / attempted,
        "warm_saving_iters": rounds[0].warm_saving,
    }
    doc = {
        "setup_s": setup_s,
        "environment": environment(args.seed),
        "rounds": [{"traced": r.traced, "wall_s": r.wall_s, "op_s": r.op_s,
                    "useful_iters": r.useful_iters,
                    "executed_iters": r.executed_iters, "solves": r.solves}
                   for r in rounds],
        "ops": [{"op": op.label, "instance": op.instance.name,
                 "known_status": op.instance.status, "digest": digest}
                for op, digest in zip(ops, reference)],
        "pass_time": parts,
        "failures": rounds[0].failures,
        "attempted": attempted,
        "failed": len(failures),
        "deterministic": deterministic,
        "correct": deterministic and all(f["known"] for f in failures),
        "end_to_end": e2e,
    }
    if traced:
        doc["per_layer"] = layer_metrics(traced, untraced)
        doc["absent"] = traced[0].tracer.absent
        spans = args.out / f"{args.workload}-seed{args.seed}-spans.csv"
        write_spans(spans, traced)
        doc["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
