"""The three workloads: their instances, set-up and timed operations.

A workload is a list of operations.  An operation is one call a user
would make: a library `solve` or one in-process `socpath` command.  It
returns the answer the user receives, which the worker then checks
against the instance's data.  Why each
workload exists is written up in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import socpath.cli
from socpath import ConeSpec, SolverParams
from socpath.fileio import write_problem
from socpath.warmstart import cold_start

from checks import closed_form_iterations
from instances import (Instance, drift, dual_ray, farkas_ray, feasible,
                       roadmap4)

# Instances on which the program is known to report a wrong status, with
# that status.  Their operations count as failed (they lower pass_rate);
# a failure of any other kind, or on another instance, makes the run
# incorrect.  Both come from the tau-versus-kappa status test of
# ROADMAP item 4; remove an entry when the fix lands.
KNOWN_WRONG_STATUS = {"roadmap4": "optimal", "farkas-ray": "optimal"}

# Reduced sizes for the smoke check of the harness itself.
SIZES = {
    "full": {
        "dense_spec": ConeSpec(20, (10,) * 10), "dense_p": 60,
        "small_spec": ConeSpec(4, (3,) * 12), "small_p": 20,
        "drift_spec": ConeSpec(2, (3,) * 6), "drift_p": 10,
        "drift_steps": 5, "drift_epsilon": 1e-4,
    },
    "smoke": {
        "dense_spec": ConeSpec(4, (4,) * 2), "dense_p": 6,
        "small_spec": ConeSpec(2, (3,) * 2), "small_p": 3,
        "drift_spec": ConeSpec(2, (3,) * 2), "drift_p": 3,
        "drift_steps": 2, "drift_epsilon": 1e-2,
    },
}

DENSE_EPSILON = 1e-6
SMALL_EPSILON = 1e-6
DRIFT_SIZE = 1e-2
CLI_DELTA = 0.03  # the socpath CLI default, used by every command here


class CommandFailed(RuntimeError):
    pass


@dataclass
class Answer:
    status: str
    iterations: int  # in the answer returned to the user
    point: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]  # tau divided out
    digest: str  # sha256 of what the user receives


@dataclass
class Op:
    label: str
    instance: Instance
    epsilon: float
    run: Callable[[Callable, Callable], Answer]  # (call site, solve)
    cold_count: Optional[int] = None  # closed-form cold count, warm steps


def _cold_point(spec: ConeSpec, p: int):
    e = np.zeros(spec.n)
    for offset, _ in spec.blocks:
        e[offset] = 1.0
    return SimpleNamespace(x=e, y=np.zeros(p), s=e, kappa=1.0, tau=1.0)


def dense_kkt(rng: np.random.Generator, size: Dict, workdir: Path) -> List[Op]:
    spec, p = size["dense_spec"], size["dense_p"]
    inst = feasible("dense-kkt", spec, p, rng)
    params = SolverParams(epsilon=DENSE_EPSILON, scaling="identity",
                          trace_enabled=False, stop_mode="relative")

    def run(call, solve) -> Answer:
        start = call("warmstart.cold_start", cold_start, spec, p)
        result = call("solver.solve", solve, inst.problem, start, params)
        z = result.point
        digest = hashlib.sha256()
        for part in (z.x, z.y, z.s, np.array([z.kappa, z.tau])):
            digest.update(np.ascontiguousarray(part).tobytes())
        return Answer(result.status.status, result.iterations,
                      result.solution, digest.hexdigest())

    return [Op("solve", inst, DENSE_EPSILON, run)]


def _command(label: str, inst: Instance, epsilon: float, argv: List[str],
             solution: Path, trace: Optional[Path] = None,
             cold_count: Optional[int] = None) -> Op:
    def run(call, solve) -> Answer:
        with contextlib.redirect_stdout(io.StringIO()):
            code = call("cli.main", socpath.cli.main, argv)
        if code != 0:
            raise CommandFailed(f"socpath {argv[0]} exited {code}")
        text = solution.read_bytes()
        digest = hashlib.sha256(text)
        if trace is not None:
            digest.update(trace.read_bytes())
        doc = json.loads(text)
        tau = doc["tau"]
        point = None
        if tau > 0.0:
            point = tuple(np.array(doc[key]) / tau for key in ("x", "y", "s"))
        return Answer(doc["status"], doc["iterations"], point,
                      digest.hexdigest())

    return Op(label, inst, epsilon, run, cold_count)


def _write(inst: Instance, workdir: Path) -> Path:
    path = workdir / f"{inst.name}.json"
    path.write_text(write_problem(inst.problem))
    return path


def small_cones(rng: np.random.Generator, size: Dict,
                workdir: Path) -> List[Op]:
    instances = [feasible("small-feasible", size["small_spec"],
                          size["small_p"], rng),
                 roadmap4(), farkas_ray(), dual_ray()]
    ops = []
    for inst in instances:
        problem = _write(inst, workdir)
        solution = workdir / f"{inst.name}.sol.json"
        trace = workdir / f"{inst.name}.trace.csv"
        argv = ["solve", "--problem", str(problem), "--output", str(solution),
                "--scaling", "nt", "--epsilon", repr(SMALL_EPSILON),
                "--trace", str(trace)]
        ops.append(_command(f"solve {inst.name}", inst, SMALL_EPSILON, argv,
                            solution, trace))
    return ops


def warm_drift(rng: np.random.Generator, size: Dict,
               workdir: Path) -> List[Op]:
    eps = size["drift_epsilon"]
    chain = [feasible("drift-0", size["drift_spec"], size["drift_p"], rng)]
    for step in range(1, size["drift_steps"] + 1):
        chain.append(drift(chain[-1], DRIFT_SIZE, rng, f"drift-{step}"))
    problems = [_write(inst, workdir) for inst in chain]
    solutions = [workdir / f"{inst.name}.sol.json" for inst in chain]
    ops = [_command("solve drift-0", chain[0], eps,
                    ["solve", "--problem", str(problems[0]),
                     "--output", str(solutions[0]), "--stop-mode", "unified",
                     "--epsilon", repr(eps)], solutions[0])]
    for step in range(1, len(chain)):
        inst = chain[step]
        cold = closed_form_iterations(
            inst.problem, _cold_point(inst.problem.cones, inst.problem.p),
            CLI_DELTA, eps, "unified")
        argv = ["warmstart", "--prev-problem", str(problems[step - 1]),
                "--prev-solution", str(solutions[step - 1]),
                "--problem", str(problems[step]), "--omega", "auto",
                "--epsilon", repr(eps), "--output", str(solutions[step])]
        ops.append(_command(f"warmstart {inst.name}", inst, eps, argv,
                            solutions[step], cold_count=cold))
    return ops


WORKLOADS = {"dense-kkt": dense_kkt, "small-cones": small_cones,
             "warm-drift": warm_drift}
