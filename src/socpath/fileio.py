"""Problem, solution, and trace serialization.

Problems travel as JSON with a triplet-encoded matrix; duplicate
triplets are summed.  Writers emit a canonical form (sorted triplets,
shortest round-trip float repr, fixed key order) so that byte-identical
output is reproducible and parse/write round-trips are stable.  A trace
is CSV: the column `iter`, the step number, then the solver's table
columns TRACE_VALUES, each value to 17 significant digits, streamed to an
open file a block of rows at a time.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Optional, TextIO

import numpy as np

from .cones import ConeSpec
from .errors import ParseError
from .geometry import HsdPoint, mu
from .problem import SocpProblem, compute_residuals
from .solver import (TRACE_BLOCK, TRACE_VALUES, SolverParams, SolveResult,
                     SolveTrace)

TRACE_COLUMNS = ("iter",) + TRACE_VALUES

STATUS_NAMES = ("optimal", "primal_infeasible", "dual_infeasible", "ill_posed")


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ParseError(f"missing required field", field=f"{where}{key}")
    return data[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError("expected a number", field=where)
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ParseError("expected a finite number", field=where) from None
    if not math.isfinite(v):
        raise ParseError("expected a finite number", field=where)
    return v


def _count(value, where: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("expected an integer", field=where)
    if value < minimum:
        raise ParseError(f"expected an integer >= {minimum}", field=where)
    return value


def _vector(value, length: int, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError("expected an array", field=where)
    if len(value) != length:
        raise ParseError(f"expected length {length}, got {len(value)}",
                         field=where)
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def parse_problem(text: str) -> SocpProblem:
    """Parse a problem file; structural errors raise ParseError with context."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("expected a string", field="name")
    cones = _require(data, "cones", "")
    if not isinstance(cones, dict):
        raise ParseError("expected an object", field="cones")
    l = _count(cones.get("l", 0), "cones.l")
    q_raw = cones.get("q", [])
    if not isinstance(q_raw, list):
        raise ParseError("expected an array", field="cones.q")
    q = tuple(_count(v, f"cones.q[{i}]", minimum=1)
              for i, v in enumerate(q_raw))

    mat = _require(data, "A", "")
    if not isinstance(mat, dict):
        raise ParseError("expected an object", field="A")
    rows = _count(_require(mat, "rows", "A."), "A.rows")
    cols = _count(_require(mat, "cols", "A."), "A.cols")
    # the sizes are checked against the lists the file holds before the
    # cone's layout or A is built, so that no count alone sizes an array
    dim = l + sum(q)
    if cols != dim:
        raise ParseError(
            f"cols = {cols} but the cone has dimension {dim}", field="A.cols")
    triplets = _require(mat, "triplets", "A.")
    if not isinstance(triplets, list):
        raise ParseError("expected an array", field="A.triplets")
    b = _vector(_require(data, "b", ""), rows, "b")
    c = _vector(_require(data, "c", ""), cols, "c")
    try:
        spec = ConeSpec(l, q)
    except ValueError as exc:
        raise ParseError(str(exc), field="cones") from exc
    A = np.zeros((rows, cols))
    for idx, t in enumerate(triplets):
        where = f"A.triplets[{idx}]"
        if not isinstance(t, list) or len(t) != 3:
            raise ParseError("expected [row, col, value]", field=where)
        i = _count(t[0], f"{where}[0]")
        j = _count(t[1], f"{where}[1]")
        if i >= rows:
            raise ParseError(f"row {i} out of range for {rows} rows",
                             field=where)
        if j >= cols:
            raise ParseError(f"col {j} out of range for {cols} cols",
                             field=where)
        A[i, j] += _number(t[2], f"{where}[2]")
    return SocpProblem(A, b, c, spec, name=name)


def write_problem(problem: SocpProblem) -> str:
    problem.check_shapes()
    rows, cols = np.nonzero(problem.A)
    triplets = [[int(i), int(j), float(v)]
                for i, j, v in zip(rows, cols, problem.A[rows, cols])]
    doc = {
        "name": problem.name,
        "cones": {"l": problem.cones.l, "q": list(problem.cones.soc_dims)},
        "A": {"rows": problem.p, "cols": problem.n, "triplets": triplets},
        "b": [float(v) for v in problem.b],
        "c": [float(v) for v in problem.c],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_point(text: str) -> HsdPoint:
    """Read an embedding point (x, y, s, kappa, tau) from solution JSON.
    Entries so large (about 1e154 and up) that the point's sum of squares
    overflows raise ParseError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    for key in ("x", "y", "s"):
        arr = _require(data, key, "")
        if not isinstance(arr, list):
            raise ParseError("expected an array", field=key)
    x = _vector(data["x"], len(data["x"]), "x")
    y = _vector(data["y"], len(data["y"]), "y")
    s = _vector(data["s"], len(data["s"]), "s")
    if x.shape != s.shape:
        raise ParseError("x and s must have equal length", field="s")
    kappa = _number(_require(data, "kappa", ""), "kappa")
    tau = _number(_require(data, "tau", ""), "tau")
    z = HsdPoint(x, y, s, kappa=kappa, tau=tau)
    # a finite sum of squares bounds x's + kappa tau, which mu sums
    with np.errstate(over="ignore"):
        if not math.isfinite(z.vec @ z.vec):
            raise ParseError("too large: the point's sum of squares overflows")
    return z


def solution_document(problem: SocpProblem, result: SolveResult,
                      params: SolverParams) -> Dict:
    z = result.point
    status = result.status.status
    if status not in STATUS_NAMES:
        raise ValueError(f"unexpected status {status!r}")
    res = compute_residuals(problem, z)
    doc: Dict = {
        "status": status,
        "x": [float(v) for v in z.x],
        "y": [float(v) for v in z.y],
        "s": [float(v) for v in z.s],
        "kappa": z.kappa,
        "tau": z.tau,
        "objective_primal": None,
        "objective_dual": None,
        "iterations": result.iterations,
        "mu": mu(z, problem.cones),
        "rp_norm": res.rp_norm,
        "rd_norm": res.rd_norm,
        "params": {
            "gamma": params.gamma,
            "delta": params.delta,
            "epsilon": params.epsilon,
            "scaling": params.scaling,
            "stop_mode": params.stop_mode,
        },
    }
    if status == "optimal":
        doc["objective_primal"] = float(problem.c @ result.status.x)
        doc["objective_dual"] = float(problem.b @ result.status.y)
    return doc


def write_solution(problem: SocpProblem, result: SolveResult,
                   params: SolverParams) -> str:
    return json.dumps(solution_document(problem, result, params), indent=2) + "\n"


def write_trace(trace: Optional[SolveTrace], out: TextIO) -> None:
    """Write the deterministic trace table to the open text file `out`:
    header plus one line per step, the step number and then its row of
    the trace table.  The lines go out TRACE_BLOCK rows at a time, so the
    text of no more than one block is held at once."""
    out.write(",".join(TRACE_COLUMNS) + "\n")
    if trace is None:
        return
    for first in range(0, len(trace.rows), TRACE_BLOCK):
        out.write("".join(
            f"{i}," + ",".join(format(v, ".17g") for v in row) + "\n"
            for i, row in enumerate(
                trace.rows[first:first + TRACE_BLOCK].tolist(), first + 1)))
