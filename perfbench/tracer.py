"""In-memory span tracing around calls into the package's layers.

Spans are recorded by rebinding, at run time, the names that
`socpath.solver`, `socpath.kkt` and `socpath.cli` import (plus
`WarmStartDiagnostics.at_omega`) to timing wrappers, and by wrapping the
benchmark's own call sites.  Nothing under `src/` is edited.  Each span
keeps its parent, so a layer's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import socpath.cli
import socpath.kkt
import socpath.solver
import socpath.warmstart

# (namespace, attribute, span name).  A namespace may lose an attribute in
# a refactor; such an entry is reported as absent, not as an error.
BINDINGS: Tuple[Tuple[object, str, str], ...] = (
    (socpath.solver, "nt_scaling", "cones.nt_scaling"),
    (socpath.solver, "spectral_bounds", "cones.spectral_bounds"),
    (socpath.solver, "classify_status", "geometry.classify_status"),
    (socpath.solver, "d2", "geometry.d2"),
    (socpath.solver, "dinf", "geometry.dinf"),
    (socpath.solver, "in_neighborhood", "geometry.in_neighborhood"),
    (socpath.solver, "mu", "geometry.mu"),
    (socpath.solver, "assemble", "kkt.assemble"),
    (socpath.solver, "solve_direction", "kkt.solve_direction"),
    (socpath.solver, "step_point", "kkt.step_point"),
    (socpath.solver, "compute_residuals", "problem.compute_residuals"),
    (socpath.kkt, "hat_operators", "kkt.hat_operators"),
    (socpath.kkt, "_hat_dense", "kkt._hat_dense"),
    (socpath.kkt, "assemble_hat", "kkt.assemble_hat"),
    (socpath.kkt, "solve_dense", "kkt.solve_dense"),
    (socpath.kkt, "arrow_matrix", "cones.arrow_matrix"),
    (socpath.kkt, "jordan_product", "cones.jordan_product"),
    (socpath.kkt, "hat_pack", "geometry.hat_pack"),
    (socpath.cli, "solve", "solver.solve"),
    (socpath.cli, "parse_problem", "fileio.parse_problem"),
    (socpath.cli, "parse_point", "fileio.parse_point"),
    (socpath.cli, "write_solution", "fileio.write_solution"),
    (socpath.cli, "write_trace", "fileio.write_trace"),
    (socpath.cli, "cold_start", "warmstart.cold_start"),
    (socpath.cli, "diagnostics", "warmstart.diagnostics"),
    (socpath.cli, "choose_omega", "warmstart.choose_omega"),
    (socpath.cli, "warm_start_point", "warmstart.warm_start_point"),
    (socpath.cli, "d2", "geometry.d2"),
    (socpath.cli, "dinf", "geometry.dinf"),
    (socpath.cli, "mu", "geometry.mu"),
    (socpath.cli, "in_neighborhood", "geometry.in_neighborhood"),
    (socpath.cli, "compute_residuals", "problem.compute_residuals"),
    (socpath.warmstart.WarmStartDiagnostics, "at_omega", "warmstart.at_omega"),
)

# Spans opened by the benchmark's own call sites.
CALL_SITES = ("cli.main", "solver.solve")

LAYERS: Tuple[str, ...] = tuple(sorted(
    set(name for _, _, name in BINDINGS) | set(CALL_SITES)))


class Tracer:
    """Span store for one traced round; create one per round."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(LAYERS)}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self.absent: List[str] = []
        self.kkt_orders = array("q")
        self.trace_bytes = 0
        self._observers = {"kkt.solve_dense": self._observe_solve_dense,
                           "fileio.write_trace": self._observe_write_trace}

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def _observe_solve_dense(self, args, result) -> None:
        self.kkt_orders.append(args[0].shape[0])  # order of the KKT matrix

    def _observe_write_trace(self, args, result) -> None:
        self.trace_bytes += len(result.encode())

    @contextlib.contextmanager
    def installed(self):
        """Rebind every name in BINDINGS for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in BINDINGS:
                original = vars(owner).get(attr)
                if original is None:
                    self.absent.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """(calls, self seconds) per layer name."""
        ids = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64)
               - np.array(self.start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = np.bincount(ids, weights=dur - child, minlength=len(LAYERS))
        calls = np.bincount(ids, minlength=len(LAYERS))
        return {name: (int(calls[i]), float(self_ns[i]) * 1e-9)
                for i, name in enumerate(LAYERS)}

    def solves_under_cli(self) -> int:
        """solver.solve spans opened inside a cli.main span."""
        cli_id, solve_id = self._ids["cli.main"], self._ids["solver.solve"]
        return sum(1 for i, nid in enumerate(self.name_id)
                   if nid == solve_id and self.parent[i] >= 0
                   and self.name_id[self.parent[i]] == cli_id)

    def write_csv(self, path: Path, offset: int = 0) -> int:
        """Append this round's spans as id,parent,name,start_ns,end_ns."""
        with path.open("a") as fh:
            for i in range(len(self.start)):
                parent = self.parent[i] + offset if self.parent[i] >= 0 else -1
                fh.write(f"{i + offset},{parent},{LAYERS[self.name_id[i]]},"
                         f"{self.start[i]},{self.end[i]}\n")
        return offset + len(self.start)


def untraced_call(name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)

