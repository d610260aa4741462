import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import socpath as sp
import socpath.cli
from socpath import SocpProblem, SolverParams
from socpath.cli import build_parser, main, run_bench
from socpath.solver import SCALINGS, STOP_MODES
from socpath.fileio import TRACE_COLUMNS, parse_point, write_problem
from socpath.warmstart import BENCH_EPSILON, perturb_problem

from util import (count_calls, feasible_problem, half_steps, infeasible_lp,
                  mixed_spec, random_problem, soc_fixture, toy_lp)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(write_problem(toy_lp()))
    return path


def run_python(code, *argv, **env):
    """Run `code` in a fresh interpreter that imports this checkout's
    socpath, with `argv` as its arguments and `env` added to the
    environment; fails the test if it exits nonzero."""
    package_root = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)


def parse_kv(out):
    return dict(line.split("=", 1) for line in out.strip().split("\n"))


class TestSolveCommand:
    def test_toy_lp_optimal(self, run, toy_file, tmp_path):
        out_file = tmp_path / "sol.json"
        trace_file = tmp_path / "trace.csv"
        code, out, err = run("solve", "--problem", toy_file,
                             "--output", out_file, "--trace", trace_file)
        assert code == 0 and err == ""
        assert out.startswith("status=optimal iterations=")
        doc = json.loads(out_file.read_text())
        assert doc["status"] == "optimal"
        assert abs(doc["objective_primal"]) < 1e-5
        assert doc["params"]["stop_mode"] == "relative"
        lines = trace_file.read_text().strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == doc["iterations"] + 1

    def test_deterministic_output(self, run, toy_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("solve", "--problem", toy_file, "--output", a,
            "--epsilon", "1e-3")
        run("solve", "--problem", toy_file, "--output", b,
            "--epsilon", "1e-3")
        assert a.read_bytes() == b.read_bytes()

    def test_nt_scaling_accepted(self, run, toy_file, tmp_path):
        out_file = tmp_path / "sol.json"
        code, out, _ = run("solve", "--problem", toy_file, "--scaling", "nt",
                           "--epsilon", "1e-3", "--output", out_file)
        assert code == 0
        assert json.loads(out_file.read_text())["params"]["scaling"] == "nt"

    def test_missing_file_exits_2(self, run, tmp_path):
        code, out, err = run("solve", "--problem", tmp_path / "absent.json",
                             "--output", tmp_path / "o.json")
        assert code == 2
        doc = json.loads(err)
        assert doc["error"]["type"] == "FileNotFoundError"

    def test_malformed_problem_exits_2(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cones": {"l": 2}, "A" oops')
        code, _, err = run("solve", "--problem", bad,
                           "--output", tmp_path / "o.json")
        assert code == 2
        doc = json.loads(err)
        assert doc["error"]["type"] == "ParseError"
        assert "line" in doc["error"]["context"]

    # at 1e-320 epsilon is finite, but the closed-form count's ratio is not
    @pytest.mark.parametrize("epsilon", ["nan", "inf", "1e-320"])
    def test_unified_non_finite_epsilon_exits_2(self, run, toy_file,
                                                tmp_path, epsilon):
        code, _, err = run("solve", "--problem", toy_file,
                           "--output", tmp_path / "o.json",
                           "--stop-mode", "unified", "--epsilon", epsilon)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InvalidParams"
        assert not (tmp_path / "o.json").exists()

    def test_short_steps_exit_3(self, run, toy_file, tmp_path, monkeypatch):
        """A solve whose steps break the contraction law stops at the
        closed-form count and exits 3, writing no solution."""
        half_steps(monkeypatch)
        code, _, err = run("solve", "--problem", toy_file,
                           "--output", tmp_path / "o.json")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "MaxIterationsExceeded"
        assert not (tmp_path / "o.json").exists()

    def test_no_iteration_cap_flag(self, toy_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--problem", str(toy_file),
                  "--output", str(tmp_path / "o.json"), "--max-iter", "3"])
        assert info.value.code == 2
        assert "--max-iter" in capsys.readouterr().err

    def test_singular_system_exits_3(self, run, tmp_path):
        prob = SocpProblem(
            A=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b=np.array([1.0, 1.0]),
            c=np.array([1.0, 0.0]),
            cones=sp.ConeSpec(l=2, soc_dims=()),
        )
        path = tmp_path / "singular.json"
        path.write_text(write_problem(prob))
        code, _, err = run("solve", "--problem", path,
                           "--output", tmp_path / "o.json")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "SingularSystem"

    def test_more_rows_than_embedding_columns_exits_2(self, run, tmp_path):
        # 3 equality rows on a 1-variable cone: refused before assembly
        rng = np.random.default_rng(11)
        prob = feasible_problem(mixed_spec(rng), 3, rng)
        assert (prob.p, prob.n) == (3, 1)
        path = tmp_path / "wide.json"
        path.write_text(write_problem(prob))
        code, _, err = run("solve", "--problem", path,
                           "--output", tmp_path / "o.json")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DimensionMismatch"

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """`socpath solve` writes the same solution and trace at 1 and 2
        OpenBLAS threads: the solve pins its own thread to one.  At order
        181 (n=120, p=60) an unpinned 2-thread LU sums in another order."""
        prob = feasible_problem(sp.ConeSpec(20, (10,) * 10), 60,
                                np.random.default_rng(7))
        path = tmp_path / "p.json"
        path.write_text(write_problem(prob))
        digests = []
        for threads in ("1", "2"):
            out, trace = tmp_path / f"s{threads}.json", tmp_path / f"t{threads}.csv"
            run_python("import sys; from socpath.cli import main; "
                       "sys.exit(main(sys.argv[1:]))",
                       "solve", "--problem", path, "--output", out,
                       "--epsilon", "1e-2", "--trace", trace,
                       OPENBLAS_NUM_THREADS=threads)
            digests.append(hashlib.sha256(
                out.read_bytes() + trace.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_iterate_leaving_interior_exits_3(self, run, toy_file, tmp_path,
                                              monkeypatch):
        original = sp.solver.step_point

        def step(*args, **kwargs):
            z = original(*args, **kwargs)
            z.tau = -1.0
            return z
        monkeypatch.setattr(sp.solver, "step_point", step)
        out_file = tmp_path / "sol.json"
        code, _, err = run("solve", "--problem", toy_file, "--epsilon", "1e-2",
                           "--output", out_file)
        assert code == 3
        doc = json.loads(err)["error"]
        assert doc["type"] == "NotInterior"
        assert doc["message"].startswith("iteration 1 left the interior")
        assert not out_file.exists()


class TestCheckCommand:
    def test_cold_start_point(self, run, toy_file, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({
            "x": [1.0, 1.0], "y": [0.0], "s": [1.0, 1.0],
            "kappa": 1.0, "tau": 1.0,
        }))
        code, out, _ = run("check", "--problem", toy_file, "--point", point)
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["d2"]) == 0.0
        assert float(kv["dinf"]) == 0.0
        assert float(kv["mu"]) == 1.0
        assert kv["interior"] == "true"
        assert kv["in_n2"] == "true" and kv["in_ninf"] == "true"

    def test_non_interior_point_reported(self, run, toy_file, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({
            "x": [0.0, 1.0], "y": [0.0], "s": [1.0, 1.0],
            "kappa": 1.0, "tau": 1.0,
        }))
        code, out, _ = run("check", "--problem", toy_file, "--point", point)
        assert code == 0
        kv = parse_kv(out)
        assert kv["interior"] == "false"
        assert kv["in_n2"] == "false"

    def test_point_evaluated_once(self, run, toy_file, tmp_path,
                                  monkeypatch):
        """One evaluation of the point serves every line: x and s take
        their tail norms once, and T_x s and its spectral bounds once."""
        point = tmp_path / "point.json"
        point.write_text(json.dumps({
            "x": [1.0, 2.0], "y": [0.0], "s": [2.0, 1.0],
            "kappa": 1.0, "tau": 1.0,
        }))
        calls = count_calls(monkeypatch, sp.cones, "tail_norms")
        code, out, _ = run("check", "--problem", toy_file, "--point", point)
        assert code == 0 and parse_kv(out)["interior"] == "true"
        assert len(calls) <= 3

    def test_in_ninf_but_not_in_n2(self, run, toy_file, tmp_path):
        """x o s = (2, 2) and kappa tau = 1 give mu = 5/3, d2/mu = 0.69
        and dinf/mu = 0.4: at gamma 0.5 the point is in N_inf, not N_2,
        and in_ninf reads the printed dinf."""
        point = tmp_path / "point.json"
        point.write_text(json.dumps({
            "x": [1.0, 2.0], "y": [0.0], "s": [2.0, 1.0],
            "kappa": 1.0, "tau": 1.0,
        }))
        code, out, _ = run("check", "--problem", toy_file, "--point", point,
                           "--gamma", "0.5")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["d2"]) > 0.5 * float(kv["mu"]) >= float(kv["dinf"])
        assert kv["in_n2"] == "false" and kv["in_ninf"] == "true"

    def test_gamma_outside_unit_interval_exits_2(self, run, toy_file,
                                                 tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({
            "x": [1.0, 1.0], "y": [0.0], "s": [1.0, 1.0],
            "kappa": 1.0, "tau": 1.0,
        }))
        code, out, err = run("check", "--problem", toy_file, "--point", point,
                             "--gamma", "1.5")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": "gamma must lie in (0,1)"}

    def test_dimension_mismatch_exits_2(self, run, toy_file, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({
            "x": [1.0, 1.0, 1.0], "y": [0.0], "s": [1.0, 1.0, 1.0],
            "kappa": 1.0, "tau": 1.0,
        }))
        code, _, err = run("check", "--problem", toy_file, "--point", point)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DimensionMismatch"


def _drift_files(tmp_path, rng, size=1e-6, eps="1e-2"):
    """Base problem file, its solution file, and a drifted problem file."""
    base = toy_lp()
    base_file = tmp_path / "base.json"
    base_file.write_text(write_problem(base))
    sol_file = tmp_path / "sol.json"
    code = main(["solve", "--problem", str(base_file), "--output",
                 str(sol_file), "--epsilon", eps, "--stop-mode", "unified"])
    assert code == 0
    drifted = SocpProblem(
        A=base.A + size * rng.standard_normal(base.A.shape),
        b=base.b + size * rng.standard_normal(base.p),
        c=base.c + size * rng.standard_normal(base.n),
        cones=base.cones,
    )
    new_file = tmp_path / "new.json"
    new_file.write_text(write_problem(drifted))
    return base_file, sol_file, new_file


class TestWarmstartCommand:
    def test_auto_report(self, run, tmp_path, capsys):
        rng = np.random.default_rng(617)
        base_file, sol_file, new_file = _drift_files(tmp_path, rng)
        capsys.readouterr()
        out_file = tmp_path / "warm.json"
        report_file = tmp_path / "report.json"
        code, out, _ = run("warmstart", "--prev-problem", base_file,
                           "--prev-solution", sol_file,
                           "--problem", new_file,
                           "--omega", "auto", "--epsilon", "1e-2",
                           "--output", out_file, "--report", report_file)
        assert code == 0
        report = json.loads(report_file.read_text())
        assert report["fallback"] is None
        assert 0.0 < report["omega"] <= 1.0
        assert report["warm_iterations"] < report["cold_iterations"]
        assert report["measured_saving"] == (report["cold_iterations"]
                                             - report["warm_iterations"])
        assert report["diagnostics"]["c_w"] < 1.0
        assert report["status"] == "optimal"
        assert f"omega={report['omega']:.4f}" in out
        assert json.loads(out_file.read_text())["status"] == "optimal"

    def test_omega_zero_reproduces_cold(self, run, tmp_path, capsys):
        rng = np.random.default_rng(619)
        base_file, sol_file, new_file = _drift_files(tmp_path, rng)
        capsys.readouterr()
        report_file = tmp_path / "report.json"
        code, _, _ = run("warmstart", "--prev-problem", base_file,
                         "--prev-solution", sol_file,
                         "--problem", new_file,
                         "--omega", "0.0", "--epsilon", "1e-2",
                         "--output", tmp_path / "warm.json",
                         "--report", report_file)
        assert code == 0
        report = json.loads(report_file.read_text())
        assert report["omega"] == 0.0
        assert report["warm_iterations"] == report["cold_iterations"]
        assert report["measured_saving"] == 0
        assert report["predicted_saving"] == 0

    def test_omega_out_of_range_exits_2(self, run, tmp_path, capsys):
        rng = np.random.default_rng(621)
        base_file, sol_file, new_file = _drift_files(tmp_path, rng)
        capsys.readouterr()
        code, _, err = run("warmstart", "--prev-problem", base_file,
                           "--prev-solution", sol_file,
                           "--problem", new_file,
                           "--omega", "1.5", "--epsilon", "1e-2",
                           "--output", tmp_path / "warm.json")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_previous_solution_without_positive_tau_exits_2(
            self, run, toy_file, tmp_path, tau):
        sol_file = tmp_path / "sol.json"
        sol_file.write_text(json.dumps({
            "x": [1.0, 1.0], "y": [0.0], "s": [1.0, 1.0],
            "kappa": 1.0, "tau": tau,
        }))
        code, _, err = run("warmstart", "--prev-problem", toy_file,
                           "--prev-solution", sol_file, "--problem", toy_file,
                           "--output", tmp_path / "warm.json")
        assert code == 2
        assert json.loads(err)["error"] == {
            "type": "InvalidPoint",
            "message": "previous solution must have tau > 0"}

    def _warmstart_argv(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        base_file, sol_file, new_file = _drift_files(tmp_path, rng,
                                                     size=1e-3)
        return ["warmstart", "--prev-problem", base_file,
                "--prev-solution", sol_file, "--problem", new_file,
                "--epsilon", "1e-2", "--output", tmp_path / "warm.json"]

    def test_cold_count_without_cold_solve(self, run, tmp_path, capsys,
                                           monkeypatch):
        argv = self._warmstart_argv(tmp_path, 623)
        capsys.readouterr()
        calls = []
        solve = socpath.cli.solve

        def counting_solve(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(socpath.cli, "solve", counting_solve)
        code, out, _ = run(*argv)
        assert code == 0 and len(calls) == 1
        kv = dict(item.split("=") for item in out.split())
        assert float(kv["omega"]) > 0.0
        report_file = tmp_path / "report.json"
        code, _, _ = run(*argv, "--report", report_file)
        assert code == 0 and len(calls) == 2
        report = json.loads(report_file.read_text())
        assert int(kv["cold"]) == report["cold_iterations"]
        assert int(kv["warm"]) == report["warm_iterations"]

    def test_short_steps_exit_3(self, run, tmp_path, capsys, monkeypatch):
        """The warm solve runs the closed-form count too: with half steps
        it exits 3 rather than run on."""
        argv = self._warmstart_argv(tmp_path, 623)
        capsys.readouterr()
        half_steps(monkeypatch)
        code, _, err = run(*argv, "--report", tmp_path / "report.json")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "MaxIterationsExceeded"
        assert not (tmp_path / "report.json").exists()

    def test_trace_built_only_when_written(self, run, toy_file, tmp_path,
                                           capsys, monkeypatch):
        """solve traces only for --trace; warmstart writes no trace, so its
        one solve builds none, with or without --report."""
        argv = self._warmstart_argv(tmp_path, 623)
        capsys.readouterr()
        calls = count_calls(monkeypatch, socpath.cli, "solve")
        solve = ["solve", "--problem", toy_file, "--epsilon", "1e-2",
                 "--output", tmp_path / "sol.json"]
        assert run(*solve)[0] == 0
        assert run(*solve, "--trace", tmp_path / "trace.csv")[0] == 0
        assert [params.trace_enabled for _, _, params in calls] == [False, True]
        calls.clear()
        assert run(*argv)[0] == 0
        assert run(*argv, "--report", tmp_path / "report.json")[0] == 0
        assert [params.trace_enabled for _, _, params in calls] == [False] * 2

    def test_boundary_prev_exits_3(self, run, toy_file, tmp_path):
        sol_file = tmp_path / "prev.json"
        sol_file.write_text(json.dumps({
            "x": [0.0, 1.0], "y": [0.5], "s": [1.0, 0.0],
            "kappa": 0.0, "tau": 1.0,
        }))
        code, _, err = run("warmstart", "--prev-problem", toy_file,
                           "--prev-solution", sol_file,
                           "--problem", toy_file,
                           "--omega", "1.0", "--epsilon", "1e-2",
                           "--output", tmp_path / "warm.json")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "NotInterior"


class TestPerturbProblem:
    def test_respects_norm_bounds(self):
        rng = np.random.default_rng(627)
        spec = mixed_spec(rng)
        prob = random_problem(spec, 3, rng)
        for _ in range(20):
            pert = perturb_problem(prob, 0.05, 0.02, 0.03, rng)
            assert np.linalg.norm(pert.A - prob.A, 2) <= 0.05 + 1e-12
            assert np.linalg.norm(pert.b - prob.b) <= 0.02 + 1e-12
            assert np.linalg.norm(pert.c - prob.c) <= 0.03 + 1e-12
            assert pert.cones == prob.cones

    def test_zero_bound_leaves_term(self):
        rng = np.random.default_rng(631)
        prob = random_problem(mixed_spec(rng), 2, rng)
        pert = perturb_problem(prob, 0.0, 0.0, 0.1, rng)
        assert np.array_equal(pert.A, prob.A)
        assert np.array_equal(pert.b, prob.b)
        assert not np.array_equal(pert.c, prob.c)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bound_must_be_finite_and_nonnegative(self, bad):
        prob = toy_lp()
        for bounds in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError, match="finite and >= 0"):
                perturb_problem(prob, *bounds, np.random.default_rng(0))

    def test_noise_follows_sparsity(self):
        prob = toy_lp()
        A = prob.A.copy()
        A[0, 1] = 0.0
        sparse = SocpProblem(A=A, b=prob.b, c=prob.c, cones=prob.cones)
        rng = np.random.default_rng(641)
        pert = perturb_problem(sparse, 0.1, 0.0, 0.0, rng)
        assert pert.A[0, 1] == 0.0


class TestBenchCommand:
    def test_drift_chain_report(self, run, toy_file, tmp_path):
        report_file = tmp_path / "bench.json"
        code, out, _ = run("bench", "--base-problem", toy_file,
                           "--steps", "3", "--perturb-a", "1e-6",
                           "--perturb-b", "1e-6", "--perturb-c", "1e-6",
                           "--seed", "7", "--epsilon", "1e-2",
                           "--report", report_file)
        assert code == 0
        report = json.loads(report_file.read_text())
        assert report["steps"] == 3 and report["seed"] == 7
        assert len(report["rows"]) == 3
        for row in report["rows"]:
            assert row["fallback"] is None
            assert row["c_w"] < 1.0
            assert row["warm_iterations"] < row["cold_iterations"]
            assert row["measured_saving"] == (row["cold_iterations"]
                                              - row["warm_iterations"])
        # stdout table: header plus one line per step
        assert len(out.strip().split("\n")) == 4

    def test_byte_identical_reruns(self, run, toy_file, tmp_path):
        a, b = tmp_path / "r1.json", tmp_path / "r2.json"
        for path in (a, b):
            code, _, _ = run("bench", "--base-problem", toy_file,
                             "--steps", "2", "--perturb-a", "1e-6",
                             "--seed", "11", "--epsilon", "1e-2",
                             "--report", path)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exits_2(self, run, toy_file, tmp_path,
                                        epsilon):
        code, _, err = run("bench", "--base-problem", toy_file,
                           "--steps", "2", "--perturb-a", "1e-6",
                           "--epsilon", epsilon,
                           "--report", tmp_path / "bench.json")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InvalidParams"
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize("base", [toy_lp, infeasible_lp])
    def test_omega_out_of_range_exits_2(self, run, tmp_path, monkeypatch,
                                        base):
        base_file = tmp_path / "base.json"
        base_file.write_text(write_problem(base()))
        calls = []
        solve = socpath.warmstart.solve
        monkeypatch.setattr(socpath.warmstart, "solve",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        code, _, err = run("bench", "--base-problem", base_file,
                           "--steps", "2", "--perturb-a", "1e-6",
                           "--epsilon", "1e-2", "--omega", "1.5",
                           "--report", tmp_path / "bench.json")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"
        assert calls == []
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize("omega",
                             [1.5, -0.5, float("nan"), float("inf"), "auto"])
    def test_run_bench_rejects_omega_before_solving(self, monkeypatch, omega):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking omega")
        monkeypatch.setattr(socpath.warmstart, "solve", no_solve)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            run_bench(toy_lp(), steps=2, perturb_a=1e-6, perturb_b=0.0,
                      perturb_c=0.0, seed=0, omega_policy=omega)

    # a repeated --steps overrides the first, so "--steps -2" is a bad count
    @pytest.mark.parametrize("flag, bound", [("--perturb-a", "nan"),
                                             ("--perturb-b", "inf"),
                                             ("--perturb-c", "-1"),
                                             ("--steps", "-2")])
    def test_bad_bound_exits_2(self, run, toy_file, tmp_path, flag, bound):
        code, _, err = run("bench", "--base-problem", toy_file,
                           "--steps", "2", flag, bound, "--epsilon", "1e-2",
                           "--report", tmp_path / "bench.json")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"
        assert not (tmp_path / "bench.json").exists()

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1e-6])
    def test_run_bench_rejects_bound_before_solving(self, monkeypatch, bound):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the bounds")
        monkeypatch.setattr(socpath.warmstart, "solve", no_solve)
        with pytest.raises(ValueError, match="finite and >= 0"):
            run_bench(toy_lp(), steps=2, perturb_a=1e-6, perturb_b=bound,
                      perturb_c=0.0, seed=0)

    def test_run_bench_rejects_negative_steps_before_solving(self,
                                                             monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the step count")
        monkeypatch.setattr(socpath.warmstart, "solve", no_solve)
        with pytest.raises(ValueError, match="steps must be >= 0"):
            run_bench(toy_lp(), steps=-2, perturb_a=1e-6, perturb_b=0.0,
                      perturb_c=0.0, seed=0)

    def test_zero_steps_reports_the_base_solve(self):
        report = run_bench(toy_lp(), steps=0, perturb_a=1e-6, perturb_b=0.0,
                           perturb_c=0.0, seed=0, epsilon=1e-2)
        assert report["rows"] == []
        assert report["baseline_iterations"] > 0

    def test_fixed_omega_below_omega_min_used_as_given(self):
        base, seed, size, omega = soc_fixture(), 7, 1e-6, 0.5
        params = sp.SolverParams(epsilon=1e-2, stop_mode="unified",
                                 trace_enabled=False)
        z = sp.solve(base, sp.cold_start(base.cones, p=base.p), params).point
        step1 = perturb_problem(base, size, size, size,
                                np.random.default_rng(seed))
        diag = sp.diagnostics(base, step1, (z.x / z.tau, z.y / z.tau,
                                            z.s / z.tau), gamma=0.08)
        assert omega < diag.omega_min
        report = run_bench(base, steps=2, perturb_a=size, perturb_b=size,
                           perturb_c=size, seed=seed, epsilon=1e-2,
                           omega_policy=omega)
        assert report["rows"][0]["omega"] == omega
        for row in report["rows"]:
            assert row["omega"] == omega \
                or row["fallback"] == "outside neighborhood"

    def test_omega_zero_policy_matches_cold(self, toy_file):
        base = toy_lp()
        report = run_bench(base, steps=2, perturb_a=1e-6, perturb_b=1e-6,
                           perturb_c=1e-6, seed=3, epsilon=1e-2,
                           omega_policy=0.0)
        for row in report["rows"]:
            assert row["omega"] == 0.0
            assert row["warm_iterations"] == row["cold_iterations"]
            assert row["measured_saving"] == 0


class TestParser:
    """solve and warmstart add their solver flags through one helper, so
    every default is SolverParams' and every choice the solver's."""

    ARGV = {
        "solve": ["--problem", "p.json", "--output", "o.json"],
        "warmstart": ["--prev-problem", "p.json", "--prev-solution", "z.json",
                      "--problem", "q.json", "--output", "o.json"],
        "check": ["--problem", "p.json", "--point", "z.json"],
        "bench": ["--base-problem", "p.json", "--steps", "1",
                  "--report", "r.json"],
    }

    def test_defaults_are_solver_params(self):
        parser = build_parser()
        args = {cmd: parser.parse_args([cmd] + argv)
                for cmd, argv in self.ARGV.items()}
        # one parser: a default shared between solve and warmstart would
        # give both the stop mode set last
        assert socpath.cli._solver_params(args["solve"], True) \
            == SolverParams()
        assert socpath.cli._solver_params(args["warmstart"], False) \
            == SolverParams(stop_mode="unified", trace_enabled=False)
        assert args["solve"].stop_mode == "relative"
        assert args["warmstart"].stop_mode == "unified"
        assert args["check"].gamma == SolverParams.gamma
        assert (args["bench"].gamma, args["bench"].delta) \
            == (SolverParams.gamma, SolverParams.delta)
        assert args["bench"].epsilon == BENCH_EPSILON

    def test_readme_names_every_flag_and_no_other(self):
        """The README's command-line section and the parser list the same
        options, so the README cannot name a stale flag."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        named = set(re.findall(r"--[a-z][a-z-]*[a-z]", section))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {flag for parser in sub.choices.values()
                   for action in parser._actions
                   for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"}
        assert named - options == set()
        assert options - named == set()

    def test_choices_are_the_solvers(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for cmd in ("solve", "warmstart"):
            actions = {a.dest: a for a in sub.choices[cmd]._actions}
            assert actions["scaling"].choices is SCALINGS
            assert actions["stop_mode"].choices is STOP_MODES


IMPORT_GUARD = """
import sys
import numpy as np
from socpath import kkt
from socpath.cli import main

problem, out = sys.argv[1:]
sol = f"{out}/identity.json"
for argv in (
        ["solve", "--problem", problem, "--output", sol,
         "--trace", f"{out}/identity.csv"],
        ["solve", "--problem", problem, "--output", f"{out}/nt.json",
         "--trace", f"{out}/nt.csv", "--scaling", "nt"],
        ["warmstart", "--prev-problem", problem, "--prev-solution", sol,
         "--problem", problem, "--output", f"{out}/warm.json",
         "--omega", "auto"],
        ["check", "--problem", problem, "--point", sol]):
    assert main(argv) == 0, argv
assert "scipy.linalg" not in sys.modules

import scipy.linalg
K = np.asfortranarray(np.random.default_rng(5).standard_normal((9, 9)))
lu, piv = scipy.linalg.lu_factor(K)
_, (our_lu, our_piv) = kkt.solve_dense(K.copy(order="F"), np.ones(9))
assert lu.tobytes() == our_lu.tobytes() and piv.tobytes() == our_piv.tobytes()
"""


def test_commands_never_import_scipy_linalg(toy_file, tmp_path):
    """solve (identity and NT, traced), warmstart and check run without the
    scipy.linalg package, whose import would double a command's start-up;
    importing it afterwards in the same process gives the factors
    `solve_dense` gives, so its _flapack and ours coexist."""
    run_python(IMPORT_GUARD, toy_file, tmp_path)
