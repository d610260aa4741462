import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import socpath as sp
from socpath import ConeSpec, ParseError, SocpathError, SocpProblem, SolverParams
from socpath.cli import main
from socpath.fileio import (TRACE_COLUMNS, parse_point, parse_problem,
                            solution_document, write_problem, write_solution,
                            write_trace)
from socpath.geometry import Evaluation
from socpath.solver import TRACE_VALUES

from util import (cold_point, count_calls, infeasible_lp, mixed_spec,
                  random_problem, toy_lp)


MINIMAL_DOC = {
    "name": "tiny",
    "cones": {"l": 2, "q": []},
    "A": {"rows": 1, "cols": 2, "triplets": [[0, 0, 1.0], [0, 1, 1.0]]},
    "b": [1.0],
    "c": [1.0, 0.0],
}


def doc_text(**overrides):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc.update(overrides)
    return json.dumps(doc)


def test_trace_columns_fixed():
    assert TRACE_COLUMNS == (
        "iter", "mu", "d2", "dinf", "rp_norm", "rd_norm", "rg_abs",
        "tau", "kappa", "lambda_min_x", "lambda_min_s",
        "orth_defect", "kkt_residual",
    )


def test_trace_columns_follow_trace_row_fields():
    prob = toy_lp()
    result = sp.solve(prob, cold_point(prob),
                      SolverParams(epsilon=0.5, stop_mode="unified"))
    assert TRACE_COLUMNS == ("iter",) + TRACE_VALUES
    assert result.trace.rows.dtype.names == TRACE_VALUES


class TestParseProblem:
    def test_minimal_lp(self):
        prob = parse_problem(doc_text())
        assert prob.name == "tiny"
        assert prob.cones == ConeSpec(l=2, soc_dims=())
        assert np.array_equal(prob.A, [[1.0, 1.0]])
        assert np.array_equal(prob.b, [1.0])
        assert np.array_equal(prob.c, [1.0, 0.0])

    def test_no_validation_report_and_no_svd(self, monkeypatch):
        assert "validation" not in {f.name for f in
                                    dataclasses.fields(SocpProblem)}
        calls = count_calls(monkeypatch, np.linalg, "svd")
        prob = parse_problem(doc_text())
        assert calls == [] and not hasattr(prob, "validation")

    def test_duplicate_triplets_summed(self):
        text = doc_text(A={"rows": 1, "cols": 2,
                           "triplets": [[0, 0, 1.0], [0, 0, 2.0]]})
        prob = parse_problem(text)
        assert prob.A[0, 0] == 3.0
        assert prob.A[0, 1] == 0.0

    def test_column_out_of_range_names_triplet(self):
        text = doc_text(A={"rows": 1, "cols": 2, "triplets": [[0, 5, 1.0]]})
        with pytest.raises(ParseError) as info:
            parse_problem(text)
        assert "A.triplets[0]" in info.value.context()

    def test_row_out_of_range(self):
        text = doc_text(A={"rows": 1, "cols": 2, "triplets": [[3, 0, 1.0]]})
        with pytest.raises(ParseError, match="out of range"):
            parse_problem(text)

    def test_cols_must_match_cone_dimension(self):
        text = doc_text(A={"rows": 1, "cols": 5, "triplets": []})
        with pytest.raises(ParseError) as info:
            parse_problem(text)
        assert info.value.field == "A.cols"

    def test_invalid_json_reports_line(self):
        with pytest.raises(ParseError) as info:
            parse_problem('{\n  "cones": }\n')
        assert info.value.line == 2

    @pytest.mark.parametrize("key", ["cones", "A", "b", "c"])
    def test_missing_field(self, key):
        doc = json.loads(doc_text())
        del doc[key]
        with pytest.raises(ParseError, match="missing"):
            parse_problem(json.dumps(doc))

    def test_bad_soc_dimension(self):
        with pytest.raises(ParseError):
            parse_problem(doc_text(cones={"l": 0, "q": [0]}))
        with pytest.raises(ParseError):
            parse_problem(doc_text(cones={"l": 0, "q": [True]}))

    def test_vector_length_checked(self):
        with pytest.raises(ParseError) as info:
            parse_problem(doc_text(b=[1.0, 2.0]))
        assert info.value.field == "b"

    def test_nonfinite_rejected(self):
        with pytest.raises(ParseError, match="finite"):
            parse_problem(doc_text(c=[1.0, float("inf")]))
        with pytest.raises(ParseError, match="finite") as info:
            parse_problem(doc_text(b=[10 ** 400]))  # beyond the float range
        assert info.value.field == "b[0]"
        with pytest.raises(ParseError, match="number"):
            parse_problem(doc_text(b=["one"]))

    def test_empty_cone_rejected(self):
        with pytest.raises(ParseError):
            parse_problem(doc_text(
                cones={"l": 0, "q": []},
                A={"rows": 1, "cols": 0, "triplets": []}, b=[1.0], c=[]))

    @pytest.mark.parametrize("override, field", [
        ({"cones": {"l": 2 ** 62, "q": []}}, "A.cols"),
        ({"cones": {"l": 2 ** 70, "q": []}}, "A.cols"),
        ({"cones": {"l": 0, "q": [2 ** 62]}}, "A.cols"),
        ({"A": {"rows": 2 ** 70, "cols": 2, "triplets": []}}, "b"),
        ({"A": {"rows": 1, "cols": 2 ** 62, "triplets": []}}, "A.cols"),
    ], ids=["l-2^62", "l-2^70", "q-2^62", "rows-2^70", "cols-2^62"])
    def test_huge_count_refused_before_any_allocation(
            self, monkeypatch, tmp_path, capsys, override, field):
        """A count that the file's lists do not back exits 2 with a
        ParseError, before the cone's layout or A is built."""
        def unreached(*args, **kwargs):
            raise AssertionError("built an array from a count")
        monkeypatch.setattr(sp.fileio, "ConeSpec", unreached)
        monkeypatch.setattr(sp.fileio.np, "zeros", unreached)
        path = tmp_path / "huge.json"
        path.write_text(doc_text(**override))
        code = main(["check", "--problem", str(path),
                     "--point", str(tmp_path / "absent.json")])
        error = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and error["type"] == "ParseError"
        assert error["context"] == f"field {field!r}"


def _paths(node, prefix=()):
    """The path of every member of a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


MISSING = object()
# wrong types, bools, negative and huge counts, non-finite numbers, nested
# lists, and a deleted member
MUTANTS = ["text", None, {}, True, False, -1, -2 ** 31, 2 ** 31, 2 ** 62,
           2 ** 70, 10 ** 400, 1e308, math.nan, math.inf, -math.inf, [],
           [[1.0]], [[[0, 0, 1.0]]], MISSING]
SIZE_LIMIT = 10 ** 4


def _mutated(path, value, doc=MINIMAL_DOC):
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is MISSING:
        del parent[last]
    else:
        parent[last] = value
    return json.dumps(doc)


def _bounded(real, size):
    """`real`, refusing a call whose `size` exceeds what a small file
    could back, before anything is allocated."""
    def call(*args, **kwargs):
        if size(*args, **kwargs) > SIZE_LIMIT:
            raise AssertionError("sized an array from a count")
        return real(*args, **kwargs)
    return call


def _cells(shape, *args, **kwargs):
    dims = shape if isinstance(shape, (tuple, list)) else (shape,)
    return math.prod(int(d) for d in dims)


# 500 examples exhaust the 21 x 19 (path, mutant) pairs
@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(list(_paths(MINIMAL_DOC))),
       value=st.sampled_from(MUTANTS))
def test_mutated_problem_fails_typed(tmp_path, capsys, path, value):
    """One field of a small problem, mutated, either parses or raises a
    SocpathError; `socpath solve` on it exits 0, or 2 or 3 with one line
    of JSON that names a SocpathError and no traceback.  No cone layout
    or array is sized beyond what the file backs."""
    text = _mutated(path, value)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sp.fileio, "ConeSpec", _bounded(
            ConeSpec, lambda l, q=(): l + sum(q)))
        patch.setattr(np, "zeros", _bounded(np.zeros, _cells))
        try:
            parse_problem(text)
        except SocpathError:
            parsed = False
        else:
            parsed = True
        problem = tmp_path / "p.json"
        problem.write_text(text)
        code = main(["solve", "--problem", str(problem), "--output",
                     str(tmp_path / "s.json"), "--epsilon", "0.5"])
    _assert_typed(code, capsys.readouterr().err, parsed)


def _assert_typed(code, err, parsed):
    """A command exits 0 with nothing on stderr, or 2 or 3 with one line
    of JSON that names a SocpathError, and 2 with a ParseError when its
    file did not parse; never with a traceback."""
    assert "Traceback" not in err
    if parsed and code == 0:
        assert err == ""
        return
    assert code in (2, 3) and len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert issubclass(getattr(sp.errors, error["type"]), SocpathError)
    if not parsed:
        assert code == 2 and error["type"] == "ParseError"


POINT_DOC = {"x": [1.0, 1.0], "y": [0.0], "s": [1.0, 1.0], "kappa": 1.0,
             "tau": 1.0}


# 500 examples exhaust the 10 x 19 (path, mutant) pairs
@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(list(_paths(POINT_DOC))),
       value=st.sampled_from(MUTANTS))
def test_mutated_point_fails_typed(tmp_path, capsys, path, value):
    """One member of a point for MINIMAL_DOC's problem, mutated, either
    parses or raises a SocpathError; `socpath check` on it and `socpath
    warmstart` from it as the previous solution each exit as
    _assert_typed says."""
    text = _mutated(path, value, POINT_DOC)
    try:
        parse_point(text)
    except SocpathError:
        parsed = False
    else:
        parsed = True
    problem, point = tmp_path / "p.json", tmp_path / "z.json"
    problem.write_text(json.dumps(MINIMAL_DOC))
    point.write_text(text)
    for argv in (["check", "--problem", problem, "--point", point],
                 ["warmstart", "--prev-problem", problem, "--prev-solution",
                  point, "--problem", problem, "--epsilon", "0.5",
                  "--output", tmp_path / "s.json"]):
        code = main([str(a) for a in argv])
        _assert_typed(code, capsys.readouterr().err, parsed)


@pytest.mark.parametrize("key", ["x", "s", "kappa", "tau"])
def test_point_whose_squares_overflow_refused(key):
    """A point so large that its sum of squares, which bounds
    x's + kappa tau, overflows is refused as it is read."""
    doc = copy.deepcopy(POINT_DOC)
    doc[key] = [1e155, 1.0] if key in ("x", "s") else 1e155
    with pytest.raises(ParseError, match="sum of squares overflows"):
        parse_point(json.dumps(doc))
    doc[key] = [1e150, 1.0] if key in ("x", "s") else 1e150
    parse_point(json.dumps(doc))


@pytest.mark.parametrize("parse, text, field, message", [
    (parse_problem, "[]", None, "top level must be an object"),
    (parse_problem, doc_text(name=3), "name", "expected a string"),
    (parse_problem, doc_text(cones=[2]), "cones", "expected an object"),
    (parse_problem, doc_text(cones={"l": 2, "q": 3}), "cones.q",
     "expected an array"),
    (parse_problem, doc_text(A=[[1.0, 1.0]]), "A", "expected an object"),
    (parse_problem, doc_text(A={"rows": 1, "cols": 2, "triplets": {}}),
     "A.triplets", "expected an array"),
    (parse_problem, doc_text(A={"rows": 1, "cols": 2, "triplets": [[0, 0]]}),
     "A.triplets[0]", "expected [row, col, value]"),
    (parse_problem, doc_text(b=1.0), "b", "expected an array"),
    (parse_point, '{"x": [1.0],\n "y": }', None, "invalid JSON"),
    (parse_point, "[]", None, "top level must be an object"),
    (parse_point, '{"x": [1.0], "y": 0.0, "s": [1.0]}', "y",
     "expected an array"),
], ids=["problem-top", "name", "cones", "cones.q", "A", "A.triplets",
        "triplet", "b", "point-json", "point-top", "point-y"])
def test_structural_error_names_its_field(parse, text, field, message):
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse(text)
    assert info.value.field == field


class TestRoundTrip:
    def test_parse_write_bit_exact(self):
        rng = np.random.default_rng(607)
        for _ in range(10):
            spec = mixed_spec(rng)
            prob = random_problem(spec, 3, rng)
            text = write_problem(prob)
            back = parse_problem(text)
            assert np.array_equal(back.A, prob.A)
            assert np.array_equal(back.b, prob.b)
            assert np.array_equal(back.c, prob.c)
            assert back.cones == prob.cones
            assert back.name == prob.name

    def test_canonical_form_stable(self):
        rng = np.random.default_rng(613)
        prob = random_problem(mixed_spec(rng), 2, rng)
        text = write_problem(prob)
        assert write_problem(parse_problem(text)) == text

    def test_zeros_dropped_from_triplets(self):
        prob = toy_lp()
        A = prob.A.copy()
        A[0, 1] = 0.0
        sparse = SocpProblem(A=A, b=prob.b, c=prob.c, cones=prob.cones)
        doc = json.loads(write_problem(sparse))
        assert doc["A"]["triplets"] == [[0, 0, 1.0]]


class TestParsePoint:
    def test_round_trip_through_solution(self):
        prob = toy_lp()
        params = SolverParams(epsilon=1e-4)
        result = sp.solve(prob, cold_point(prob), params)
        z = parse_point(write_solution(prob, result, params))
        assert np.array_equal(z.x, result.point.x)
        assert np.array_equal(z.y, result.point.y)
        assert np.array_equal(z.s, result.point.s)
        assert z.kappa == result.point.kappa
        assert z.tau == result.point.tau

    def test_requires_matching_x_s(self):
        text = json.dumps({"x": [1.0, 2.0], "y": [0.0], "s": [1.0],
                           "kappa": 1.0, "tau": 1.0})
        with pytest.raises(ParseError):
            parse_point(text)

    def test_requires_kappa_tau(self):
        text = json.dumps({"x": [1.0], "y": [], "s": [1.0], "tau": 1.0})
        with pytest.raises(ParseError, match="missing"):
            parse_point(text)


class TestSolutionDocument:
    def test_optimal_fields(self):
        prob = toy_lp()
        params = SolverParams(epsilon=1e-6)
        result = sp.solve(prob, cold_point(prob), params)
        doc = solution_document(prob, result, params)
        assert doc["status"] == "optimal"
        assert doc["iterations"] == result.iterations
        assert abs(doc["objective_primal"]) < 1e-5
        assert abs(doc["objective_primal"] - doc["objective_dual"]) < 1e-5
        assert doc["mu"] > 0 and doc["rp_norm"] >= 0 and doc["rd_norm"] >= 0
        echo = doc["params"]
        assert echo == {"gamma": 0.08, "delta": 0.03, "epsilon": 1e-6,
                        "scaling": "identity", "stop_mode": "relative"}

    def test_infeasible_has_no_objective(self):
        prob = infeasible_lp()
        params = SolverParams(epsilon=1e-6)
        result = sp.solve(prob, cold_point(prob), params)
        doc = solution_document(prob, result, params)
        assert doc["status"] == "primal_infeasible"
        assert doc["objective_primal"] is None
        assert doc["objective_dual"] is None

    def test_json_serializable(self):
        prob = toy_lp()
        params = SolverParams(epsilon=1e-3)
        result = sp.solve(prob, cold_point(prob), params)
        text = write_solution(prob, result, params)
        assert json.loads(text)["status"] == "optimal"
        assert text.endswith("\n")


class TestWriteTrace:
    def test_empty_trace_is_header_only(self):
        assert write_trace(None) == ",".join(TRACE_COLUMNS) + "\n"

    def test_row_count_and_precision(self):
        prob = toy_lp()
        params = SolverParams(epsilon=0.5, stop_mode="unified",
                              trace_enabled=True)
        result = sp.solve(prob, cold_point(prob), params)
        text = write_trace(result.trace)
        lines = text.strip().split("\n")
        assert len(lines) == len(result.trace.rows) + 1
        assert lines[0] == ",".join(TRACE_COLUMNS)
        # every numeric field round-trips through its 17-digit repr
        for step, row in enumerate(result.trace.rows, 1):
            fields = lines[step].split(",")
            assert int(fields[0]) == step
            assert float(fields[1]) == row.mu
            assert float(fields[4]) == row.rp_norm
            assert float(fields[12]) == row.kkt_residual

    def test_violations_count_the_rows_over_the_radius(self, monkeypatch):
        """neighborhood_violations counts exactly the table rows with
        d2 > gamma mu, and the CSV's d2 column shows those rows."""
        prob = toy_lp()
        params = SolverParams(epsilon=0.5, stop_mode="unified")
        real, calls = Evaluation.d2, []

        def d2(ev):
            # call 0 is the start's neighborhood check, call i step i's row
            calls.append(None)
            if len(calls) - 1 in (2, 5):
                return 2.0 * params.gamma * ev.mu
            return real(ev)
        monkeypatch.setattr(Evaluation, "d2", d2)
        result = sp.solve(prob, cold_point(prob), params)
        assert result.iterations > 5
        assert result.trace.neighborhood_violations == 2
        cells = [line.split(",")
                 for line in write_trace(result.trace).splitlines()[1:]]
        assert [int(c[0]) for c in cells
                if float(c[2]) > params.gamma * float(c[1])] == [2, 5]

    def test_start_meeting_epsilon_gives_an_empty_table(self):
        prob = toy_lp()
        params = SolverParams(epsilon=10.0, stop_mode="unified")
        result = sp.solve(prob, cold_point(prob), params)
        assert result.iterations == result.predicted == 0
        assert len(result.trace.rows) == 0
        assert result.trace.rows.dtype.names == TRACE_VALUES
        assert result.trace.neighborhood_violations == 0
        assert write_trace(result.trace) == ",".join(TRACE_COLUMNS) + "\n"

    def test_mu_column_contracts_at_nu(self):
        prob = toy_lp()
        params = SolverParams(epsilon=0.5, stop_mode="unified",
                              trace_enabled=True)
        result = sp.solve(prob, cold_point(prob), params)
        text = write_trace(result.trace)
        mus = [float(line.split(",")[1])
               for line in text.strip().split("\n")[1:]]
        nu = sp.centering_nu(0.03, prob.cones.k)
        for prev, cur in zip(mus, mus[1:]):
            assert abs(cur / prev - nu) < 1e-9

    def test_deterministic_bytes(self):
        prob = toy_lp()
        params = SolverParams(epsilon=0.5, stop_mode="unified",
                              trace_enabled=True)
        a = write_trace(sp.solve(prob, cold_point(prob), params).trace)
        b = write_trace(sp.solve(prob, cold_point(prob), params).trace)
        assert a == b
