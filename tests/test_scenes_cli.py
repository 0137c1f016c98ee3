import dataclasses
import json
import math
import operator
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casoratiq.cli import main, report_csv, report_json
from casoratiq.errors import DomainError, SceneValidationError
from casoratiq.expressions import compile_expression
from casoratiq.scenes import (
    builtin_names,
    builtin_scenario,
    evaluate_scenario,
    load_scenario,
    parse_scenario,
    validate_scenario,
)

_SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
_SCENARIO_FILES = sorted(p.name for p in _SCENARIO_DIR.glob("*.json"))


def _wrap(node, level):
    """``node`` as an operand that binds at least as tightly as ``level``."""
    text, prec, direct = node
    return (text, prec, direct) if prec >= level else (f"({text})", 4, direct)


def _binary(lhs, op, rhs, space):
    additive = op in "+-"
    (lt, _, lf), (rt, _, rf) = _wrap(lhs, 0 if additive else 1), _wrap(rhs, 1 if additive else 2)
    fn = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op]
    return f"{lt}{space}{op}{space}{rt}", 0 if additive else 1, lambda c: fn(lf(c), rf(c))


def _negate(node, space):
    text, _, f = _wrap(node, 2)
    return f"-{space}{text}", 2, lambda c: -f(c)


def _raise(base, op, expo, negated, space):
    text, _, f = _wrap(base, 4)
    p = -expo if negated else expo
    sign = "-" if negated else ""
    return f"{text}{space}{op}{space}{sign}{expo!r}", 3, lambda c: math.pow(f(c), p)


def _call(name, node, space):
    text, _, f = node
    fn = getattr(math, name)
    return f"{name}{space}({space}{text}{space})", 4, lambda c: fn(f(c))


def _norm(c):
    acc = c[0] * c[0]
    for v in c[1:]:
        acc = acc + v * v
    return math.sqrt(acc)


_SPACE = st.sampled_from(["", " ", "  ", "\t"])
# an expression tree drawn as (text, precedence, direct float evaluation); precedence is
# 0 for a sum, 1 for a product, 2 for a negation, 3 for a power and 4 for an atom
_EXPR_TREES = st.recursive(
    st.one_of(
        st.floats(0.0, 4.0).map(lambda v: (repr(v), 4, lambda c: v)),
        st.integers(1, 3).map(lambda k: (f"x{k}", 4, lambda c: c[k - 1])),
        st.just(("norm(x)", 4, _norm)),
    ),
    lambda children: st.one_of(
        st.builds(_binary, children, st.sampled_from("+-*/"), children, _SPACE),
        st.builds(_negate, children, _SPACE),
        st.builds(
            _raise, children, st.sampled_from(["^", "**"]),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1.5]), st.booleans(), _SPACE,
        ),
        st.builds(_call, st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]), children, _SPACE),
        children.flatmap(lambda n: _SPACE.map(lambda s: (f"({s}{n[0]}{s})", 4, n[2]))),
    ),
    max_leaves=12,
)
_SOUP = ["x", "x1", "x2", "x4", "x0", "1", "2.5", ".5", "e", "3e2", "1e999", "(", ")", "+", "-",
         "*", "/", "^", "**", ".", " ", ",", "exp", "log", "sin", "cos", "sqrt", "norm", "not",
         "if", "for", "None", "True", "lambda"]


class TestExpressions:
    def test_arithmetic(self):
        e = compile_expression("2*x1^2 - x2/4 + 1")
        assert e([3.0, 8.0]) == pytest.approx(17.0)

    def test_double_star_power(self):
        assert compile_expression("x1**3")([2.0]) == pytest.approx(8.0)

    def test_functions(self):
        e = compile_expression("exp(x1) * cos(x2) + sqrt(x1)")
        assert e([1.0, 0.0]) == pytest.approx(np.e + 1.0)

    def test_norm(self):
        assert compile_expression("1/(norm(x)^2)")([3.0, 4.0]) == pytest.approx(1.0 / 25.0)

    def test_unary_minus_and_nesting(self):
        assert compile_expression("-(x1 - 2) * (x1 + 2)")([1.0]) == pytest.approx(3.0)

    def test_unary_minus_binds_below_power(self):
        assert compile_expression("-x1^2")([3.0]) == pytest.approx(-9.0)
        assert compile_expression("x1^-2")([2.0]) == pytest.approx(0.25)
        assert compile_expression("2 - x1^2")([3.0]) == pytest.approx(-7.0)

    @pytest.mark.parametrize(
        "bad", ["x1 +", "foo(x1)", "x0", "norm(x1)", "x1 $ 2", "x", "(x1", "1e999"]
    )
    def test_rejects(self, bad):
        with pytest.raises(SceneValidationError):
            compile_expression(bad)

    @pytest.mark.parametrize(
        "text, coords",
        [("log(x1)", [-0.5]), ("1/x1", [0.0]), ("x1^0.5", [-1.0]), ("exp(x1)", [1e4])],
    )
    def test_undefined_value_is_domain_error(self, text, coords):
        from casoratiq.jets import seed_point

        for point in (coords, seed_point(coords)):
            with pytest.raises(DomainError, match=re.escape(text)):
                compile_expression(text)(point)

    def test_jet_evaluation(self):
        from conftest import eval_jet2

        e = compile_expression("x1^2*x2")
        out = eval_jet2(lambda c: e(c), [2.0, 3.0])
        assert out.value == 12.0
        assert np.allclose(out.grad, [12.0, 4.0])

    @pytest.mark.parametrize(
        "number", [math.inf, -math.inf, math.nan, 10**400], ids=["inf", "-inf", "nan", "10**400"]
    )
    def test_rejects_non_finite_number(self, number):
        # a JSON number is read as its decimal text
        with pytest.raises(SceneValidationError):
            compile_expression(number)

    @pytest.mark.parametrize(
        "text", ["(exp)(x1)", "norm((x))", "exp()", "exp(*x1)", "exp(**x1)", "+x1", "x1^--2",
                 "x1 // x2", "None", "True", "not x1", "x1 if x2 else x3", "()"],
    )
    def test_rejects_python_beyond_the_language(self, text):
        with pytest.raises(SceneValidationError):
            compile_expression(text)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_tree_matches_direct_evaluation(self, data):
        text, _, direct = data.draw(_EXPR_TREES)
        coords = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
        compiled = compile_expression(text)
        try:
            want = direct(coords)
        except (ValueError, ZeroDivisionError, OverflowError):
            want = math.nan
        if math.isfinite(want):
            assert np.float64(compiled(coords)).tobytes() == np.float64(want).tobytes(), text
        else:
            with pytest.raises(DomainError):
                compiled(coords)

    @given(text=st.lists(st.sampled_from(_SOUP), max_size=16).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_token_soup_compiles_or_is_scene_error(self, text):
        from casoratiq.jets import seed_point

        try:
            compiled = compile_expression(text)
        except SceneValidationError:
            return
        for point in ([0.5, -1.5, 2.0], seed_point([0.5, -1.5, 2.0]), [0.0, 0.0, 0.0]):
            try:
                compiled(point)
            except (DomainError, SceneValidationError):
                pass

    @pytest.mark.parametrize(
        "text", ["(" * 3000 + "x1" + ")" * 3000, "-" * 100000 + "x1"], ids=["parens", "minuses"]
    )
    def test_deep_nesting_is_scene_error(self, text):
        with pytest.raises(SceneValidationError):
            compile_expression(text)

    def test_long_flat_sum_evaluates(self):
        from casoratiq.jets import seed_point

        e = compile_expression(" + ".join(["x1*x2"] * 2000))
        assert e([0.5, 0.25]) == 250.0
        out = e(seed_point([0.5, 0.25]))
        assert out.value == 250.0 and out.grad.tolist() == [500.0, 1000.0]
        assert out.hess.tolist() == [[0.0, 2000.0], [2000.0, 0.0]]

    def test_longer_sum_evaluates_or_is_scene_error(self):
        # CPython 3.11 and 3.12 refuse an AST this deep, 3.10 parses it
        try:
            e = compile_expression(" + ".join(["x1"] * 5000))
        except SceneValidationError:
            return
        assert e([0.25]) == 1250.0

    @pytest.mark.parametrize(
        "component, code",
        [("(" * 3000 + "x1" + ")" * 3000, 3), ("-" * 100000 + "x1", 3),
         ("-" * 1500 + "(0.5*(x1^2+x2^2))", 0), ("0.5*(x1^2+x2^2)" + " + 0" * 1999, 0)],
        ids=["parens", "minuses", "1500-minuses", "sum"],
    )
    def test_deep_component_through_the_cli(self, tmp_path, component, code):
        doc = _builtin_doc("paraboloid-vertex")
        doc["map"]["exprs"][2] = component
        scene, out = tmp_path / "scene.json", tmp_path / "out.json"
        scene.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "casoratiq", "run", str(scene), "-o", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1
        if code == 0:
            want = json.loads(report_json(evaluate_scenario(builtin_scenario("paraboloid-vertex"))))
            assert json.loads(out.read_text())["points"] == want["points"]


class TestParsing:
    def base_doc(self):
        return {
            "version": 1,
            "name": "t",
            "mode": "pointwise",
            "dim": 8,
            "kind": "submersion",
            "structure": {"name": "quat-flat:2"},
            "c": 0.0,
            "deltaN": "zero",
            "frames": {
                "horizontal": np.eye(8)[:4].tolist(),
                "vertical": np.eye(8)[4:].tolist(),
            },
            "tensors": {"T": np.zeros((4, 4, 4)).tolist(), "A": np.zeros((4, 4, 4)).tolist()},
            "theorems": ["vertical_5_2"],
        }

    def test_round_trip(self):
        scn = parse_scenario(self.base_doc())
        assert scn.kind == "submersion" and scn.delta_n == 0.0

    def test_unknown_key_rejected(self):
        doc = self.base_doc()
        doc["extra"] = 1
        with pytest.raises(SceneValidationError, match="unknown key"):
            parse_scenario(doc)

    def test_bad_version(self):
        doc = self.base_doc()
        doc["version"] = 2
        with pytest.raises(SceneValidationError, match="version"):
            parse_scenario(doc)

    def test_bad_theorem_id(self):
        doc = self.base_doc()
        doc["theorems"] = ["theorem_x"]
        with pytest.raises(SceneValidationError, match="unknown theorem"):
            parse_scenario(doc)

    def test_delta_n_forms(self):
        doc = self.base_doc()
        doc["deltaN"] = "user:2.25"
        assert parse_scenario(doc).delta_n == 2.25
        doc["deltaN"] = "half"
        with pytest.raises(SceneValidationError):
            parse_scenario(doc)

    def test_sampling_requires_seed(self):
        doc = {
            "version": 1,
            "name": "s",
            "mode": "chart",
            "map": {
                "source": "flat:2",
                "target": "flat:2",
                "exprs": ["x1", "x2"],
                "map_mode": "riemannian_submersion",
                "rank": 2,
            },
            "c": 0.0,
            "points": {"sample": {"count": 3}},
            "theorems": [],
        }
        with pytest.raises(SceneValidationError, match="seed"):
            parse_scenario(doc)

    def test_json_error_has_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"version": 1,\n  "mode": }')
        with pytest.raises(SceneValidationError, match=r"line 2, column"):
            load_scenario(str(p))

    @pytest.mark.parametrize(
        "content",
        ['{"c": ' + "[" * 100000, b"\xff\xfe{}", '{"c": 1' + "0" * 5000 + "}"],
        ids=["deep-json", "utf16-bom", "long-int"],
    )
    def test_unreadable_json_is_scene_error(self, tmp_path, capsys, content):
        p = tmp_path / "bad.json"
        p.write_bytes(content if isinstance(content, bytes) else content.encode())
        with pytest.raises(SceneValidationError):
            load_scenario(str(p))
        for command in ("run", "validate"):
            assert main([command, str(p)]) == 3
            err = capsys.readouterr().err
            assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_builtins_parse(self):
        for name in builtin_names():
            scn = builtin_scenario(name)
            assert scn.name == name


class TestValidation:
    def test_corrupted_metric_reported(self):
        doc = {
            "version": 1,
            "name": "bad-metric",
            "mode": "chart",
            "map": {
                "source": {
                    "dim": 2,
                    "box": [[-1.0, 1.0], [-1.0, 1.0]],
                    "metric": [["1", "x1"], ["0", "1"]],  # not symmetric
                },
                "target": "flat:2",
                "exprs": ["x1", "x2"],
                "map_mode": "riemannian_submersion",
                "rank": 2,
            },
            "c": 0.0,
            "points": [[0.5, 0.5]],
            "theorems": [],
        }
        results = validate_scenario(parse_scenario(doc))
        assert results[0].errors
        assert "symmetric" in results[0].errors[0]

    def test_map_frames_not_mutually_orthogonal(self, tmp_path, capsys):
        doc = _builtin_doc("pw-equality-map:s4")
        row = [0.0] * doc["dim"]
        row[4], row[0] = math.cos(0.1), math.sin(0.1)
        doc["frames"]["range_perp"][0] = row
        code, out = _run_file(tmp_path, doc)
        assert code == 3
        (error,) = json.loads(out.read_text())["points"][0]["errors"]
        assert error == "frames are not mutually orthogonal (9.983e-02)"
        assert main(["validate", str(tmp_path / "scene.json")]) == 3
        capsys.readouterr()

    def test_bad_structure_names_identity(self):
        J = np.zeros((3, 4, 4))
        from casoratiq.quaternionic import quat_units

        J[:] = quat_units(1)
        J[2] = -J[2]  # breaks J1 J2 = J3
        doc = {
            "version": 1,
            "name": "bad-structure",
            "mode": "pointwise",
            "dim": 4,
            "kind": "submersion",
            "structure": {"matrices": J.tolist()},
            "c": 0.0,
            "frames": {"horizontal": np.eye(4)[:2].tolist(), "vertical": np.eye(4)[2:].tolist()},
            "tensors": {"T": np.zeros((2, 2, 2)).tolist()},
            "theorems": [],
        }
        results = validate_scenario(parse_scenario(doc))
        assert results[0].errors
        assert "J1 J2 = J3" in results[0].errors[0]

    def test_radial_validates(self):
        results = validate_scenario(builtin_scenario("radial:4"))
        assert all(not r.errors for r in results)
        assert all(r.validation["isometry_residual"] < 1e-9 for r in results)
        assert all(r.gauss_residuals["mixed"] < 1e-6 and not r.reports for r in results)

    def test_gauss_residual_over_tolerance_flagged(self):
        # the fiber curvature is off by one part in 1e9, a real vertical
        # residual of 2.5e-10 to 4e-9 that only a tight tolerance flags
        doc = _radial_off_kappa()
        assert all(not r.errors for r in validate_scenario(parse_scenario(doc)))
        tight = dict(doc, tolerances={"residual": 1e-12})
        results = validate_scenario(parse_scenario(tight))
        assert len(results) == 3
        assert all("Gauss residual" in r.errors[0] for r in results)


def _radial_off_kappa():
    return dict(
        builtin_scenario("radial:4").raw,
        fiber_curvature={"space_form_kappa": "1.000000001/(norm(x)^2)"},
    )


def _chart_doc(**overrides):
    doc = {
        "version": 1,
        "name": "plain",
        "mode": "chart",
        "map": {
            "source": {"dim": 2, "box": [[-1.0, 1.0], [-1.0, 1.0]],
                       "metric": [["1", "0"], ["0", "1"]]},
            "target": "flat:2",
            "exprs": ["x1", "x2"],
            "map_mode": "riemannian_map",
            "rank": 2,
        },
        "c": 0.0,
        "points": [[-0.5, 0.5]],
        "theorems": [],
    }
    doc.update(overrides)
    return doc


def _run_file(tmp_path, doc):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    return main(["run", str(path), "-o", str(out)]), out


class TestBadInput:
    @pytest.mark.parametrize(
        "exprs, point", [(["log(x1)", "x2"], [-0.5, 0.5]), (["sqrt(x1^2)", "x2"], [0.0, 0.5])]
    )
    def test_undefined_expression_is_point_error(self, tmp_path, exprs, point):
        doc = _chart_doc(points=[point])
        doc["map"] = {**doc["map"], "exprs": exprs}
        code, out = _run_file(tmp_path, doc)
        assert code == 3
        errors = json.loads(out.read_text())["points"][0]["errors"]
        assert len(errors) == 1 and exprs[0] in errors[0]

    @pytest.mark.parametrize(
        "path, value",
        [
            (("c",), "four"),
            (("tolerances",), {"equality": "abc"}),
            (("tolerances",), {"residual": float("nan")}),
            (("map", "rank"), "two"),
            (("map", "source", "dim"), "x"),
            (("map", "source", "box"), [[-1.0, "a"], [-1.0, 1.0]]),
            (("points",), [["a", 0.5]]),
            (("points",), [[0.5]]),
            (("points",), {"sample": {"count": "many", "seed": 1}}),
            (("points",), {"sample": {"count": 2, "seed": 1.5}}),
            (("points",), {"sample": {"count": 2, "seed": 1, "box": [[0.0, 1.0]]}}),
        ],
    )
    def test_bad_number_field_is_scene_error(self, tmp_path, path, value):
        doc = json.loads(json.dumps(_chart_doc()))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(SceneValidationError):
            parse_scenario(doc)
        assert _run_file(tmp_path, doc)[0] == 3
        assert main(["validate", str(tmp_path / "scene.json")]) == 3

    def test_non_numeric_tolerance_flag(self, tmp_path):
        out = str(tmp_path / "o.json")
        assert main(["run", "radial:4", "-o", out, "--tolerance", "equality=abc"]) == 3
        assert main(["run", "radial:4", "-o", out, "--tolerance", "residual="]) == 3


    @pytest.mark.parametrize(
        "mode, rank, message",
        [("bogus", 2, "unknown map mode"), ("riemannian_submersion", 1, "rank 1")],
    )
    def test_map_spec_error_is_scene_error(self, tmp_path, mode, rank, message):
        doc = _chart_doc()
        doc["map"] = {**doc["map"], "map_mode": mode, "rank": rank}
        with pytest.raises(SceneValidationError, match=message):
            parse_scenario(doc)
        assert _run_file(tmp_path, doc)[0] == 3

    @pytest.mark.parametrize(
        "name, path, value, message",
        [
            ("pw-equality-map:s4", ("tensors", "B"), None, "missing tensors"),
            ("pw-equality-combined:s4l4", ("tensors", "T"), None, "missing tensors"),
            ("pw-equality-combined:s4l4", ("tensors", "A"), None, "missing tensors"),
            ("pw-equality-map:s4", ("frames", "range_perp"), None, "range_perp"),
            (
                "pw-equality-map:s4",
                ("frames", "range", 0, 0),
                "x",
                "frames.range[0][0] must be a finite number, got 'x'",
            ),
            (
                "pw-equality-map:s4",
                ("tensors", "B", 0, 0, 0),
                "y",
                "tensors.B[0][0][0] must be a finite number, got 'y'",
            ),
            ("pw-equality-combined:s4l4", ("tensors", "A", 0), None, "tensors.A has shape"),
            ("pw-equality-map:s4", ("metric", 0, 0), "z", "metric[0][0] must be a finite number"),
        ],
    )
    def test_pointwise_frames_and_tensors_checked(self, tmp_path, name, path, value, message):
        doc = json.loads(json.dumps(builtin_scenario(name).raw))
        if path[0] == "metric":
            doc["metric"] = np.eye(doc["dim"]).tolist()
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        with pytest.raises(SceneValidationError, match=re.escape(message)):
            parse_scenario(doc)
        assert _run_file(tmp_path, doc)[0] == 3

    @pytest.mark.parametrize("entry", ["1e200*1e200*x1^2+1", "1+x1^3*1e300*1e300*0"])
    def test_non_finite_expression_is_point_error(self, tmp_path, entry):
        doc = _chart_doc()
        doc["map"]["source"]["metric"][0][0] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _run_file(tmp_path, doc)
        assert code == 3
        errors = json.loads(out.read_text())["points"][0]["errors"]
        assert errors == [f"expression {entry!r} is not finite at this point"]


def _set(path, value):
    """A change to a scenario document that puts ``value`` at ``path``."""

    def change(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return change


# malformed fields that once ended in a Python traceback (exit 1)
_MALFORMED = {
    "target-metric-int": ("radial:4", _set(("map", "target", "metric"), 5)),
    "chart-structure-int": ("radial:4", _set(("structure",), 7)),
    "theorems-int": ("radial:4", _set(("theorems",), 5)),
    "fiber-curvature-int": ("radial:4", _set(("fiber_curvature",), 3)),
    "sample-int": ("product-projection:8to4", _set(("points",), {"sample": 3})),
    "matrices-string": ("pw-equality-map:s4", _set(("structure",), {"matrices": "abc"})),
    "flat-abc": ("flat-embedding:2in4", _set(("map", "source"), "flat:abc")),
    "sphere-abc": ("flat-embedding:2in4", _set(("map", "target"), "sphere:abc")),
    "quat-flat-x": ("pw-equality-map:s4", _set(("structure", "name"), "quat-flat:x")),
    "deltaN-nan": ("pw-equality-combined:s4l4", _set(("deltaN",), "user:nan")),
    "deltaN-overflow": ("pw-equality-combined:s4l4", _set(("deltaN",), "user:1e309")),
    "c-1e308": ("pw-random-mix:c-4", _set(("c",), 1e308)),
    "T-1e200": (
        "pw-random-mix:c-4",
        _set(("tensors", "T"), lambda T: (1e200 * np.array(T)).tolist()),
    ),
}


def _builtin_doc(name):
    return json.loads(json.dumps(builtin_scenario(name).raw))


def _near_isometric_embedding(g11: str) -> dict:
    """flat-embedding:4in8 with the source metric entry g11 set to ``g11``."""
    doc = _builtin_doc("flat-embedding:4in8")
    metric = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    metric[0][0] = g11
    doc["map"]["source"] = {"dim": 4, "box": [[-1.0, 1.0]] * 4, "metric": metric}
    doc["points"] = doc["points"][:1]
    return doc


class TestIsometryGate:
    """``maps.differential`` accepts an isometry residual up to 1e-6 and
    rejects a larger one as a point error."""

    def test_near_isometric_map_runs(self, tmp_path, capsys):
        doc = _near_isometric_embedding("1+1e-8")
        code, out = _run_file(tmp_path, doc)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["aggregate"]["point_errors"] == 0
        assert len(report["points"][0]["reports"]) == 4
        assert main(["validate", str(tmp_path / "scene.json")]) == 0
        capsys.readouterr()

    def test_non_isometric_map_is_point_error(self, tmp_path, capsys):
        doc = _near_isometric_embedding("1.01")
        code, out = _run_file(tmp_path, doc)
        assert code == 3
        (error,) = json.loads(out.read_text())["points"][0]["errors"]
        assert "not isometric" in error and "residual 9.901e-03" in error
        assert main(["validate", str(tmp_path / "scene.json")]) == 3
        capsys.readouterr()


class TestSizeCaps:
    """A dimension above ``MAX_DIM`` (32) or a sample count above 1024 is a
    scene error raised while parsing, before anything large is allocated."""

    @staticmethod
    def _custom_chart(dim):
        return {
            "dim": dim,
            "box": [[-1.0, 1.0]] * dim,
            "metric": [["1" if i == j else "0" for j in range(dim)] for i in range(dim)],
        }

    @pytest.mark.parametrize(
        "name, path, value, message",
        [
            ("flat-embedding:2in4", ("map", "target"), "flat:33", "dimension above 32"),
            ("flat-embedding:2in4", ("map", "target"), _custom_chart(33), "from 1 to 32"),
            ("product-projection:8to4", ("structure", "name"), "quat-flat:9", "dimension above 32"),
            ("pw-equality-map:s4", ("structure", "name"), "quat-flat:9", "dimension above 32"),
            ("pw-equality-map:s4", ("dim",), 33, "from 1 to 32"),
            ("pw-equality-map:s4", ("dim",), 0, "from 1 to 32"),
            ("product-projection:8to4", ("points", "sample", "count"), 1025, "count <= 1024"),
        ],
        ids=["flat-33", "chart-dim-33", "quat-flat-9-chart", "quat-flat-9-pointwise",
             "dim-33", "dim-0", "count-1025"],
    )
    def test_above_cap_is_scene_error(self, tmp_path, capsys, name, path, value, message):
        doc = _builtin_doc(name)
        _set(path, value)(doc)
        tracemalloc.start()
        try:
            with pytest.raises(SceneValidationError, match=message) as err:
                parse_scenario(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert "\n" not in str(err.value)
        assert '"' not in str(err.value)  # not the repr of a KeyError's message
        # parsing raised, so the CLI stops there too
        assert _run_file(tmp_path, doc)[0] == 3
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_at_cap_is_accepted(self):
        from casoratiq.geometry import chart
        from casoratiq.quaternionic import structure

        assert chart("flat:32").dim == 32
        assert structure("quat-flat:8").dim == 32
        doc = _builtin_doc("product-projection:8to4")
        doc["points"]["sample"]["count"] = 1024
        assert len(parse_scenario(doc).evaluation_points()) == 1024


class TestMalformedScenarios:
    """Every malformed scenario is a scene or point error (exit 3), never a traceback."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_exits_3(self, tmp_path, capsys, case):
        name, change = _MALFORMED[case]
        doc = _builtin_doc(name)
        change(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _run_file(tmp_path, doc)
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        if out.exists():  # a point error: the report names it
            (point,) = json.loads(out.read_text())["points"]
            assert len(point["errors"]) == 1 and point["reports"] == []

    @staticmethod
    def _field_paths(node, prefix=()):
        for key, value in node.items():
            yield prefix + (key,)
            if isinstance(value, dict):
                yield from TestMalformedScenarios._field_paths(value, prefix + (key,))

    _CHEAP = ("pw-equality-map:s4", "pw-equality-combined:s4l4", "pw-random-mix:c-4",
              "flat-embedding:2in4")
    _VALUES = st.one_of(
        st.integers(-2, 9),
        st.text(max_size=6),
        st.lists(st.integers(-2, 9), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
        st.sampled_from(["user:nan", 1e308]),
    )

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_one_mutated_field_never_raises(self, tmp_path_factory, data):
        doc = _builtin_doc(data.draw(st.sampled_from(self._CHEAP)))
        path = data.draw(st.sampled_from(sorted(self._field_paths(doc))))
        _set(path, data.draw(self._VALUES))(doc)
        code, _ = _run_file(tmp_path_factory.mktemp("fuzz"), doc)
        assert code in (0, 2, 3)


class TestParseTimeFit:
    @staticmethod
    def _swapped(name, **changes):
        """A builtin's document with keys replaced, or removed where the new value is None."""
        doc = {**builtin_scenario(name).raw, **changes}
        return {k: v for k, v in doc.items() if v is not None}

    @pytest.mark.parametrize(
        "name, changes, message",
        [
            ("flat-embedding:4in8", {"theorems": ["vertical_5_2"]}, "map scene"),
            ("pw-equality-map:s4", {"theorems": ["vertical_5_2"]}, "map scene"),
            ("pw-equality-combined:s4l4", {"theorems": ["map_3_2"]}, "submersion scene"),
            ("radial:4", {"theorems": ["lemma_map_3_1"]}, "submersion scene"),
            ("product-projection:8to4",
             {"structure": {"on": "target", "name": "quat-flat:1"}}, "on the source"),
            ("flat-embedding:4in8",
             {"structure": {"on": "source", "name": "quat-flat:1"}}, "on the target"),
            ("radial:4", {"structure": None}, "on the source"),
        ],
    )
    def test_theorem_scene_mismatch_rejected(self, tmp_path, name, changes, message):
        doc = self._swapped(name, **changes)
        with pytest.raises(SceneValidationError, match=message):
            parse_scenario(doc)
        assert _run_file(tmp_path, doc)[0] == 3

    def test_structure_side_free_without_theorems(self):
        doc = self._swapped("product-projection:8to4", theorems=[],
                            structure={"on": "target", "name": "quat-flat:1"})
        rep = evaluate_scenario(parse_scenario(doc))
        assert rep.aggregate["point_errors"] == 0


class TestRegistry:
    def test_contents(self):
        names = builtin_names()
        chart_scenes = [n for n in names if builtin_scenario(n).mode == "chart"]
        pointwise = [n for n in names if builtin_scenario(n).mode == "pointwise"]
        for required in ("product-projection:8to4", "radial:4", "paraboloid-vertex",
                         "flat-embedding:2in4"):
            assert required in chart_scenes
        assert len(pointwise) >= 3


class TestRunReports:
    def test_product_projection_all_equality(self):
        rep = evaluate_scenario(builtin_scenario("product-projection:8to4"))
        assert rep.aggregate["point_errors"] == 0
        assert set(rep.aggregate["equality_tally"]) == {"equality"}
        assert max(rep.aggregate["gauss_residual_max"].values()) < 1e-12
        assert all(v == 0.0 for v in rep.aggregate["min_slack"].values())

    def test_radial_slack_values(self):
        rep = evaluate_scenario(builtin_scenario("radial:4"))
        for p, r_val in zip(rep.points, (0.5, 1.0, 2.0)):
            for r in p.reports:
                if r.variant == "delta":
                    assert r.slack == pytest.approx(1.0 / (6.0 * r_val**2), abs=1e-6)
                    assert r.equality_verdict == "strict"
                # the Gauss-reconstructed fiber curvature is the round-sphere value
                assert r.lhs == pytest.approx(1.0 / r_val**2, abs=1e-6)

    @pytest.mark.parametrize("name", ["hopf-radial:4to3", "radial:4"])
    def test_mixed_residual_is_exact(self, name):
        # the mixed O'Neill identity is assembled from exact jets, so it
        # holds to rounding, far below the finite-difference floor of 1e-9
        points = evaluate_scenario(builtin_scenario(name)).points
        mixed = [p.gauss_residuals["mixed"] for p in points]
        assert mixed and max(mixed) <= 1e-13

    def test_false_space_form_declaration_fails(self):
        doc = dict(builtin_scenario("product-projection:8to4").raw)
        doc["c"] = 4.0  # flat source cannot be a c = 4 space form
        rep = evaluate_scenario(parse_scenario(doc, name_hint="bad-c"))
        assert rep.aggregate["point_errors"] == len(rep.points)
        assert all("space form" in p.errors[0] for p in rep.points)

    def test_equality_fixture_reports(self):
        rep = evaluate_scenario(builtin_scenario("pw-equality-combined:s4l4"))
        by_key = {(r.theorem_id, r.variant): r for r in rep.points[0].reports}
        rep_c = by_key[("combined_7_2", "delta")]
        assert rep_c.equality_verdict == "equality"
        assert abs(rep_c.slack) < 1e-10
        d = rep_c.diagnostics
        assert d.offdiag_max < 1e-10
        assert d.eigen_pattern_residual < 1e-10
        assert d.A_norm < 1e-10

    def test_aggregate_min_is_true_min(self):
        rep = evaluate_scenario(builtin_scenario("radial:4"))
        for key, value in rep.aggregate["min_slack"].items():
            tid, variant = key.split("/")
            slacks = [r.slack for p in rep.points for r in p.reports
                      if r.theorem_id == tid and r.variant == variant]
            assert value == min(slacks)

    def test_one_dimensional_fiber_rejects_vertical_theorem(self):
        # the Hopf-style scene has circle fibers: the vertical theorem needs
        # ell >= 3 and the error path is reported per point
        doc = dict(builtin_scenario("hopf-radial:4to3").raw)
        doc["theorems"] = ["vertical_5_2"]
        rep = evaluate_scenario(parse_scenario(doc, name_hint="hopf-vertical"))
        assert rep.aggregate["point_errors"] == len(rep.points)
        assert all("ell >= 3" in p.errors[0] for p in rep.points)

    def test_violated_verdict_and_exit(self, tmp_path):
        # combined inequality with deltaN pinned to zero on a pattern-T scene
        # drops below zero: the report must say so and the CLI must exit 2
        T = np.zeros((4, 4, 4))
        T[0] = np.diag([1.0, 1.0, 1.0, 2.0])
        doc = {
            "version": 1,
            "name": "violation",
            "mode": "pointwise",
            "dim": 8,
            "kind": "submersion",
            "structure": {"name": "quat-flat:2"},
            "c": 0.0,
            "deltaN": "zero",
            "frames": {
                "horizontal": np.eye(8)[:4].tolist(),
                "vertical": np.eye(8)[4:].tolist(),
            },
            "tensors": {"T": T.tolist(), "A": np.zeros((4, 4, 4)).tolist()},
            "theorems": ["combined_7_2"],
        }
        rep = evaluate_scenario(parse_scenario(doc))
        verdicts = {r.equality_verdict for r in rep.points[0].reports}
        assert "violated" in verdicts
        path = tmp_path / "violation.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "-o", str(tmp_path / "out.json")]) == 2

    def test_exit_code_follows_verdicts_not_raw_slack(self, tmp_path):
        # raw delta slack -5e-8 on a scene with lhs 16.4: the normalized slack
        # is inside the equality tolerance, so no report is violated and the
        # exit code must say so
        from casoratiq.scenes import _equality_pattern

        doc = dict(builtin_scenario("pw-equality-combined:s4l4").raw)
        T = _equality_pattern(4, [10.0, 5.0, 2.5, 0.0])
        doc["tensors"] = {**doc["tensors"], "T": T}
        doc["deltaN"] = f"user:{float(np.sum(np.square(T))) / 2.0 - 3.6e-6!r}"
        doc["theorems"] = ["combined_7_2"]
        path = tmp_path / "near-equality.json"
        out = tmp_path / "out.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "-o", str(out)]) == 0
        reports = json.loads(out.read_text())["points"][0]["reports"]
        assert sorted(r["verdict"] for r in reports) == ["equality", "strict"]
        assert min(r["slack"] for r in reports) < -1e-8


def _first_point_only(scn):
    x = scn.evaluation_points()[0]
    return dataclasses.replace(scn, points=(tuple(x),), sample_spec=None)


class TestComputeOnce:
    """Each chart point computes its map jets once, its metric jets at most
    twice (once for the source and once for the target), each expression
    once, T's equality diagnostics once and the curvature frame tensor of
    each side at most once; no scene evaluates the space-form curvature one
    vector quadruple at a time.  Parsing compiles each distinct expression
    text of a scene once."""

    @pytest.mark.parametrize("name", ["hopf-radial:4to3", "radial:4"])
    def test_each_distinct_expression_compiles_once(self, name, monkeypatch):
        import casoratiq.scenes as scenes

        doc, texts = builtin_scenario(name).raw, []

        def counted(text, _original=scenes.compile_expression):
            texts.append(text)
            return _original(text)

        monkeypatch.setattr(scenes, "compile_expression", counted)
        scn = parse_scenario(doc)
        # "0" stands in several metric entries of both scenes
        assert "0" in texts and len(texts) == len(set(texts))
        assert evaluate_scenario(scn).aggregate["point_errors"] == 0

    @pytest.mark.parametrize("name", ["product-projection:8to4", "hopf-radial:4to3"])
    def test_jets_per_point(self, name, monkeypatch):
        from casoratiq.geometry import MetricChart
        from casoratiq.maps import SmoothMap

        one_point = _first_point_only(builtin_scenario(name))
        calls = {"metric_jets": 0, "jets": 0}
        for cls, attr in ((MetricChart, "metric_jets"), (SmoothMap, "jets")):
            def counted(self, y, _original=getattr(cls, attr), _attr=attr):
                calls[_attr] += 1
                return _original(self, y)

            monkeypatch.setattr(cls, attr, counted)
        rep = evaluate_scenario(one_point)
        assert rep.aggregate["point_errors"] == 0 and rep.points[0].reports
        assert calls["jets"] == 1, calls
        assert 0 < calls["metric_jets"] <= 2, calls

    def test_expression_calls_per_scene(self, monkeypatch):
        # hopf-radial:4to3 has 3 map, 16 source metric and 9 target metric
        # expressions; each is evaluated once per scene, on the jets of all its points
        from casoratiq.expressions import CompiledExpression

        scn = builtin_scenario("hopf-radial:4to3")
        calls = []

        def counted(self, coords, _original=CompiledExpression.__call__):
            calls.append(self.source)
            return _original(self, coords)

        monkeypatch.setattr(CompiledExpression, "__call__", counted)
        rep = evaluate_scenario(scn)
        assert rep.aggregate["point_errors"] == 0 and len(rep.points) > 1
        assert len(calls) == 28, len(calls)

    def test_equality_diagnostics_per_point(self, monkeypatch):
        # the vertical and combined families share T's diagnostics; the
        # horizontal family reads A's
        from casoratiq import inequalities

        one_point = _first_point_only(builtin_scenario("product-projection:8to4"))
        calls = []

        def counted(inp, *args, _original=inequalities.equality_diagnostics, **kwargs):
            calls.append(inp.kind)
            return _original(inp, *args, **kwargs)

        monkeypatch.setattr(inequalities, "equality_diagnostics", counted)
        rep = evaluate_scenario(one_point)
        families = {"vertical_5_2", "horizontal_6_2", "combined_7_2"}
        assert families <= {r.theorem_id for r in rep.points[0].reports}
        assert sorted(calls) == ["skew", "symmetric"]

    @pytest.mark.parametrize(
        "name", ["product-projection:8to4", "hopf-radial:4to3", "flat-embedding:4in8"]
    )
    def test_frame_tensor_per_side(self, name, monkeypatch):
        from casoratiq import maps

        scn = builtin_scenario(name)
        one_point = _first_point_only(scn)
        splits, contracted = [], []

        def differential(smap, y, _original=maps.differential):
            splits.append(_original(smap, y))
            return splits[-1]

        def frame_contraction(R, *frames, _original=maps.frame_contraction):
            contracted.append(R)
            return _original(R, *frames)

        monkeypatch.setattr(maps, "differential", differential)
        monkeypatch.setattr(maps, "frame_contraction", frame_contraction)
        rep = evaluate_scenario(one_point)
        assert rep.aggregate["point_errors"] == 0 and rep.points[0].reports
        (split,) = splits
        # the structure, and so the theorems' ambient curvature, is on the curved side
        curved = "source" if scn.kind == "submersion" else "target"
        for side in ("source", "target"):
            riemann = getattr(split.point, side).curvature.riemann
            built = sum(R is riemann for R in contracted)
            assert built == 1 if side == curved else built <= 1, (side, built)

    @pytest.mark.parametrize("name", builtin_names())
    def test_no_quadruple_calls(self, name, monkeypatch):
        from casoratiq.quaternionic import QSFOracle

        calls = []

        def quad(self, *z, _original=QSFOracle.quad):
            calls.append(z)
            return _original(self, *z)

        monkeypatch.setattr(QSFOracle, "quad", quad)
        scn = builtin_scenario(name)
        rep = evaluate_scenario(scn)
        assert rep.aggregate["point_errors"] == 0
        assert bool(rep.points[0].reports) == bool(scn.theorems)
        assert not calls


@pytest.fixture()
def scenario_dir():
    from pathlib import Path

    d = Path(__file__).resolve().parent.parent / "scenarios"
    assert d.is_dir()
    return d


class TestShippedScenarioFiles:
    """The scenarios/ directory ships regression fixtures as plain files."""

    def test_equality_combined_file(self, scenario_dir):
        scn = load_scenario(str(scenario_dir / "equality-combined-s4l4.json"))
        rep = evaluate_scenario(scn)
        by_key = {(r.theorem_id, r.variant): r for r in rep.points[0].reports}
        assert abs(by_key[("combined_7_2", "delta")].slack) < 1e-10
        assert by_key[("combined_7_2", "delta")].equality_verdict == "equality"

    def test_equality_map_file(self, scenario_dir):
        scn = load_scenario(str(scenario_dir / "equality-map-s4.json"))
        rep = evaluate_scenario(scn)
        by_key = {(r.theorem_id, r.variant): r for r in rep.points[0].reports}
        assert abs(by_key[("map_3_2", "delta")].slack) < 1e-10

    def test_s4_radial_file_on_a_curved_source(self, scenario_dir):
        # radial distance |x| in the stereographic chart of the round S^4: the
        # fibers are geodesic spheres of radius r with t = |x| = tan(r / 2), umbilical
        # with principal curvature cot r = (1 - t^2) / (2 t), so each vertical slack
        # is cot^2 r / 6, as 1/(6 |x|^2) is on flat radial:4
        rep = evaluate_scenario(load_scenario(str(scenario_dir / "s4-radial.json")))
        assert rep.aggregate["point_errors"] == 0 and len(rep.points) > 1
        for p in rep.points:
            assert p.gauss_residuals["mixed"] <= 1e-13
            assert p.gauss_residuals["vertical"] <= 1e-13
            t = float(np.linalg.norm(p.point))
            for r in p.reports:
                assert r.slack == pytest.approx(((1 - t * t) / (2 * t)) ** 2 / 6, abs=1e-10)
                assert r.equality_verdict != "violated"

    def test_radial_file_matches_builtin(self, scenario_dir):
        file_rep = evaluate_scenario(load_scenario(str(scenario_dir / "radial-4.json")))
        builtin_rep = evaluate_scenario(builtin_scenario("radial:4"))
        assert file_rep.aggregate["min_slack"] == builtin_rep.aggregate["min_slack"]


class TestDeterminismAndEmission:
    def test_byte_identical_reports(self):
        for name in ("radial:4", "pw-random-mix:c-4"):
            a = report_json(evaluate_scenario(builtin_scenario(name)))
            b = report_json(evaluate_scenario(builtin_scenario(name)))
            assert a == b

    @pytest.mark.parametrize("name", ["radial:4", "pw-random-mix:c-4"])
    def test_report_is_one_line_read_back_bit_for_bit(self, name):
        rep = evaluate_scenario(builtin_scenario(name))
        text = report_json(rep)
        assert text.endswith("\n") and text.count("\n") == 1
        got, want = json.loads(text), rep.as_dict()
        assert got == want

        def floats(doc):
            if isinstance(doc, dict):
                return [f for key in sorted(doc) for f in floats(doc[key])]
            if isinstance(doc, (list, tuple)):
                return [f for item in doc for f in floats(item)]
            return [doc.hex()] if isinstance(doc, float) else []

        assert floats(got) == floats(want) and floats(want)

    def test_csv_json_numeric_agreement(self):
        rep = evaluate_scenario(builtin_scenario("radial:4"))
        doc = json.loads(report_json(rep))
        csv_text = report_csv(rep)
        lines = csv_text.strip().splitlines()[1:]
        idx = 0
        for p in doc["points"]:
            for r in p["reports"]:
                cells = lines[idx].split(",")
                assert cells[4] == repr(r["lhs"])
                assert cells[5] == repr(r["rhs"])
                assert cells[6] == repr(r["slack"])
                point_repr = ";".join(repr(float(v)) for v in p["point"])
                assert cells[1] == point_repr
                idx += 1
        assert idx == len(lines)

    def test_no_timing_in_report(self):
        rep = evaluate_scenario(builtin_scenario("pw-equality-map:s4"))
        text = report_json(rep)
        assert "elapsed" not in text and "timing" not in text
        assert rep.elapsed_seconds > 0.0


class TestCli:
    def test_exit_zero_on_valid(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run", "radial:4", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["scenario"]["name"] == "radial:4"

    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "radial:4" in captured.out
        assert "pw-equality-combined:s4l4" in captured.out

    def test_validate_ok(self, capsys):
        assert main(["validate", "flat-embedding:2in4"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and json.loads(out)["valid"] is True

    @pytest.mark.parametrize("scene", builtin_names() + _SCENARIO_FILES)
    def test_validate_every_shipped_scene(self, tmp_path, capsys, scene):
        path = _SCENARIO_DIR / scene if scene in _SCENARIO_FILES else scene
        assert main(["validate", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True and doc["points"]
        # a scene that validates also runs without a point error
        out = tmp_path / "r.json"
        assert main(["run", str(path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["aggregate"]["point_errors"] == 0

    def test_validate_bad_file_exit_3(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 3
        assert main(["run", str(p), "-o", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize("flag", ["-o", "--csv"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, flag):
        args = ["run", "radial:4", "-o", str(tmp_path / "r.json")]
        assert main(args + [flag, str(tmp_path / "missing" / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cannot write report") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["run"], ["bogus"], [], ["run", "radial:4", "--bogus"]])
    def test_usage_error_exits_3(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 3
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_csv_emission(self, tmp_path):
        out = tmp_path / "r.json"
        csvf = tmp_path / "r.csv"
        assert main(["run", "radial:4", "-o", str(out), "--csv", str(csvf)]) == 0
        header = csvf.read_text().splitlines()[0]
        assert header.split(",") == [
            "point_index", "point", "theorem_id", "variant", "lhs", "rhs", "slack", "verdict",
        ]

    def test_tolerance_override(self, tmp_path):
        assert main([
            "run", "radial:4", "-o", str(tmp_path / "o.json"),
            "--tolerance", "equality=1e-3",
        ]) == 0
        assert main([
            "run", "radial:4", "-o", str(tmp_path / "o2.json"),
            "--tolerance", "bogus=1",
        ]) == 3

    def test_equality_tolerance_reaches_verdicts(self, tmp_path):
        # with a very loose tolerance the radial strict slack reads as equality
        out = tmp_path / "loose.json"
        assert main(["run", "radial:4", "-o", str(out),
                     "--tolerance", "equality=0.9"]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["aggregate"]["equality_tally"]) == {"equality"}
        assert doc["points"][0]["reports"][0]["extras"]["equality_tol"] == 0.9

    def test_residual_tolerance_flags_points(self, tmp_path):
        # a fiber curvature off by 1e-9 passes the default residual gate
        # and trips a tight one at every point
        scene = tmp_path / "radial.json"
        scene.write_text(json.dumps(_radial_off_kappa()))
        out = tmp_path / "out.json"
        assert main(["run", str(scene), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["aggregate"]["point_errors"] == 0
        assert main(["run", str(scene), "-o", str(out),
                     "--tolerance", "residual=1e-12"]) == 3
        assert json.loads(out.read_text())["aggregate"]["point_errors"] == 3

    def test_console_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "casoratiq.cli", "run", "pw-equality-map:s4",
             "-o", str(tmp_path / "o.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "elapsed" in proc.stderr

    def test_package_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "casoratiq", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "validate" in proc.stdout

    def test_cross_process_determinism(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "casoratiq.cli", "run", "radial:4",
                 "-o", str(path)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_structure_matrices_in_chart_scene(self, tmp_path):
        from casoratiq.quaternionic import quat_units

        doc = dict(builtin_scenario("flat-embedding:4in8").raw)
        doc["structure"] = {"on": "target", "matrices": quat_units(2).tolist()}
        rep = evaluate_scenario(parse_scenario(doc, name_hint="explicit-J"))
        assert rep.aggregate["point_errors"] == 0
        assert set(rep.aggregate["equality_tally"]) == {"equality"}
