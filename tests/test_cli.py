import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import bol
from bol.cli import _COMMANDS, _OVERRIDABLE, main
from bol.grid import GridFunction, save_grid_function


def run_cli(args, **kwargs):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error():
    # the child imports the same bol package as this process
    src = os.path.dirname(os.path.dirname(bol.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bol.cli", "frobnicate"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 2


def test_example5_alpha_out_of_domain(capsys):
    assert run_cli(["example5", "--alpha", "0.2"]) == 3
    capsys.readouterr()


def test_example5_window_past_float_range_exits_3(capsys):
    # at x_span = 1e308 the far nodes overflow, the end slope is NaN and the
    # value infinite: a divergence, not a passing report, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(["example5", "--x-span", "1e308", "--s-multiples", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "does not decay" in captured.err


def test_example5_defaults_pass(tmp_path):
    out = tmp_path / "e5.json"
    assert run_cli(["example5", "--output", str(out)]) == 0
    doc = read_json(out)
    assert doc["schema"] == "bol/1"
    assert all(row["below_two"] for row in doc["report"]["first_bound"])


def test_check_condition_unbounded_is_not_a_failure(tmp_path):
    out = tmp_path / "cc.json"
    code = run_cli([
        "check-condition", "--psi", "powerweight:theta=0.8",
        "--smin", "0.01", "--smax", "1e6", "--points", "17",
        "--output", str(out),
    ])
    assert code == 0
    assert read_json(out)["report"]["verdict"] == "unbounded"


def test_check_condition_csv_side_table(tmp_path):
    out = tmp_path / "cc.json"
    csv = tmp_path / "curve.csv"
    code = run_cli([
        "check-condition", "--points", "17", "--smin", "0.01",
        "--smax", "100", "--output", str(out), "--csv", str(csv),
    ])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "s,value" and len(lines) == 18


def test_decompose_staircase_verify(tmp_path):
    out = tmp_path / "dec.json"
    outdir = tmp_path / "mols"
    code = run_cli([
        "decompose", "--fixture", "staircase", "--verify",
        "--outdir", str(outdir), "--output", str(out),
    ])
    assert code == 0
    doc = read_json(out)["report"]
    assert doc["molecules"] == 2 and doc["pass"]
    manifest = read_json(outdir / "manifest.json")
    assert manifest["schema"] == "bol/1" and manifest["count"] == 2


def test_decompose_conflicting_inputs(tmp_path, capsys):
    code = run_cli(["decompose", "--fixture", "staircase", "--input", "x.grid"])
    assert code == 4
    capsys.readouterr()


def test_decompose_csv_needs_dim(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("0,1,2,1,0\n")
    assert run_cli(["decompose", "--input", str(path)]) == 3
    assert run_cli(["decompose", "--input", str(path), "--dim", "1"]) == 0
    capsys.readouterr()


def test_csv_dim_from_environment(tmp_path, monkeypatch, capsys):
    path = tmp_path / "f.csv"
    path.write_text("0,1,2,1,0\n")
    monkeypatch.setenv("BOL_DIM", "1")
    assert run_cli(["decompose", "--input", str(path)]) == 0
    monkeypatch.setenv("BOL_DIM", "0")
    assert run_cli(["decompose", "--input", str(path)]) == 3
    assert "at least 1" in capsys.readouterr().err


def test_csv_dim_from_config(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,1.5,2,1,0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": 1}))
    out = tmp_path / "n.json"
    assert run_cli(["--config", str(cfg), "norms", "--input", str(path),
                    "--output", str(out)]) == 0
    assert read_json(out)["report"]["l1"] == pytest.approx(4.5)


def test_config_embeds_values_from_environment(tmp_path, monkeypatch):
    path = tmp_path / "f.csv"
    path.write_text("0,1,2,1,0\n")
    out = tmp_path / "d.json"
    monkeypatch.setenv("BOL_DIM", "1")
    assert run_cli(["decompose", "--input", str(path), "--output", str(out)]) == 0
    assert read_json(out)["config"] == {"command": "decompose", "dim": 1, "input": str(path),
                                        "verify": False}
    # a flag still wins, and shows as given
    assert run_cli(["lemma6", "--offsets", "0.5", "--samples", "10", "--dim", "2",
                    "--output", str(out)]) == 0
    assert read_json(out)["config"]["dim"] == 2


def test_config_embeds_values_from_config_file(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.05, "seed": 3}))
    out = tmp_path / "o.json"
    assert run_cli(["--config", str(cfg), "example5", "--s-multiples", "10",
                    "--output", str(out)]) == 0
    config = read_json(out)["config"]
    # example5 resolves alpha but never seed
    assert config["alpha"] == 0.05 and "seed" not in config
    # builtin defaults stay out: a flags-only report carries only the flags
    assert run_cli(["example5", "--s-multiples", "10", "--output", str(out)]) == 0
    assert "alpha" not in read_json(out)["config"]


def test_decompose_grid_file_input(tmp_path):
    f = GridFunction(0.5, (0.0, 0.0), np.array([[1.0, 2.0], [0.0, 1.0]]))
    path = tmp_path / "f.grid"
    save_grid_function(f, str(path))
    out = tmp_path / "out.json"
    assert run_cli(["decompose", "--input", str(path), "--verify",
                    "--output", str(out)]) == 0
    assert read_json(out)["report"]["pass"]


def test_norms_command(tmp_path):
    out = tmp_path / "n.json"
    code = run_cli(["norms", "--fixture", "staircase", "--phi", "power:p=1.3",
                    "--output", str(out)])
    assert code == 0
    rep = read_json(out)["report"]
    assert rep["l1"] == pytest.approx(8.0)
    assert rep["tv"] == pytest.approx(4.0)
    assert rep["orlicz"] > 0


def test_malformed_spec_exit_code(capsys):
    assert run_cli(["check-condition", "--phi", "power:p=oops"]) == 3
    assert run_cli(["check-condition", "--phi", "mystery:p=2"]) == 3
    capsys.readouterr()


def test_reports_are_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["lemma6", "--dim", "2", "--offsets", "0.1,0.5"]
    assert run_cli(args + ["--output", str(a)]) == 0
    assert run_cli(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _jsonable(obj):
    """The report values as ``bol.cli`` prepared them for ``json.dumps``
    before its one-walk writer: the reference the writer must match."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else repr(obj)
    if kind in (int, str, bool) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


@dataclasses.dataclass
class _Record:
    name: str
    rows: list
    extra: dict


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats() | st.text()
            | _FINITE.map(np.float64)
            | st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32)
            | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64) | st.integers(0, 255).map(np.uint8))
# lists the writer takes in bulk (finite floats, rows of finite floats under
# one key set) and lists next to them that it must not
_BULK = (st.lists(_FINITE) | st.lists(st.floats())
         | st.lists(st.fixed_dictionaries({"s": _FINITE, "value": _FINITE}), min_size=1)
         | st.lists(st.fixed_dictionaries({"100%": _FINITE}), min_size=1)
         | st.lists(st.fixed_dictionaries({"s": st.floats(), "ok": st.booleans()}), min_size=1)
         | st.lists(st.fixed_dictionaries({"s": _FINITE}) | st.fixed_dictionaries({"t": _FINITE}),
                    min_size=1)
         | st.lists(st.dictionaries(st.integers(0, 3), _FINITE), min_size=1))
_ARRAYS = arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=4)) \
    | arrays(np.int64, array_shapes(min_dims=1, max_dims=2, max_side=4))
_VALUES = st.recursive(
    _SCALARS | _BULK | _ARRAYS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text() | st.integers(-3, 3), inner, max_size=4)
                   | st.builds(_Record, st.text(), st.lists(inner, max_size=3),
                               st.dictionaries(st.text(), inner, max_size=3))),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(obj=_VALUES)
def test_report_writer_matches_indented_json_dumps(obj):
    want = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    assert bol.cli._json(obj, "\n") == want


def test_report_writer_spells_a_non_finite_numpy_float_as_a_string():
    # json.dumps wrote these bare, as Infinity and NaN, which JSON lacks
    for value, text in ((np.float64("inf"), '"inf"'), (np.float32("-inf"), '"-inf"'),
                        (np.float64("nan"), '"nan"'), (float("inf"), '"inf"')):
        assert bol.cli._json([value], "\n") == "[\n  " + text + "\n]"


def test_report_writer_rejects_a_numpy_bool_before_writing(tmp_path, capsys):
    report = {"curve": [{"s": 1.0, "value": 2.0}], "passed": np.bool_(True)}
    with pytest.raises(TypeError, match="^Object of type bool is not JSON serializable$"):
        bol.cli._emit(report, {"command": "lemma6"}, str(tmp_path / "out.json"))
    assert not (tmp_path / "out.json").exists()
    with pytest.raises(TypeError, match="^Object of type bool is not JSON serializable$"):
        bol.cli._emit(report, {"command": "lemma6"})
    assert capsys.readouterr().out == ""
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        bol.cli._json({"x": object()}, "\n")


def test_env_and_config_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.05}))
    out = tmp_path / "o.json"
    # config value applies
    assert run_cli(["--config", str(cfg), "example5", "--s-multiples", "10",
                    "--output", str(out)]) == 0
    assert read_json(out)["report"]["alpha"] == 0.05
    # environment beats config
    monkeypatch.setenv("BOL_ALPHA", "0.08")
    assert run_cli(["--config", str(cfg), "example5", "--s-multiples", "10",
                    "--output", str(out)]) == 0
    assert read_json(out)["report"]["alpha"] == 0.08
    # flag beats both
    assert run_cli(["--config", str(cfg), "example5", "--s-multiples", "10",
                    "--alpha", "0.06", "--output", str(out)]) == 0
    assert read_json(out)["report"]["alpha"] == 0.06


@pytest.mark.parametrize("cfg_values", [{"dim": 2.7}, {"points": 16.9}, {"dim": True},
                                        {"smin": True}],
                         ids=["dim_float", "points_float", "dim_bool", "smin_bool"])
def test_config_value_converts_as_its_flag_text(cfg_values, tmp_path, capsys):
    # --dim 2.7 exits 3, so the config value 2.7 does too, rather than run as dim 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_values))
    assert run_cli(["--config", str(cfg), "check-condition"]) == 3
    assert capsys.readouterr().err.startswith("error: malformed value")


def test_config_values_match_the_same_flags(tmp_path):
    cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.json", tmp_path / "b.json"
    cfg.write_text(json.dumps({"smin": 1, "smax": "100", "points": "17", "dim": 3}))
    assert run_cli(["--config", str(cfg), "check-condition", "--output", str(a)]) == 0
    assert run_cli(["check-condition", "--smin", "1", "--smax", "100", "--points", "17",
                    "--dim", "3", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_schema_documents_the_command_table(capsys):
    """docs/schema.md lists each command's option keys with their builtin
    defaults, the config file accepts exactly those keys, and each is a
    --<key> flag of its command."""
    schema = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schema.md"
    table = schema.read_text().split("| command ")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `([a-z0-9-]+)` +\| (.*) \|$", table, re.M))
    assert set(rows) == set(_COMMANDS)
    for name, (_, _, defaults, _) in _COMMANDS.items():
        documented = dict(re.findall(r"`([a-z]+)(?:=([^`]*))?`", rows[name]))
        assert {key: _OVERRIDABLE[key](text) if text else None
                for key, text in documented.items()} == defaults, name
        with pytest.raises(SystemExit):
            run_cli([name, "--help"])
        flags = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
        assert set(defaults) <= flags, name
    assert set().union(*(row[2] for row in _COMMANDS.values())) == set(_OVERRIDABLE)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for cfg_values in ({"bogus": 1}, {"jobs": 2}, {"output": str(tmp_path / "o.json")},
                       {"spacing": 0.5}, {"quad_nodes": 600}):
        cfg.write_text(json.dumps(cfg_values))
        assert run_cli(["--config", str(cfg), "report"]) == 3
    assert not (tmp_path / "o.json").exists()
    capsys.readouterr()


def test_norms_csv_input_uses_spacing(tmp_path):
    path = tmp_path / "f.csv"
    vals = [0.0, 1.5, -2.0, 2.0, 0.5]
    path.write_text(",".join(map(repr, vals)) + "\n")
    out = tmp_path / "n.json"
    assert run_cli(["norms", "--input", str(path), "--dim", "1", "--spacing", "0.5",
                    "--output", str(out)]) == 0
    assert read_json(out)["report"]["l1"] == pytest.approx(0.5 * sum(abs(v) for v in vals))


@pytest.mark.parametrize("spacing, orlicz", [
    # (sum v^1.3 h^2)^(1/1.3), far above the values
    ("1e60", sum(v ** 1.3 * 1e60 ** 2 for v in range(1, 10)) ** (1 / 1.3)),
    # h^2 underflows to 0: no weight, norm 0 as l1
    ("1e-200", 0.0),
], ids=["1e60", "1e-200"])
def test_norms_at_extreme_spacing(tmp_path, spacing, orlicz):
    path, out = tmp_path / "g.csv", tmp_path / "n.json"
    path.write_text("1,2,3,4,5,6,7,8,9\n")
    assert run_cli(["norms", "--input", str(path), "--dim", "2", "--shape", "3,3",
                    "--spacing", spacing, "--phi", "power:p=1.3", "--output", str(out)]) == 0
    assert read_json(out)["report"]["orlicz"] == pytest.approx(orlicz, rel=1e-13, abs=0.0)


def test_norms_whose_lp_norm_overflows_exit_3(tmp_path, capsys):
    # four cells of 1e308 at spacing 1: the L^1.3 norm is 4^(1/1.3) 1e308
    path = tmp_path / "g.csv"
    path.write_text("1e308,1e308,1e308,1e308\n")
    assert run_cli(["norms", "--input", str(path), "--dim", "1", "--spacing", "1",
                    "--phi", "power:p=1.3"]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_norms_with_the_paired_weight_where_t_squared_underflows(tmp_path):
    # at spacing 1e-170 the window's t^2 underflows to 0; the paired weight is
    # its log form, so it still equals the critical power weight it collapses to
    path = tmp_path / "g.csv"
    path.write_text("1,2,3,4,5,6,7,8,9\n")
    totals = []
    for psi in ("paired:phi=power:p=1.3", f"powerweight:theta={2.0 / 1.3 - 1.0!r}"):
        out = tmp_path / "n.json"
        assert run_cli(["norms", "--input", str(path), "--dim", "1", "--spacing", "1e-170",
                        "--phi", "power:p=1.3", "--psi", psi, "--output", str(out)]) == 0
        totals.append(read_json(out)["report"]["besov"]["total"])
    assert totals[0] > 0.0
    assert totals[0] == pytest.approx(totals[1], rel=1e-12, abs=0.0)


def _load_spans():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ["norms", "--fixture", "staircase", "--phi", "power:p=1.3",
     "--psi", "powerweight:theta=0.5384615384615385"],
    ["necessity", "--phi", "section5:alpha=0.1", "--psi", "section5:alpha=0.1"],
], ids=["norms", "necessity"])
def test_reports_are_unchanged_under_the_benchmark_tracer(argv, capsys):
    # the tracer rebuilds every Young function and weight with
    # dataclasses.replace over the callables they carry, by field name
    spans = _load_spans()
    assert run_cli(argv) == 0
    plain = capsys.readouterr().out
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.job(0, "cli.main"):
        assert run_cli(argv) == 0
    assert capsys.readouterr().out == plain
    _, calls, _ = tracer.take()
    assert calls.get("young.build", 0) >= 2


@pytest.mark.parametrize("spacing, code, orlicz", [
    # W * Phi_min = 100 > 1: no lambda brings the modular to 1
    ("100", 3, None),
    # W * Phi_max = 0.1 <= 1: the modular never exceeds 1
    ("1e-5", 0, 0.0),
], ids=["bounded_below", "bounded_above"])
def test_norms_with_a_clamped_table_phi(tmp_path, capsys, spacing, code, orlicz):
    table, path, out = tmp_path / "phi.csv", tmp_path / "ones.csv", tmp_path / "n.json"
    table.write_text("0.001,0.0001\n1,1\n1000,10000000\n")
    path.write_text(",".join(["1"] * 100) + "\n")
    assert run_cli(["norms", "--input", str(path), "--dim", "2", "--shape", "10,10",
                    "--spacing", spacing, "--phi", f"table:file={table}",
                    "--output", str(out)]) == code
    if orlicz is not None:
        assert read_json(out)["report"]["orlicz"] == orlicz
    assert "Traceback" not in capsys.readouterr().err


def test_norms_with_the_section5_pair(tmp_path):
    # the paired weight's head integral converges, though its leading power is 1/t
    out = tmp_path / "n.json"
    assert run_cli(["norms", "--fixture", "staircase", "--phi", "section5:alpha=0.1",
                    "--psi", "section5:alpha=0.1", "--output", str(out)]) == 0
    besov = read_json(out)["report"]["besov"]
    assert math.isfinite(besov["seminorm_part"]) and besov["seminorm_part"] > 0


def test_necessity_with_a_table_paired_weight_diverges_at_its_tail(tmp_path, capsys):
    # the table clamps inv past its last knot, so Psi(t) = t / inv(t^2)
    # grows like t past it and the saturated tail diverges
    table = tmp_path / "phi13.csv"
    table.write_text("".join(f"{float(t)!r},{float(t) ** 1.3!r}\n"
                             for t in np.geomspace(1e-6, 1e6, 61)))
    phi = f"table:file={table}"
    assert run_cli(["necessity", "--phi", phi, "--psi", f"paired:phi={phi}"]) == 3
    assert "seminorm tail integral diverges" in capsys.readouterr().err


@pytest.mark.parametrize("env, argv", [
    ({"BOL_DIM": "abc"}, ["check-condition"]),
    ({}, ["lemma6", "--dim", "3", "--samples", "0"]),
    ({}, ["check-condition", "--dim", "0"]),
    ({}, ["necessity", "--dim", "-1"]),
    ({}, ["norms", "--fixture", "staircase", "--phi", "power:p=1.3",
          "--psi", "powerweight:theta=0.5385", "--nodes", "0"]),
    ({}, ["necessity", "--radii", "inf"]),
    ({}, ["necessity", "--radii", ""]),
    ({}, ["necessity", "--radii", "nan"]),
    ({}, ["example5", "--x-span", "nan"]),
    ({}, ["check-condition", "--head-lower-limit", "-1"]),
    ({}, ["check-condition", "--head-lower-limit", "nan"]),
    ({}, ["norms", "--fixture", "staircase", "--phi", "table:file=/nonexistent/phi.csv"]),
    ({}, ["check-condition", "--points", "x"]),
    ({}, ["lemma6", "--dim", "1000000000000000", "--samples", "10"]),
    # output paths that cannot be written
    ({}, ["example5", "--s-multiples", "10", "--output", "/nonexistent/x.json"]),
    ({}, ["check-condition", "--points", "16", "--csv", "/nonexistent/x.csv"]),
    ({}, ["decompose", "--fixture", "staircase", "--outdir", "/dev/null/sub"]),
    ({}, ["norms", "--fixture", "staircase", "--output", "/"]),
    # the second offset is rejected before the first one's draw
    ({}, ["lemma6", "--dim", "3", "--offsets", "0.5,1.5"]),
    # radii whose seminorm window [1e-8, 2r] is empty, or whose volume at
    # its head underflows (d = 341 at r = 1/8)
    ({}, ["necessity", "--dim", "3", "--radii", "1,1e-60"]),
    ({}, ["necessity", "--dim", "3", "--radii", "1,4e-9"]),
    ({}, ["necessity", "--dim", "3", "--radii", "1,1e-170"]),
    ({}, ["necessity", "--dim", "341"]),
    # r^d overflows, or r is not finite
    ({}, ["lemma6", "--dim", "2", "--r", "1e200", "--offsets", "1e199"]),
    ({}, ["lemma6", "--r", "inf", "--offsets", "1"]),
    ({}, ["check-condition", "--head-lower-limit", "0"]),
])
def test_bad_parameters_exit_3(env, argv, monkeypatch, capsys):
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    assert run_cli(argv) == 3
    assert "error:" in capsys.readouterr().err


# numeric flags of five commands, each after the flags its command needs; the
# large value is one whose allocation numpy refuses outright (never a real one)
_FUZZ_FLAGS = [
    (["check-condition", "--points", "16"], ["--dim", "--smin", "--smax", "--points",
                                             "--head-lower-limit"]),
    (["necessity"], ["--dim", "--radii"]),
    (["example5"], ["--alpha", "--x-span", "--s-multiples"]),
    (["norms", "--fixture", "staircase", "--phi", "power:p=1.3",
      "--psi", "powerweight:theta=0.5385"], ["--tmin", "--tmax", "--nodes", "--spacing", "--dim"]),
    (["sobolev"], ["--dim", "--n"]),
]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([(base, flag) for base, flags in _FUZZ_FLAGS for flag in flags]),
       value=st.sampled_from(["nan", "inf", "-1", "0", "", "x", "1e308", "1000000000000000"]))
def test_numeric_flag_values_map_to_exit_codes(case, value):
    base, flag = case
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(base + [flag, value])
    assert code in (0, 1, 3, 4, 5)


# input file name -> (file text or None for a missing file, extra norms flags)
BAD_GRID_INPUTS = {
    "shape_not_int.csv": ("1,2\n3,4\n", ["--dim", "2", "--shape", "2,x"]),
    "shape_wrong_count.csv": ("1,2\n3,4\n", ["--dim", "2", "--shape", "2,3"]),
    "cell_not_number.csv": ("1,abc\n3,4\n", ["--dim", "2", "--shape", "2,2"]),
    "missing.csv": (None, ["--dim", "1"]),
    "missing.grid": (None, []),
    "header_not_json.grid": ("{shape: [2]}\n1.0\n2.0\n", []),
    "header_without_spacing.grid": ('{"dim": 1, "origin": [0.0], "shape": [2]}\n1.0\n2.0\n', []),
    "header_wrong_types.grid": ('{"origin": [0.0], "shape": ["a"], "spacing": "x"}\n1.0\n', []),
    "two_values_on_a_line.grid": ('{"dim": 1, "origin": [0.0], "shape": [2], "spacing": 1.0}\n'
                                  "1.0 2.0\n", []),
    "value_not_number.grid": ('{"dim": 1, "origin": [0.0], "shape": [2], "spacing": 1.0}\n'
                              "1.0\nabc\n", []),
    # float() reads 1_0 as 10.0; a grid file holds plain numbers only
    "value_with_underscore.grid": ('{"dim": 1, "origin": [0.0], "shape": [2], "spacing": 1.0}\n'
                                   "1_0\n2.0\n", []),
    "cell_volume_past_float_range.csv": ("1,2,3\n4,5,6\n7,8,9\n",
                                         ["--dim", "2", "--shape", "3,3", "--spacing", "1e200",
                                          "--phi", "power:p=1.3"]),
}


@pytest.mark.parametrize("name", list(BAD_GRID_INPUTS))
def test_bad_grid_input_exits_3(tmp_path, capsys, name):
    text, extra = BAD_GRID_INPUTS[name]
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert run_cli(["norms", "--input", str(path)] + extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("source, flags, dim_default, code", [
    ("fixture", ["--spacing", "-1"], None, 4),
    ("fixture", ["--dim", "-1"], None, 4),
    ("fixture", ["--shape", "2,3"], None, 4),
    ("grid", ["--spacing", "0.5"], None, 4),
    ("grid", ["--dim", "2"], None, 4),
    ("grid", ["--shape", "2,2"], None, 4),
    ("csv", ["--dim", "2", "--shape", "2,2", "--spacing", "0.5"], None, 0),
    # BOL_DIM and the config key dim give a default, not a flag
    ("fixture", [], "env", 0),
    ("grid", [], "env", 0),
    ("grid", [], "config", 0),
])
@pytest.mark.parametrize("command", ["norms", "decompose"])
def test_source_flags_apply_only_to_raw_csv(command, source, flags, dim_default, code, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if dim_default == "env":
        monkeypatch.setenv("BOL_DIM", "3")
    (tmp_path / "cfg.json").write_text(json.dumps({"dim": 3}))
    (tmp_path / "f.csv").write_text("1,2\n3,4\n")
    save_grid_function(GridFunction(0.5, (0.0, 0.0), np.array([[1.0, 2.0], [0.0, 1.0]])),
                       str(tmp_path / "f.grid"))
    where = {"fixture": ["--fixture", "staircase"], "grid": ["--input", "f.grid"],
             "csv": ["--input", "f.csv"]}[source]
    config = ["--config", "cfg.json"] if dim_default == "config" else []
    assert run_cli(config + [command] + where + flags) == code
    err = capsys.readouterr().err
    assert ("apply only to raw csv input" in err) == (code == 4)
