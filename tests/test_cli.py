import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bol
from bol.cli import main
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


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for cfg_values in ({"bogus": 1}, {"jobs": 2}, {"output": str(tmp_path / "o.json")},
                       {"spacing": 0.5}):
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


@pytest.mark.parametrize("env, argv", [
    ({"BOL_DIM": "abc"}, ["check-condition"]),
    ({}, ["lemma6", "--dim", "3", "--samples", "0"]),
    ({}, ["check-condition", "--dim", "0"]),
    ({}, ["necessity", "--dim", "-1"]),
])
def test_bad_parameters_exit_3(env, argv, monkeypatch, capsys):
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    assert run_cli(argv) == 3
    assert "error:" in capsys.readouterr().err
