"""End-to-end command-line checks, mostly at subprocess level."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kzring
import kzring.cli
import kzring.runner
from kzring.tables import DataTable

QUICK_CONFIG = {"t_points": 11}

# The directory this process imported kzring from (src/ or site-packages),
# so that the child runs the same code whatever the working directory.
KZRING_ROOT = str(Path(kzring.__file__).resolve().parent.parent)


def run_cli(args, cwd, env_extra=None):
    """Run `python -m kzring.cli` in cwd with the kzring under test.

    The child's PYTHONPATH starts with the absolute directory kzring was
    imported from, ahead of any inherited entries; an inherited KZRING_OUT
    is dropped so only env_extra can set it.
    """
    env = dict(os.environ)
    env.pop("KZRING_OUT", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = KZRING_ROOT + (os.pathsep + rest if rest else "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kzring.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def write_config(tmp_path, name, **fields):
    data = dict(QUICK_CONFIG)
    data.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_para_subcommand_writes_tables(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    proc = run_cli(["para", "--config", cfg, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "para_para.csv").exists()
    assert (tmp_path / "out" / "para.gp").exists()
    listed = [line for line in proc.stdout.splitlines() if line.endswith(".csv")]
    assert listed


def test_dia_subcommand_emits_ensemble(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    proc = run_cli(["dia", "--config", cfg, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    ens = tmp_path / "out" / "dia_dia_ensemble.json"
    assert ens.exists()
    data = json.loads(ens.read_text())
    assert len(data["directions"]) == 2


def test_seed_override_changes_the_ensemble(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    for seed, out in ((1, "a"), (2, "b")):
        proc = run_cli(
            ["dia", "--config", cfg, "--seed", str(seed), "--out", out],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "a" / "dia_dia_ensemble.json").read_text()
    b = (tmp_path / "b" / "dia_dia_ensemble.json").read_text()
    assert a != b


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    for out in ("a", "b"):
        proc = run_cli(["compare", "--config", cfg, "--out", out], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    for name in ("compare_para.csv", "compare_dia.csv", "compare_difference.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_env_var_sets_the_output_directory(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    proc = run_cli(
        ["para", "--config", cfg], cwd=tmp_path,
        env_extra={"KZRING_OUT": "envout"},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "envout" / "para_para.csv").exists()


def test_unknown_config_key_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"no_such_field": 3}')
    proc = run_cli(["para", "--config", str(path), "--out", "x"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "no_such_field" in proc.stderr


def test_invalid_physics_exits_two(tmp_path):
    cfg = write_config(tmp_path, "bad.json", g=0.9)
    proc = run_cli(["para", "--config", cfg, "--out", "x"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.parametrize("fields", [{"v": 0}, {"n": 7}], ids=["static-field", "no-divisor"])
def test_no_frozen_domain_picture_exits_two(tmp_path, fields):
    cfg = write_config(tmp_path, "bad.json", **fields)
    proc = run_cli(["dia", "--config", cfg, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


# A ramp so slow, or a reaction time so short, that the freeze-out instant
# rounds onto the critical point: the correlation length diverges there.
@pytest.mark.parametrize("command", ["dia", "sweep-g"])
@pytest.mark.parametrize("fields", [{"v": 1e-300}, {"tau0": 1e-300}], ids=["v", "tau0"])
def test_a_config_at_the_critical_point_exits_two(tmp_path, command, fields):
    cfg = write_config(tmp_path, "bad.json", **fields)
    proc = run_cli([command, "--config", cfg, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "error: correlation length diverges at eps = 0\n"
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


# The fig4 fast quench (h(t0) = 1.09, v = 0.02): a trace from t = 2.5 to 5
# ends below the critical field, and one from 2.0 to 4.4 drifts by
# v * t = 0.088, past the 0.05 frozen-window bound, though its span is 2.4.
FAST_QUENCH = {"v": 0.02, "h0": 1.09, "t0_offset": 0.5}
OUTSIDE_THE_WINDOW = {
    "late-start": dict(FAST_QUENCH, t_start=2.5, t_stop=5.0, t_points=6),
    "drift-only": dict(FAST_QUENCH, t_start=2.0, t_stop=4.4, t_points=6),
    "negative-start": dict(FAST_QUENCH, t_start=-1.0, t_points=5),
}


@pytest.mark.parametrize("mode", ["dia", "compare", "sweep-g"])
@pytest.mark.parametrize("case", sorted(OUTSIDE_THE_WINDOW))
def test_trace_outside_the_frozen_window_exits_two(tmp_path, case, mode):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(OUTSIDE_THE_WINDOW[case]))
    proc = run_cli([mode, "--config", str(path), "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize(
    "fields",
    [{"t_points": 2.5}, {"realizations": 2.0}, {"n": 120.0}, {"seed": -1}, {"n_ref": 14.5}],
)
def test_non_integer_count_exits_two(tmp_path, fields):
    cfg = write_config(tmp_path, "bad.json", **fields)
    proc = run_cli(["dia", "--config", cfg, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and next(iter(fields)) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "mode, text",
    [
        ("para", '{"g": "0.1"}'),
        ("dia", '{"g": true}'),
        ("dia", '{"mz_field_scale": NaN}'),
        ("para", '{"t_stop": 1e400}'),
        ("para", '{"h_para": NaN}'),
        ("compare", '{"t_stop": 0}'),
        ("sweep-g", '{"t_stop": 0}'),
        ("para", '{"t_start": -1.0}'),
    ],
)
def test_non_finite_or_non_numeric_float_exits_two(tmp_path, mode, text):
    (name,) = json.loads(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    proc = run_cli([mode, "--config", str(path), "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and name in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize(
    "text",
    ['{"ensemble_json": 5}', '{"ensemble_json": true}', '{"ensemble_json": ["a"]}', '{"out": 7}'],
)
def test_non_string_path_exits_two(tmp_path, text):
    (name,) = json.loads(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    proc = run_cli(["dia", "--config", str(path), "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and name in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize(
    "text", ['{"directions": [[1, 0]]}', "not json"], ids=["no-seed", "not-json"]
)
def test_malformed_replayed_ensemble_exits_two(tmp_path, text):
    (tmp_path / "ens.json").write_text(text)
    cfg = write_config(tmp_path, "c.json", ensemble_json="ens.json")
    proc = run_cli(["dia", "--config", cfg, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "ens.json" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "ens.json"]


@pytest.mark.parametrize(
    "args", [["sweep-g"], ["preset", "fig5"]], ids=["sweep-g", "preset-fig5"]
)
def test_sweep_with_several_realizations_exits_two(tmp_path, args):
    proc = run_cli([*args, "--realizations", "3", "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "realizations" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("label", ["../escaped", "sub/x", ".", ".."])
def test_label_outside_the_output_directory_exits_two(tmp_path, label):
    cfg = write_config(tmp_path, "c.json", label=label)
    proc = run_cli(["para", "--config", cfg, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "label" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_label_with_a_newline_exits_two(tmp_path):
    cfg = write_config(tmp_path, "c.json", label="x\nreplot")
    proc = run_cli(["para", "--config", cfg, "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "label" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_unwritable_output_exits_one(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    proc = run_cli(
        ["para", "--config", cfg, "--out", "/proc/nowhere/sub"], cwd=tmp_path
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_preset_name_exits_two(tmp_path):
    proc = run_cli(["preset", "fig9"], cwd=tmp_path)
    assert proc.returncode == 2


def test_oracle_check_passes_and_prints_verdicts(tmp_path):
    proc = run_cli(["oracle-check", "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("pass") >= 4
    assert (tmp_path / "out" / "oracle-check_oracle.csv").exists()
    checks = [
        "closed_form_para", "closed_form_dia", "scs_cross_check", "overlap_dicke_vs_half_angle",
    ]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 + len(checks)
    for name, line in zip(checks, lines[1:]):
        assert re.fullmatch(rf"{name}: deviation \d\.\d{{3}}e-\d\d \(tolerance 1e-10\) pass", line)


def test_a_failing_oracle_check_prints_fail_and_exits_one(tmp_path, monkeypatch, capsys):
    table = DataTable(
        ("check", "max_deviation", "tolerance", "verdict"),
        (("closed_form_dia",), [2.5e-9], [1e-10], ("FAIL",)),
    )
    monkeypatch.setattr(kzring.runner, "oracle_report", lambda cfg=None: table)
    assert kzring.cli.main(["oracle-check", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        str(tmp_path / "oracle-check_oracle.csv"),
        "closed_form_dia: deviation 2.500e-09 (tolerance 1e-10) FAIL",
    ]
