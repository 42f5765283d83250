"""Scenario orchestration: configs, tables, CSV round trips, presets."""

import json
import os

import numpy as np
import pytest
from csvfile import assert_reads_back, read_csv

from kzring import dia as dia_mod
from kzring import para as para_mod
from kzring.config import ScenarioConfig
from kzring.errors import ConfigError
from kzring.runner import (
    emit_plot_script,
    oracle_report,
    preset_config,
    reference_dia_config,
    run_preset,
    run_scenario,
    write_outputs,
)
from kzring.sampler import (
    DomainEnsemble,
    equilibrium_magnetization,
    sample_initial_directions,
)
from kzring.scaling import domain_partition, field_at, freeze_out_time
from kzring.scs import ScsDirection
from kzring.tables import DataTable, emit_csv

QUICK = dict(t_points=21)  # keep module-level runs snappy


def test_config_defaults_round_trip_json():
    cfg = ScenarioConfig()
    back = ScenarioConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_rejects_unknown_keys_and_bad_grids():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json('{"not_a_field": 1}')
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json("[1, 2]")
    with pytest.raises(ConfigError):
        ScenarioConfig(t_points=1)
    with pytest.raises(ConfigError):
        ScenarioConfig(mode="nope")
    with pytest.raises(ConfigError):
        ScenarioConfig(realizations=0)
    for t_stop in (0.5, 0.4):
        with pytest.raises(ConfigError, match="t_stop > t_start"):
            ScenarioConfig(t_start=0.5, t_stop=t_stop)
    with pytest.raises(ConfigError, match="t_start must be >= 0"):
        ScenarioConfig(t_start=-1.0)


@pytest.mark.parametrize(
    "fields",
    [
        {"t_points": 2.5},
        {"realizations": 2.0},
        {"n": 120.0},
        {"n_ref": 14.5},
        {"g_sweep_points": 50.0},
        {"seed": True},
        {"seed": -1},
    ],
)
def test_config_rejects_non_integer_counts_and_negative_seeds(fields):
    (name,) = fields
    with pytest.raises(ConfigError, match=name):
        ScenarioConfig.from_json(json.dumps(fields))


@pytest.mark.parametrize(
    "text",
    [
        '{"g": "0.1"}',
        '{"g": true}',
        '{"h_para": null}',
        '{"mz_field_scale": NaN}',
        '{"g_max": -Infinity}',
        '{"t_stop": 1e400}',
        '{"v": 1' + "0" * 400 + "}",
    ],
)
def test_config_rejects_non_numeric_and_non_finite_floats(text):
    (name,) = json.loads(text)
    with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
        ScenarioConfig.from_json(text)


@pytest.mark.parametrize(
    "text",
    ['{"ensemble_json": 5}', '{"ensemble_json": true}', '{"ensemble_json": ["a"]}', '{"out": 7}'],
)
def test_config_rejects_non_string_paths(text):
    (name,) = json.loads(text)
    with pytest.raises(ConfigError, match=f"{name} must be a string or null, got"):
        ScenarioConfig.from_json(text, mode="dia")


def test_config_keeps_integer_valued_floats_as_given():
    cfg = ScenarioConfig.from_json('{"hc": 1, "t_start": 0}')
    assert (cfg.hc, cfg.t_start) == (1, 0)
    assert '"hc": 1,' in cfg.to_json()


@pytest.mark.parametrize("label", ["../escaped", "sub/x", ".", "..", os.sep + "x", 3])
def test_config_rejects_labels_that_leave_the_output_directory(label):
    with pytest.raises(ConfigError, match="label"):
        ScenarioConfig(mode="para", label=label)


def test_preset_labels_stay_valid():
    labels = [cfg.label for name in ("fig3", "fig4", "fig5") for cfg in preset_config(name)]
    assert labels == ["fig3", "v0.0006", "v0.0022", "v0.02", "fig5"]
    assert ScenarioConfig(label="..x").label == "..x"


def test_config_mode_mismatch_is_an_error():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json('{"mode": "para"}', mode="dia")
    cfg = ScenarioConfig.from_json('{"mode": "para"}', mode="para")
    assert cfg.mode == "para"


def test_para_run_shape_and_boundaries():
    res = run_scenario(ScenarioConfig(mode="para", **QUICK))
    table = res.tables["para"]
    assert table.columns == ("t_elapsed", "concurrence", "branch_overlap_modulus", "h_t")
    t = table.column("t_elapsed")
    assert len(t) == 21
    assert t[0] == 0.0 and t[-1] == 1.0
    assert table.column("concurrence")[0] == pytest.approx(1.0, abs=1e-12)
    assert res.ensembles == {}


def test_dia_run_records_derived_quantities():
    res = run_scenario(ScenarioConfig(mode="dia", **QUICK))
    table = res.tables["dia"]
    assert table.metadata["xi_d"] == "60"
    assert table.metadata["n_d"] == "2"
    assert float(table.metadata["t_bar"]) == pytest.approx(-12.200846792814605)
    assert float(table.metadata["t0"]) == pytest.approx(-0.2008467928, abs=1e-9)
    assert "dia" in res.ensembles
    h = table.column("h_t")
    assert np.all(np.diff(h) < 0)  # field keeps decreasing across the span


def test_compare_run_produces_difference_table():
    res = run_scenario(ScenarioConfig(mode="compare", **QUICK))
    assert set(res.tables) == {"para", "dia", "difference"}
    d = res.tables["difference"].column("difference")
    manual = (res.tables["dia"].column("concurrence")
              - res.tables["para"].column("concurrence"))
    assert np.allclose(d, manual, atol=1e-15)


def test_multiple_realizations_average_and_bracket():
    res = run_scenario(ScenarioConfig(mode="dia", realizations=3, **QUICK))
    table = res.tables["dia"]
    lo = table.column("concurrence_min")
    hi = table.column("concurrence_max")
    mean = table.column("concurrence")
    assert np.all(lo <= mean + 1e-15) and np.all(mean <= hi + 1e-15)
    assert np.any(lo < hi)  # realizations actually differ
    assert set(res.ensembles) == {"dia", "dia_r1", "dia_r2"}
    assert res.ensembles["dia_r1"].realization == 1


def test_three_realizations_are_three_single_runs(tmp_path):
    """Realization r is the sampler's stream r; the columns reduce its traces."""
    cfg = ScenarioConfig(mode="dia", realizations=3, **QUICK)
    res = run_scenario(cfg)
    write_outputs(res, "multi", "dia", str(tmp_path))
    schedule = cfg.schedule()
    n_d = domain_partition(cfg.n, schedule).n_d
    t_bar = freeze_out_time(schedule)
    scale = cfg.mz_field_scale
    m0 = equilibrium_magnetization(field_at(schedule, t_bar + cfg.t0_offset) * scale)
    md = equilibrium_magnetization(field_at(schedule, t_bar) * scale)
    traces = []
    for r, key in enumerate(("dia", "dia_r1", "dia_r2")):
        path = tmp_path / f"multi_{key}_ensemble.json"
        written = DomainEnsemble.from_json(path.read_text())
        assert written == sample_initial_directions(n_d, m0, md, cfg.seed, realization=r)
        single = run_scenario(ScenarioConfig(mode="dia", ensemble_json=str(path), **QUICK))
        traces.append(single.tables["dia"].column("concurrence"))
    by_time = np.stack(traces, axis=1)
    table = res.tables["dia"]
    assert np.array_equal(table.column("concurrence_min"), by_time.min(axis=1))
    assert np.array_equal(table.column("concurrence"), by_time.mean(axis=1))
    assert np.array_equal(table.column("concurrence_max"), by_time.max(axis=1))


# A para ring of 2e5 spins at h = 2, and the fig4 fast quench on a ring of
# 3e4 spins: both traces fall through the subnormal doubles, below 2.2e-308.
@pytest.mark.parametrize(
    "cfg",
    [
        ScenarioConfig(mode="para", n=200000, g=0.05, h_para=2.0, t_points=2001, t_stop=3.0),
        ScenarioConfig(mode="dia", n=30000, v=2e-2, h0=1.09, t0_offset=0.5, t_points=201),
    ],
    ids=["para", "dia"],
)
def test_no_written_concurrence_is_subnormal(cfg, tmp_path):
    write_outputs(run_scenario(cfg), "tiny", cfg.mode, str(tmp_path))
    _, names, columns = read_csv(tmp_path / f"tiny_{cfg.mode}.csv")
    concurrence = columns[names.index("concurrence")]
    assert (concurrence == 0).any()
    for name, column in zip(names, columns):
        assert not ((column != 0) & (np.abs(column) < np.finfo(float).tiny)).any(), name


def test_replay_conflicts_with_multiple_realizations(tmp_path):
    res = run_scenario(ScenarioConfig(mode="dia", **QUICK))
    ens_path = tmp_path / "ens.json"
    ens_path.write_text(res.ensembles["dia"].to_json())
    with pytest.raises(ConfigError):
        ScenarioConfig(
            mode="dia", ensemble_json=str(ens_path), realizations=2, **QUICK
        )


def test_default_sweep_respects_its_own_guards():
    # a bare sweep-g config must be runnable without touching the guards
    cfg = ScenarioConfig(mode="sweep-g", g_sweep_points=3, t_points=3)
    assert cfg.g_sweep_max <= cfg.g_max
    run_scenario(cfg)
    with pytest.raises(ConfigError):
        ScenarioConfig(mode="sweep-g", g_sweep_max=0.4)


def test_sweep_detuning_guard_names_the_first_failing_coupling():
    # h stays near 1.01 over the default trace, so g_to_h_max = 0.25 admits
    # g up to about 0.252: every coupling of this sweep fails the guard
    cfg = ScenarioConfig(
        mode="sweep-g", g_sweep_min=0.26, g_sweep_max=0.3, g_max=0.3,
        g_sweep_points=3, t_points=3,
    )
    with pytest.raises(ConfigError, match=r"detuning guard: g=0\.26 .* at trace end"):
        run_scenario(cfg)


def test_sweep_rejects_multiple_realizations():
    # a sweep evaluates one domain realization; more would be silently dropped
    with pytest.raises(ConfigError, match="realizations"):
        ScenarioConfig(mode="sweep-g", realizations=3)
    with pytest.raises(ConfigError, match="realizations"):
        run_preset("fig5", realizations=3)


@pytest.mark.parametrize("module", [dia_mod, para_mod], ids=["dia", "para"])
def test_sweep_table_checks_the_unit_interval(monkeypatch, module):
    def out_of_range(configs, t):
        return np.full((len(configs), len(t)), 1.5)

    monkeypatch.setattr(module, "concurrences", out_of_range)
    cfg = ScenarioConfig(mode="sweep-g", g_sweep_points=3, t_points=4)
    column = "concurrence_dia" if module is dia_mod else "concurrence_para"
    with pytest.raises(ValueError, match=f"{column} leaves"):
        run_scenario(cfg)


def _fig5_window(h_para):
    """Criterion 4's two readings on fig5 with only h_para changed: the least
    difference over g in [0.05, 0.2], t in [0, 1], and the g of the largest."""
    table = run_preset("fig5", h_para=h_para).tables["sweep"]
    g, t, diff = (table.column(name) for name in ("g", "t_elapsed", "difference"))
    box = (g >= 0.05) & (g <= 0.2) & (t >= 0.0) & (t <= 1.0)
    return float(np.min(diff[box])), float(g[np.argmax(diff)])


def test_criterion_4_sign_turns_on_the_paramagnetic_field():
    # To second order in g the window's sign is that of
    # sin^2(t h/2)/h^2 - A(t) sin^2(t h_t/2)/h_t^2, whose sides cross at
    # h_para ~ 2.77; the argmax sits on the plateau above g = 0.25 either way.
    low, g_low = _fig5_window(2.5)
    high, g_high = _fig5_window(3.0)
    assert low >= 0.0
    assert high < 0.0
    assert g_low == g_high == pytest.approx(0.2714, abs=1e-4)


def test_criterion_4_follows_its_second_order_predictor():
    # ln(1 - x) ~ -x turns both closed forms into Gaussians in g:
    # E_para = (N/2)(4g/h)^2 sin^2(th/2) and
    # E_dia = (N/2)(4g/h_t)^2 sin^2(t h_t/2) A(t), with
    # A(t) = mean_d[1 - sin^2 theta_d sin^2(phi_d - phi_f)], phi_f = t h_t/2 + pi/2.
    # exp(-E_dia) - exp(-E_para) is then the whole fig5 difference table.
    (cfg,) = preset_config("fig5")
    res = run_preset("fig5")
    table = res.tables["sweep"]
    g, t, diff = (table.column(name) for name in ("g", "t_elapsed", "difference"))
    schedule = cfg.schedule()
    h_t = field_at(schedule, freeze_out_time(schedule) + cfg.t0_offset + t)
    ens = res.ensembles["sweep"]
    theta, phi = np.array(ens.theta)[:, None], np.array(ens.phi)[:, None]
    phi_f = t * h_t / 2 + np.pi / 2
    tilt = np.mean(1.0 - np.sin(theta) ** 2 * np.sin(phi - phi_f) ** 2, axis=0)
    e_para = cfg.n / 2 * (4 * g / cfg.h_para) ** 2 * np.sin(t * cfg.h_para / 2) ** 2
    e_dia = cfg.n / 2 * (4 * g / h_t) ** 2 * np.sin(t * h_t / 2) ** 2 * tilt
    predicted = np.exp(-e_dia) - np.exp(-e_para)
    assert np.max(np.abs(predicted - diff)) <= 1e-3
    clear = np.abs(diff) > 1e-3
    assert np.array_equal(np.sign(predicted[clear]), np.sign(diff[clear]))


def test_sweep_run_is_g_major():
    cfg = ScenarioConfig(
        mode="sweep-g", g_sweep_min=0.05, g_sweep_max=0.1, g_sweep_points=3,
        t_points=4,
    )
    res = run_scenario(cfg)
    table = res.tables["sweep"]
    g = table.column("g")
    assert len(g) == 12
    assert list(g[:4]) == [pytest.approx(0.05)] * 4
    diff = table.column("difference")
    manual = table.column("concurrence_dia") - table.column("concurrence_para")
    assert np.allclose(diff, manual, atol=1e-15)


def test_runs_are_deterministic(tmp_path):
    cfg = ScenarioConfig(mode="dia", **QUICK)
    paths = []
    for name in ("a.csv", "b.csv"):
        res = run_scenario(cfg)
        p = tmp_path / name
        emit_csv(res.tables["dia"], str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_round_trip(tmp_path):
    res = run_scenario(ScenarioConfig(mode="para", **QUICK))
    path = tmp_path / "para.csv"
    emit_csv(res.tables["para"], str(path))
    assert_reads_back(path, res.tables["para"])
    text = path.read_text()
    assert text.startswith("# generator = kzring")
    assert "\r" not in text


def test_table_rejects_ragged_rows_and_bad_traces(tmp_path):
    bad = [
        (("a", "b"), ([1.0, 2.0], [1.0])),  # unequal lengths
        (("a", "b"), (np.zeros(2), ("x",))),
        (("a", "b"), ([1.0],)),  # more names than columns
        (("a",), ([1.0], [2.0])),  # more columns than names
        (("a",), (("x", 1.5),)),  # a number in a string column
        (("a",), (("has,comma",),)),
        (("a",), (("two\nlines",),)),
    ]
    path = tmp_path / "bad.csv"
    for names, data in bad:
        with pytest.raises(ValueError):
            emit_csv(DataTable(names, data), str(path))
        assert not path.exists()


def test_empty_table_emits_header_and_metadata_only(tmp_path):
    path = tmp_path / "empty.csv"
    table = DataTable(("x", "y"), ([], []), {"note": "none"})
    emit_csv(table, str(path))
    lines = path.read_text().splitlines()
    assert lines == ["# note = none", "x,y"]
    assert_reads_back(path, table)
    _, names, columns = read_csv(path)
    assert names == ("x", "y")
    assert [len(c) for c in columns] == [0, 0]


def test_ensemble_replay_reproduces_the_trace(tmp_path):
    cfg = ScenarioConfig(mode="dia", **QUICK)
    res = run_scenario(cfg)
    ens_path = tmp_path / "ens.json"
    ens_path.write_text(res.ensembles["dia"].to_json())
    replay_cfg = ScenarioConfig(mode="dia", ensemble_json=str(ens_path), **QUICK)
    replay = run_scenario(replay_cfg)
    a = res.tables["dia"].column("concurrence")
    b = replay.tables["dia"].column("concurrence")
    assert np.array_equal(a, b)


def test_only_a_replay_builds_scs_directions(tmp_path, monkeypatch):
    """The sampler and the closed forms work on angle tuples; ScsDirection
    canonicalizes replayed angles only."""
    built = []
    original = ScsDirection.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ScsDirection, "__post_init__", counting)
    run_scenario(ScenarioConfig(mode="dia", realizations=3, **QUICK))
    run_scenario(ScenarioConfig(mode="compare", **QUICK))
    sweep = run_scenario(ScenarioConfig(mode="sweep-g", g_sweep_points=5, **QUICK))
    assert built == []
    ens_path = tmp_path / "ens.json"
    ens_path.write_text(sweep.ensembles["sweep"].to_json())
    run_scenario(ScenarioConfig(mode="dia", ensemble_json=str(ens_path), **QUICK))
    assert len(built) == len(sweep.ensembles["sweep"].theta)


@pytest.mark.parametrize(
    "text", ['{"directions": [[1, 0]]}', "not json"], ids=["no-seed", "not-json"]
)
def test_replay_of_a_malformed_ensemble_file_is_a_config_error(tmp_path, text):
    ens_path = tmp_path / "ens.json"
    ens_path.write_text(text)
    cfg = ScenarioConfig(mode="dia", ensemble_json=str(ens_path), **QUICK)
    with pytest.raises(ConfigError, match=f"ensemble file {ens_path} is not a saved"):
        run_scenario(cfg)


def test_replay_rejects_wrong_domain_count(tmp_path):
    res = run_scenario(ScenarioConfig(mode="dia", **QUICK))
    ens_path = tmp_path / "ens.json"
    ens_path.write_text(res.ensembles["dia"].to_json())
    bad = ScenarioConfig(
        mode="dia", v=2e-2, h0=1.09, t0_offset=0.5,
        ensemble_json=str(ens_path), **QUICK,
    )
    with pytest.raises(ConfigError):
        run_scenario(bad)


def test_presets_are_well_formed():
    assert len(preset_config("fig3")) == 1
    fig4 = preset_config("fig4")
    assert [c.v for c in fig4] == [6e-4, 2.2e-3, 2e-2]
    assert all(c.mode == "dia" for c in fig4)
    fig5 = preset_config("fig5")[0]
    assert fig5.n == 1000 and fig5.h_para == 5.0
    with pytest.raises(ConfigError):
        preset_config("fig6")


def test_preset_runner_merges_labeled_tables():
    res = run_preset("fig4", t_points=5)
    assert set(res.tables) == {"v0.0006_dia", "v0.0022_dia", "v0.02_dia"}
    assert set(res.ensembles) == set(res.tables)


def test_oracle_report_passes_everywhere():
    table = oracle_report()
    verdicts = dict(zip(table.column("check"), table.column("verdict")))
    assert set(verdicts) == {
        "closed_form_para", "closed_form_dia", "scs_cross_check",
        "overlap_dicke_vs_half_angle",
    }
    assert all(v == "pass" for v in verdicts.values())


def test_reference_config_is_the_two_domain_ring():
    cfg = reference_dia_config()
    assert cfg.partition.n_d == 2
    assert cfg.partition.s_d == 5.0
    assert cfg.n == 20


def test_plot_scripts_reference_their_csvs(tmp_path):
    res = run_scenario(ScenarioConfig(mode="compare", **QUICK))
    emit_plot_script(sorted(res.tables), "fig3", "compare", str(tmp_path / "fig3.gp"))
    text = (tmp_path / "fig3.gp").read_text()
    assert "fig3_para.csv" in text and "fig3_dia.csv" in text
    assert "set datafile separator ','" in text
    assert str(tmp_path) not in text  # relative paths only


def test_plot_script_doubles_quotes_inside_gnuplot_strings(tmp_path):
    path = tmp_path / "a'b.gp"
    emit_plot_script(["para"], "a'b", "para", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# gnuplot script for the 'a''b' run (mode: para)"
    assert lines[-1] == "plot 'a''b_para.csv' using 1:2 with lines lw 2 title 'para'"


@pytest.mark.parametrize("label", ["a\nb", "a\rb", "tab\tlabel", "nul\x00", "del\x7f"])
def test_label_with_a_control_character_is_rejected(label):
    with pytest.raises(ConfigError, match="label"):
        ScenarioConfig(label=label)


def test_metadata_embeds_the_full_config():
    res = run_scenario(ScenarioConfig(mode="para", label="x", **QUICK))
    embedded = json.loads(res.tables["para"].metadata["config"])
    assert embedded["label"] == "x"
    assert embedded["mode"] == "para"
    assert embedded["t_points"] == 21
