"""Batched closed forms: array calls, scalar calls and the one-line formulas.

The runtime kernels replay the per-point rotation arithmetic over whole time
grids.  Two independent checks pin them: an array call must return exactly
the scalar calls, and the result must agree with the closed forms written
as one-line trigonometric formulas, whose different arithmetic leaves
differences of a few ulps of the unit interval.
"""

import numpy as np
import pytest

from kzring import dia, para
from kzring.dia import DiaConfig
from kzring.runner import preset_config, reference_dia_config, run_preset, run_scenario
from kzring.scaling import domain_partition, field_at, freeze_out_time

ONE_LINER_ATOL = 1e-12


def para_one_liner(n, g, h, t):
    """|cos((4g/h) sin(t h/2))|^N."""
    return np.abs(np.cos((4.0 * g / h) * np.sin(t * h / 2.0))) ** n


def dia_one_liner(ensemble, s_d, g, h_t, t):
    """prod_d [1 - sin^2(theta_f) (1 - sin^2(theta_d) sin^2(phi_d - phi_f))]^S_d."""
    theta_f = (4.0 * g / h_t) * np.abs(np.sin(t * h_t / 2.0))
    phi_f = t * h_t / 2.0 + np.pi / 2.0
    out = np.ones_like(t)
    for d in ensemble.directions:
        tilt = 1.0 - np.sin(d.theta) ** 2 * np.sin(d.phi - phi_f) ** 2
        out *= (1.0 - np.sin(theta_f) ** 2 * tilt) ** s_d
    return out


def dia_frame(cfg, t):
    """(S_d, h_t) of a scenario's frozen-domain trace at elapsed times t."""
    schedule = cfg.schedule()
    t0 = freeze_out_time(schedule) + cfg.t0_offset
    return domain_partition(cfg.n, schedule).s_d, field_at(schedule, t0 + t)


def one_liner_traces(cfg, result, prefix):
    """(table, column, one-line formula values) for one preset scenario."""
    if cfg.mode == "sweep-g":
        table = result.tables["sweep"]
        t, g = table.column("t_elapsed"), table.column("g")
        s_d, h_t = dia_frame(cfg, t)
        yield table, "concurrence_para", para_one_liner(cfg.n, g, cfg.h_para, t)
        yield table, "concurrence_dia", dia_one_liner(
            result.ensembles["sweep"], s_d, g, h_t, t)
        return
    if cfg.mode == "compare":
        table = result.tables["para"]
        yield table, "concurrence", para_one_liner(
            cfg.n, cfg.g, cfg.h_para, table.column("t_elapsed"))
    table = result.tables[f"{prefix}dia"]
    t = table.column("t_elapsed")
    s_d, h_t = dia_frame(cfg, t)
    yield table, "concurrence", dia_one_liner(
        result.ensembles[f"{prefix}dia"], s_d, cfg.g, h_t, t)


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5"])
def test_presets_agree_with_the_one_line_formulas(name):
    result = run_preset(name)
    configs = preset_config(name)
    for cfg in configs:
        prefix = f"{cfg.label}_" if len(configs) > 1 else ""
        for table, column, expected in one_liner_traces(cfg, result, prefix):
            worst = np.max(np.abs(table.column(column) - expected))
            assert worst <= ONE_LINER_ATOL, (cfg.label, column, worst)


def fig4_fast_quench_config() -> DiaConfig:
    """The fig4 v = 0.02 scenario: 120 spins in 12 domains of 10."""
    cfg = preset_config("fig4")[2]
    schedule = cfg.schedule()
    partition = domain_partition(cfg.n, schedule)
    assert partition.n_d == 12
    ensemble = run_scenario(cfg).ensembles["dia"]
    return DiaConfig(
        n=cfg.n, g=cfg.g, schedule=schedule,
        t0=freeze_out_time(schedule) + cfg.t0_offset,
        partition=partition, ensemble=ensemble,
    )


@pytest.mark.parametrize(
    "module, make_config",
    [
        (para, lambda: para.ParaConfig(n=120, g=1.0 / 6.0, h=2.0)),
        (dia, reference_dia_config),
        (dia, fig4_fast_quench_config),
    ],
    ids=["para-fig3", "dia-reference", "dia-fig4-12-domains"],
)
def test_array_call_equals_the_scalar_calls(module, make_config):
    cfg = make_config()
    t = np.linspace(0.0, 1.0, 201)
    for fn in (module.concurrence, module.branch_overlap):
        scalar = [fn(cfg, float(ti)) for ti in t]
        assert all(type(c) is float for c in scalar)
        assert np.array_equal(fn(cfg, t), scalar)
        assert np.array_equal(fn(cfg, t[::-1].reshape(3, 67)), np.reshape(scalar[::-1], (3, 67)))
