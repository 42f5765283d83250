"""Batched closed forms: array calls, scalar calls and the one-line formulas.

The runtime kernels replay the per-point rotation arithmetic over whole time
grids and whole batches of configs.  Independent checks pin them: an array
of times must return exactly the scalar-time calls, a batch exactly the
one-config batches, each kernel exactly a point-by-point replay through the
scalar ScsDirection route (para with Python's float ** int, dia with one
3 x 3 rotation per time and domain), and the bytes must not depend on the
BLAS thread count.  The result must also agree with the closed forms
written as one-line trigonometric formulas, whose different arithmetic
leaves differences of a few ulps of the unit interval, and sampled cells
must round like those formulas evaluated at 40 digits.
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kzring import _workers, dia, para
from kzring.dia import DiaConfig
from kzring.runner import (
    ScenarioConfig,
    _dia_configs,
    _sweep_configs,
    _time_grid,
    preset_config,
    reference_dia_config,
    run_preset,
    run_scenario,
)
from kzring.sampler import sample_initial_directions
from kzring.scs import ScsDirection, rotation_matrix
from kzring.scaling import (
    DomainPartition,
    QuenchSchedule,
    domain_partition,
    field_at,
    freeze_out_time,
)

ONE_LINER_ATOL = 1e-12


def para_one_liner(n, g, h, t):
    """|cos((4g/h) sin(t h/2))|^N."""
    return np.abs(np.cos((4.0 * g / h) * np.sin(t * h / 2.0))) ** n


def dia_one_liner(ensemble, s_d, g, h_t, t):
    """prod_d [1 - sin^2(theta_f) (1 - sin^2(theta_d) sin^2(phi_d - phi_f))]^S_d."""
    theta_f = (4.0 * g / h_t) * np.abs(np.sin(t * h_t / 2.0))
    phi_f = t * h_t / 2.0 + np.pi / 2.0
    out = np.ones_like(t)
    for theta, phi in zip(ensemble.theta, ensemble.phi):
        tilt = 1.0 - np.sin(theta) ** 2 * np.sin(phi - phi_f) ** 2
        out *= (1.0 - np.sin(theta_f) ** 2 * tilt) ** s_d
    return out


def dia_frame(cfg, t):
    """(S_d, h_t) of a scenario's frozen-domain trace at elapsed times t."""
    schedule = cfg.schedule()
    t0 = freeze_out_time(schedule) + cfg.t0_offset
    return domain_partition(cfg.n, schedule).s_d, field_at(schedule, t0 + t)


def closed_form_traces(cfg, result, prefix):
    """(written column, "para" or "dia", the closed form's arguments) for
    each trace of one scenario; array arguments run over the rows."""
    if cfg.mode == "sweep-g":
        table = result.tables["sweep"]
        t, g = table.column("t_elapsed"), table.column("g")
        s_d, h_t = dia_frame(cfg, t)
        yield table.column("concurrence_para"), "para", (cfg.n, g, cfg.h_para, t)
        yield table.column("concurrence_dia"), "dia", (
            result.ensembles["sweep"], s_d, g, h_t, t)
        return
    if cfg.mode == "compare":
        table = result.tables["para"]
        yield table.column("concurrence"), "para", (
            cfg.n, cfg.g, cfg.h_para, table.column("t_elapsed"))
    table = result.tables[f"{prefix}dia"]
    t = table.column("t_elapsed")
    s_d, h_t = dia_frame(cfg, t)
    yield table.column("concurrence"), "dia", (
        result.ensembles[f"{prefix}dia"], s_d, cfg.g, h_t, t)


ONE_LINERS = {"para": para_one_liner, "dia": dia_one_liner}


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5"])
def test_presets_agree_with_the_one_line_formulas(name):
    result = run_preset(name)
    configs = preset_config(name)
    for cfg in configs:
        prefix = f"{cfg.label}_" if len(configs) > 1 else ""
        for written, form, args in closed_form_traces(cfg, result, prefix):
            worst = np.max(np.abs(written - ONE_LINERS[form](*args)))
            assert worst <= ONE_LINER_ATOL, (cfg.label, form, worst)


# A sampled cell may be off the 40-digit closed form by ROUNDING_ULPS * N * eps
# relative: N factors, each good to a few ulps, enter every concurrence.
ROUNDING_ULPS = 4
ROUNDING_SAMPLES = 40


def exact_para(mp, n, g, h, t):
    """|cos((4g/h) sin(t h/2))|^N at mpmath's working precision."""
    g, h, t = mp.mpf(g), mp.mpf(h), mp.mpf(t)
    return abs(mp.cos(4 * g / h * mp.sin(t * h / 2))) ** n


def exact_dia(mp, ensemble, s_d, g, h_t, t):
    """prod_d [1 - sin^2(theta_f) (1 - sin^2(theta_d) sin^2(phi_d - phi_f))]^S_d
    at mpmath's working precision."""
    g, h_t, t = mp.mpf(g), mp.mpf(h_t), mp.mpf(t)
    sin2_f = mp.sin(4 * g / h_t * mp.sin(t * h_t / 2)) ** 2
    phi_f = t * h_t / 2 + mp.pi / 2
    return mp.fprod(
        (1 - sin2_f * (1 - mp.sin(theta) ** 2 * mp.sin(phi - phi_f) ** 2)) ** mp.mpf(s_d)
        for theta, phi in zip(ensemble.theta, ensemble.phi)
    )


EXACT = {"para": exact_para, "dia": exact_dia}


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "bench-sweep"])
def test_sampled_cells_round_like_the_40_digit_closed_forms(name):
    # Checks rounding, not physics: the 40-digit values share the closed
    # forms' assumptions, which the Dicke-space and ED oracles check.
    mpmath = pytest.importorskip("mpmath")
    if name == "bench-sweep":
        configs, result = (BENCH_SWEEP,), run_scenario(BENCH_SWEEP)
    else:
        configs, result = preset_config(name), run_preset(name)
    rng = np.random.default_rng(15)
    with mpmath.workdps(40):
        for cfg in configs:
            prefix = f"{cfg.label}_" if len(configs) > 1 else ""
            bound = ROUNDING_ULPS * cfg.n * np.finfo(float).eps
            for written, form, args in closed_form_traces(cfg, result, prefix):
                for k in rng.choice(len(written), ROUNDING_SAMPLES, replace=False).tolist():
                    row = [a[k] if isinstance(a, np.ndarray) else a for a in args]
                    value = EXACT[form](mpmath.mp, *row)
                    error = float(abs(written[k] - value) / value)
                    assert error <= bound, (cfg.label, form, k, written[k], error)


def fig4_fast_quench_config() -> DiaConfig:
    """The fig4 v = 0.02 scenario: 120 spins in 12 domains of 10."""
    cfg = preset_config("fig4")[2]
    schedule = cfg.schedule()
    partition = domain_partition(cfg.n, schedule)
    assert partition.n_d == 12
    ensemble = run_scenario(cfg).ensembles["dia"]
    return DiaConfig(
        g=cfg.g, schedule=schedule,
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
    scalar = [module.concurrences([cfg], float(ti)) for ti in t]
    assert all(c.shape == (1,) for c in scalar)
    scalar = np.concatenate(scalar)
    assert np.array_equal(module.concurrences([cfg], t)[0], scalar)
    assert np.array_equal(
        module.concurrences([cfg], t[::-1].reshape(3, 67))[0],
        np.reshape(scalar[::-1], (3, 67)),
    )


def dia_point_replay(cfg: DiaConfig, t) -> np.ndarray:
    """The per-point arithmetic the dia kernel batches.

    For each time and each domain, rotate the domain's Bloch vector by the
    3 x 3 matrix of each branch rotor, take the dot and the half-angle
    cosine; then raise the point's array of domain cosines to 2 S_d and
    multiply it out in domain order.
    """
    h_t = field_at(cfg.schedule, cfg.t0 + t)
    f = dia.displacement_parameter(cfg.g, h_t, t)
    out = np.empty(len(t))
    for k, fk in enumerate(f):
        rot_plus = rotation_matrix(ScsDirection.from_omega(fk))
        rot_minus = rotation_matrix(ScsDirection.from_omega(-fk))
        cosines = np.empty(len(cfg.ensemble.theta))
        for i, angles in enumerate(zip(cfg.ensemble.theta, cfg.ensemble.phi)):
            n0 = ScsDirection(*angles).bloch().reshape(3, 1)
            a, b = rot_plus @ n0, rot_minus @ n0
            dot = (a.T @ b)[0, 0]
            cosines[i] = np.sqrt(np.clip(0.5 * (1.0 + dot), 0.0, 1.0))
        out[k] = np.prod(cosines ** (2.0 * cfg.partition.s_d))
    return out


# The benchmark's sweep: fig5 scaled to 200 couplings x 200 times.
BENCH_SWEEP = ScenarioConfig(
    mode="sweep-g", label="sweep", n=1000, h_para=5.0, h0=1.001, v=5e-5,
    t0_offset=0.0, t_points=200, g_sweep_points=200, g_sweep_max=0.3,
    g_max=0.3, g_to_h_max=0.3,
)


def assert_batch_is_the_single_calls(module, configs, t):
    batch = module.concurrences(configs, t)
    assert batch.shape == (len(configs),) + np.shape(t)
    assert np.array_equal(batch, [module.concurrences([c], t)[0] for c in configs])


@pytest.mark.parametrize(
    "cfg", [BENCH_SWEEP, preset_config("fig5")[0]], ids=["bench-sweep", "fig5"]
)
def test_sweep_batch_equals_the_per_coupling_calls(cfg):
    _, para_configs, dia_configs = _sweep_configs(cfg)
    assert len(dia_configs) == cfg.g_sweep_points
    assert_batch_is_the_single_calls(para, para_configs, _time_grid(cfg))
    assert_batch_is_the_single_calls(dia, dia_configs, _time_grid(cfg))


# Coupling counts on the bench sweep grid (200 times, 5 domains) whose
# batches span more than one block, the first two with the least room: one
# config fewer fits in one block (points per config given).  201 gives
# blocks of unequal size.
@pytest.mark.parametrize(
    "count, per_config",
    [(33, 200 * 5), (164, 200), (201, None)],
    ids=["dia-just-above", "para-just-above", "odd-201"],
)
def test_split_batches_equal_the_per_coupling_calls(count, per_config):
    if per_config is not None:
        assert (count - 1) * per_config <= _workers.BLOCK_POINTS < count * per_config
    cfg = dataclasses.replace(BENCH_SWEEP, g_sweep_points=count)
    _, para_configs, dia_configs = _sweep_configs(cfg)
    assert len(dia_configs) == count
    assert_batch_is_the_single_calls(para, para_configs, _time_grid(cfg))
    assert_batch_is_the_single_calls(dia, dia_configs, _time_grid(cfg))


def test_ensemble_batch_equals_the_per_realization_calls():
    cfg = dataclasses.replace(preset_config("fig4")[2], realizations=100, seed=12345)
    configs = list(_dia_configs(cfg))
    assert len({c.ensemble for c in configs}) == 100
    assert configs[0].partition.n_d == 12
    assert_batch_is_the_single_calls(dia, configs, _time_grid(cfg))


def test_mixed_batch_maps_each_config_to_its_own_row():
    base = reference_dia_config()
    other = reference_dia_config(seed=8).ensemble
    configs = [
        dataclasses.replace(base, g=0.1),
        dataclasses.replace(base, g=0.05, ensemble=other),
        dataclasses.replace(base, g=0.1, ensemble=other),
        base,
    ]
    t = np.linspace(0.0, 1.0, 201)[::-1].reshape(3, 67)
    assert_batch_is_the_single_calls(dia, configs, t)
    assert_batch_is_the_single_calls(dia, configs, 0.4)
    pc = para.ParaConfig(n=120, g=1.0 / 6.0, h=2.0)
    para_configs = [dataclasses.replace(pc, g=g) for g in (0.2, 0.05, 0.2, 0.0)]
    assert_batch_is_the_single_calls(para, para_configs, t)


def test_mixed_batch_over_several_blocks_maps_each_config_to_its_own_row():
    # 40 configs of 200 times x 5 domains: two blocks, each holding repeated
    # and distinct couplings and both ensembles, so every block builds its
    # own configs' rotors.
    (first,) = _dia_configs(BENCH_SWEEP)
    (second,) = _dia_configs(dataclasses.replace(BENCH_SWEEP, seed=BENCH_SWEEP.seed + 1))
    assert first.ensemble != second.ensemble
    configs = [
        dataclasses.replace((first, second)[k // 3 % 2], g=(0.05, 0.1, 0.2, 0.1, 0.3, 0.25)[k % 6])
        for k in range(40)
    ]
    assert 20 * 200 * 5 <= _workers.BLOCK_POINTS < 40 * 200 * 5
    for block in (configs[:20], configs[20:]):
        assert len({c.g for c in block}) == 5 and len({c.ensemble for c in block}) == 2
    assert_batch_is_the_single_calls(dia, configs, _time_grid(BENCH_SWEEP))


def test_a_large_dia_batch_keeps_to_the_block_budget():
    # 400 couplings x 400 times x 5 domains: each block builds only its own
    # configs' rotors, so no (2, g, t, 3, 3) table spans the batch (29 MiB
    # traced with one, about 6 MiB without).
    cfg = dataclasses.replace(BENCH_SWEEP, g_sweep_points=400, t_points=400)
    _, _, configs = _sweep_configs(cfg)
    t = _time_grid(cfg)
    tracemalloc.start()
    try:
        dia.concurrences(configs, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak / 2**20


def test_batches_reject_configs_that_differ_beyond_g_and_ensemble():
    base = reference_dia_config()  # 20 spins, 2 domains of 10
    four = DomainPartition(xi_d=5, n_d=4)
    four_dirs = sample_initial_directions(4, 0.32, 0.33, seed=7)
    wide = DomainPartition(xi_d=20, n_d=2)
    different = [
        dataclasses.replace(base, partition=wide),
        dataclasses.replace(base, schedule=QuenchSchedule(h0=1.095, v=0.02)),
        dataclasses.replace(base, t0=0.1),
        dataclasses.replace(base, partition=four, ensemble=four_dirs),
        dataclasses.replace(base, g_max=0.3),
    ]
    t = np.linspace(0.0, 1.0, 5)
    for cfg in different:
        with pytest.raises(ValueError):
            dia.concurrences([base, cfg], t)
    pc = para.ParaConfig(n=120, g=1.0 / 6.0, h=2.0)
    for change in (dict(n=121), dict(h=2.5), dict(g_to_h_max=0.3)):
        with pytest.raises(ValueError):
            para.concurrences([pc, dataclasses.replace(pc, **change)], t)
    for module in (para, dia):
        with pytest.raises(ValueError):
            module.concurrences([], t)


@pytest.mark.parametrize(
    "make_configs, t",
    [
        (lambda: [reference_dia_config()], np.linspace(0.0, 1.0, 201)),
        (lambda: [fig4_fast_quench_config()], np.linspace(0.0, 1.0, 201)),
        (lambda: _sweep_configs(BENCH_SWEEP)[2][::99], _time_grid(BENCH_SWEEP)),
    ],
    ids=["dia-reference", "dia-fig4-12-domains", "bench-sweep-3-rows"],
)
def test_dia_kernel_repeats_the_per_point_arithmetic(make_configs, t):
    configs = make_configs()
    expected = [dia_point_replay(cfg, t) for cfg in configs]
    assert np.array_equal(dia.concurrences(configs, t), expected)


def para_point_replay(cfg: para.ParaConfig, t) -> np.ndarray:
    """The per-point arithmetic the para kernel batches.

    For each time, build the two branch directions with the scalar
    ScsDirection route (math.atan2), dot their Bloch vectors, take the
    half-angle cosine and raise it to N with Python's float ** int.
    """
    ell = para.displacement_parameter(cfg, t)
    out = np.empty(len(t))
    for k, lk in enumerate(ell):
        plus = ScsDirection.from_omega(lk).bloch()
        minus = ScsDirection.from_omega(-lk).bloch()
        dot = (plus.reshape(1, 3) @ minus.reshape(3, 1))[0, 0]
        cos_half = float(np.sqrt(np.clip(0.5 * (1.0 + dot), 0.0, 1.0)))
        out[k] = pow(cos_half, cfg.n)
    return out


@pytest.mark.parametrize(
    "make_configs, t",
    [
        (lambda: [para.ParaConfig(n=120, g=1.0 / 6.0, h=2.0)], np.linspace(0.0, 1.0, 201)),
        (lambda: _sweep_configs(preset_config("fig5")[0])[1],
         _time_grid(preset_config("fig5")[0])),
        (lambda: _sweep_configs(BENCH_SWEEP)[1][::99], _time_grid(BENCH_SWEEP)),
    ],
    ids=["para-fig3", "fig5", "bench-sweep-3-rows"],
)
def test_para_kernel_repeats_the_per_point_arithmetic(make_configs, t):
    configs = make_configs()
    expected = [para_point_replay(cfg, t) for cfg in configs]
    assert np.array_equal(para.concurrences(configs, t), expected)


# Closed forms on configs with synthetic magnetizations, so no
# diagonalization (whose last bits follow the BLAS thread count) is involved.
THREAD_PROBE = """
import dataclasses
import hashlib
import numpy as np
from kzring import dia, para
from kzring.runner import reference_dia_config
t = np.linspace(0.0, 1.0, 20001)
dia_configs = [reference_dia_config(seed=7), reference_dia_config(seed=3)]
pc = para.ParaConfig(n=120, g=1.0 / 6.0, h=2.0)
para_configs = [pc, dataclasses.replace(pc, g=0.05)]
digest = hashlib.sha256()
digest.update(dia.concurrences(dia_configs, t).tobytes())
digest.update(para.concurrences(para_configs, t).tobytes())
print(digest.hexdigest())
"""


def test_closed_forms_do_not_depend_on_the_blas_thread_count():
    kzring_root = str(Path(dia.__file__).resolve().parent.parent)
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        rest = env.get("PYTHONPATH")
        env["PYTHONPATH"] = kzring_root + (os.pathsep + rest if rest else "")
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests
