"""Acceptance criteria, one test per numbered item.

Each test prints a single `criterion N: PASS/FAIL` line (visible under
`pytest -s`) before asserting, and also asserts its stated runtime budget.
Run order follows the numbering; every check here drives the public API
the way the bundled presets do.
"""

import math
import time

import numpy as np

from kzring.concurrence import DeviceState, closed_form_check, wootters_concurrence
from kzring.exact import (
    HamiltonianSpec,
    device_states_constant_field,
    ground_state_ring,
    reduced_device_state,
)
from kzring.para import ParaConfig, concurrences as para_concurrences
from kzring.runner import reference_dia_config, run_preset
from kzring.sampler import ensemble_mean_magnetization, sample_initial_directions
from kzring.scaling import QuenchSchedule, correlation_length, domain_partition, epsilon_at, freeze_out_time
from kzring.scs import ScsDirection, overlap_exact, overlap_magnitude, scs_cross_check


def report(num, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} - {detail} ({elapsed * 1e3:.1f} ms, budget {budget * 1e3:g} ms)")


def test_criterion_1_domain_sizes():
    cases = [(6e-4, 120, 60), (2.2e-3, 120, 30), (2e-2, 120, 10), (5e-5, 1000, 200)]
    domain_partition(120, QuenchSchedule(h0=1.01, v=6e-4))  # warm-up
    start = time.perf_counter()
    got = []
    raw_ok = True
    for v, n, _ in cases:
        s = QuenchSchedule(h0=1.01, v=v)
        p = domain_partition(n, s)
        got.append(p.xi_d)
        raw = correlation_length(s, epsilon_at(s, freeze_out_time(s)))
        raw_ok = raw_ok and abs(p.xi_d - raw) / raw < 0.05
    elapsed = time.perf_counter() - start
    ok = got == [60, 30, 10, 200] and raw_ok
    report(1, ok and elapsed < 1e-3, f"domain sizes {got}, raw within 5%: {raw_ok}", elapsed, 1e-3)
    assert got == [60, 30, 10, 200]
    assert raw_ok
    assert elapsed < 1e-3


def test_criterion_2_slow_quench_wins_pointwise():
    start = time.perf_counter()
    res = run_preset("fig3")
    elapsed = time.perf_counter() - start
    c_para = res.tables["para"].column("concurrence")
    c_dia = res.tables["dia"].column("concurrence")
    n_pts = len(c_para)
    start_ok = abs(c_para[0] - 1.0) < 1e-12 and abs(c_dia[0] - 1.0) < 1e-12
    worst = float(np.min(c_dia - c_para))
    ok = n_pts >= 200 and start_ok and worst >= 0.0
    report(2, ok and elapsed < 5.0,
           f"{n_pts} points, min(dia-para)={worst:.3g}, both start at 1: {start_ok}",
           elapsed, 5.0)
    assert n_pts >= 200
    assert start_ok
    assert worst >= 0.0
    assert elapsed < 5.0


def test_criterion_3_final_concurrence_orders_by_quench_rate():
    start = time.perf_counter()
    res = run_preset("fig4")
    elapsed = time.perf_counter() - start
    finals = {
        v: res.tables[f"v{v:g}_dia"].column("concurrence")[-1]
        for v in (6e-4, 2.2e-3, 2e-2)
    }
    ok = finals[6e-4] > finals[2.2e-3] > finals[2e-2]
    report(3, ok and elapsed < 5.0,
           "C(t=1) = " + ", ".join(f"{v:g}: {c:.4f}" for v, c in finals.items()),
           elapsed, 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_4_difference_sign_structure():
    start = time.perf_counter()
    res = run_preset("fig5")
    elapsed = time.perf_counter() - start
    table = res.tables["sweep"]
    g = table.column("g")
    t = table.column("t_elapsed")
    diff = table.column("difference")
    box = (g >= 0.05) & (g <= 0.2) & (t >= 0.0) & (t <= 1.0)
    min_in_box = float(np.min(diff[box]))
    imax = int(np.argmax(diff))
    g_at_max = float(g[imax])
    nonneg_ok = min_in_box >= 0.0
    argmax_ok = 0.05 <= g_at_max <= 0.25
    ok = nonneg_ok and argmax_ok
    report(4, ok and elapsed < 60.0,
           f"min(diff) in window = {min_in_box:.3g}, "
           f"max diff {float(diff[imax]):.3g} at g = {g_at_max:.3g}",
           elapsed, 60.0)
    assert nonneg_ok, (
        "difference goes negative inside g in [0.05, 0.2], t in [0, 1]: "
        f"min = {min_in_box:.4g}; the paramagnetic trace at h = 5 revives "
        "with period 2 pi / 5 ~ 1.26 and overtakes the frozen-domain trace "
        "late in the window"
    )
    assert argmax_ok, (
        f"maximum difference sits at g = {g_at_max:.4g}, outside [0.05, 0.25]"
    )
    assert elapsed < 60.0


def test_criterion_5_paramagnetic_closed_form_equals_oracle():
    cfg = ParaConfig(n=8, g=0.05, h=2.0)
    times = np.linspace(0.0, 2.0 * math.pi / cfg.h, 200)
    start = time.perf_counter()
    dev = closed_form_check(cfg, times)
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-10
    report(5, ok and elapsed < 1.0, f"max deviation {dev:.3e}", elapsed, 1.0)
    assert dev <= 1e-10
    assert elapsed < 1.0


def test_criterion_6_frozen_domain_closed_form_equals_oracle():
    cfg = reference_dia_config(seed=7)
    assert cfg.partition.n_d == 2 and cfg.partition.s_d == 5.0
    times = np.linspace(0.0, 1.0, 200)
    start = time.perf_counter()
    dev = closed_form_check(cfg, times)
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-10
    report(6, ok and elapsed < 1.0, f"max deviation {dev:.3e}", elapsed, 1.0)
    assert dev <= 1e-10
    assert elapsed < 1.0


def test_criterion_7_scs_algebra_exactness():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst_cross = 0.0
    for s in (0.5, 2.0, 5.0, 10.0):
        for _ in range(25):
            d1 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            d2 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            worst_cross = max(worst_cross, scs_cross_check(d1, s, d2))
    worst_overlap = 0.0
    for s in (0.5, 5.0, 30.0):
        for _ in range(334):
            d1 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            d2 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            exact = abs(overlap_exact(d1, d2, s)) ** 2
            worst_overlap = max(worst_overlap, abs(exact - overlap_magnitude(d1, d2, s)))
    elapsed = time.perf_counter() - start
    ok = worst_cross < 1e-10 and worst_overlap < 1e-10
    report(7, ok and elapsed < 10.0,
           f"cross-check {worst_cross:.3e}, overlap {worst_overlap:.3e}",
           elapsed, 10.0)
    assert worst_cross < 1e-10
    assert worst_overlap < 1e-10
    assert elapsed < 10.0


def test_criterion_8_weak_coupling_convergence():
    n, h = 8, 5.0
    times = np.linspace(0.0, 1.0, 201)
    bell = np.array(DeviceState.bell().vector())
    start = time.perf_counter()
    ring0 = ground_state_ring(HamiltonianSpec(n=n, g=0.0, field=h)).vector
    devs = {}
    for g in (0.02, 0.01):
        spec = HamiltonianSpec(n=n, g=g, field=h)
        states = device_states_constant_field(spec, bell, ring0, times)
        cfg = ParaConfig(n=n, g=g, h=h)
        exact = np.array([
            wootters_concurrence(reduced_device_state(states[i].ravel()))
            for i in range(len(times))
        ])
        closed = para_concurrences([cfg], times)[0]
        devs[g] = float(np.max(np.abs(exact - closed)))
    elapsed = time.perf_counter() - start
    ratio = devs[0.02] / devs[0.01]
    ok = devs[0.02] <= 0.02 and ratio >= 2.0
    report(8, ok and elapsed < 120.0,
           f"max dev {devs[0.02]:.3e} at g=0.02, halving ratio {ratio:.2f}",
           elapsed, 120.0)
    assert devs[0.02] <= 0.02
    assert ratio >= 2.0
    assert elapsed < 120.0


def test_criterion_9_sampler_contract():
    sizes = (2, 5, 12)
    start = time.perf_counter()
    worst = 0.0
    clamped = 0
    for seed in range(1000):
        n_d = sizes[seed % 3]
        ens = sample_initial_directions(n_d, 0.3, 0.34, seed=seed)
        if ens.clamped:
            clamped += 1
            continue
        worst = max(worst, abs(ensemble_mean_magnetization(ens) - 0.3))
    again = sample_initial_directions(12, 0.3, 0.34, seed=123)
    first = sample_initial_directions(12, 0.3, 0.34, seed=123)
    deterministic = again.to_json() == first.to_json()
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and deterministic
    report(9, ok and elapsed < 5.0,
           f"worst mean error {worst:.2e} over 1000 runs ({clamped} clamped), "
           f"byte-identical repeat: {deterministic}",
           elapsed, 5.0)
    assert worst < 1e-9
    assert deterministic
    assert elapsed < 5.0


def test_criterion_10_full_revival():
    cfg = ParaConfig(n=120, g=1.0 / 6.0, h=2.0)
    para_concurrences([cfg], 0.1)  # warm-up
    start = time.perf_counter()
    (c,) = para_concurrences([cfg], 2.0 * math.pi / cfg.h)
    elapsed = time.perf_counter() - start
    ok = abs(c - 1.0) < 1e-12
    report(10, ok and elapsed < 1e-3, f"C(2 pi / h) = {c:.15f}", elapsed, 1e-3)
    assert abs(c - 1.0) < 1e-12
    assert elapsed < 1e-3
