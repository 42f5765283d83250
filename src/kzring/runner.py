"""Scenario orchestration: traces, presets, oracles and output files.

run_scenario turns a ScenarioConfig into column tables; write_outputs
writes them as deterministic CSV (same config, seed and BLAS thread count,
same bytes, whatever the number of CPUs kzring's worker thread may use),
with any sampled ensembles and a gnuplot script.

Magnetization lookup: the sampler's exact-diagonalization oracle acts on
the spin-1/2 ring, whose true critical field sits at 1/2, while the quench
schedule measures distance from criticality against hc (default 1).  The
preparation and freeze-out fields are therefore rescaled by
mz_field_scale (default 1/2) before the lookup so that "how far from
critical" means the same thing in both places; set it to 1.0 to probe the
unscaled ring instead.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import dia as dia_mod
from . import para as para_mod
from .concurrence import closed_form_check
from .config import ScenarioConfig
from .errors import ConfigError
from .sampler import (
    DomainEnsemble,
    ensemble_mean_magnetization,
    equilibrium_magnetization,
    sample_initial_directions,
)
from .scaling import QuenchSchedule, domain_partition, field_at, freeze_out_time
from .scs import ScsDirection, overlap_exact, overlap_magnitude, scs_cross_check
from .tables import DataTable, emit_csv

__all__ = [
    "PRESET_NAMES",
    "ScenarioResult",
    "run_scenario",
    "preset_config",
    "run_preset",
    "reference_dia_config",
    "oracle_report",
    "emit_plot_script",
    "write_outputs",
]

PRESET_NAMES = ("fig3", "fig4", "fig5")


def _validate_trace(table: DataTable) -> DataTable:
    t = table.column("t_elapsed")
    if np.any(np.diff(t) <= 0):
        raise ValueError("trace times must be strictly increasing")
    return _validate_concurrences(table)


def _validate_concurrences(table: DataTable) -> DataTable:
    for name in table.columns:
        if name.startswith("concurrence"):
            c = table.column(name)
            if np.any(c < -1e-12) or np.any(c > 1.0 + 1e-12):
                raise ValueError(f"column {name} leaves [0, 1]")
    return table


@dataclass
class ScenarioResult:
    """Tables keyed by trace name, plus any sampled ensembles for replay."""

    tables: dict[str, DataTable]
    ensembles: dict[str, DomainEnsemble] = field(default_factory=dict)


def _base_metadata(cfg: ScenarioConfig) -> dict[str, str]:
    return {
        "generator": f"kzring {__version__}",
        "mode": cfg.mode,
        "seed": str(cfg.seed),
        "realizations": str(cfg.realizations),
        "config": cfg.to_json(),
    }


def _para_config(cfg: ScenarioConfig, g: float | None = None) -> para_mod.ParaConfig:
    return para_mod.ParaConfig(
        n=cfg.n, g=cfg.g if g is None else g, h=cfg.h_para,
        g_max=cfg.g_max, g_to_h_max=cfg.g_to_h_max,
    )


def _load_ensemble(path: str) -> DomainEnsemble:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return DomainEnsemble.from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read ensemble file {path}: {exc}") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(
            f"ensemble file {path} is not a saved ensemble "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _dia_configs(cfg: ScenarioConfig, g: float | None = None):
    """Yield the DiaConfig of each realization, in order.

    Partition, preparation time and magnetization targets are set up once;
    only the ensemble is drawn per realization.  A replayed ensemble is the
    single realization.
    """
    schedule = cfg.schedule()
    partition = domain_partition(cfg.n, schedule)
    t_bar = freeze_out_time(schedule)
    t0 = t_bar + cfg.t0_offset
    if cfg.ensemble_json is not None:
        ensembles = [_load_ensemble(cfg.ensemble_json)]
    else:
        scale = cfg.mz_field_scale
        m0 = equilibrium_magnetization(field_at(schedule, t0) * scale, cfg.n_ref)
        md = equilibrium_magnetization(field_at(schedule, t_bar) * scale, cfg.n_ref)
        ensembles = (
            sample_initial_directions(partition.n_d, m0, md, seed=cfg.seed, realization=r)
            for r in range(cfg.realizations)
        )
    for ensemble in ensembles:
        yield dia_mod.DiaConfig(
            g=cfg.g if g is None else g, schedule=schedule, t0=t0,
            partition=partition, ensemble=ensemble,
            g_max=cfg.g_max, g_to_h_max=cfg.g_to_h_max,
        )


def _time_grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(cfg.t_start, cfg.t_stop, cfg.t_points)


def _run_para(cfg: ScenarioConfig) -> DataTable:
    grid = _time_grid(cfg)
    conc = para_mod.concurrences([_para_config(cfg)], grid)[0]
    meta = _base_metadata(cfg)
    meta["regime"] = "paramagnetic closed form"
    return _validate_trace(
        DataTable(
            ("t_elapsed", "concurrence", "branch_overlap_modulus", "h_t"),
            (grid, conc, conc, np.full_like(grid, cfg.h_para)),
            meta,
        )
    )


def _dia_metadata(cfg: ScenarioConfig, dc: dia_mod.DiaConfig) -> dict[str, str]:
    meta = _base_metadata(cfg)
    meta.update(
        regime="frozen-domain closed form",
        t_bar=f"{freeze_out_time(dc.schedule):.12g}",
        t0=f"{dc.t0:.12g}",
        xi_d=str(dc.partition.xi_d),
        n_d=str(dc.partition.n_d),
        s_d=f"{dc.partition.s_d:.12g}",
        m0z_target=f"{dc.ensemble.m0z_target:.12g}",
        mdz_target=f"{dc.ensemble.mdz_target:.12g}",
        ensemble_mean_mz=f"{ensemble_mean_magnetization(dc.ensemble):.12g}",
    )
    return meta


def _run_dia(cfg: ScenarioConfig) -> tuple[DataTable, dict[str, DomainEnsemble]]:
    grid = _time_grid(cfg)
    configs = list(_dia_configs(cfg))
    ensembles = {
        "dia" if r == 0 else f"dia_r{r}": dc.ensemble for r, dc in enumerate(configs)
    }
    per_real = dia_mod.concurrences(configs, grid)
    first_cfg = configs[0]
    h_vals = field_at(first_cfg.schedule, first_cfg.t0 + grid)
    meta = _dia_metadata(cfg, first_cfg)
    if cfg.realizations == 1:
        columns = ("t_elapsed", "concurrence", "branch_overlap_modulus", "h_t")
        data = (grid, per_real[0], per_real[0], h_vals)
    else:
        # Each time's realizations as one contiguous row: the mean then sums
        # them pairwise, as over a 1-D slice, where a mean down axis 0 would
        # add them one by one and round differently.
        by_time = np.ascontiguousarray(per_real.T)
        mean = by_time.mean(axis=1)
        columns = (
            "t_elapsed", "concurrence", "concurrence_min", "concurrence_max",
            "branch_overlap_modulus", "h_t",
        )
        data = (grid, mean, by_time.min(axis=1), by_time.max(axis=1), mean, h_vals)
    return _validate_trace(DataTable(columns, data, meta)), ensembles


def _run_compare(cfg: ScenarioConfig) -> ScenarioResult:
    para_table = _run_para(cfg)
    dia_table, ensembles = _run_dia(cfg)
    t = para_table.column("t_elapsed")
    diff = dia_table.column("concurrence") - para_table.column("concurrence")
    meta = _base_metadata(cfg)
    meta["regime"] = "difference (frozen-domain minus paramagnetic)"
    diff_table = DataTable(("t_elapsed", "difference"), (t, diff), meta)
    return ScenarioResult(
        tables={"para": para_table, "dia": dia_table, "difference": diff_table},
        ensembles=ensembles,
    )


def _sweep_configs(cfg: ScenarioConfig):
    """The sweep's couplings and, per coupling, its ParaConfig and DiaConfig.

    Only g changes along the sweep: partition and ensemble are built once.
    """
    grid_g = np.linspace(cfg.g_sweep_min, cfg.g_sweep_max, cfg.g_sweep_points)
    base = next(_dia_configs(cfg, g=float(grid_g[0])))
    para_cfgs = [_para_config(cfg, g=g) for g in grid_g.tolist()]
    dia_cfgs = [dataclasses.replace(base, g=g) for g in grid_g.tolist()]
    return grid_g, para_cfgs, dia_cfgs


def _run_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    grid_t = _time_grid(cfg)
    grid_g, para_cfgs, dia_cfgs = _sweep_configs(cfg)
    c_d = dia_mod.concurrences(dia_cfgs, grid_t).reshape(-1)
    c_p = para_mod.concurrences(para_cfgs, grid_t).reshape(-1)
    meta = _base_metadata(cfg)
    meta["regime"] = "coupling sweep (frozen-domain minus paramagnetic)"
    table = DataTable(
        ("g", "t_elapsed", "concurrence_dia", "concurrence_para", "difference"),
        (np.repeat(grid_g, len(grid_t)), np.tile(grid_t, len(grid_g)), c_d, c_p, c_d - c_p),
        meta,
    )
    return ScenarioResult(
        tables={"sweep": _validate_concurrences(table)},
        ensembles={"sweep": dia_cfgs[0].ensemble},
    )


def reference_dia_config(seed: int = 7) -> dia_mod.DiaConfig:
    """Small deterministic frozen-domain scenario for oracle work.

    20 spins partitioned into two domains of collective spin 5, with
    synthetic magnetization targets so no diagonalization is involved.
    """
    schedule = QuenchSchedule(h0=1.09, v=0.02)
    partition = domain_partition(20, schedule)
    ensemble = sample_initial_directions(
        partition.n_d, m0z=0.32, mdz=0.33, seed=seed
    )
    return dia_mod.DiaConfig(
        g=1.0 / 6.0, schedule=schedule, t0=0.0,
        partition=partition, ensemble=ensemble,
    )


def oracle_report(cfg: ScenarioConfig | None = None) -> DataTable:
    """Cross-validate the closed forms against dense-matrix oracles.

    Returns one row per check: name, worst deviation, tolerance, verdict.
    """
    times_para = np.linspace(0.0, math.pi, 200)
    dev_para = closed_form_check(para_mod.ParaConfig(n=8, g=0.05, h=2.0), times_para)
    dev_dia = closed_form_check(reference_dia_config(), np.linspace(0.0, 1.0, 200))
    rng = np.random.default_rng(2024)
    dev_scs = 0.0
    for s in (0.5, 2.0, 5.0, 10.0):
        for _ in range(10):
            d1 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            d2 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            dev_scs = max(dev_scs, scs_cross_check(d1, s, d2))
    dev_overlap = 0.0
    for s in (0.5, 5.0, 30.0):
        for _ in range(50):
            d1 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            d2 = ScsDirection(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            dev_overlap = max(
                dev_overlap,
                abs(abs(overlap_exact(d1, d2, s)) ** 2 - overlap_magnitude(d1, d2, s)),
            )
    names = (
        "closed_form_para", "closed_form_dia", "scs_cross_check", "overlap_dicke_vs_half_angle",
    )
    dev = np.array([dev_para, dev_dia, dev_scs, dev_overlap], dtype=float)
    tol = np.full(dev.shape, 1e-10)
    verdict = tuple(np.where(dev < tol, "pass", "FAIL").tolist())
    meta = _base_metadata(cfg) if cfg is not None else {
        "generator": f"kzring {__version__}", "mode": "oracle-check",
    }
    return DataTable(
        ("check", "max_deviation", "tolerance", "verdict"), (names, dev, tol, verdict), meta
    )


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run one scenario and return its tables (plus sampled ensembles)."""
    if cfg.mode == "para":
        return ScenarioResult(tables={"para": _run_para(cfg)})
    if cfg.mode == "dia":
        table, ensembles = _run_dia(cfg)
        return ScenarioResult(tables={"dia": table}, ensembles=ensembles)
    if cfg.mode == "compare":
        return _run_compare(cfg)
    if cfg.mode == "sweep-g":
        return _run_sweep(cfg)
    if cfg.mode == "oracle-check":
        return ScenarioResult(tables={"oracle": oracle_report(cfg)})
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def preset_config(name: str) -> tuple[ScenarioConfig, ...]:
    """Bundled scenarios, each pinned to seed 1 and a single realization."""
    if name == "fig3":
        return (ScenarioConfig(mode="compare", label="fig3"),)
    if name == "fig4":
        cases = ((6e-4, 12.0, 1.01), (2.2e-3, 1.5, 1.03), (2e-2, 0.5, 1.09))
        return tuple(
            ScenarioConfig(mode="dia", label=f"v{v:g}", v=v, t0_offset=off, h0=h0)
            for v, off, h0 in cases
        )
    if name == "fig5":
        return (
            ScenarioConfig(
                mode="sweep-g", label="fig5", n=1000, h_para=5.0, h0=1.001,
                v=5e-5, t0_offset=0.0, t_points=50,
                g_sweep_max=0.3, g_max=0.3, g_to_h_max=0.3,
            ),
        )
    raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")


def run_preset(name: str, **overrides) -> ScenarioResult:
    """Run a preset; keyword overrides are applied to every member config."""
    merged = ScenarioResult(tables={}, ensembles={})
    configs = preset_config(name)
    for cfg in configs:
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        result = run_scenario(cfg)
        prefix = cfg.label if len(configs) > 1 else ""
        for key, table in result.tables.items():
            merged.tables[f"{prefix}_{key}" if prefix else key] = table
        for key, ens in result.ensembles.items():
            merged.ensembles[f"{prefix}_{key}" if prefix else key] = ens
    return merged



def _gp_str(text: str) -> str:
    """A gnuplot single-quoted string: a quote inside is written twice."""
    return "'" + text.replace("'", "''") + "'"


def emit_plot_script(keys, label: str, mode: str, path: str) -> None:
    """Write a gnuplot script rendering the emitted CSVs (relative paths only)."""
    lines = [
        f"# gnuplot script for the {_gp_str(label)} run (mode: {mode})",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set grid",
    ]
    files = {key: _gp_str(f"{label}_{key}.csv") for key in keys}
    if mode == "compare":
        lines += [
            "set xlabel 't - t0'",
            "set ylabel 'concurrence'",
            "set multiplot",
            "set size 1, 1",
            "set origin 0, 0",
            f"plot {files['dia']} using 1:2 with lines lw 2 title 'frozen domains', \\",
            f"     {files['para']} using 1:2 with lines lw 2 title 'paramagnet'",
            "set size 0.42, 0.38",
            "set origin 0.5, 0.52",
            "set xlabel ''",
            "set ylabel 'difference'",
            f"plot {files['difference']} using 1:2 with lines notitle",
            "unset multiplot",
        ]
    elif mode == "sweep-g":
        lines += [
            "set xlabel 'g'",
            "set ylabel 't - t0'",
            "set cblabel 'concurrence difference'",
            "set view map",
            f"plot {files['sweep']} using 1:2:5 with image",
        ]
    else:
        lines += ["set xlabel 't - t0'", "set ylabel 'concurrence'"]
        plot_parts = [
            f"{fname} using 1:2 with lines lw 2 title {_gp_str(key)}"
            for key, fname in files.items()
        ]
        lines.append("plot " + ", \\\n     ".join(plot_parts))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outputs(result: ScenarioResult, label: str, mode: str, out_dir: str) -> list[str]:
    """Write every table, sampled ensemble, and one plot script; return paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for key, table in result.tables.items():
        path = os.path.join(out_dir, f"{label}_{key}.csv")
        emit_csv(table, path)
        written.append(path)
    for key, ensemble in result.ensembles.items():
        path = os.path.join(out_dir, f"{label}_{key}_ensemble.json")
        with open(path, "wb") as fh:
            fh.write((ensemble.to_json() + "\n").encode("utf-8"))
        written.append(path)
    if mode != "oracle-check":
        path = os.path.join(out_dir, f"{label}.gp")
        emit_plot_script(sorted(result.tables), label, mode, path)
        written.append(path)
    return written
