"""What each workload hands the program: scenario configs or CLI arguments.

Standard library only, so the set-up probe can import it without pulling
numpy in ahead of the import it measures.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "ensemble", "cli-cold")

# The fig5 preset scaled from 50 x 50 to 200 g x 200 t: 40,000 para and
# 40,000 dia points (N=1000, 5 domains of 200 spins) and a 40,000-row CSV.
# Inputs are fixed (preset seed 1) so every table is checked against the
# reference captured when the benchmark was defined.
SWEEP = dict(
    mode="sweep-g", label="sweep", n=1000, h_para=5.0, h0=1.001, v=5e-5,
    t0_offset=0.0, t_points=200, g_sweep_points=200, g_sweep_max=0.3,
    g_max=0.3, g_to_h_max=0.3, seed=1, realizations=1,
)

# The fig4 fast quench (N=120, 12 domains of 10 spins) averaged over 100
# realizations at one g: dia along the domain and realization axes.
ENSEMBLE = dict(
    mode="dia", label="ensemble", n=120, v=2e-2, h0=1.09, t0_offset=0.5,
    t_points=201, realizations=100, seed=1,
)
ENSEMBLE_DEFAULT_SEED = 1

# One fresh process per command, run in this order.
CLI_COMMANDS = (
    ("preset", "fig3"),
    ("preset", "fig4"),
    ("preset", "fig5"),
    ("oracle-check",),
)

# Concurrence grid points (g x t x realization) one iteration delivers:
# rows of every emitted trace table times its realizations.
POINTS = {"sweep": 200 * 200, "ensemble": 201 * 100, "cli-cold": 3 * 201 + 3 * 201 + 50 * 50}


def ensemble_seeds(workload_seed: int):
    """Scenario seeds for successive ensemble iterations, never the default."""
    rng = random.Random(workload_seed)
    while True:
        seed = rng.randrange(2, 2**31)
        if seed != ENSEMBLE_DEFAULT_SEED:
            yield seed


def build(workload: str, workload_seed: int):
    """Build and validate the workload's inputs through kzring's own API.

    Returns ScenarioConfig objects for the in-process workloads and parsed
    argument namespaces for cli-cold.
    """
    import kzring.cli
    from kzring.runner import ScenarioConfig

    if workload == "sweep":
        return [ScenarioConfig(**SWEEP)]
    if workload == "ensemble":
        seed = next(ensemble_seeds(workload_seed))
        return [ScenarioConfig(**dict(ENSEMBLE, seed=seed))]
    if workload == "cli-cold":
        parser = kzring.cli.build_parser()
        return [parser.parse_args([*cmd, "--out", "out"]) for cmd in CLI_COMMANDS]
    raise ValueError(f"unknown workload {workload!r}")
