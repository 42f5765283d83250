"""Entanglement of a two-qubit register coupled to a driven Ising ring.

Closed-form concurrence traces for the paramagnetic and frozen-domain
(post-quench) regimes, a spin-coherent-state toolbox, domain-configuration
sampling, and an exact-diagonalization oracle to check it all against.
"""

__version__ = "0.1.0"

from .concurrence import (
    DeviceState,
    closed_form_check,
    device_density_matrix,
    wootters_concurrence,
)
from .config import ScenarioConfig
from .dia import DiaConfig
from .errors import (
    ConfigError,
    CriticalPointError,
    NoFreezeOutError,
    PartitionError,
    StepControlError,
)
from .para import ParaConfig
from .runner import ScenarioResult, run_preset, run_scenario
from .sampler import (
    DomainEnsemble,
    equilibrium_magnetization,
    sample_initial_directions,
)
from .scaling import (
    DomainPartition,
    QuenchSchedule,
    domain_partition,
    freeze_out_time,
)
from .scs import ScsDirection
from .tables import DataTable

__all__ = [
    "__version__",
    "ConfigError",
    "CriticalPointError",
    "NoFreezeOutError",
    "PartitionError",
    "StepControlError",
    "QuenchSchedule",
    "DomainPartition",
    "domain_partition",
    "freeze_out_time",
    "ScsDirection",
    "ParaConfig",
    "DiaConfig",
    "DomainEnsemble",
    "sample_initial_directions",
    "equilibrium_magnetization",
    "DeviceState",
    "device_density_matrix",
    "wootters_concurrence",
    "closed_form_check",
    "ScenarioConfig",
    "ScenarioResult",
    "DataTable",
    "run_scenario",
    "run_preset",
]
