"""Exception types shared across the package.

ConfigError marks invalid user-supplied parameters and maps to CLI exit
code 2; everything else surfaces as exit code 1.
"""


class ConfigError(ValueError):
    """Parameter set violates a documented guard or precondition."""


class CriticalPointError(ConfigError, ZeroDivisionError):
    """Scaling law evaluated exactly at the critical point (eps = 0)."""


class NoFreezeOutError(ConfigError):
    """Freeze-out instant requested for a static field (v = 0)."""


class PartitionError(ConfigError):
    """No ring divisor lies close enough to the frozen correlation length."""


class StepControlError(RuntimeError):
    """Halving the integrator step moved the final state more than allowed."""
