"""Exception types shared across the package, and the type checks that raise them.

``DOMAIN_ERRORS`` is the one set of exceptions that count as a sweep
cell's domain failure: the harness flags such a cell and goes on, and
the CLI exits 3 on one raised outside a cell.  Anything else is a
programming error and propagates.  This module imports only the
standard library, so the CLI reads it before numpy loads.
"""

import numbers


class ContractError(ValueError):
    """An argument violates a documented precondition (shape, sign, range)."""


def check_int(name, value):
    """``value`` must be an integer (numpy's included), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractError(f"{name} must be an integer, got {value!r}")


def check_real(name, value):
    """``value`` must be a real number (numpy's included), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractError(f"{name} must be a real number, got {value!r}")


class NumericalError(RuntimeError):
    """A computation produced non-finite values or lost conditioning."""


class SimulationError(RuntimeError):
    """A stochastic run could not produce the requested statistic."""


class TrainingDivergedError(RuntimeError):
    """An optimizer left the finite-loss region.

    Carries the name of the dataset being fit so sweep drivers can flag
    the offending cell instead of aborting the whole experiment.
    """

    def __init__(self, dataset_name, message):
        self.dataset_name = dataset_name
        self.message = message
        super().__init__(f"training diverged on {dataset_name!r}: {message}")

    def __reduce__(self):
        # two-argument __init__ needs explicit pickle support, or the
        # exception cannot cross a worker-process boundary
        return (type(self), (self.dataset_name, self.message))


DOMAIN_ERRORS = (ContractError, NumericalError, SimulationError, TrainingDivergedError)


class ConfigError(ValueError):
    """An experiment config failed schema validation."""


class SchemaError(ValueError):
    """An emitted table does not match its declared column schema."""
