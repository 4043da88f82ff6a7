"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: the ValueError family exits 1,
TrainingLengthError exits 2, and I/O failures (builtin OSError) exit 3.
"""


class ParameterError(ValueError):
    """An argument lies outside its documented domain."""


class ConsistencyError(ValueError):
    """Inputs are individually valid but mutually inconsistent."""


class TrainingLengthError(RuntimeError):
    """The required training length reaches the coherence time."""
