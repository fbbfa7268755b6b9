"""Exceptions of the stratmc package.

The CLI tells exactly two apart: ConfigInvalid, a bad experiment
configuration (exit code 2), and every other StratMcError, a numeric
failure (exit code 3).  The message says which failure it was.
"""

__all__ = ["StratMcError", "ConfigInvalid"]


class StratMcError(Exception):
    """Base class for all stratmc errors (CLI exit code 3)."""


class ConfigInvalid(StratMcError):
    """Experiment configuration failed validation (CLI exit code 2)."""
