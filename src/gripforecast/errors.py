"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, DataError exits 2,
ContractViolation and anything unexpected exit 3.
"""


class ContractViolation(ValueError):
    """A caller broke a documented precondition or invariant."""


class DataError(ValueError):
    """Input data is malformed or inconsistent with the recording format."""

