"""Exception types shared across the package."""

from __future__ import annotations


class RlaError(Exception):
    """Base class for package-specific errors."""


class ValidationError(RlaError):
    """A structure-constant table, p-map table, or derived object violates an axiom."""


class AntisymmetryError(ValidationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"antisymmetry fails at basis pair ({i}, {j})")


class JacobiError(ValidationError):
    def __init__(self, i: int, j: int, k: int):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"Jacobi identity fails at basis triple ({i}, {j}, {k})")


class PMapCompatibilityError(ValidationError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"p-map incompatible with bracket at basis index {i}: "
                         f"ad(x_{i}^[p]) != (ad x_{i})^p")


class NotADerivationError(ValidationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"Leibniz rule fails at basis pair ({i}, {j})")


class ModuleValidationError(ValidationError):
    """A module action table is not a restricted representation."""


class PreconditionError(RlaError):
    """An operation was called outside its contract."""


class BudgetExceededError(RlaError):
    """A search would enumerate more candidates than the configured budget allows."""

    def __init__(self, needed: int, budget: int):
        self.needed, self.budget = needed, budget
        super().__init__(f"search needs {needed} candidates, budget is {budget}")


class CertificationError(RlaError):
    """A constructed witness failed its post-hoc certification."""


class DocumentError(RlaError):
    """A JSON algebra document is malformed."""


class ConfigError(RlaError):
    """An environment override is not a valid setting."""
