"""Exception types shared across the package.

Every error carries the identifiers needed to locate the offending input
(maxim id, config path, agent id, ...) so callers can report precisely.
"""

from __future__ import annotations


class DutyModelError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateMaxim(DutyModelError):
    def __init__(self, maxim_id: str):
        super().__init__(f"maxim {maxim_id!r} declared more than once")
        self.maxim_id = maxim_id


class UnknownReference(DutyModelError):
    def __init__(self, ref_id: str, context: str = ""):
        where = f" in {context}" if context else ""
        super().__init__(f"unknown good/duty/spec reference {ref_id!r}{where}")
        self.ref_id = ref_id
        self.context = context


class MalformedSpec(DutyModelError):
    def __init__(self, path: str, reason: str):
        super().__init__(f"malformed entry at {path}: {reason}")
        self.path = path
        self.reason = reason


class UnknownMaxim(DutyModelError):
    def __init__(self, maxim_id: str):
        super().__init__(f"no maxim {maxim_id!r} in the registry")
        self.maxim_id = maxim_id


class BaseTooLarge(DutyModelError):
    def __init__(self, m: int, limit: int = 16):
        super().__init__(f"base space has {m} points; power-set operations capped at {limit}")
        self.m = m
        self.limit = limit


class UnknownBasePoint(DutyModelError):
    def __init__(self, y_id: str):
        super().__init__(f"no base point {y_id!r}")
        self.y_id = y_id


class NotComplete(DutyModelError):
    def __init__(self, witness: tuple[int, int]):
        super().__init__(f"relation is not complete: points {witness} are incomparable")
        self.witness = witness


class NotTransitive(DutyModelError):
    def __init__(self, witness: tuple[int, int, int]):
        a, b, c = witness
        super().__init__(f"relation is not transitive: {a} >= {b} >= {c} but not {a} >= {c}")
        self.witness = witness


class NonFiniteValue(DutyModelError):
    def __init__(self, point_index: int, value: float):
        super().__init__(f"utility is not finite at grid point {point_index}: {value!r}")
        self.point_index = point_index
        self.value = value


class NegativeInput(DutyModelError):
    def __init__(self, what: str):
        super().__init__(f"negative input not allowed: {what}")
        self.what = what


class NonPositivePrice(DutyModelError):
    def __init__(self, dim: str, value: float):
        super().__init__(f"price of {dim!r} must be positive and finite, got {value}")
        self.dim = dim
        self.value = value


class DimensionMismatch(DutyModelError):
    def __init__(self, expected: int, got: int, what: str = "bundle"):
        super().__init__(f"{what} has {got} coordinates, fiber expects {expected}")
        self.expected = expected
        self.got = got


class InfeasibleDutySet(DutyModelError):
    """The duty-feasible set of an agent is empty (e.g. prior claims exceed income)."""

    def __init__(self, agent_id: str, reason: str):
        super().__init__(f"agent {agent_id!r}: duty-feasible set is empty ({reason})")
        self.agent_id = agent_id
        self.reason = reason


class NoConvergence(DutyModelError):
    def __init__(self, iterations: int):
        super().__init__(f"no convergence after {iterations} iterations")
        self.iterations = iterations


class DimensionTooLarge(DutyModelError):
    def __init__(self, dims: int, limit: int):
        super().__init__(f"{dims} priced dimensions exceed the grid-scan limit of {limit}")
        self.dims = dims
        self.limit = limit


class SingularJacobian(DutyModelError):
    def __init__(self, det: float, threshold: float):
        super().__init__(f"excess-demand Jacobian is singular: |det|={abs(det):.3e} < {threshold:.3e}")
        self.det = det
        self.threshold = threshold


class NonMonotoneTime(DutyModelError):
    def __init__(self, step_index: int):
        super().__init__(f"path times must be strictly increasing; violated at step {step_index}")
        self.step_index = step_index


class NonMonotoneSurvival(DutyModelError):
    """The simulator disagrees with the exact critical-mass search: survival
    is not the step in the ethical share that the prefix counts imply."""

    def __init__(self, phi: float, survived: bool):
        outcome = "survives" if survived else "collapses"
        super().__init__(
            f"run_sugar {outcome} at phi = {phi!r}, against the prefix-count critical mass; "
            "survival is not monotone in the ethical share")
        self.phi = phi
        self.survived = survived


class ParseError(DutyModelError):
    def __init__(self, location: str, reason: str):
        super().__init__(f"cannot parse {location}: {reason}")
        self.location = location
        self.reason = reason


class ValidationErrors(DutyModelError):
    """Aggregate of every validation failure found in a run configuration."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = list(errors)
