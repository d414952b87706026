"""Exception types shared across the package, and the config field check that raises one."""

import sys
from dataclasses import fields


class GnevaError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(GnevaError):
    """A matrix required to be symmetric positive definite is not."""


class DomainError(GnevaError):
    """A special-function argument lies outside its domain."""


class DegreesOfFreedomTooSmall(GnevaError):
    """Posterior degrees of freedom too small for a finite predictive."""


class EmptyCandidatePool(GnevaError):
    """Goal selection was asked to run on an empty candidate list."""


class RegionTooLarge(GnevaError):
    """Candidate grid would exceed the configured cell cap."""


class ShapeMismatch(GnevaError):
    """Feature widths or parameter shapes disagree with the configuration."""


class ParseError(GnevaError):
    """A scenario or config file could not be parsed."""


class ValidationError(GnevaError):
    """A parsed value violates a documented invariant."""


class MissingHorizonState(GnevaError):
    """The target has no state at the observation horizon."""


class HorizonMismatch(GnevaError):
    """Prediction and ground-truth horizons disagree."""


class NonFiniteLoss(GnevaError):
    """Training produced a NaN or infinite loss."""

    def __init__(self, message: str, scenario_id: str | None = None):
        super().__init__(message)
        self.scenario_id = scenario_id


def check_config_fields(cfg) -> None:
    """Refuse a config dataclass field of the wrong kind, naming the field and its value.

    An `int` field holds an integer, not a bool, >= 1 (>= 0 for a seed); a
    `float` field a finite number; `None` passes where the field allows it.
    Each message starts with the field's name, as every config check's
    does, so a caller can prefix the section it read the field from.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if value is None and f.type.endswith("| None"):
            continue
        if f.type.startswith("int"):
            low = 0 if f.name == "seed" else 1
            if not (number and isinstance(value, int) and value >= low):
                raise ValidationError(f"{f.name} must be an integer >= {low}, got {value!r}")
        elif f.type == "float" and not (number and abs(value) <= sys.float_info.max):
            raise ValidationError(f"{f.name} must be a finite number, got {value!r}")
