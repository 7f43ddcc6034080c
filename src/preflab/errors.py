"""Shared exception types, and the one check that a count is at least one.

The CLI maps ValidationError, and so DataFormatError, to exit code 2 (bad
input/config) and every other failure to exit code 1.
"""


class PreflabError(Exception):
    """Base class for package errors."""


class ValidationError(PreflabError, ValueError):
    """A config value, argument, or input failed validation."""


class DataFormatError(ValidationError):
    """A dataset file is malformed; message carries the line number."""


def at_least_one(**counts) -> None:
    """Raise ValidationError naming the first of ``counts`` that is below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")


class TrainingDivergedError(PreflabError, RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, step: int, pair_ids: list[int]):
        super().__init__(
            f"non-finite loss at step {step} (batch pair ids: {pair_ids})"
        )
        self.step = step
        self.pair_ids = pair_ids
