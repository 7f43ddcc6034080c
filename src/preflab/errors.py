"""Shared exception types.

The CLI maps ValidationError, and so DataFormatError, to exit code 2 (bad
input/config) and every other failure to exit code 1.
"""


class PreflabError(Exception):
    """Base class for package errors."""


class ValidationError(PreflabError, ValueError):
    """A config value, argument, or input failed validation."""


class DataFormatError(ValidationError):
    """A dataset file is malformed; message carries the line number."""


class TrainingDivergedError(PreflabError, RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, step: int, pair_ids: list[int]):
        super().__init__(
            f"non-finite loss at step {step} (batch pair ids: {pair_ids})"
        )
        self.step = step
        self.pair_ids = pair_ids
