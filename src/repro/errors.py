"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures with one clause
without also swallowing programming errors (``TypeError`` and friends are
still raised directly for misuse that indicates a bug in the caller).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ImageError(ReproError):
    """An image array failed validation (wrong shape, dtype, or range)."""


class CodecError(ReproError):
    """A file could not be decoded or encoded (PNG/PPM substrate)."""


class ScalingError(ReproError):
    """An invalid scaling request (non-positive size, unknown algorithm)."""


class AttackError(ReproError):
    """The attack optimizer could not produce a valid attack image."""


class CalibrationError(ReproError):
    """Threshold calibration was asked to run on insufficient data."""


class DetectionError(ReproError):
    """A detector was used before calibration or with invalid options."""


class EvalError(ReproError):
    """The experiment harness was asked for something it cannot do
    (unknown experiment id, unusable cache directory, bad sweep axis)."""


class ServingError(ReproError):
    """The detection service could not satisfy a request (client side:
    transport failures, retries exhausted, non-success responses)."""
