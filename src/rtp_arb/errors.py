"""Shared exception types.

Plain ``ValueError`` is used for domain errors on pure functions (bad charge,
non-finite price). Everything the CLI needs to map to a nonzero exit code
derives from :class:`RtpArbError`.
"""


class RtpArbError(Exception):
    """Base class for package-specific failures."""


class ValidationError(RtpArbError):
    """Structured data violates its schema (bad row, gap, non-monotonic hours).

    ``position`` is the 0-based index of the offending element, when there is one.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ConfigError(RtpArbError):
    """A configuration value or combination is unusable."""


class TransportError(RtpArbError):
    """Network fetch failed after retries."""


class ParseError(RtpArbError):
    """A feed payload could not be decoded into samples."""


class InsufficientDataError(ValidationError):
    """Fewer valid hours than the minimum a price series requires."""


class CheckpointError(RtpArbError):
    """Checkpoint file is corrupt, truncated, or from an unknown format version."""


class EpisodeFinishedError(RtpArbError):
    """An environment step was requested after the episode ended."""


class TrainingDivergedError(RtpArbError):
    """Training produced a non-finite loss; carries the partial curve."""

    def __init__(self, message, curve=None):
        super().__init__(message)
        self.curve = curve
