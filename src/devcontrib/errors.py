"""Exception types shared across the toolkit."""


class DevContribError(Exception):
    """Base class for all toolkit errors."""


class NotARepository(DevContribError):
    """The given path does not contain a git repository."""


class CorruptHistory(DevContribError):
    """git returned history data that could not be parsed."""


class MissingBlob(DevContribError):
    """A file version referenced by a commit could not be read."""


class MissingAuthor(DevContribError):
    """A commit carries no usable author identity."""


class ParseError(DevContribError):
    """Source text could not be parsed.

    Carries the character offset of the first offending token so callers
    can log a precise warning and skip the file.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class UnknownCheckpoint(DevContribError):
    """No call-graph checkpoint recorded for the requested commit."""


class ZeroVariance(DevContribError):
    """Rank correlation is undefined because one input has constant ranks."""


class EvaluationInputError(DevContribError):
    """Labels file is malformed or does not match the analysis run."""


class UsageError(DevContribError):
    """Bad command-line invocation."""
