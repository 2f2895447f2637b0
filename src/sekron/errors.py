"""Exception types shared across the package."""


class SekronError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SekronError):
    """Inconsistent or incompatible tensor/factor shapes."""


class RankError(SekronError):
    """Rank out of range (exceeds the full rank of an unfolding, or < 1)."""


class SvdConvergenceError(SekronError):
    """The SVD iteration failed to converge."""


class NoFeasibleConfigError(SekronError):
    """No candidate configuration satisfies the given constraints."""


class CandidateLimitError(SekronError):
    """Configuration enumeration would exceed the candidate cap."""


class FileFormatError(SekronError):
    """Base class for binary file format violations."""

    code = "format"


class BadMagicError(FileFormatError):
    code = "bad-magic"


class VersionMismatchError(FileFormatError):
    code = "version-mismatch"


class MalformedHeaderError(FileFormatError):
    code = "malformed-header"


class TruncatedPayloadError(FileFormatError):
    code = "truncated-payload"


class NonFinitePayloadError(FileFormatError):
    code = "non-finite-payload"
