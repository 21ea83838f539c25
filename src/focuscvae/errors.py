"""Exception types shared across the package.

Everything user-facing derives from FocusCVAEError so the CLI can map the
whole family to a validation exit code; unexpected exceptions stay untouched
and surface as runtime failures.
"""


class FocusCVAEError(Exception):
    pass


class DimensionError(FocusCVAEError, ValueError):
    """Operand shapes do not conform."""


class DomainError(FocusCVAEError, ValueError):
    """Input outside the mathematical domain of an op (e.g. log of <= 0)."""


class MaskError(FocusCVAEError, ValueError):
    """A mask leaves no valid position to operate on."""


class ConfigError(FocusCVAEError, ValueError):
    """Invalid or inconsistent configuration."""


class ParseError(FocusCVAEError, ValueError):
    """Malformed serialized input; message names the offending location."""


class ValidationError(FocusCVAEError, ValueError):
    """Structurally valid input that violates a semantic contract."""


class CompatibilityError(FocusCVAEError, ValueError):
    """Two artifacts (checkpoint, corpus, config) do not belong together."""


class IntegrityError(FocusCVAEError, ValueError):
    """Serialized artifact is corrupt (checksum or framing mismatch)."""


class VersionError(FocusCVAEError, ValueError):
    """Serialized artifact has an unsupported format version."""


class NumericalError(FocusCVAEError, RuntimeError):
    """A computation produced a non-finite value where finiteness is required."""


class EvaluationError(FocusCVAEError, RuntimeError):
    """A probe evaluation failed during gradient checking."""
