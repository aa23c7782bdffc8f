"""Exception types shared across the package."""


class RelurandError(Exception):
    """Base class for all package errors."""


class DegenerateInput(RelurandError):
    """An input is degenerate for the requested operation (zero output, zero gradient, ...)."""


class ConfigError(RelurandError):
    """An experiment configuration is invalid; the message names the offending key."""


class FormatError(RelurandError):
    """A serialized network file is malformed or has an unsupported version."""
