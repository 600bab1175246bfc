"""Exception types shared across the package, and `decoding` for text that is not UTF-8."""

import contextlib


class TrajLMError(Exception):
    """Base class for all package errors."""


class DomainError(TrajLMError, ValueError):
    """Input violates a documented precondition (out-of-bounds point, bad shape, ...)."""


class ConfigError(TrajLMError, ValueError):
    """Invalid configuration value or combination."""


class VocabError(TrajLMError, LookupError):
    """Unknown token or out-of-range token id; str() is the message itself."""


class CheckpointError(TrajLMError, ValueError):
    """Checkpoint bytes cannot be loaded."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointShapeError(CheckpointError):
    """A stored parameter does not match the shape implied by its config."""


class CheckpointVocabError(CheckpointError):
    """Checkpoint was trained against a different vocabulary."""


class SessionFullError(TrajLMError, RuntimeError):
    """An incremental scoring session already holds max_seq_len + 1 tokens, the most it scores."""


class DataError(TrajLMError, ValueError):
    """Corpus or report file does not match its documented schema."""


@contextlib.contextmanager
def decoding(path, error: type[TrajLMError] = DataError):
    """Re-raise a UnicodeDecodeError from reading `path` inside the block as `error` naming it."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from e
