"""Exception types shared across the package.

cli.main's exit codes: UsageError -> 1; InvariantError -> 3; OSError, MemoryError,
TrainingAborted and every other ValueError (ParseError, CheckpointError, ShapeError,
ContractError, numpy's error for an array too large to size) -> 2.
"""


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class UsageError(ValueError):
    """Caller passed arguments outside an operation's documented domain."""


class ContractError(ValueError):
    """A precondition on values (not shapes) was violated."""


class ParseError(ValueError):
    """A data file (corpus, config payload) could not be parsed."""


class InvariantError(RuntimeError):
    """An internal invariant failed; results would not be trustworthy."""


class TrainingAborted(RuntimeError):
    """Training stopped early (e.g. the loss became NaN)."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


class CheckpointError(ValueError):
    """Checkpoint file could not be parsed. Carries the byte offset, if any."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset
