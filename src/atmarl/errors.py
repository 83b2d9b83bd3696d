"""Exception types shared across the package."""


class ScenarioError(ValueError):
    """A scenario configuration is malformed or violates an invariant."""


class CheckpointError(RuntimeError):
    """Base class for checkpoint load failures, and the error of a save the file system refuses."""


class VersionMismatchError(CheckpointError):
    """Checkpoint header missing or carrying an unsupported version."""


class TruncatedCheckpointError(CheckpointError):
    """Checkpoint file ended before all declared blocks were read."""


class ShapeMismatchError(CheckpointError):
    """A parameter block's shape does not match the declared shape."""


class TrainingDivergence(RuntimeError):
    """Training produced non-finite statistics; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class StageFailure(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
