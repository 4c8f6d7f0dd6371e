"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and data-format problems
exit with 1, estimator/runtime failures with 2.
"""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad field, missing key, bad value)."""


class DataFormatError(ValueError):
    """Malformed flight-log or data file; message carries the offending row."""


class DivergenceError(RuntimeError):
    """A replay produced non-finite values: an estimator's, or with
    ``subject`` another recurrence's, such as the plant simulation."""

    def __init__(self, step: int, detail: str = "",
                 subject: str = "estimator"):
        self.step = step
        msg = f"{subject} diverged at step {step}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ObserverDesignError(RuntimeError):
    """Observer synthesis failed (existence condition or self-check)."""
