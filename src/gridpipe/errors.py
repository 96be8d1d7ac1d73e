"""Exception hierarchy shared across the engine.

Two broad families matter to callers: configuration problems (bad
definitions, bad job files, bad names) and data problems (a record that
cannot be processed). The CLI maps them to distinct exit codes. A
problem that stops nothing is reported through ``warn``.
"""


class GridError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GridError):
    """A definition file, job file, or name is invalid."""


class DataError(GridError):
    """An input record or data file cannot be processed as configured."""


class UnknownColumn(ConfigError):
    """A configured column name missing from the header row."""


class SettingError(ConfigError):
    """A spec field set to a value it does not allow; ``setting`` names
    the field, so a job file loader can name its key instead."""

    def __init__(self, setting: str, problem: str):
        self.setting = setting
        self.problem = problem
        super().__init__(f"{setting}: {problem}")


def check_choices(spec, **allowed: tuple) -> None:
    """Raise ``SettingError`` for the first named field of ``spec``
    whose value is not among its allowed values."""
    for setting, choices in allowed.items():
        value = getattr(spec, setting)
        if value not in choices:
            raise SettingError(setting, f"must be one of {', '.join(choices)}; got {value!r}")


printer = None  # what warn() calls instead of logging; the CLI sets it for a command


def warn(message: str) -> None:
    """Report a problem that does not stop the command: log it as a
    warning to ``gridpipe.pipeline``, or hand it to ``printer``."""
    if printer is not None:
        printer(message)
        return
    import logging  # loaded by the first warning: most runs give none

    logging.getLogger("gridpipe.pipeline").warning(message)
