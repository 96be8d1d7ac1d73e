"""Exception hierarchy shared across the engine.

Two broad families matter to callers: configuration problems (bad
definitions, bad job files, bad names) and data problems (a record that
cannot be processed). The CLI maps them to distinct exit codes.
"""


class GridError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GridError):
    """A definition file, job file, or name is invalid."""


class DataError(GridError):
    """An input record or data file cannot be processed as configured."""


class UnknownColumn(ConfigError):
    """A configured column name missing from the header row."""
