"""Errors that the command line reports with exit code 2.

They live apart from the modules that raise them, so that ``cli`` can catch
them without importing the scanner or the lab.
"""


class ConfigError(Exception):
    """Malformed seed file or site config; scanning aborts before it starts."""


class ScenarioError(ValueError):
    """A scenario file that is not a JSON array of valid site objects."""
