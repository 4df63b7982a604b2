"""Exception taxonomy shared across the package.

The CLI maps these to exit codes: ConfigError -> 1, DataError -> 2,
NumericError -> 3.  Anything else escaping a pipeline stage is reported as a
stage failure with exit code 3.
"""

import contextlib
import zipfile


class MetarecError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MetarecError):
    """Bad usage: unknown config keys, invalid values, impossible model shapes."""


class DataError(MetarecError):
    """Input data is missing, malformed beyond tolerance, or degenerate."""


class NumericError(MetarecError):
    """A numeric invariant broke (non-finite values, undefined statistics)."""


@contextlib.contextmanager
def data_errors(doing: str, path):
    """Re-raise a failure to read or write the file at ``path`` as a DataError
    that names it; ``doing`` says what failed ("read checkpoint", "write").

    Caught are a file that is missing, empty, truncated, not an archive,
    short of an entry or holding an entry of the wrong type, and a path
    that cannot be written.
    """
    try:
        yield
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot {doing} {path}: {exc}") from None
