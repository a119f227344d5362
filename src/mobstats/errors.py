"""Error taxonomy mapped onto process exit codes by the command line layer.

ConfigError -> exit 1, OSError -> exit 2, DataError -> exit 3. Readers of
text files iterate numbered_lines, so undecodable bytes are a DataError.
"""


class ConfigError(Exception):
    """Invalid or inconsistent configuration (bad flag values, empty globs)."""


class DataError(Exception):
    """Malformed reference data that cannot be skipped (gazetteer geometry,
    schema mismatches between files being compared)."""


def numbered_lines(fh, path: str):
    """enumerate(fh, 1), reporting undecodable bytes as a DataError naming the file."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not valid UTF-8: {e}") from None
