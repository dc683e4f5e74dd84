"""Shared exception types and the type and seed rules for config and model-file values."""


class DataError(ValueError):
    """Malformed or inconsistent input data (bad row, duplicate id, wrong column count, bad setting)."""


class BenchmarkError(Exception):
    """A benchmark stage failed; message carries the run index and stage name."""


def check_type(key: str, value, default) -> None:
    """DataError unless value is of default's type; an int also passes for a float, a bool never for a number."""
    want = type(default)
    ok = isinstance(value, (int, float) if want is float else want)
    if not ok or (isinstance(value, bool) and want is not bool):
        raise DataError(f"{key} must be {want.__name__}, not {type(value).__name__} {value!r}")


def check_seed(key: str, value) -> None:
    """DataError unless value is an int >= 0, as numpy's and Python's seeded generators take."""
    check_type(key, value, 0)
    if value < 0:
        raise DataError(f"{key} must be >= 0, got {value!r}")
