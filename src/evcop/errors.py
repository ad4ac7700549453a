"""Exception types shared across the package, and the readers of input fields."""


class EvcopError(Exception):
    """Base class for all package-specific errors."""


class InputError(EvcopError, ValueError):
    """Malformed or out-of-contract user input (CLI exit code 2)."""


class NumericalError(EvcopError, RuntimeError):
    """Numerical breakdown: divergence, overflow, failed bracketing (CLI exit code 3)."""


def read_field(doc: dict, path: str, convert, default=None):
    """``convert`` of the value at the dotted ``path`` of a JSON document.

    An absent or null value gives ``default``, and is an error when
    ``default`` is None.  Malformed input raises :class:`InputError` naming
    the field.
    """
    *sections, key = path.split(".")
    for name in sections:
        doc = doc.get(name, {})
        if not isinstance(doc, dict):
            raise InputError(f"field {name!r} must be a JSON object")
    value = doc.get(key)
    if value is None:
        if default is None:
            raise InputError(f"missing field {path!r}")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed field {path!r}: {exc}") from exc


def integer(value) -> int:
    """An int, an integral float or a numeric string as an int; a boolean or
    a fractional number raises ValueError instead of reading as 0, 1 or its
    truncation."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)
