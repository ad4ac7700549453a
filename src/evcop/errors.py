"""Exception types, and the one reader of each input rule: the argparse type
of a flag, the :func:`read_field` converter of a spec or model field and the
library's check of its parameters.  A reader returns the value or raises
:class:`InputError` saying what it expected or what the rule is.
"""

import argparse
import math


class EvcopError(Exception):
    """Base class for all package-specific errors."""


class InputError(EvcopError, ValueError):
    """Malformed or out-of-contract user input (CLI exit code 2)."""


class NumericalError(EvcopError, RuntimeError):
    """Numerical breakdown: divergence, overflow, failed bracketing (CLI exit code 3)."""


def read_field(doc: dict, path: str, convert, default=None):
    """``convert`` of the value at the dotted ``path`` of a JSON document (or
    of any mapping).

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
    """An int, integral float or numeric string as an int; a boolean, a
    fractional number or other text is refused, not read as 0, 1 or its
    truncation."""
    if not (isinstance(value, bool) or (isinstance(value, float)
                                        and not value.is_integer())):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise InputError(f"expected an integer, got {value!r}")


def real(value) -> float:
    """A number or numeric string as a float; a boolean is not 0.0 or 1.0,
    and other text is refused."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise InputError(f"expected a number, got {value!r}")


def _as_bool(value) -> bool:
    """A boolean as itself; anything else, ``"false"`` too, is refused."""
    if not isinstance(value, bool):
        raise InputError(f"expected true or false, got {value!r}")
    return value


class _Refused(argparse.ArgumentTypeError, InputError):
    """A value outside its rule: an InputError whose text argparse reports."""


def _reader(kind, name: str, rule: str, ok, show=str):
    """Reader of a ``kind`` value that ``ok`` accepts; it refuses any other,
    saying that ``name`` must be ``rule`` and showing the value by ``show``."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise _Refused(f"{name} must be {rule}, got {show(value)}")
        return value
    convert.__name__ = kind.__name__  # argparse: "invalid integer value: 'x'"
    return convert


def _at_least(name: str, lo: int):
    """Reader of an integer that must be ``lo`` or more."""
    return _reader(integer, name, f">= {lo}", lambda n: n >= lo)


# a cubic spline basis has more than 3 functions
_BASIS_DIM = _at_least("basis_dim", 4)
_COUNT = _at_least("n", 1)
_SAMPLE_SIZE = _at_least("sample size", 30)
# numpy's generators take only non-negative seeds
_SEED = _at_least("seed", 0)
_LAM = _reader(real, "lam", "finite and >= 0", lambda x: 0.0 <= x < math.inf)
_RADIUS = _reader(real, "R", "finite and > 0", lambda x: 0.0 < x < math.inf)
_BOUNDS = _reader(lambda v: tuple(map(real, v)), "bounds",
                  "two finite numbers a < b",
                  lambda ab: len(ab) == 2 and -math.inf < ab[0] < ab[1] < math.inf,
                  lambda ab: " ".join(f"{x:g}" for x in ab))
