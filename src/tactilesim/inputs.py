"""Checked reading of what the library and the commands take: one error
type naming the field or the file, the base of the validated named tuples
(every config and value type), the field check their constructors and the
scenario schema share, and the reading of an input file.

The module imports no file format and no numpy, so a command loads only the
parser it runs.
"""

from __future__ import annotations

import math
import numbers
import operator


class ScenarioError(ValueError):
    """A field, input, option or output the library or a command cannot use;
    the message names the field or the file."""


class Checked:
    """Base of the validated named tuples, whose ``__new__`` checks and
    normalises the fields.  namedtuple's ``_make`` (and ``_replace``, which
    calls it) would build the tuple around ``__new__``; here it calls the
    constructor.  Pickle and ``copy`` rebuild through ``__new__`` already.
    A subclass without ``__slots__`` keeps its cached properties in its
    ``__dict__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def check(value, kind, name: str):
    """``value`` of the field ``name`` as a ``kind``, or a ScenarioError
    naming the field; every config constructor checks its fields through
    this, and the scenario schema its leaves.  A bool is never a number, an
    integer field takes only an integer (``operator.index``), a float field
    an integer as a float or any finite real number as it is (a float32
    stays one), and no integer lies beyond the float range."""
    if kind is int or kind is float:
        # YAML booleans are ints to Python: `seed: false` must not read as 0.
        if isinstance(value, bool):
            raise ScenarioError(f"field '{name}' must be {kind.__name__}, got bool")
        try:
            value = operator.index(value)
            as_float = float(value)
        except TypeError:
            pass
        except OverflowError:  # not repr'd: it may run to thousands of digits
            raise ScenarioError(f"field '{name}' is an integer beyond the float range") from None
        else:
            value = as_float if kind is float else value
    if not isinstance(value, numbers.Real if kind is float else kind):
        raise ScenarioError(f"field '{name}' must be {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"field '{name}' must be finite, got {value!r}")
    return value


def check_items(values, kind, name: str, length: int | None = None) -> tuple:
    """The items of the list (or other iterable but a string or a mapping)
    ``values``, each checked as a ``kind`` and named ``name[i]``; ``length``
    fixes their count."""
    if isinstance(values, (str, bytes, dict)) or not hasattr(values, "__iter__"):
        raise ScenarioError(f"field '{name}' must be list, got {type(values).__name__}")
    values = tuple(values)
    if length is not None and len(values) != length:
        raise ScenarioError(f"field '{name}' must be a list of {length} numbers")
    return tuple(check(v, kind, f"{name}[{i}]") for i, v in enumerate(values))


def read_input(path, parse, what: str, parse_errors: tuple = ()):
    """``parse`` of the ``what`` file at ``path``, opened as UTF-8.  A file
    that cannot be read, decoded or parsed (``parse`` raising one of
    ``parse_errors``) is a ScenarioError naming it, and a ScenarioError from
    ``parse`` gains ``what`` as its prefix."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except ScenarioError as exc:
        raise ScenarioError(f"{what}: {exc}") from None
    # ValueError covers UnicodeDecodeError and json's JSONDecodeError; a
    # deeply nested document exhausts either parser's recursion.
    except (OSError, ValueError, RecursionError, *parse_errors) as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from exc
