"""Checked reading of what the commands take: one error type naming the field
or the file, the number check every field shares, the reading of an input
file and the check of a set of round-trip latency limits.

The scenario schema (``tactilesim.scenario``) and ``tactilesim latency``'s
targets and ``--limits`` are read through these; the module imports no file
format, so a command loads only the parser it runs.
"""

from __future__ import annotations

import math

from tactilesim.budget import hardware_time_limit


class ScenarioError(ValueError):
    """An input, option or output a command cannot use; the message names the
    field or the file."""


def check(value, kind, name: str):
    """``value`` as a ``kind`` (an int reads as a float); a bool is never a
    number, a number never an integer beyond the float range, and a float
    must be finite."""
    # YAML booleans are ints to Python: `seed: false` must not read as 0.
    if kind in (int, float) and isinstance(value, bool):
        raise ScenarioError(f"field '{name}' must be {kind.__name__}, got bool")
    if kind in (int, float) and isinstance(value, int):
        try:
            as_float = float(value)
        except OverflowError:  # not repr'd: it may run to thousands of digits
            raise ScenarioError(f"field '{name}' is an integer beyond the float range") from None
        if kind is float:
            value = as_float
    if not isinstance(value, kind):
        raise ScenarioError(f"field '{name}' must be {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"field '{name}' must be finite, got {value!r}")
    return value


def check_limits(limits, t_hw: float, name: str) -> None:
    """Each round-trip latency limit must be finite and nonnegative, and its
    speedup ``hardware_time_limit(limit) / t_hw``, which the reports print as
    an integer, must be finite.  ``name`` is the field the limits came from."""
    for i, lim in enumerate(limits):
        if not (math.isfinite(lim) and lim >= 0):
            raise ScenarioError(f"field '{name}[{i}]' must be finite and nonnegative, got {lim!r}")
        if not (t_hw > 0 and math.isfinite(hardware_time_limit(lim) / t_hw)):
            raise ScenarioError(
                f"field '{name}[{i}]' is too large for a finite speedup "
                f"over t_hardware {t_hw!r} s: {lim!r} s"
            )


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
