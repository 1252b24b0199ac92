"""Exception classes shared across the package, and the one type rule and
one range rule for config values (config files, checkpoint metadata).

Exit-code mapping for the CLI lives in cli.py: InputError/ConfigError are
usage-class failures (exit 2), InternalInvariantError is exit 3.
"""

import dataclasses


class HyperadaptError(Exception):
    """Base class for all package errors."""


class ShapeError(HyperadaptError):
    """Operand shapes are incompatible for an op.

    Message always names the op and the offending axes.
    """

    def __init__(self, op, message):
        self.op = op
        super().__init__(f"{op}: {message}")


class InputError(HyperadaptError):
    """Caller passed invalid data (empty input, out-of-range id, non-finite value)."""


class ConfigError(HyperadaptError):
    """Invalid or inconsistent configuration."""


class StateError(HyperadaptError):
    """Operation called in the wrong order (e.g. backward before forward)."""


class NumericsError(HyperadaptError):
    """Non-finite value produced where a finite one is required."""


class InfeasibleAlignmentError(InputError):
    """Monotonic complete alignment impossible (fewer frames than phonemes)."""


class InternalInvariantError(HyperadaptError):
    """A guaranteed invariant was violated; indicates a bug, not bad input."""


def checked(key, default, value):
    """`value` for `key` if it has the type of the key's default: an int key
    takes an int, a float key an int or a float, a bool, str, list or dict
    key only its own type. Otherwise a ConfigError naming the key."""
    kind = type(default)
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"key '{key}' expects {kind.__name__}, got {value!r}")
    return value


def merge_checked(node, data, prefix):
    """Merge the JSON object `data` into the defaults `node`, each key known
    there and each value checked against its default; `prefix` names keys."""
    for key, value in data.items():
        if key not in node:
            raise ConfigError(f"unknown key '{prefix}{key}'")
        if isinstance(node[key], dict):
            merge_checked(node[key], checked(f"{prefix}{key}", {}, value), f"{prefix}{key}.")
        else:
            node[key] = checked(f"{prefix}{key}", node[key], value)


def in_range(key, value, declared):
    """ConfigError naming `key`, unless `value` lies in the range `declared`
    for it: a tuple of choices, a function that raises ConfigError for a
    value outside, or an interval of numbers that holds it (or each item of
    a list). "[" and "]" include their end, "(" and ")" do not, "inf" is no
    bound; "int [1, inf)" holds only its ints.
    NaN lies in no interval, and an infinity in none: no "inf" end is closed."""
    if callable(declared):
        try:
            declared(value)
        except ConfigError as e:
            raise ConfigError(f"{key}={value!r} is not valid: {e}") from None
    elif isinstance(declared, tuple):
        if value not in declared:
            raise ConfigError(f"{key}={value!r} is not one of {list(declared)}")
    else:
        interval = declared.removeprefix("int ")
        low, high = (float(end) for end in interval[1:-1].split(","))
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if not (isinstance(v, int if interval != declared else (int, float))
                    and not isinstance(v, bool)
                    and (v >= low if interval[0] == "[" else v > low)
                    and (v <= high if interval[-1] == "]" else v < high)):
                raise ConfigError(f"{key}={value!r} is not in {declared}")


def ranged(default, declared):
    """A dataclass field with `default` and the range `declared` (in_range)."""
    return dataclasses.field(default=default, metadata={"range": declared})


def check_fields(obj, prefix):
    """in_range for each (ranged) field of the dataclass `obj`, named `prefix` + its name."""
    for f in dataclasses.fields(obj):
        in_range(prefix + f.name, getattr(obj, f.name), f.metadata["range"])
