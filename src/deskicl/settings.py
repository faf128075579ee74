"""Settings fields that declare their range, one checker, one value parser,
and one writer whose text the parser reads back.

No range holds NaN or infinity. Errors are ValueErrors that start `<field> = <value>`.
"""

import dataclasses
import math


def bounded(default=dataclasses.MISSING, *, ge=None, gt=None, le=None, lt=None):
    """A field whose value is at least `ge` or above `gt`, and at most `le` or below `lt`."""
    lo = (gt, True) if gt is not None else (ge, False) if ge is not None else (-math.inf, True)
    hi = (lt, True) if lt is not None else (le, False) if le is not None else (math.inf, True)
    return dataclasses.field(default=default, metadata={"bound": lo + hi})


def _check(f: dataclasses.Field, value) -> None:
    """Raise ValueError if `value` lies outside the range `f` declares."""
    if "bound" in f.metadata:
        lo, lo_open, hi, hi_open = f.metadata["bound"]
        if not ((lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi)):
            raise ValueError(f"{f.name} = {value} is not in {'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}")


def check_fields(obj) -> None:
    """Check every field of a settings dataclass; each one's `__post_init__` runs this."""
    for f in dataclasses.fields(obj):
        _check(f, getattr(obj, f.name))


_PARSERS = {"int": (int, "an int"), "float": (float, "a float"), "bool": ({"0": False, "1": True}.__getitem__, "0 or 1")}


def parse(raw: str, f: dataclasses.Field):
    """Field `f`'s value written as `raw` in a config file or on the command line,
    parsed by its annotation and checked."""
    if f.type not in _PARSERS:
        raise ValueError(f"{f.name} is not a config-file key: {f.type} values keep their defaults")
    parser, kind = _PARSERS[f.type]
    try:
        value = parser(raw.strip())
    except (KeyError, ValueError):
        raise ValueError(f"{f.name} = {raw.strip()!r} is not {kind}") from None
    _check(f, value)
    return value


def write(obj) -> dict[str, str]:
    """Every field of a settings dataclass that `parse` reads, by name, as
    `parse` reads it: bools as 0/1, other values with `str`, which writes a
    Python int or float as its repr and a NumPy scalar as plain digits."""
    values = {f: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.type in _PARSERS}
    return {f.name: str(int(v)) if f.type == "bool" else str(v) for f, v in values.items()}
