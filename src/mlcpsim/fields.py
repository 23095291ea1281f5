"""Parameter-field domains and the versioned-JSON codec.

A field's annotation gives its kind: a ``float`` is a finite real number,
an ``int`` an integral one, a ``bool`` a bool (never a number), a ``str`` a
string.  ``bounds`` adds limits, choices, a grid or an order as metadata.
``check_values`` tests fields with comparisons that NaN fails, so the
configuration, the Python API and the file reader share one check;
``FieldError.under`` adds the key's prefix, and ``under`` adds it to any
``FieldError`` raised in a block.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from contextlib import contextmanager
from dataclasses import MISSING, asdict, field, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

#: What each annotated kind admits, and how a message names it.
_KINDS = {
    "bool": ("a boolean", lambda v: isinstance(v, (bool, np.bool_))),
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a finite number", lambda v: isinstance(v, numbers.Real)
              and not isinstance(v, bool) and abs(v) < math.inf),
    "str": ("a string", lambda v: isinstance(v, str)),
}
_LIMITS = {"gt": (">", operator.gt), "ge": (">=", operator.ge), "lt": ("<", operator.lt),
           "le": ("<=", operator.le)}


def bounds(default=MISSING, like: tuple = (), **domain):
    """A field with limits ``gt``, ``ge``, ``lt`` or ``le`` (>, >=, <, <=) or
    ``choices`` on its value, and those of the field ``like`` names as
    (dataclass, field name); with ``grid``, the kind ("int" or "str") of its
    items, a comma-separated string of one or more distinct items, each so;
    with ``ge_field``, the name of a field of its class that it is >=."""
    if like:
        domain = {**like[0].__dataclass_fields__[like[1]].metadata, **domain}
    return field(default=default, metadata=domain)


def parse_str_list(raw: str) -> list[str]:
    """The items of a comma-separated list, such as a grid; blank ones are dropped."""
    return [part.strip() for part in raw.split(",") if part.strip()]


class FieldError(ValueError):
    """``'<key>' must be <domain>, got <value>``.  A cross-field domain names
    the other field at ``{}``; ``under(prefix)`` prefixes both names."""

    def __str__(self) -> str:
        key, domain, value, other = self.args
        shown = json.dumps(value, default=repr)
        return f"{key!r} must be {domain.format(repr(other))}, got {shown}"

    def under(self, prefix: str) -> FieldError:
        key, domain, value, other = self.args
        return FieldError(prefix + key, domain, value, other and prefix + other)


@contextmanager
def under(prefix: str):
    """Re-raise a ``FieldError`` from the block with ``prefix`` before its names."""
    try:
        yield
    except FieldError as exc:
        raise exc.under(prefix) from None


def check_values(cls, values: dict) -> None:
    """Raise ``FieldError`` naming the first annotated field of dataclass
    ``cls`` whose value in ``values`` lies outside its domain, then the first
    below its ``ge_field`` (absent ones pass); for a grid, the value shown is
    its first item outside it."""
    for f in fields(cls):
        if f.type in _KINDS and f.name in values:
            value, meta = values[f.name], f.metadata
            what, admits = _KINDS[meta.get("grid", f.type)]
            limits = [(*_LIMITS[op], limit) for op, limit in meta.items() if op in _LIMITS]
            choices, items = meta.get("choices", ()), [value]
            if "grid" in meta and isinstance(value, str):  # an empty grid is one empty item
                items = [int(item) if meta["grid"] == "int" and re.fullmatch(r"[+-]?[0-9]+", item)
                         else item for item in parse_str_list(value) or [value]]
            for i, item in enumerate(items):
                if not (admits(item) and all(test(item, limit) for _, test, limit in limits)
                        and (not choices or item in choices) and item not in items[:i]):
                    domain = (f"one of {', '.join(choices)}" if choices else f"{what} "
                              + " and ".join(f"{sign} {limit}" for sign, _, limit in limits))
                    grid = ", each listed once" if "grid" in meta else ""
                    raise FieldError(f.name, domain.rstrip() + grid, item, "")
    for f in fields(cls):  # orders, once every value lies in its own domain
        low = f.metadata.get("ge_field")
        if low in values and f.name in values and not values[low] <= values[f.name]:
            raise FieldError(f.name, f">= {{}} ({values[low]})", values[f.name], low)


def check_fields(obj) -> None:
    """Raise ``FieldError`` naming the first scalar field of the dataclass
    ``obj`` whose value lies outside its domain."""
    check_values(type(obj), vars(obj))


def json_array(value) -> list:
    """``json.dumps`` default: an array as nested lists, bools as 0/1."""
    if not isinstance(value, np.ndarray):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return (value.astype(int) if value.dtype == bool else value).tolist()


def write_versioned_json(path: str | Path, fmt: str, version: int, obj) -> None:
    """Write dataclass ``obj``'s fields (nested ones as objects, arrays as
    ``json_array`` lists) beside ``format`` and ``version``: keys sorted,
    compact, one LF-ended line, so the bytes depend on the values alone."""
    doc = {"format": fmt, "version": version, **asdict(obj)}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=json_array)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def _from_fields(cls, doc, prefix: str = ""):
    """Build ``cls`` from an object with exactly its fields, nested
    dataclasses from nested objects; names the first missing or unknown key,
    and a value the class rejects under its key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{prefix.rstrip('.')!r} is not a JSON object")
    names, hints = [f.name for f in fields(cls)], get_type_hints(cls)
    if bad := ([f"missing key {prefix + name!r}" for name in names if name not in doc]
               + [f"unknown key {prefix + key!r}" for key in sorted(doc) if key not in names]):
        raise ValueError(bad[0])
    values = {name: _from_fields(hints[name], doc[name], f"{prefix}{name}.")
              if is_dataclass(hints[name]) else doc[name] for name in names}
    with under(prefix):
        return cls(**values)


def read_versioned_json(path: str | Path, fmt: str, version: int, cls):
    """The ``cls`` that ``write_versioned_json`` wrote; a ``ValueError`` that
    names the file for any other document or a value the classes reject."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("the document is not a JSON object")
        if (tag := doc.pop("format", None)) != fmt:
            raise ValueError(f"not a {fmt} file (format {tag!r})")
        if type(found := doc.pop("version", None)) is not int or found != version:
            raise ValueError(f"unsupported {fmt} version {found!r} (expected {version})")
        return _from_fields(cls, doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
