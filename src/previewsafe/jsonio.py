"""Deterministic JSON writing with floats at 17 significant digits.

The standard library emits shortest-roundtrip floats; the file contracts in
this package pin 17 significant digits instead, so the writer below walks the
object tree itself.  Output is byte-stable for identical inputs (keys are
emitted in insertion order, which the builders keep fixed).
"""

from __future__ import annotations

import json
import math
from typing import Any

__all__ = ["dumps_17g", "format_float"]

_INDENT = 2


def format_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(float(value), ".17g")


def _write(obj: Any, out: list, level: int) -> None:
    pad = " " * (_INDENT * (level + 1))
    close_pad = " " * (_INDENT * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(pad)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        # flat numeric rows stay on one line for readability
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
            body = ", ".join(
                format_float(v) if isinstance(v, float) else str(v) for v in items
            )
            out.append("[" + body + "]")
            return
        out.append("[\n")
        for i, val in enumerate(items):
            out.append(pad)
            _write(val, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        try:
            out.append(format_float(float(obj)))
        except (TypeError, ValueError) as exc:
            raise TypeError(f"cannot serialize {type(obj)!r}") from exc


def dumps_17g(obj: Any) -> str:
    out: list = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)
