"""Kappa spec file parsing and serialization.

Format (hash comments and blank lines allowed anywhere):

    name = thue-morse        # optional
    L = 2
    k = 2
    preperiod = 0
    period = 1
    kappa =
    1

Either ``preperiod``/``period`` (eventually periodic) or ``window``
(finite window, hard error past the bound) must be present.  After the
``kappa =`` marker come exactly k-1 rows of whitespace-separated
integers, one row per digit value s = 1..k-1, each row with
preperiod + period (resp. window) columns.

Spec files are UTF-8 whatever the locale.  ``parse_spec`` decodes the
raw bytes once, skipping the pathlib and text-mode set-up that costs
more than parsing a small spec; ``splitlines`` handles CR and CRLF.
It reads the file on every call, but returns one ``KappaSpec`` object
per text among the last 8 texts parsed, so the work cached on a spec
(``normal_form``, the ``classify`` verdict, the chunk tables of
``kappa.a_values``, at most y0 + p tables of max(k, 4096) int64
entries) is done once for all the calls that read one file.  A file
that fails to parse raises on every call.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Any

from .errors import SpecParseError
from .kappa import KappaSpec

__all__ = ["parse_spec", "parse_spec_text", "spec_to_text"]

_INT_KEYS = {"L", "k", "preperiod", "period", "window"}


def parse_spec_text(text: str) -> KappaSpec:
    fields: dict[str, Any] = {}
    rows: list[tuple[int, ...]] = []
    in_matrix = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_matrix:
            try:
                rows.append(tuple(int(tok) for tok in line.split()))
            except ValueError:
                raise SpecParseError(f"bad kappa row {line!r}", line=lineno)
            continue
        if "=" not in line:
            raise SpecParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "kappa":
            if value:
                raise SpecParseError("kappa marker takes no inline value", line=lineno)
            in_matrix = True
            continue
        if key in fields:
            raise SpecParseError(f"repeated key {key!r}", line=lineno)
        if key == "name":
            fields["name"] = value
            continue
        if key not in _INT_KEYS:
            raise SpecParseError(f"unknown key {key!r}", line=lineno)
        try:
            fields[key] = int(value)
        except ValueError:
            raise SpecParseError(f"{key} needs an integer, got {value!r}", line=lineno)

    for required in ("L", "k"):
        if required not in fields:
            raise SpecParseError(f"missing required field {required!r}")
    if not in_matrix:
        raise SpecParseError("missing kappa matrix")
    if "window" in fields and ("period" in fields or "preperiod" in fields):
        raise SpecParseError("give either window or preperiod/period, not both")
    if "window" not in fields and "period" not in fields:
        raise SpecParseError("need either period (with preperiod) or window")

    try:
        return KappaSpec(preperiod=fields.pop("preperiod", 0), period=fields.pop("period", None),
                         table=tuple(rows), **fields)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


# lru_cache keeps no exception, so a bad file raises on every call.
_interned = lru_cache(maxsize=8)(parse_spec_text)


def parse_spec(path) -> KappaSpec:
    """The spec in the file at ``path``: one object per recent text (module docstring)."""
    with open(os.fspath(path), "rb", buffering=0) as file:  # str or PathLike, not an fd
        return _interned(file.read().decode("utf-8"))


def spec_to_text(spec: KappaSpec) -> str:
    """Spec file text that ``parse_spec_text`` reads back as ``spec``.

    Raises ValueError for a name the format cannot carry: one holding
    ``#`` or a line break, or with leading or trailing whitespace.
    """
    lines = []
    if spec.name is not None:
        name = spec.name
        if "#" in name or name != name.strip() or len(name.splitlines()) > 1:
            raise ValueError(f"spec name {name!r} cannot be written to a spec file")
        lines.append(f"name = {name}")
    lines.append(f"L = {spec.L}")
    lines.append(f"k = {spec.k}")
    if spec.is_finite_window:
        lines.append(f"window = {spec.window}")
    else:
        lines.append(f"preperiod = {spec.preperiod}")
        lines.append(f"period = {spec.period}")
    lines.append("kappa =")
    for row in spec.table:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
