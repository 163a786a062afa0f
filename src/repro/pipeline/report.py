"""Plain-text reporting helpers.

Benchmarks and examples print the same rows and series the paper plots; these
helpers render them as aligned text tables (and simple series listings)
without any plotting dependency.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, Optional

__all__ = ["format_table", "format_series", "format_kv"]

#: Decimal places of every rendered float.
FLOAT_DIGITS = 3


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{FLOAT_DIGITS}f}"
    if value is None:
        return "-"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows as an aligned text table.

    ``columns`` fixes the column order (defaults to the keys of the first row).
    Missing cells render as ``-``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    rendered = [[_fmt(row.get(c)) for c in cols] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(cols))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Mapping[Any, Any]],
    x_label: str = "x",
    title: Optional[str] = None,
) -> str:
    """Render named series ``{name: {x: y}}`` as a table with one column per series."""
    xs: list[Any] = []
    for values in series.values():
        for x in values:
            if x not in xs:
                xs.append(x)
    try:
        xs.sort()
    except TypeError:
        pass
    rows = []
    for x in xs:
        row: dict[str, Any] = {x_label: x}
        for name, values in series.items():
            row[name] = values.get(x)
        rows.append(row)
    return format_table(rows, columns=[x_label, *series.keys()], title=title)


def format_kv(mapping: Mapping[str, Any], title: Optional[str] = None) -> str:
    """Render a flat mapping as ``key: value`` lines."""
    lines = [title] if title else []
    width = max((len(k) for k in mapping), default=0)
    for k, v in mapping.items():
        lines.append(f"{k.ljust(width)} : {_fmt(v)}")
    return "\n".join(lines)
