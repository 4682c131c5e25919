"""Fixture text helpers and a machine-report reader, written without xmlift.

The benchmark hands xmlift nothing but document text and an argv, and reads
back nothing but the bytes xmlift prints.
"""

from __future__ import annotations


def rows_text(rows) -> str:
    return " ; ".join(" ".join("-" if v is None else str(v) for v in row) for row in rows)


def parse_report(text: str) -> dict[str, object]:
    """Machine report as a dict: scalars map to strings, blocks to row lists."""
    lines = text.splitlines()
    out: dict[str, object] = {}
    i = 0
    while i < len(lines):
        line = lines[i]
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key] = value
            i += 1
            continue
        if not line.endswith(":"):
            raise ValueError(f"unparseable report line {line!r}")
        key, rows = line[:-1], []
        i += 1
        while i < len(lines) and " = " not in lines[i] and not lines[i].endswith(":"):
            rows.append(lines[i])
            i += 1
        out[key] = rows
    return out


def ints(value) -> list[int]:
    """A comma separated array item as a list of ints (empty string is [])."""
    return [int(v) for v in value.split(",")] if value else []


def table(rows) -> list[list[int]]:
    return [ints(r) for r in rows]


def flag(value: bool) -> str:
    return "true" if value else "false"
