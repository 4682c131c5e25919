"""One benchmark query: a document, the CLI arguments after it, and a check."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class Query:
    """``check(exit_code, output)`` returns None when the answer is right,
    else a one-line reason.  ``doc`` names the fixture document the query
    reads, or None for a query that takes its argv as is."""

    doc: str | None
    args: list[str]
    check: Callable[[int, str], str | None]
    label: str = ""
    reject: bool = False
