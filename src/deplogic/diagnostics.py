"""Diagnostics shared by the parsers and the proof kernel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Span:
    """1-based line, 0-based column range within a source text."""

    line: int
    col_start: int
    col_end: int


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Optional[Span] = None

    def __str__(self) -> str:
        where = f"{self.span.line}:{self.span.col_start}: " if self.span else ""
        return f"{where}{self.message}"


class ParseError(Exception):
    """Raised by the parsers; carries a Diagnostic with a source span."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic
