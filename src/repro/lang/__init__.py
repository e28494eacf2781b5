"""Punctuation mini-language (system S8 in ``docs/architecture.md``)."""

from repro.lang.query import Catalog, compile_flow, compile_query
from repro.lang.punctlang import (
    format_feedback,
    format_pattern,
    parse_feedback,
    parse_pattern,
    parse_punctuation,
)

__all__ = [
    "Catalog",
    "compile_flow",
    "compile_query",
    "format_feedback",
    "format_pattern",
    "parse_feedback",
    "parse_pattern",
    "parse_punctuation",
]
