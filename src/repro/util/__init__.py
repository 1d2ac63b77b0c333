"""Shared utilities: validation, ASCII tables and charts, timing, fan-out."""

from .ascii_plot import ascii_chart
from .parallel import chunked, parallel_map, resolve_workers
from .tables import format_series, format_table
from .timing import Timer
from .validation import (as_float_array, as_index_array, check_positive,
                         check_probability, check_same_length, require)

__all__ = [
    "Timer",
    "chunked",
    "parallel_map",
    "resolve_workers",
    "as_float_array",
    "ascii_chart",
    "as_index_array",
    "check_positive",
    "check_probability",
    "check_same_length",
    "format_series",
    "format_table",
    "require",
]
