"""The per-row loop oracle for string comparisons.

:meth:`repro.db.expr.Comparison._compare_objects` compares object
(string) columns with one masked ufunc; this is the Python loop it
replaced, one row at a time. ``tests/test_expr.py`` checks the two
agree mask for mask.
"""

from __future__ import annotations

import operator

import numpy as np

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compare_objects_loop(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left op right`` row by row; a None on either side is False."""
    compare = _OPERATORS[op]
    out = np.zeros(len(left), dtype=bool)
    for i in range(len(left)):
        if left[i] is None or right[i] is None:
            continue
        out[i] = compare(left[i], right[i])
    return out
