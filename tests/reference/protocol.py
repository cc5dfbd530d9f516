"""The row-wise oracle for :func:`repro.service.protocol.result_payload`.

The production builder turns each shown column into Python values with
one ``tolist``; this is the builder it replaced, one ``result.row(i)``
(one ``store.column(name)[i]`` read per cell) at a time.
``tests/test_service.py`` checks the two agree value for value and type
for type.
"""

from __future__ import annotations

from repro.db import ResultSet


def rowwise_result_payload(result: ResultSet, max_rows: int | None = None) -> dict:
    """``result_payload`` built one row at a time."""
    num_rows = result.num_rows
    shown = num_rows if max_rows is None else min(num_rows, int(max_rows))
    return {
        "columns": list(result.column_names),
        "group_keys": list(result.group_key_names),
        "aggregates": list(result.aggregate_names),
        "num_rows": num_rows,
        "rows": [list(result.row(i)) for i in range(shown)],
        "truncated": shown < num_rows,
    }
