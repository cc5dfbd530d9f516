"""Error-metric forms (Figure 5).

Paper §2.2.1 (3): *"The frontend dynamically offers the user a choice of
predefined metric functions depending on the query results that are
highlighted by the user. For example, if the user highlighted results
generated by the avg function, DBWipes would generate [options] such as
'value is too high', and 'should be equal to '."*

:func:`forms_for` produces the option list for an aggregate function;
submitting an option instantiates the matching
:class:`~repro.core.error_metrics.ErrorMetric`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.error_metrics import ErrorMetric, metric_from_form
from ..errors import SessionError


@dataclass(frozen=True)
class FormOption:
    """One selectable error form with its parameter names and defaults."""

    form_id: str
    label: str
    #: Parameter names the user must fill in (e.g. ("threshold",)).
    params: tuple[str, ...]
    #: Suggested defaults derived from the current selection.
    defaults: dict

    def build(self, **overrides) -> ErrorMetric:
        """Instantiate the metric, with ``overrides`` taking precedence."""
        unknown = sorted(set(overrides) - set(self.params) - {"combine"})
        if unknown:
            raise SessionError(f"error form {self.form_id!r} takes no {unknown}")
        arguments = dict(self.defaults)
        arguments.update(overrides)
        missing = [name for name in self.params if name not in arguments]
        if missing:
            raise SessionError(f"error form {self.form_id!r} missing {missing}")
        return metric_from_form(self.form_id, **arguments)


#: Aggregates for which each form makes sense.
_FORM_IDS_BY_AGG = {
    "avg": ("too_high", "too_low", "not_equal"),
    "sum": ("too_high", "too_low", "not_equal"),
    "count": ("too_high", "too_low", "not_equal"),
    "min": ("too_low", "too_high", "not_equal"),
    "max": ("too_high", "too_low", "not_equal"),
    "stddev": ("too_high", "not_equal", "too_low"),
    "var": ("too_high", "not_equal", "too_low"),
}

_LABELS = {
    "too_high": "values are too high",
    "too_low": "values are too low",
    "not_equal": "values should equal ...",
    "diff": "diff from expected constant",
}


def forms_for(
    agg_func: str,
    selected_values: np.ndarray | None = None,
    unselected_values: np.ndarray | None = None,
) -> list[FormOption]:
    """Error-form options for results produced by ``agg_func``.

    Defaults are derived from context when available: the threshold for
    "too high"/"too low" defaults to the edge of the *unselected* values
    (what normal looks like), and "should equal" defaults to their
    median.
    """
    form_ids = _FORM_IDS_BY_AGG.get(agg_func.lower())
    if form_ids is None:
        raise SessionError(f"no error forms registered for aggregate {agg_func!r}")
    reference = None
    if unselected_values is not None and len(unselected_values):
        reference = np.asarray(unselected_values, dtype=np.float64)
        reference = reference[~np.isnan(reference)]
        if len(reference) == 0:
            reference = None
    options: list[FormOption] = []
    for form_id in form_ids:
        defaults: dict = {}
        if form_id in ("too_high", "diff"):
            if reference is not None:
                defaults["threshold"] = float(np.max(reference))
            params = ("threshold",)
        elif form_id == "too_low":
            if reference is not None:
                defaults["threshold"] = float(np.min(reference))
            params = ("threshold",)
        else:
            if reference is not None:
                defaults["expected"] = float(np.median(reference))
            params = ("expected",)
        options.append(
            FormOption(
                form_id=form_id,
                label=_LABELS[form_id],
                params=params,
                defaults=defaults,
            )
        )
    return options
