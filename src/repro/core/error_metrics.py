"""User-specified error metrics ε(S).

The paper (§2.1) defines an error metric as a function over the selected
aggregate results S that is 0 when S is error-free and positive
otherwise, e.g.::

    diff(S) = max(0, max_{s in S} (s - c))

Every metric here decomposes as ``combine(per_value_error(s) for s in S)``
with ``combine ∈ {max, sum}``. The decomposition is what makes
leave-one-out influence cheap: removing one input tuple changes exactly
one group's aggregate value, so ε can be re-evaluated in O(1) given the
per-value error of the other groups (see :mod:`repro.core.influence`).

NaN group values (a group that lost all its inputs) contribute zero
error: deleting every tuple of a bad group *fixes* it.
"""

from __future__ import annotations

import numpy as np

from ..errors import PipelineError

COMBINES = ("max", "sum")


class ErrorMetric:
    """Base class: ε(S) = combine of per-value errors."""

    #: Form identifier (what the frontend's error form submits).
    form_id: str = ""
    #: +1 if large values are suspect, -1 if small, 0 if distance-based.
    direction: int = 0

    def __init__(self, combine: str = "max"):
        if combine not in COMBINES:
            raise PipelineError(f"combine must be one of {COMBINES}")
        self.combine = combine

    def per_value_error(self, values: np.ndarray) -> np.ndarray:
        """φ(s) for each aggregate value; NaN inputs yield 0."""
        raise NotImplementedError

    def __call__(self, values: np.ndarray) -> float:
        """ε over a vector of selected-group aggregate values."""
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            return 0.0
        errors = self.per_value_error(values)
        if self.combine == "max":
            return float(errors.max()) if len(errors) else 0.0
        return float(errors.sum())

    def describe(self) -> str:
        """Human-readable description shown in the error form."""
        raise NotImplementedError

    def _zero_nan(self, values: np.ndarray, errors: np.ndarray) -> np.ndarray:
        errors = np.asarray(errors, dtype=np.float64)
        errors[np.isnan(values)] = 0.0
        return errors


class TooHigh(ErrorMetric):
    """"Values are too high": φ(s) = max(0, s − threshold).

    With ``combine="max"`` this is exactly the paper's ``diff`` metric.
    """

    form_id = "too_high"
    direction = +1

    def __init__(self, threshold: float, combine: str = "max"):
        super().__init__(combine)
        self.threshold = float(threshold)

    def per_value_error(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            errors = np.maximum(values - self.threshold, 0.0)
        return self._zero_nan(values, errors)

    def describe(self) -> str:
        return f"values are too high (expected <= {self.threshold:g})"


class TooLow(ErrorMetric):
    """"Values are too low": φ(s) = max(0, threshold − s)."""

    form_id = "too_low"
    direction = -1

    def __init__(self, threshold: float, combine: str = "max"):
        super().__init__(combine)
        self.threshold = float(threshold)

    def per_value_error(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            errors = np.maximum(self.threshold - values, 0.0)
        return self._zero_nan(values, errors)

    def describe(self) -> str:
        return f"values are too low (expected >= {self.threshold:g})"


class NotEqual(ErrorMetric):
    """"Should equal c": φ(s) = |s − expected|."""

    form_id = "not_equal"
    direction = 0

    def __init__(self, expected: float, combine: str = "max"):
        super().__init__(combine)
        self.expected = float(expected)

    def per_value_error(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            errors = np.abs(values - self.expected)
        return self._zero_nan(values, errors)

    def describe(self) -> str:
        return f"values should equal {self.expected:g}"


class DiffFromConstant(TooHigh):
    """The paper's ``diff(S) = max(0, max_{s∈S}(s − c))`` by its own name."""

    form_id = "diff"

    def describe(self) -> str:
        return f"diff from expected constant {self.threshold:g}"


_METRICS: dict[str, type[ErrorMetric]] = {
    cls.form_id: cls for cls in (TooHigh, TooLow, NotEqual, DiffFromConstant)
}


def metric_from_form(form_id: str, **params) -> ErrorMetric:
    """Instantiate a metric from an error-form submission.

    ``params`` carries the form fields: ``threshold`` for too_high /
    too_low / diff, ``expected`` for not_equal, plus optional ``combine``.
    """
    try:
        cls = _METRICS[form_id]
    except KeyError:
        raise PipelineError(
            f"unknown error metric {form_id!r}; known: {sorted(_METRICS)}"
        ) from None
    return cls(**params)


def available_metric_ids() -> tuple[str, ...]:
    """All registered error-form metric identifiers."""
    return tuple(sorted(_METRICS))


def metric_spec(metric: ErrorMetric) -> dict | None:
    """A built-in metric's exact parameters, or ``None`` for other subclasses.

    :func:`~repro.core.preprocessor.preprocess_key` keys on this spec,
    because ``describe()`` rounds a threshold to six significant digits.
    Only the built-in form metrics, whose behaviour their parameters
    fully determine, have one; a user-defined subclass returns ``None``
    and is keyed on its own identity.
    """
    if _METRICS.get(type(metric).form_id) is not type(metric):
        return None
    spec: dict = {"form_id": metric.form_id, "combine": metric.combine}
    if isinstance(metric, NotEqual):
        spec["expected"] = metric.expected
    else:
        spec["threshold"] = metric.threshold
    return spec
