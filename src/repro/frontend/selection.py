"""Brush selections: how the user highlights suspicious points.

A :class:`Brush` is the rectangular drag-selection of the dashboard; it
selects point *keys* (result-row indexes on a results plot, tids on a
tuples plot). Brushes can be unioned to model multiple drags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SessionError
from .scatter import ScatterData


@dataclass(frozen=True)
class Brush:
    """An axis-aligned selection rectangle (inclusive bounds)."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self) -> None:
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise SessionError(
                f"degenerate brush: ({self.x0},{self.y0})..({self.x1},{self.y1})"
            )

    @classmethod
    def over_x(cls, x0: float, x1: float) -> "Brush":
        """A brush spanning the full y range (select by x only)."""
        return cls(x0, x1, -np.inf, np.inf)

    @classmethod
    def above(cls, y: float) -> "Brush":
        """Everything with y >= the given value — 'suspiciously high'."""
        return cls(-np.inf, np.inf, y, np.inf)

    @classmethod
    def below(cls, y: float) -> "Brush":
        """Everything with y <= the given value — 'suspiciously low'."""
        return cls(-np.inf, np.inf, -np.inf, y)

    def mask(self, scatter: ScatterData) -> np.ndarray:
        """Boolean mask over the scatter's points."""
        with np.errstate(invalid="ignore"):
            inside = (
                (scatter.x >= self.x0)
                & (scatter.x <= self.x1)
                & (scatter.y >= self.y0)
                & (scatter.y <= self.y1)
            )
        return np.asarray(inside, dtype=bool)

    def select(self, scatter: ScatterData) -> np.ndarray:
        """Keys of the points inside the rectangle."""
        return scatter.keys[self.mask(scatter)]


def union_select(brushes: list[Brush], scatter: ScatterData) -> np.ndarray:
    """Keys selected by any of several brushes (multiple drag gestures)."""
    if not brushes:
        return np.empty(0, dtype=np.int64)
    mask = np.zeros(len(scatter), dtype=bool)
    for brush in brushes:
        mask |= brush.mask(scatter)
    return scatter.keys[mask]
