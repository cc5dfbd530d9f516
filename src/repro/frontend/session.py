"""The DBWipes interactive session: the full Figure-1 loop.

A :class:`DBWipesSession` walks the exact sequence of user actions the
paper's frontend supports::

    execute query -> visualize results -> select suspicious results (S)
    -> zoom -> select suspicious inputs (D') -> pick error metric (ε)
    -> debug -> ranked predicates -> click predicate to clean
    -> query auto-updates -> repeat

Every arrow is a method; calling them out of order raises
:class:`~repro.errors.SessionError` with a hint about what must happen
first — the same constraints the GUI enforces by graying out controls.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core.error_metrics import ErrorMetric
from ..core.pipeline import PipelineConfig, RankedProvenance
from ..core.report import DebugReport, RankedPredicate
from ..db.catalog import Database
from ..db.predicate import Predicate
from ..db.result import ResultSet
from ..db.sqlparse.ast_nodes import Star
from ..db.table import Table
from ..errors import SessionError
from .forms import FormOption, forms_for
from .render import ascii_scatter, render_predicates_panel, render_query_panel
from .rewriter import QueryRewriter
from .scatter import ScatterData, from_result, _as_numeric
from .selection import Brush, union_select


#: The explicit session states, in the order of the Figure-1 loop.
#: ``set_metric`` may interleave with selection, so the metric is
#: tracked separately in :meth:`DBWipesSession.snapshot`; every other
#: arrow of the loop advances (or resets) the state below.
SESSION_STATES = (
    "new",               # no query executed yet
    "executed",          # execute() ran; nothing selected
    "results_selected",  # S chosen
    "zoomed",            # zoomed into F
    "inputs_selected",   # D' chosen
    "debugged",          # a ranked report is available
)


class DBWipesSession:
    """One user's interactive cleaning session against a database.

    ``preprocess_cache`` may be a shared
    :class:`~repro.core.preprocessor.PreprocessCache` so that many
    sessions served over the same catalog reuse preprocessing work; the
    serving tier (:mod:`repro.service`) wires one cache into every
    session it manages. Without one, the session keeps a private
    one-entry cache, so re-debugging an unchanged selection reuses its
    preprocessing and its memoized enumeration stages.
    """

    def __init__(
        self,
        db: Database,
        config: PipelineConfig | None = None,
        preprocess_cache=None,
    ):
        self.db = db
        self.pipeline = RankedProvenance(config, preprocess_cache=preprocess_cache)
        self._rewriter: QueryRewriter | None = None
        self._result: ResultSet | None = None
        self._selected_rows: tuple[int, ...] = ()
        self._zoom_table: Table | None = None
        self._dprime: np.ndarray = np.empty(0, dtype=np.int64)
        self._metric: ErrorMetric | None = None
        self._agg_name: str | None = None
        self._report: DebugReport | None = None
        self._state: str = "new"
        # Per-stage wall-clock counters (preprocess / enumerate / rank /
        # merge): the last debug's timings plus lifetime accumulations,
        # exposed via snapshot() so a live server reveals which pipeline
        # stage dominates without ad-hoc profiling.
        self._stage_timings: dict[str, float] = {}
        self._stage_totals: dict[str, float] = {}
        self._debug_count: int = 0

    @property
    def state(self) -> str:
        """Where in the Figure-1 loop this session currently is.

        One of :data:`SESSION_STATES`. Transitions are explicit: each
        session method that moves the loop forward (or resets it) sets
        the state it lands in, and the guards that raise
        :class:`~repro.errors.SessionError` document which states a
        method accepts.
        """
        return self._state

    def snapshot(self) -> dict:
        """A JSON-safe summary of the session's current state.

        This is the wire-level session view: everything a remote client
        (or a reconnecting dashboard) needs to re-render its controls
        without replaying the interaction history.
        """
        return {
            "state": self._state,
            "sql": self._rewriter.sql() if self._rewriter is not None else None,
            "num_rows": self._result.num_rows if self._result is not None else None,
            "columns": (
                list(self._result.column_names) if self._result is not None else []
            ),
            "selected_rows": [int(r) for r in self._selected_rows],
            "n_dprime": int(len(self._dprime)),
            "metric": self._metric.describe() if self._metric is not None else None,
            "agg_name": self._agg_name,
            "applied_predicates": [
                predicate.describe() for predicate in self.applied_predicates
            ],
            "can_redo": self._rewriter.can_redo if self._rewriter is not None else False,
            "n_ranked": len(self._report) if self._report is not None else 0,
            "timings": {
                "debug_count": self._debug_count,
                "last": dict(self._stage_timings),
                "total": dict(self._stage_totals),
            },
            "backend": self.pipeline.backend.stats(),
        }

    # ------------------------------------------------------------------
    # stage 1: execute + visualize
    # ------------------------------------------------------------------

    def execute(self, sql: str) -> ResultSet:
        """Run a new query (the Query Input Form). Resets all selections."""
        result = self.db.sql(sql)
        self._rewriter = QueryRewriter(result.statement)
        self._result = result
        self._clear_selection()
        self._report = None
        self._state = "executed"
        return result

    @property
    def result(self) -> ResultSet:
        """The current query result."""
        if self._result is None:
            raise SessionError("no query executed yet; call execute(sql) first")
        return self._result

    def scatter(self, x: str | None = None, y: str | None = None) -> ScatterData:
        """The results scatterplot (group keys vs aggregate by default)."""
        return from_result(self.result, x=x, y=y)

    def render(
        self,
        x: str | None = None,
        y: str | None = None,
        width: int = 72,
        height: int = 18,
    ) -> str:
        """ASCII rendering of the results plot, highlighting S if selected."""
        scatter = self.scatter(x=x, y=y)
        highlight = np.asarray(self._selected_rows, dtype=np.int64)
        return ascii_scatter(
            scatter, width=width, height=height, highlight_keys=highlight
        )

    # ------------------------------------------------------------------
    # stage 2: select suspicious results (S)
    # ------------------------------------------------------------------

    def select_results(
        self,
        selection: Brush | Sequence[Brush] | Iterable[int],
        x: str | None = None,
        y: str | None = None,
    ) -> tuple[int, ...]:
        """Brush (or list explicitly) the suspicious output rows S."""
        result = self.result
        rows = self._resolve_selection(selection, self.scatter(x=x, y=y))
        for row in rows:
            if row < 0 or row >= result.num_rows:
                raise SessionError(f"result row {row} out of range")
        self._selected_rows = tuple(int(r) for r in rows)
        self._zoom_table = None
        self._dprime = np.empty(0, dtype=np.int64)
        self._report = None
        self._state = "results_selected"
        return self._selected_rows

    @property
    def selected_rows(self) -> tuple[int, ...]:
        """The currently selected suspicious result rows S."""
        return self._selected_rows

    # ------------------------------------------------------------------
    # stage 3: zoom + select suspicious inputs (D')
    # ------------------------------------------------------------------

    def zoom(self, x: str | None = None, y: str | None = None) -> ScatterData:
        """Zoom into the raw input tuples behind S (Figure 4, right).

        By default x is the first GROUP BY expression evaluated per tuple
        and y is the debugged aggregate's argument — i.e. exactly the
        coordinates the user was already looking at, at tuple granularity.
        """
        if not self._selected_rows:
            raise SessionError("select suspicious results before zooming")
        result = self.result
        F = result.inputs_for(list(self._selected_rows))
        self._zoom_table = F
        x_label, x_values = self._zoom_axis_x(F, x)
        y_label, y_values = self._zoom_axis_y(F, y)
        x_numeric, x_categories = _as_numeric(x_values)
        y_numeric, y_categories = _as_numeric(y_values)
        self._state = "zoomed"
        return ScatterData(
            x_label=x_label,
            y_label=y_label,
            x=x_numeric,
            y=y_numeric,
            keys=np.asarray(F.tids).copy(),
            kind="tuples",
            x_categories=x_categories,
            y_categories=y_categories,
        )

    def _zoom_axis_x(self, F: Table, x: str | None):
        result = self.result
        if x is not None:
            return x, F.column(x)
        if result.statement.group_by:
            expr = result.statement.group_by[0]
            label = result.group_key_names[0] if result.group_key_names else "key"
            return label, expr.eval(F)
        return F.schema.names[0], F.column(F.schema.names[0])

    def _zoom_axis_y(self, F: Table, y: str | None):
        if y is not None:
            return y, F.column(y)
        call = self._agg_call(self._agg_name)
        if isinstance(call.arg, Star):
            return "1", np.ones(len(F))
        return call.arg.to_sql().strip("()"), call.arg.eval(F)

    def select_inputs(
        self, selection: Brush | Sequence[Brush] | Iterable[int]
    ) -> np.ndarray:
        """Brush (or list explicitly) the suspicious input tuples D'."""
        if self._zoom_table is None:
            raise SessionError("zoom into the selected results before selecting inputs")
        if isinstance(selection, Brush) or (
            isinstance(selection, (list, tuple))
            and selection
            and isinstance(selection[0], Brush)
        ):
            scatter = self.zoom()
            tids = self._resolve_selection(selection, scatter)
        else:
            tids = np.asarray([int(t) for t in selection], dtype=np.int64)
            for tid in tids:
                if not self._zoom_table.contains_tid(int(tid)):
                    raise SessionError(f"tid {int(tid)} is not among the zoomed inputs")
        self._dprime = np.unique(tids)
        self._state = "inputs_selected"
        return self._dprime

    @property
    def dprime(self) -> np.ndarray:
        """The currently selected suspicious input tids D'."""
        return self._dprime

    # ------------------------------------------------------------------
    # stage 4: error metric + debug
    # ------------------------------------------------------------------

    def error_form(self, agg_name: str | None = None) -> list[FormOption]:
        """The error-metric options for the debugged aggregate (Figure 5)."""
        result = self.result
        if not self._selected_rows:
            raise SessionError("select suspicious results before the error form")
        agg_name = agg_name or self._default_agg_name()
        call = self._agg_call(agg_name)
        values = np.asarray(result.column(agg_name), dtype=np.float64)
        selected_mask = np.zeros(result.num_rows, dtype=bool)
        selected_mask[list(self._selected_rows)] = True
        return forms_for(
            call.func,
            selected_values=values[selected_mask],
            unselected_values=values[~selected_mask],
        )

    def set_metric(
        self, metric: ErrorMetric | str, agg_name: str | None = None, **params
    ) -> ErrorMetric:
        """Choose the error metric ε — an instance or an error-form id."""
        if isinstance(metric, str):
            options = {option.form_id: option for option in self.error_form(agg_name)}
            if metric not in options:
                raise SessionError(
                    f"unknown error form {metric!r}; offered: {sorted(options)}"
                )
            metric = options[metric].build(**params)
        self._metric = metric
        if agg_name is not None:
            self._agg_name = agg_name
        return metric

    def debug(self, agg_name: str | None = None) -> DebugReport:
        """Run ranked provenance on (S, D', ε) — the 'debug!' button."""
        if not self._selected_rows:
            raise SessionError("select suspicious results before debugging")
        if self._metric is None:
            raise SessionError("pick an error metric before debugging")
        if agg_name is not None:
            self._agg_name = agg_name
        report = self.pipeline.debug(
            self.result,
            list(self._selected_rows),
            self._metric,
            dprime_tids=self._dprime,
            agg_name=self._agg_name or self._default_agg_name(),
        )
        self._report = report
        self._stage_timings = dict(report.timings)
        for stage, seconds in report.timings.items():
            self._stage_totals[stage] = self._stage_totals.get(stage, 0.0) + seconds
        self._debug_count += 1
        self._state = "debugged"
        return report

    @property
    def report(self) -> DebugReport:
        """The most recent debug report."""
        if self._report is None:
            raise SessionError("no debug report yet; call debug() first")
        return self._report

    # ------------------------------------------------------------------
    # stage 5: clean (click a predicate)
    # ------------------------------------------------------------------

    def apply_predicate(self, which: int | RankedPredicate | Predicate) -> ResultSet:
        """Click a ranked predicate: rewrite the query and re-execute."""
        predicate = self._resolve_predicate(which)
        assert self._rewriter is not None
        statement = self._rewriter.apply(predicate)
        self._result = self.db.sql(statement)
        self._clear_selection()
        self._state = "executed"
        return self._result

    def undo_cleaning(self) -> ResultSet:
        """Undo the most recent cleaning and re-execute."""
        if self._rewriter is None:
            raise SessionError("no query executed yet")
        statement = self._rewriter.undo()
        self._result = self.db.sql(statement)
        self._clear_selection()
        self._state = "executed"
        return self._result

    def redo_cleaning(self) -> ResultSet:
        """Re-apply the most recently undone cleaning and re-execute."""
        if self._rewriter is None:
            raise SessionError("no query executed yet")
        statement = self._rewriter.redo()
        self._result = self.db.sql(statement)
        self._clear_selection()
        self._state = "executed"
        return self._result

    @property
    def applied_predicates(self) -> tuple[Predicate, ...]:
        """Cleanings currently applied to the query."""
        if self._rewriter is None:
            return ()
        return self._rewriter.applied

    def current_sql(self) -> str:
        """The query text as the Query Input Form currently shows it."""
        if self._rewriter is None:
            raise SessionError("no query executed yet")
        return self._rewriter.sql()

    # ------------------------------------------------------------------
    # dashboard
    # ------------------------------------------------------------------

    def dashboard(self, width: int = 72, height: int = 14) -> str:
        """The four-panel text dashboard (Figure 2's layout, in ASCII)."""
        if self._rewriter is None:
            raise SessionError("no query executed yet; call execute(sql) first")
        panels = [render_query_panel(
            self._rewriter.base_statement,
            list(self.applied_predicates),
        )]
        panels.append("")
        panels.append(self.render(width=width, height=height))
        if self._report is not None:
            panels.append("")
            panels.append(render_predicates_panel(self._report))
        return "\n".join(panels)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _clear_selection(self) -> None:
        self._selected_rows = ()
        self._zoom_table = None
        self._dprime = np.empty(0, dtype=np.int64)

    def _default_agg_name(self) -> str:
        result = self.result
        if not result.aggregate_names:
            raise SessionError("the query has no aggregate to debug")
        return self._agg_name or result.aggregate_names[0]

    def _agg_call(self, agg_name: str | None):
        from ..db.planner import plan_select

        result = self.result
        agg_name = agg_name or self._default_agg_name()
        plan = plan_select(result.statement, result.fine.base.schema)
        for spec in plan.aggs:
            if spec.output_name == agg_name:
                return spec.call
        raise SessionError(f"no aggregate output named {agg_name!r}")

    @staticmethod
    def _resolve_selection(
        selection: Brush | Sequence[Brush] | Iterable[int],
        scatter: ScatterData,
    ) -> np.ndarray:
        if isinstance(selection, Brush):
            return selection.select(scatter)
        selection = list(selection)
        if selection and isinstance(selection[0], Brush):
            return union_select(list(selection), scatter)
        return np.asarray([int(v) for v in selection], dtype=np.int64)

    def _resolve_predicate(
        self, which: int | RankedPredicate | Predicate
    ) -> Predicate:
        if isinstance(which, Predicate):
            return which
        if isinstance(which, RankedPredicate):
            return which.predicate
        report = self.report
        if which < 0 or which >= len(report):
            raise SessionError(
                f"predicate index {which} out of range (report has {len(report)})"
            )
        return report[which].predicate
