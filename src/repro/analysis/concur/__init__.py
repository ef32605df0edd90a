"""repro.analysis.concur — concurrency lints over the runtime itself.

lexcheck's LX1xx–LX4xx passes analyze lexpress *configurations*; this
package points the same diagnostic machinery at the Python runtime that
executes them.  An AST walk over ``src/repro`` builds a per-class lock
model (:mod:`~repro.analysis.concur.model`), call-graph fixpoints
propagate "locks held" / "may block" / "may invoke callbacks" summaries,
and five checks (:mod:`~repro.analysis.concur.passes`) emit LX501–LX505
findings through the PR-3 catalogue, reporters, and inline
``# lexcheck: ignore[LX5nn]`` suppressions.

Entry points:

* :func:`analyze_concurrency` — full run, returns the standard
  :class:`~repro.analysis.runner.AnalysisReport`
* :func:`lock_order_report` — report **plus** the acquisition-order
  graph (for ``--json`` output, docs, and CI artifacts)
* :func:`static_lock_order` — memoized ``(held, acquired)`` pair set of
  the shipped tree; seeds :mod:`repro.obs.lockwitness`
* ``python -m repro check --concurrency [--json]`` / ``make check-concur``
"""

from __future__ import annotations

from pathlib import Path

from ..diagnostics import Diagnostic, Suppressions, sort_key
from ..runner import AnalysisError, AnalysisReport
from .model import PackageModel, build_model, default_root
from .passes import LockOrderGraph, build_lock_order_graph, run_passes

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "LockOrderGraph",
    "PackageModel",
    "analyze_concurrency",
    "analyze_concurrency_strict",
    "build_lock_order_graph",
    "build_model",
    "lock_order_report",
    "static_lock_order",
]


def lock_order_report(
    root: str | Path | None = None, registry=None
) -> tuple[AnalysisReport, LockOrderGraph]:
    """Run the LX5xx passes over *root* (default: the installed tree)."""
    model = build_model(Path(root) if root is not None else None)
    raw, graph = run_passes(model)
    report = _fold_suppressions(model, raw)
    if registry is not None:
        counter = registry.counter(
            "metacomm_concurrency_diagnostics_total",
            "Concurrency-analysis findings by severity.",
            labelnames=("severity",),
        )
        for code_count, severity in (
            (len(report.errors), "error"),
            (len(report.warnings), "warning"),
            (len(report.infos), "info"),
        ):
            if code_count:
                counter.labels(severity=severity).inc(code_count)
    return report, graph


def analyze_concurrency(
    root: str | Path | None = None, registry=None
) -> AnalysisReport:
    """The LX5xx report alone (most callers want just the findings)."""
    report, _graph = lock_order_report(root, registry=registry)
    return report


def analyze_concurrency_strict(
    root: str | Path | None = None, registry=None
) -> AnalysisReport:
    """:func:`analyze_concurrency`, raising on error-severity findings
    (a runtime whose lock discipline has a known inversion)."""
    report = analyze_concurrency(root, registry=registry)
    if not report.ok:
        raise AnalysisError(report)
    return report


_STATIC_ORDER: list[tuple[str, str]] | None = None


def static_lock_order() -> list[tuple[str, str]]:
    """``(held, acquired)`` pairs of the shipped tree, memoized.

    The runtime lock witness treats these as the *allowed* acquisition
    order; the analysis runs once per process (an AST walk over the
    package, a few tens of milliseconds) and is shared by every
    MetaComm instance."""
    global _STATIC_ORDER
    if _STATIC_ORDER is None:
        graph = build_lock_order_graph(build_model(default_root()))
        _STATIC_ORDER = graph.pairs()
    return _STATIC_ORDER


def _fold_suppressions(
    model: PackageModel, raw: list[Diagnostic]
) -> AnalysisReport:
    tables = {
        module: Suppressions.scan(source)
        for module, source in model.sources.items()
    }
    active: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    for diagnostic in raw:
        anchors = [(diagnostic.mapping, diagnostic.span)]
        anchors.extend(diagnostic.related)
        hit = False
        for module, span in anchors:
            if span is None:
                continue
            table = tables.get(module)
            if table is not None and table.matches(span.line, diagnostic.code):
                hit = True
                break
        (suppressed if hit else active).append(diagnostic)
    return AnalysisReport(
        diagnostics=sorted(active, key=sort_key),
        suppressed=sorted(suppressed, key=sort_key),
    )
