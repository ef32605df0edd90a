"""lexcheck — orchestrates the four analysis passes over a configuration.

The unit of analysis is an :class:`AnalysisTarget`: every compiled
mapping in the deployment, the device instance bindings (with their
partition constraints), and whatever repository schemas are declared.
:func:`analyze` runs

1. the byte-code verifier (:mod:`~repro.analysis.verifier`, LX1xx),
2. the table/match rule checks (:mod:`~repro.analysis.rules`, LX2xx),
3. the partition overlap/coverage probe
   (:mod:`~repro.analysis.partitions`, LX3xx), and
4. the closure-graph checks (:mod:`~repro.analysis.graph`, LX4xx),

applies inline ``# lexcheck: ignore[...]`` suppressions from the
mappings' retained source text, and returns a sorted
:class:`AnalysisReport`.  ``MetaCommConfig(strict_analysis=True)`` calls
this before constructing the Update Manager and refuses to boot on any
error-severity finding (:class:`AnalysisError`) — the one boot gate, as
the target is the deployment's own input (an overlapping ``PbxConfig``
prefix is an LX301 error).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lexpress.mapping import CompiledMapping
from .diagnostics import Diagnostic, Severity, Suppressions, sort_key
from .graph import check_graph
from .partitions import InstanceBinding, check_partitions
from .rules import check_mapping_rules
from .verifier import verify_code


@dataclass
class AnalysisTarget:
    """Everything lexcheck needs to see a configuration whole."""

    mappings: list[CompiledMapping]
    instances: list[InstanceBinding] = field(default_factory=list)
    #: Repository schema name (lower) -> declared attribute names; used to
    #: decide which rule dependencies are producible (LX404).
    schema_attributes: dict[str, frozenset[str]] = field(default_factory=dict)


@dataclass
class AnalysisReport:
    """The outcome of one lexcheck run."""

    diagnostics: list[Diagnostic]
    #: Findings silenced by inline suppressions (kept for --show-suppressed
    #: style tooling and for tests).
    suppressed: list[Diagnostic] = field(default_factory=list)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def ok(self) -> bool:
        return not self.errors

    def counts(self) -> dict[str, int]:
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.infos),
            "suppressed": len(self.suppressed),
        }

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{n} {name}(s)" for name, n in counts.items() if name != "suppressed" and n]
        text = ", ".join(parts) if parts else "no findings"
        if counts["suppressed"]:
            text += f" ({counts['suppressed']} suppressed)"
        return text


class AnalysisError(Exception):
    """Raised by strict mode when the configuration has error findings."""

    def __init__(self, report: AnalysisReport):
        self.report = report
        lines = [f"lexcheck found {len(report.errors)} error(s):"]
        lines += [f"  {d}" for d in report.errors]
        super().__init__("\n".join(lines))


def analyze(target: AnalysisTarget, registry=None) -> AnalysisReport:
    """Run every pass over *target* and fold in suppressions."""
    raw: list[Diagnostic] = []
    for mapping in target.mappings:
        for rule in mapping.rules:
            raw.extend(verify_code(rule.code, mapping.name, rule.target))
        raw.extend(verify_code(mapping.partition.code, mapping.name))
        raw.extend(check_mapping_rules(mapping))
    for instance in target.instances:
        if instance.partition is not None:
            raw.extend(
                verify_code(instance.partition.code, instance.mapping.name)
            )
    raw.extend(check_partitions(target.instances))
    raw.extend(check_graph(target.mappings, target.schema_attributes))

    suppressions = _suppression_index(target.mappings)
    active: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    for diagnostic in raw:
        if _is_suppressed(diagnostic, suppressions):
            suppressed.append(diagnostic)
        else:
            active.append(diagnostic)

    report = AnalysisReport(
        diagnostics=sorted(active, key=sort_key),
        suppressed=sorted(suppressed, key=sort_key),
    )
    if registry is not None:
        counter = registry.counter(
            "metacomm_analysis_diagnostics_total",
            "Static-analysis findings by severity.",
            labelnames=("severity",),
        )
        for severity in Severity:
            count = len(report.by_severity(severity))
            if count:
                counter.labels(severity=severity.value).inc(count)
    return report


def analyze_strict(target: AnalysisTarget, registry=None) -> AnalysisReport:
    """:func:`analyze`, raising :class:`AnalysisError` on error findings."""
    report = analyze(target, registry=registry)
    if not report.ok:
        raise AnalysisError(report)
    return report


# -- suppression plumbing ---------------------------------------------------------


def _suppression_index(
    mappings: list[CompiledMapping],
) -> dict[str, Suppressions]:
    """Mapping name -> suppression table of the source text it came from.

    Mappings compiled from one description file share one source text (and
    therefore one line-number space), so the tables can be shared too."""
    by_text: dict[int, Suppressions] = {}
    index: dict[str, Suppressions] = {}
    for mapping in mappings:
        if not mapping.source_text:
            continue
        table = by_text.get(id(mapping.source_text))
        if table is None:
            table = Suppressions.scan(mapping.source_text)
            by_text[id(mapping.source_text)] = table
        index[mapping.name] = table
    return index


def _is_suppressed(
    diagnostic: Diagnostic, suppressions: dict[str, Suppressions]
) -> bool:
    anchors = [(diagnostic.mapping, diagnostic.span)]
    anchors.extend(diagnostic.related)
    for mapping_name, span in anchors:
        if span is None:
            continue
        table = suppressions.get(mapping_name)
        if table is not None and table.matches(span.line, diagnostic.code):
            return True
    return False
