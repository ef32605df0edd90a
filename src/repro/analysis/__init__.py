"""repro.analysis — lexcheck, whole-configuration static analysis.

A MetaComm deployment is configured, not coded: mapping sets, partition
constraints, and schema declarations together decide where every update
flows.  The runtime discovers mistakes one failed update at a time; this
package finds them all at once, before boot.  See docs/ANALYSIS.md for
the diagnostic catalogue and the pass architecture.

Entry points:

* :func:`analyze` / :func:`analyze_strict` over an :class:`AnalysisTarget`
* ``MetaComm`` builds its own target — ``system.analyze()`` or
  ``MetaCommConfig(strict_analysis=True)``, the boot gate over
  deployment input
* :func:`analyze_concurrency` / :func:`analyze_concurrency_strict` over
  the runtime's own source (``make check-concur``; not a boot gate)
* ``python -m repro check [--json] [files...]`` from the command line
"""

from .concur import (
    analyze_concurrency,
    analyze_concurrency_strict,
    lock_order_report,
    static_lock_order,
)
from .diagnostics import CATALOG, Diagnostic, Severity, Suppressions, sort_key
from .graph import check_graph
from .partitions import InstanceBinding, check_partitions
from .report import render_json, render_text
from .routing import (
    SERIAL_REASONS,
    LaneDecision,
    RoutingPlan,
    build_routing_plan,
)
from .rules import check_mapping_rules
from .runner import (
    AnalysisError,
    AnalysisReport,
    AnalysisTarget,
    analyze,
    analyze_strict,
)
from .verifier import verify_code

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "AnalysisTarget",
    "CATALOG",
    "Diagnostic",
    "InstanceBinding",
    "LaneDecision",
    "RoutingPlan",
    "SERIAL_REASONS",
    "Severity",
    "Suppressions",
    "analyze",
    "analyze_concurrency",
    "analyze_concurrency_strict",
    "analyze_strict",
    "build_routing_plan",
    "lock_order_report",
    "static_lock_order",
    "check_graph",
    "check_mapping_rules",
    "check_partitions",
    "render_json",
    "render_text",
    "sort_key",
    "verify_code",
]
