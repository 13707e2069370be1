"""Static PM-misuse analysis (``repro.analysis``).

A path-enumerating abstract interpreter over the Python AST of workload
and mechanism modules (everything written against ``repro.pmdk`` /
``repro.pm``), reporting misuse findings with ``file:line`` provenance
in the dynamic detector's severity taxonomy, plus:

* :func:`analyze_trace` — the same rules over a recorded trace
  (offline mode, ``repro.trace.serialize`` format);
* :func:`check_module` — lexical RoI/annotation hygiene checks;
* :func:`infer_mechanisms` / :func:`analyze_mechanisms_workload` —
  trace-level mechanism inference (``repro.analysis.mech``) behind
  ``DetectorConfig.plan_mode`` and ``lint --mechanisms``;
* :func:`build_crash_plans` — invariant-driven crash plans from
  mechanism epochs (``repro.analysis.plans``);
* :func:`to_sarif` / :func:`findings_from_sarif` — SARIF 2.1.0
  export for CI annotation (``lint --sarif``).

:func:`lint_workload` is the front door the CLI uses: interpreter
findings plus hygiene findings over every interpreted source file.
"""

from __future__ import annotations

import inspect

from repro.analysis.findings import AnalysisReport, AnalysisStats, Finding
from repro.analysis.groundtruth import (
    MECH_EXPECTATIONS,
    STATIC_EXPECTATIONS,
    expected_mech_rules,
    expected_rules,
)
from repro.analysis.hygiene import check_module
from repro.analysis.interp import AnalysisError, analyze_workload
from repro.analysis.mech import (
    MechReport,
    analyze_mechanisms_workload,
    infer_mechanisms,
)
from repro.analysis.plans import (
    CrashPlan,
    CrashPlanSet,
    build_crash_plans,
)
from repro.analysis.rules import RULES, severity_of
from repro.analysis.sarif import (
    findings_from_sarif,
    to_sarif,
    to_sarif_json,
)
from repro.analysis.tracecheck import analyze_trace

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "AnalysisStats",
    "CrashPlan",
    "CrashPlanSet",
    "Finding",
    "MECH_EXPECTATIONS",
    "MechReport",
    "RULES",
    "STATIC_EXPECTATIONS",
    "analyze_mechanisms_workload",
    "analyze_trace",
    "analyze_workload",
    "build_crash_plans",
    "check_module",
    "expected_mech_rules",
    "expected_rules",
    "findings_from_sarif",
    "infer_mechanisms",
    "lint_workload",
    "severity_of",
    "to_sarif",
    "to_sarif_json",
]


def lint_workload(workload, **budgets):
    """Interpreter + hygiene findings for one workload instance.

    Hygiene checks run over every source file the interpreter covered
    (the workload module and any inlined helper modules), so annotation
    mistakes are reported even in files only reached transitively.
    """
    report = analyze_workload(workload, **budgets)
    files = set()
    try:
        files.add(inspect.getsourcefile(type(workload)))
    except TypeError:
        pass
    for file, _line in getattr(report, "coverage", ()):
        files.add(file)
    hygiene = []
    for file in sorted(f for f in files if f):
        try:
            hygiene.extend(check_module(file))
        except (OSError, SyntaxError):
            continue
    merged = AnalysisReport(
        report.target, list(report.findings) + hygiene, report.stats
    )
    for attr in ("coverage", "errors"):
        setattr(merged, attr, getattr(report, attr))
    return merged
