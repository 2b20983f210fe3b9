"""Constraint auditing: check clause families against instances.

A convenience layer over :mod:`repro.semantics.satisfaction` that groups
constraints, runs them against an instance, and renders a readable
report — the "expressing and interacting with a large class of
constraints" side of the paper (Section 3.1), packaged for direct use.

Audits run on the same production execution machinery as transformations:
:func:`audit_constraints` plans the whole constraint family once
(:func:`repro.engine.planner.plan_audit` — a fixed join order per clause
body *and* per head-satisfiability probe) and executes every clause over
one shared, prebuilt :class:`~repro.semantics.match.IndexPool`.  The
pre-planner behaviour — a fresh naive matcher with private lazy indexes
per clause — is kept behind ``use_planner=False`` as the differential
oracle: both paths report identical violation sets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..engine.planner import AuditPlan, plan_audit
from ..lang.ast import Clause
from ..model.instance import Instance
from ..semantics.match import Matcher
from ..semantics.satisfaction import Violation, clause_violations


@dataclass
class ConstraintReport:
    """Violations per clause, with a pass/fail summary.

    The planner counters describe *how* the audit executed:
    ``planned_bodies``/``planned_heads`` clauses ran on precompiled join
    plans (the rest fell back to the dynamic matcher, still over the
    shared pool), ``prebuilt_indexes`` were materialised at planning
    time, and ``index_lookups`` extent scans were replaced by hash
    probes (``index_hits`` returned candidates, ``index_misses`` proved
    no candidate exists).  All zero on the naive path.
    """

    checked: int
    violations: Dict[str, List[Violation]] = field(default_factory=dict)
    planned_bodies: int = 0
    planned_heads: int = 0
    prebuilt_indexes: int = 0
    indexes_built: int = 0
    index_lookups: int = 0
    index_hits: int = 0
    index_misses: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def failed_clauses(self) -> List[str]:
        return sorted(self.violations)

    def stats_line(self) -> str:
        """One line of planner/index counters (the CLI's ``--stats``)."""
        return (f"stats: {self.checked} constraints "
                f"({self.planned_bodies} planned bodies, "
                f"{self.planned_heads} planned head probes), "
                f"{self.prebuilt_indexes + self.indexes_built} indexes "
                f"built ({self.prebuilt_indexes} prebuilt), "
                f"{self.index_lookups} scans avoided "
                f"({self.index_hits} hits / {self.index_misses} misses), "
                f"{self.elapsed_seconds * 1000:.1f} ms")

    def to_json(self) -> Dict:
        """A machine-readable report (the CLI's ``check --json``)."""
        return {
            "ok": self.ok,
            "checked": self.checked,
            "violations": {name: [str(violation) for violation in found]
                           for name, found in sorted(self.violations.items())},
            "stats": {
                "planned_bodies": self.planned_bodies,
                "planned_heads": self.planned_heads,
                "prebuilt_indexes": self.prebuilt_indexes,
                "indexes_built": self.indexes_built,
                "index_lookups": self.index_lookups,
                "index_hits": self.index_hits,
                "index_misses": self.index_misses,
                "elapsed_ms": round(self.elapsed_seconds * 1000, 3),
            },
        }

    def summary(self) -> str:
        if self.ok:
            return f"all {self.checked} constraints satisfied"
        lines = [f"{len(self.violations)} of {self.checked} "
                 f"constraints violated:"]
        for name in self.failed_clauses():
            found = self.violations[name]
            lines.append(f"  {name}: {len(found)} violation(s); "
                         f"first: {found[0]}")
        return "\n".join(lines)


def audit_constraints(instance: Instance,
                      constraints: Sequence[Clause],
                      limit_per_clause: Optional[int] = 10,
                      use_planner: bool = True,
                      plan: Optional[AuditPlan] = None
                      ) -> ConstraintReport:
    """Check every constraint; collect up to ``limit_per_clause``
    violations each.

    With ``use_planner`` (the default) the family is compiled once into
    an :class:`~repro.engine.planner.AuditPlan` and every clause runs
    over the plan's shared, prebuilt index pool.  ``plan`` injects a
    precomputed plan (amortising planning and index builds across
    repeated audits); ``use_planner=False`` is the naive per-clause
    oracle.
    """
    start = time.perf_counter()
    report = ConstraintReport(checked=len(constraints))
    audit_plan = plan
    if audit_plan is not None and audit_plan.pool.instance is not instance:
        raise ValueError(
            "injected audit plan was built for a different instance; "
            "its indexes would silently produce wrong violation sets "
            "(re-plan with plan_audit against this instance)")
    if audit_plan is None and use_planner:
        audit_plan = plan_audit(constraints, instance)
    matcher: Optional[Matcher] = None
    baseline = (0, 0, 0, 0)
    if audit_plan is not None:
        report.planned_bodies = audit_plan.planned_bodies
        report.planned_heads = audit_plan.planned_heads
        report.prebuilt_indexes = audit_plan.prebuilt_indexes
        matcher = Matcher(instance, index_pool=audit_plan.pool)
        pool = audit_plan.pool
        baseline = (pool.builds, pool.lookups, pool.hits, pool.misses)
    for index, clause in enumerate(constraints):
        clause_plan = None
        if audit_plan is not None:
            # Plans align with the constraint sequence; an injected plan
            # built from a different sequence is matched by clause.
            if (index < len(audit_plan.plans)
                    and audit_plan.plans[index].clause is clause):
                clause_plan = audit_plan.plans[index]
            else:
                clause_plan = audit_plan.plan_for(clause)
        found = clause_violations(instance, clause, limit_per_clause,
                                  matcher=matcher, plan=clause_plan)
        if found:
            name = clause.name or f"<clause {index}>"
            report.violations.setdefault(name, []).extend(found)
    if audit_plan is not None:
        pool = audit_plan.pool
        # The pool may be shared across audits: report this run's delta.
        report.indexes_built = pool.builds - baseline[0]
        report.index_lookups = pool.lookups - baseline[1]
        report.index_hits = pool.hits - baseline[2]
        report.index_misses = pool.misses - baseline[3]
    report.elapsed_seconds = time.perf_counter() - start
    return report
