"""One-pass execution of normal-form WOL programs.

``executor`` applies clause heads and assembles the target instance;
``planner`` computes per-clause join plans (fixed atom orders) and the
shared index pool that the planned execution path runs on;
``columnar`` runs those plans as batch stages over binding columns;
``incremental`` maintains targets and constraint-violation sets under
source deltas with semi-naive delta joins over the same plans and pool.
"""

from .executor import ExecutionError, ExecutionStats, Executor, execute
from .planner import (AuditPlan, ConstraintPlan, DeltaSeed, JoinPlan,
                      PlanError, ProgramPlan, plan_audit, plan_clause,
                      plan_constraint, plan_delta_seeds, plan_program)
from .incremental import (AuditDeltaResult, DeltaResult, IncrementalAudit,
                          IncrementalStats, IncrementalTransform,
                          ReverseIndex)

__all__ = ["ExecutionError", "ExecutionStats", "Executor", "execute",
           "AuditPlan", "ConstraintPlan", "DeltaSeed", "JoinPlan",
           "PlanError", "ProgramPlan", "plan_audit", "plan_clause",
           "plan_constraint", "plan_delta_seeds", "plan_program",
           "AuditDeltaResult", "DeltaResult", "IncrementalAudit",
           "IncrementalStats", "IncrementalTransform", "ReverseIndex"]
