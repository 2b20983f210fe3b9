"""One-pass execution of normal-form WOL programs (paper Section 5).

A normal-form transformation program "can easily be implemented in a single
pass" because every clause reads only source classes and completely
describes a target insert.  The executor:

1. enumerates body solutions with the shared conjunctive matcher
   (:class:`repro.semantics.match.Matcher`) over the source instance;
2. evaluates each head: Skolem identities become keyed object identities
   (idempotent creation), attribute assignments accumulate on the keyed
   objects, set-valued attributes collect inserted elements;
3. detects *conflicts* (two firings disagreeing on an attribute value —
   the program is not functional) and, at freeze time, *incompleteness*
   (an object missing required attributes — the program is not complete,
   Section 3.2).

Two body-evaluation paths exist.  The **planned** path
(:meth:`Executor.run_program` with ``use_planner``, the production
default through :class:`repro.morphase.system.Morphase`) plans the whole
program once via :mod:`repro.engine.planner`: per clause a fixed atom
order compiled into plan steps, and across clauses one shared, prebuilt
index pool.  Each planned clause then runs as batch stages over whole
binding columns (:mod:`repro.engine.columnar`) with its head effects
applied column-wise.  The **naive** path runs each clause through the
dynamic matcher independently; it is kept both as the fallback for
clauses the planner cannot order statically and as the oracle in
differential tests (planned and naive execution must produce identical
target instances).

The executor is deliberately independent of the normaliser: any program
whose clause bodies mention only source classes can be run, which is what
lets tests compare direct execution against the WOL->CPL->interpreter path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..lang.ast import (
    Clause, EqAtom, InAtom, MemberAtom, Program, Proj, SkolemTerm, Term, Var)
from ..model.instance import Instance, InstanceBuilder, InstanceError
from ..model.schema import Schema
from ..model.types import RecordType, SetType
from ..model.values import Oid, Record, Value, WolSet, format_value
from ..obs.metrics import publish_engine_stats
from ..obs.trace import span
from ..semantics.columns import MISSING
from ..semantics.eval import Binding, EvalError, evaluate
from ..semantics.match import STEP_EQ_BIND, IndexPool, Matcher
from .columnar import compile_term, run_steps_columnar
from .planner import JoinPlan, ProgramPlan, plan_program


class ExecutionError(Exception):
    """Raised on conflicting or ill-formed inserts."""


#: Primitive head-effect kinds (the unit of incremental maintenance).
EFFECT_CREATE = "create"
EFFECT_SET = "set"
EFFECT_INSERT = "insert"

#: One primitive consequence of a clause firing:
#: ``(EFFECT_CREATE, oid)``, ``(EFFECT_SET, oid, attr, value)`` or
#: ``(EFFECT_INSERT, oid, attr, element)``.  Effects are hashable, so the
#: incremental engine (:mod:`repro.engine.incremental`) can count them.
Effect = Tuple


@dataclass
class ExecutionStats:
    """Counters for one execution run (benchmark E5 reads these).

    The planner-related counters describe how the bodies were evaluated:
    ``clauses_planned`` clauses ran on a precompiled :class:`JoinPlan`
    (the rest fell back to the dynamic matcher), ``atoms_reordered`` body
    atoms were moved from their textual position, and the index counters
    mirror the shared :class:`~repro.semantics.match.IndexPool` —
    ``scans_avoided`` is the number of extent scans replaced by hash
    probes, split into ``index_hits`` (probe produced candidates) and
    ``index_misses`` (probe proved no candidate exists).
    """

    clauses_run: int = 0
    bindings_found: int = 0
    objects_created: int = 0
    attributes_set: int = 0
    elapsed_seconds: float = 0.0
    clauses_planned: int = 0
    atoms_reordered: int = 0
    indexes_built: int = 0
    index_hits: int = 0
    index_misses: int = 0
    scans_avoided: int = 0
    #: Vectorized execution (:mod:`repro.engine.columnar`): plan steps
    #: run as whole-batch array operations vs. steps that fell back to
    #: row-at-a-time expansion, total rows entering vectorized steps,
    #: and the largest batch seen (0s on the naive path).
    vectorized_steps: int = 0
    fallback_steps: int = 0
    vectorized_rows: int = 0
    max_batch_rows: int = 0


@dataclass
class _PendingObject:
    class_name: str
    oid: Oid
    attributes: Dict[str, Value] = field(default_factory=dict)
    set_attributes: Dict[str, Set[Value]] = field(default_factory=dict)
    provenance: Dict[str, str] = field(default_factory=dict)


class Executor:
    """Runs source-only clauses against a source instance.

    ``use_planner`` selects the planned path for :meth:`run_program`:
    the program is planned once (fixed atom orders, shared prebuilt
    index pool) and every plannable clause streams bindings from its
    precompiled steps.  ``index_pool`` injects a pool shared beyond this
    executor (e.g. across repeated runs over the same source).
    """

    def __init__(self, source: Instance, target_schema: Schema,
                 use_planner: bool = False,
                 index_pool: Optional[IndexPool] = None) -> None:
        self.source = source
        self.target_schema = target_schema
        self.use_planner = use_planner
        self._matcher = Matcher(source, index_pool=index_pool)
        self._pending: Dict[Oid, _PendingObject] = {}
        #: Pending objects per class — lets the batched head prove "no
        #: object of this class exists yet" in O(1) for its fused
        #: create-and-assign fast path.
        self._pending_classes: Dict[str, int] = {}
        self.stats = ExecutionStats()

    # ------------------------------------------------------------------
    def run_program(self, program: Iterable[Clause],
                    plan: Optional[ProgramPlan] = None) -> "Executor":
        """Execute a whole program, planning it once when enabled.

        ``plan`` supplies a precomputed :class:`ProgramPlan` (its pool
        replaces the matcher's); otherwise one is computed here when the
        executor was built with ``use_planner``.  Clauses without a join
        plan fall back to the dynamic per-clause path.
        """
        start = time.perf_counter()
        clauses = list(program)
        baseline = self._pool_snapshot()
        if plan is None and self.use_planner:
            # Planning here is part of this run: its prebuilds count.
            plan = plan_program(clauses, self.source,
                                pool=self._matcher.pool)
        if plan is not None and plan.pool is not self._matcher.pool:
            # An externally planned pool may be shared across runs; only
            # activity from this point on belongs to this run's stats.
            self._matcher.pool = plan.pool
            baseline = self._pool_snapshot()
        for clause in clauses:
            self.run_clause(clause, plan.plan_for(clause) if plan else None)
        self._sync_index_stats(baseline)
        self.stats.elapsed_seconds += time.perf_counter() - start
        publish_engine_stats(self.engine_label(plan), self.stats)
        return self

    def engine_label(self, plan: Optional[ProgramPlan] = None) -> str:
        """Which execution engine this run used (metrics label)."""
        return ("planned" if plan is not None or self.use_planner
                else "naive")

    def run_clause(self, clause: Clause,
                   join_plan: Optional[JoinPlan] = None) -> None:
        """Execute one normal-form clause.

        Without ``join_plan`` this is the naive path: the dynamic matcher
        re-derives the atom order per binding (kept as the differential
        oracle).  With a plan, the body runs as batch stages over the
        precompiled steps and the head applies column-wise.
        """
        self._check_source_only(clause)
        plan = _HeadPlan(clause, self.target_schema)
        self.stats.clauses_run += 1
        before = self.stats.bindings_found
        with span(f"clause {clause.name or clause}",
                  mode="planned" if join_plan is not None
                  else "dynamic") as clause_span:
            if join_plan is not None:
                self.stats.clauses_planned += 1
                self.stats.atoms_reordered += join_plan.atoms_reordered
                self._run_clause_columnar(clause, plan, join_plan)
            else:
                for binding in self._matcher.solutions(clause.body):
                    self.stats.bindings_found += 1
                    self._apply_head(plan, binding, clause)
            clause_span.set(rows=self.stats.bindings_found - before)

    def _run_clause_columnar(self, clause: Clause, plan: "_HeadPlan",
                             join_plan: JoinPlan) -> None:
        """Vectorized clause execution: body as batch stages, head
        effects applied column-wise.

        The head path is *optimistic*: identity, assignment, insertion
        and check terms are evaluated as whole columns and applied
        row-major (preserving the scalar conflict-detection order).  On
        any anomaly a column cannot express — a failed evaluation, a
        non-oid identity, a failed check — the batch replays row by row
        through the scalar :func:`head_effects`, so errors surface with
        exactly the scalar message at exactly the scalar position.
        """
        # The head reads exactly these variables (``head_effects``'s
        # evaluation surface); every other binding column is dead after
        # the body and gets dropped between stages.
        needed = set(plan.created)
        for var, skolem in plan.identity_order:
            needed.add(var)
            needed |= skolem.variables()
        for var, _attr, term in plan.assignments:
            needed.add(var)
            needed |= term.variables()
        for var, _attr, term in plan.insertions:
            needed.add(var)
            needed |= term.variables()
        for check in plan.checks:
            needed |= check.variables()
        names, columns, count = run_steps_columnar(
            self._matcher, join_plan.steps, {}, 1, self.stats,
            needed=frozenset(needed))
        self.stats.bindings_found += count
        if count == 0:
            return
        label = clause.name or str(clause)
        # Identity variables the body already bound by evaluating the
        # *same* Skolem term need no head recompute-and-compare: the
        # columns are definitionally equal.
        trusted = {
            step.pattern_term.name for step in join_plan.steps
            if step.mode == STEP_EQ_BIND
            and isinstance(step.pattern_term, Var)
            and isinstance(step.eval_term, SkolemTerm)}
        trusted = {var for var, skolem in plan.identity_order
                   if var in trusted and any(
                       step.mode == STEP_EQ_BIND
                       and isinstance(step.pattern_term, Var)
                       and step.pattern_term.name == var
                       and step.eval_term == skolem
                       for step in join_plan.steps)}
        # Head terms compile against the same class typing the body
        # derived (membership-bound vars), so head projections gather
        # from attribute columns and reuse the hidden row columns the
        # scans threaded through.
        var_class = {
            step.atom.element.name: step.atom.class_name
            for step in join_plan.steps
            if isinstance(step.atom, MemberAtom)
            and isinstance(step.atom.element, Var)}
        if not self._apply_heads_batch(plan, columns, count, label,
                                       trusted=trusted,
                                       var_class=var_class):
            # Liveness filtering may have dropped columns `names`
            # mentions; the surviving ones are exactly what the head
            # reads, so replay bindings from the batch itself.
            for row in range(count):
                binding = {name: column[row]
                           for name, column in columns.items()}
                self._apply_head(plan, binding, clause)

    def _apply_heads_batch(self, plan: "_HeadPlan", columns: Mapping,
                           count: int, label: str,
                           trusted: Optional[Set[str]] = None,
                           var_class: Optional[Dict[str, str]] = None
                           ) -> bool:
        """Apply a whole batch of head effects; False = replay scalar.

        Every anomaly the scalar path reports with an error — a failed
        evaluation, an identity mismatch, an unknown target class, a
        functionality conflict — is detected *before* any attribute is
        written, so a False return leaves the pending attributes
        untouched and the scalar replay raises exactly the scalar
        error at exactly the scalar position.  (Pending *objects* may
        already exist by then: creation is idempotent and observable
        only through the class check, which is part of the precheck.)
        """
        matcher = self._matcher
        local: Dict[str, List[Value]] = dict(columns)

        def evaluate_column(term: Term) -> Optional[List[Value]]:
            try:
                column = compile_term(term, matcher, var_class)(local, count)
            except NotImplementedError:
                return None
            if MISSING in column:  # identity-first C scan, no genexpr
                return None
            return column

        for var, skolem in plan.identity_order:
            if trusted and var in trusted:
                continue  # body bound it from the identical Skolem term
            column = evaluate_column(skolem)
            if column is None:
                return False
            existing = local.get(var)
            if existing is not None and existing != column:
                return False  # identity mismatch somewhere in the batch
            local[var] = column

        has_class = self.target_schema.has_class
        # A subject column is scanned for validity at most once even
        # when several attributes write through it (same list object).
        valid_subjects: Set[int] = set()

        def subjects_ok(column: List[Value]) -> bool:
            if id(column) in valid_subjects:
                return True
            if any(not isinstance(oid, Oid) or not has_class(oid.class_name)
                   for oid in column):
                return False
            valid_subjects.add(id(column))
            return True

        creates: List[List[Value]] = []
        for var, class_name in plan.created.items():
            column = local.get(var)
            if column is None or any(
                    not isinstance(oid, Oid) or oid.class_name != class_name
                    for oid in column):
                return False
            if has_class(class_name):
                valid_subjects.add(id(column))
            creates.append(column)

        assignments: List[Tuple[List[Value], str, List[Value]]] = []
        for var, attr, value_term in plan.assignments:
            subjects = local.get(var)
            if subjects is None or not subjects_ok(subjects):
                return False
            column = evaluate_column(value_term)
            if column is None:
                return False
            assignments.append((subjects, attr, column))
        # Two entries writing the same attribute could conflict across
        # columns; the per-entry conflict scan below would miss that.
        attrs = [attr for _, attr, _ in assignments]
        if len(set(attrs)) != len(attrs):
            return False

        insertions: List[Tuple[List[Value], str, List[Value]]] = []
        for var, attr, element_term in plan.insertions:
            subjects = local.get(var)
            if subjects is None or not subjects_ok(subjects):
                return False
            column = evaluate_column(element_term)
            if column is None:
                return False
            insertions.append((subjects, attr, column))

        for check in plan.checks:
            lefts = evaluate_column(check.left)
            rights = evaluate_column(check.right)
            if lefts is None or rights is None or lefts != rights:
                return False

        class_counts = self._pending_classes
        # Fused fast path for the dominant head shape: one created
        # class nothing has touched yet, every assignment through the
        # created variable, no insertions or residual checks.  Each row
        # then builds its finished pending object — identity, all
        # attributes, provenance — in a single pass into a side dict.
        # Duplicate subjects collapse in that dict, so a length mismatch
        # at the end detects them before anything is published, and the
        # generic (conflict-scanned) path below takes over untouched.
        if (len(plan.created) == 1 and not insertions and not plan.checks
                and 1 <= len(assignments) <= 4):
            (created_var, created_class), = plan.created.items()
            subjects0 = local[created_var]
            if (all(subjects is subjects0 for subjects, _, _ in assignments)
                    and class_counts.get(created_class, 0) == 0):
                new = object.__new__
                pending_cls = _PendingObject
                fresh: Dict[Oid, _PendingObject] = {}
                attrs = [attr for _, attr, _ in assignments]
                value_columns = [column for _, _, column in assignments]
                if len(assignments) == 1:
                    a1, = attrs
                    c1, = value_columns
                    for oid, v1 in zip(subjects0, c1):
                        pending = new(pending_cls)
                        state = pending.__dict__
                        state["class_name"] = created_class
                        state["oid"] = oid
                        state["attributes"] = {a1: v1}
                        state["set_attributes"] = {}
                        state["provenance"] = {a1: label}
                        fresh[oid] = pending
                elif len(assignments) == 2:
                    a1, a2 = attrs
                    c1, c2 = value_columns
                    for oid, v1, v2 in zip(subjects0, c1, c2):
                        pending = new(pending_cls)
                        state = pending.__dict__
                        state["class_name"] = created_class
                        state["oid"] = oid
                        state["attributes"] = {a1: v1, a2: v2}
                        state["set_attributes"] = {}
                        state["provenance"] = {a1: label, a2: label}
                        fresh[oid] = pending
                elif len(assignments) == 3:
                    a1, a2, a3 = attrs
                    c1, c2, c3 = value_columns
                    for oid, v1, v2, v3 in zip(subjects0, c1, c2, c3):
                        pending = new(pending_cls)
                        state = pending.__dict__
                        state["class_name"] = created_class
                        state["oid"] = oid
                        state["attributes"] = {a1: v1, a2: v2, a3: v3}
                        state["set_attributes"] = {}
                        state["provenance"] = {a1: label, a2: label,
                                               a3: label}
                        fresh[oid] = pending
                else:
                    a1, a2, a3, a4 = attrs
                    c1, c2, c3, c4 = value_columns
                    for oid, v1, v2, v3, v4 in zip(subjects0, c1, c2, c3,
                                                   c4):
                        pending = new(pending_cls)
                        state = pending.__dict__
                        state["class_name"] = created_class
                        state["oid"] = oid
                        state["attributes"] = {a1: v1, a2: v2, a3: v3,
                                               a4: v4}
                        state["set_attributes"] = {}
                        state["provenance"] = {a1: label, a2: label,
                                               a3: label, a4: label}
                        fresh[oid] = pending
                if len(fresh) != count:
                    # Duplicate subjects collapsed in the dict: later
                    # occurrences overwrote earlier pendings, which is
                    # only sound if every row agrees with its subject's
                    # surviving values.  Verify before publishing; a
                    # disagreement is a functionality conflict, and
                    # nothing has been published yet, so the scalar
                    # replay raises the canonical error.
                    fresh_get = fresh.get
                    for row_values in zip(subjects0, *value_columns):
                        attributes = fresh_get(row_values[0]).attributes
                        for attr, value in zip(attrs, row_values[1:]):
                            prev = attributes[attr]
                            if prev is not value and prev != value:
                                return False
                self._pending.update(fresh)
                class_counts[created_class] = len(fresh)
                self.stats.objects_created += len(fresh)
                self.stats.attributes_set += count * len(assignments)
                return True

        # Materialise every pending object column-wise (idempotent, so
        # safe before the conflict scan; class validity is prechecked).
        # Each distinct subject column resolves to its pending objects
        # exactly once.  Identity columns intern their oids (the skolem
        # stages hand every duplicate key the same object), so the
        # id()-keyed memo turns the per-row probe into an int hash and
        # the value-hashing pending-store lookup runs once per *unique*
        # oid, not once per row.
        pending_map = self._pending
        new_objects = 0
        resolved_columns: Dict[int, List[_PendingObject]] = {}
        # Subject columns proven to hold pairwise-distinct oids that
        # did not exist before this batch.  Their pendings have no
        # attributes yet and no row shares a subject, so writes through
        # them need no conflict scan at all (the dominant case: heads
        # creating one object per binding).
        fresh_columns: Set[int] = set()
        by_identity: Dict[int, _PendingObject] = {}
        new = object.__new__
        pending_cls = _PendingObject

        def resolve(column: List[Value]) -> List[_PendingObject]:
            nonlocal new_objects
            pendings = resolved_columns.get(id(column))
            if pendings is not None:
                return pendings
            pendings = []
            append = pendings.append
            get = pending_map.get
            memo_get = by_identity.get
            fresh = True
            for oid in column:
                pending = memo_get(id(oid))
                if pending is None:
                    pending = get(oid)
                    if pending is None:
                        pending = new(pending_cls)
                        state = pending.__dict__
                        state["class_name"] = oid.class_name
                        state["oid"] = oid
                        state["attributes"] = {}
                        state["set_attributes"] = {}
                        state["provenance"] = {}
                        pending_map[oid] = pending
                        class_counts[oid.class_name] = (
                            class_counts.get(oid.class_name, 0) + 1)
                        new_objects += 1
                    else:
                        fresh = False  # pre-existing object
                    by_identity[id(oid)] = pending
                else:
                    fresh = False  # duplicate subject within the batch
                append(pending)
            resolved_columns[id(column)] = pendings
            if fresh:
                fresh_columns.add(id(pendings))
            return pendings

        for column in creates:
            resolve(column)
        assignments = [(resolve(subjects), attr, column)
                       for subjects, attr, column in assignments]
        insertions = [(resolve(subjects), attr, column)
                      for subjects, attr, column in insertions]
        self.stats.objects_created += new_objects

        # Functionality conflict scan — within the batch and against
        # attributes earlier clauses derived.  Nothing has been written
        # yet, so a conflict can still hand the whole batch to the
        # scalar replay for the canonical error.  The scan collects one
        # (pending, value) pair per distinct subject in passing: rows
        # sharing a subject were just proved to agree, so the apply
        # phase below writes each attribute once per object instead of
        # once per row (the scalar path's duplicate writes are no-ops).
        writes: List[Tuple[str, List[Tuple[_PendingObject, Value]]]] = []
        for pendings, attr, column in assignments:
            if id(pendings) in fresh_columns:
                # Distinct, newly created subjects: nothing to conflict
                # with, inside the batch or out of it.
                writes.append((attr, list(zip(pendings, column))))
                continue
            seen: Dict[int, Value] = {}
            seen_get = seen.get
            unique: List[Tuple[_PendingObject, Value]] = []
            keep = unique.append
            for pending, value in zip(pendings, column):
                prev = seen_get(id(pending))
                if prev is None:
                    existing = pending.attributes.get(attr)
                    if (existing is not None and existing is not value
                            and existing != value):
                        return False
                    seen[id(pending)] = value
                    keep((pending, value))
                elif prev is not value and prev != value:
                    return False
            writes.append((attr, unique))

        # Apply.  The precheck proved no effect can fail, so the
        # column-major order is observationally identical to the scalar
        # row-major order.  ``attributes_set`` still counts every row —
        # the scalar path counts its duplicate writes too.
        attributes_set = 0
        for (attr, unique), (_, _, column) in zip(writes, assignments):
            for pending, value in unique:
                pending.attributes[attr] = value
                pending.provenance[attr] = label
            attributes_set += len(column)
        for pendings, attr, column in insertions:
            elements_of: Dict[int, Set[Value]] = {}
            elements_get = elements_of.get
            for pending, value in zip(pendings, column):
                elements = elements_get(id(pending))
                if elements is None:
                    elements = pending.set_attributes.get(attr)
                    if elements is None:
                        elements = set()
                        pending.set_attributes[attr] = elements
                    elements_of[id(pending)] = elements
                elements.add(value)
            attributes_set += len(column)
        self.stats.attributes_set += attributes_set
        return True

    def _pool_snapshot(self) -> Tuple[int, int, int, int]:
        pool = self._matcher.pool
        return (pool.builds, pool.hits, pool.misses, pool.lookups)

    def _sync_index_stats(self, baseline: Tuple[int, int, int, int]
                          ) -> None:
        """Add this run's pool activity to the stats.

        The pool may be shared across executors (injected pool, reused
        plan), so the stats record the *delta* over this run, not the
        pool's lifetime counters.  Indexes prebuilt by the planner before
        the run belong to planning and are visible on the plan's pool,
        not here.
        """
        builds, hits, misses, lookups = baseline
        pool = self._matcher.pool
        self.stats.indexes_built += pool.builds - builds
        self.stats.index_hits += pool.hits - hits
        self.stats.index_misses += pool.misses - misses
        self.stats.scans_avoided += pool.lookups - lookups

    def _check_source_only(self, clause: Clause) -> None:
        source_classes = set(self.source.schema.class_names())
        for atom in clause.body:
            if (isinstance(atom, MemberAtom)
                    and atom.class_name not in source_classes):
                raise ExecutionError(
                    f"clause {clause.name or clause}: body mentions "
                    f"non-source class {atom.class_name}; not in normal "
                    f"form")

    # ------------------------------------------------------------------
    def _apply_head(self, plan: "_HeadPlan", binding: Binding,
                    clause: Clause) -> None:
        label = clause.name or str(clause)
        for effect in head_effects(plan, binding, self.source, label):
            kind = effect[0]
            if kind == EFFECT_CREATE:
                self._ensure_object(effect[1])
            elif kind == EFFECT_SET:
                self._set_attribute(effect[1], effect[2], effect[3], label)
            else:
                assert kind == EFFECT_INSERT
                pending = self._ensure_object(effect[1])
                pending.set_attributes.setdefault(effect[2],
                                                  set()).add(effect[3])
                self.stats.attributes_set += 1

    def provenance(self) -> Dict[Oid, Dict[str, str]]:
        """Which clause derived each attribute of each pending object.

        Normal-form clause names encode their ancestry (e.g. ``T1+T3``),
        so this answers "where did this value come from?" for debugging
        transformation programs.
        """
        return {oid: dict(pending.provenance)
                for oid, pending in self._pending.items()}

    def explain(self, oid: Oid) -> str:
        """A human-readable derivation summary for one object."""
        pending = self._pending.get(oid)
        if pending is None:
            return f"{oid}: not derived by this execution"
        lines = [f"{oid}:"]
        for attr in sorted(set(pending.attributes)
                           | set(pending.set_attributes)):
            source = pending.provenance.get(attr, "<set accumulation>")
            lines.append(f"  .{attr} from clause {source}")
        return "\n".join(lines)

    def _ensure_object(self, oid: Oid) -> _PendingObject:
        pending = self._pending.get(oid)
        if pending is None:
            if not self.target_schema.has_class(oid.class_name):
                raise ExecutionError(
                    f"object {oid} belongs to no target class")
            pending = _PendingObject(oid.class_name, oid)
            self._pending[oid] = pending
            self._pending_classes[oid.class_name] = (
                self._pending_classes.get(oid.class_name, 0) + 1)
            self.stats.objects_created += 1
        return pending

    def _set_attribute(self, oid: Oid, attr: str, value: Value,
                       label: str) -> None:
        pending = self._ensure_object(oid)
        existing = pending.attributes.get(attr)
        if existing is not None and existing != value:
            raise ExecutionError(
                f"conflict on {oid}.{attr}: clause {label} derives "
                f"{format_value(value)} but clause "
                f"{pending.provenance.get(attr, '?')} derived "
                f"{format_value(existing)} (the program is not functional)")
        pending.attributes[attr] = value
        pending.provenance[attr] = label
        self.stats.attributes_set += 1

    # ------------------------------------------------------------------
    def freeze(self, validate: bool = True,
               defaults: Optional[Mapping[Tuple[str, str], Value]] = None
               ) -> Instance:
        """Assemble the target instance.

        With ``validate`` the result is checked for well-formedness; an
        object with missing attributes indicates an *incomplete*
        transformation program (Section 3.2) and raises
        :class:`ExecutionError` with the missing pieces listed.

        ``defaults`` maps ``(class, attribute)`` to a fill-in value for
        attributes no clause derived — the paper's "insert a default
        value for the attribute wherever it is omitted" reading of an
        optional-to-required schema change (Section 1).  WOL itself
        cannot express absence (no negation), so the default is applied
        here, after all clauses have run.
        """
        defaults = dict(defaults or {})
        with span("freeze", objects=len(self._pending)):
            builder = InstanceBuilder(self.target_schema)
            incomplete: List[str] = []
            for oid, pending in sorted(self._pending.items(),
                                       key=lambda i: str(i[0])):
                ctype = self.target_schema.class_type(pending.class_name)
                value, missing = assemble_target_value(
                    pending.class_name, oid, ctype, pending.attributes,
                    pending.set_attributes, defaults)
                if value is None:
                    incomplete.append(
                        f"{oid}: missing attributes {missing}")
                    continue
                builder.put(oid, value)
            if incomplete and validate:
                raise ExecutionError(
                    "incomplete transformation (the program does not "
                    "fully describe these objects): "
                    + "; ".join(incomplete))
            instance = builder.freeze(validate=False)
            if validate:
                try:
                    instance.validate()
                except InstanceError as exc:
                    raise ExecutionError(
                        f"transformation produced an ill-formed "
                        f"instance: {exc}") from exc
            return instance


def head_effects(plan: "_HeadPlan", binding: Binding, source: Instance,
                 label: str) -> List[Effect]:
    """The primitive effects of one clause firing under ``binding``.

    This is the single evaluation path for clause heads: the batch
    executor applies the effects to its pending store and the
    incremental engine counts them — both therefore create the same
    objects, set the same attributes and fail on the same inputs.
    Residual head checks are verified here and raise
    :class:`ExecutionError` when they fail.
    """
    effects: List[Effect] = []
    # 1. Evaluate identities for created objects (fixpoint order).
    local = dict(binding)
    for var, skolem in plan.identity_order:
        try:
            oid = evaluate(skolem, local, source)
        except EvalError as exc:
            raise ExecutionError(
                f"clause {label}: cannot evaluate identity "
                f"{skolem}: {exc}") from exc
        assert isinstance(oid, Oid)
        if var in local and local[var] != oid:
            raise ExecutionError(
                f"clause {label}: identity mismatch for {var}: body "
                f"binds {local[var]} but the head identity is {oid}")
        local[var] = oid

    # 2. Create objects.
    for var, class_name in plan.created.items():
        oid = local.get(var)
        if not isinstance(oid, Oid):
            raise ExecutionError(
                f"clause {label}: created object {var} has no "
                f"identity")
        if oid.class_name != class_name:
            raise ExecutionError(
                f"clause {label}: identity {oid} does not belong to "
                f"class {class_name}")
        effects.append((EFFECT_CREATE, oid))

    # 3. Assignments.
    for var, attr, value_term in plan.assignments:
        oid = local.get(var)
        if not isinstance(oid, Oid):
            raise ExecutionError(
                f"clause {label}: assignment to {var}.{attr} but "
                f"{var} is not an object")
        try:
            value = evaluate(value_term, local, source)
        except EvalError as exc:
            raise ExecutionError(
                f"clause {label}: cannot evaluate value of "
                f"{var}.{attr}: {exc}") from exc
        effects.append((EFFECT_SET, oid, attr, value))

    # 4. Set insertions.
    for var, attr, element_term in plan.insertions:
        oid = local.get(var)
        if not isinstance(oid, Oid):
            raise ExecutionError(
                f"clause {label}: insertion into {var}.{attr} but "
                f"{var} is not an object")
        try:
            element = evaluate(element_term, local, source)
        except EvalError as exc:
            raise ExecutionError(
                f"clause {label}: cannot evaluate element of "
                f"{var}.{attr}: {exc}") from exc
        effects.append((EFFECT_INSERT, oid, attr, element))

    # 5. Residual checks (equalities between evaluated values).
    for check in plan.checks:
        try:
            left = evaluate(check.left, local, source)
            right = evaluate(check.right, local, source)
        except EvalError as exc:
            raise ExecutionError(
                f"clause {label}: cannot evaluate head check "
                f"{check}: {exc}") from exc
        if left != right:
            raise ExecutionError(
                f"clause {label}: head check {check} failed "
                f"({format_value(left)} != {format_value(right)})")
    return effects


def assemble_target_value(class_name: str, oid: Oid, ctype,
                          attributes: Mapping[str, Value],
                          set_attributes: Mapping[str, Iterable[Value]],
                          defaults: Mapping[Tuple[str, str], Value]
                          ) -> Tuple[Optional[Value], List[str]]:
    """Assemble one target object's stored value from derived pieces.

    Returns ``(value, missing_attributes)``; ``value`` is None exactly
    when attributes are missing (an *incomplete* program, Section 3.2).
    Shared by :meth:`Executor.freeze` and the incremental engine so the
    two paths build byte-identical objects.
    """
    if not isinstance(ctype, RecordType):
        if list(attributes) != []:
            raise ExecutionError(
                f"{oid}: attribute assignments on non-record "
                f"class {class_name}")
        raise ExecutionError(
            f"class {class_name} has non-record type; "
            f"direct value inserts are not supported")
    fields = dict(attributes)
    for attr, elements in set_attributes.items():
        fields[attr] = WolSet(frozenset(elements))
    for label, fty in ctype.fields:
        if label not in fields and isinstance(fty, SetType):
            fields[label] = WolSet(frozenset())
    for label in ctype.labels():
        if label not in fields:
            filler = defaults.get((class_name, label))
            if filler is not None:
                fields[label] = filler
    missing = [label for label in ctype.labels() if label not in fields]
    if missing:
        return None, missing
    extra = [label for label in fields if not ctype.has_field(label)]
    if extra:
        raise ExecutionError(
            f"{oid}: attributes {extra} not in class type")
    return Record(tuple(fields.items())), []


class _HeadPlan:
    """Decomposition of a normal-form head into executable pieces."""

    def __init__(self, clause: Clause, target_schema: Schema) -> None:
        self.created: Dict[str, str] = {}
        identities: Dict[str, SkolemTerm] = {}
        self.assignments: List[Tuple[str, str, Term]] = []
        self.insertions: List[Tuple[str, str, Term]] = []
        self.checks: List[EqAtom] = []

        set_collectors: Dict[str, Tuple[str, str]] = {}

        for atom in clause.head:
            if isinstance(atom, MemberAtom):
                if not isinstance(atom.element, Var):
                    raise ExecutionError(
                        f"head membership with non-variable element: {atom}")
                if not target_schema.has_class(atom.class_name):
                    raise ExecutionError(
                        f"head creates object in unknown class "
                        f"{atom.class_name}")
                self.created[atom.element.name] = atom.class_name
            elif isinstance(atom, EqAtom):
                if (isinstance(atom.left, Var)
                        and isinstance(atom.right, SkolemTerm)):
                    identities[atom.left.name] = atom.right
                elif (isinstance(atom.right, Proj)
                        and isinstance(atom.right.subject, Var)):
                    subject = atom.right.subject.name
                    attr = atom.right.attr
                    # A pair  V = X.attr  plus  E in V  encodes insertion.
                    if isinstance(atom.left, Var):
                        set_collectors[atom.left.name] = (subject, attr)
                    self.assignments.append((subject, attr, atom.left))
                elif (isinstance(atom.left, Proj)
                        and isinstance(atom.left.subject, Var)):
                    self.assignments.append(
                        (atom.left.subject.name, atom.left.attr,
                         atom.right))
                else:
                    self.checks.append(atom)
            elif isinstance(atom, InAtom):
                if isinstance(atom.collection, Var) and (
                        atom.collection.name in set_collectors):
                    subject, attr = set_collectors[atom.collection.name]
                    self.insertions.append((subject, attr, atom.element))
                elif (isinstance(atom.collection, Proj)
                        and isinstance(atom.collection.subject, Var)):
                    self.insertions.append(
                        (atom.collection.subject.name,
                         atom.collection.attr, atom.element))
                else:
                    raise ExecutionError(
                        f"unsupported head insertion: {atom}")
            else:
                raise ExecutionError(
                    f"unsupported head atom in normal form: {atom}")

        # Remove assignment entries that were really set collectors.
        self.assignments = [
            (subject, attr, value) for subject, attr, value in self.assignments
            if not (isinstance(value, Var)
                    and value.name in set_collectors
                    and set_collectors[value.name] == (subject, attr)
                    and any(ins_subject == subject and ins_attr == attr
                            for ins_subject, ins_attr, _ in self.insertions))]

        # Identity evaluation order: an identity may reference another
        # created object (e.g. a keyed city embeds its keyed country).
        self.identity_order = _order_identities(identities, self.created)


def _order_identities(identities: Dict[str, SkolemTerm],
                      created: Dict[str, str]
                      ) -> List[Tuple[str, SkolemTerm]]:
    ordered: List[Tuple[str, SkolemTerm]] = []
    placed: Set[str] = set()
    remaining = dict(identities)
    for _ in range(len(identities) + 1):
        progressed = False
        for var, skolem in sorted(remaining.items()):
            depends = {name for name in skolem.variables()
                       if name in identities and name not in placed
                       and name != var}
            if not depends:
                ordered.append((var, skolem))
                placed.add(var)
                del remaining[var]
                progressed = True
        if not progressed:
            break
    if remaining:
        raise ExecutionError(
            f"cyclic identity dependencies among {sorted(remaining)}")
    return ordered


def execute(program: Program, source: Instance,
            target_schema: Schema, validate: bool = True,
            defaults: Optional[Mapping[Tuple[str, str], Value]] = None,
            use_planner: bool = False,
            plan: Optional[ProgramPlan] = None
            ) -> Tuple[Instance, ExecutionStats]:
    """Run a normal-form program and return (target instance, stats).

    ``use_planner`` (or an explicit precomputed ``plan``) switches body
    evaluation to the planned path.  The result is identical on both
    paths.
    """
    executor = Executor(source, target_schema, use_planner=use_planner)
    executor.run_program(program, plan=plan)
    return (executor.freeze(validate=validate, defaults=defaults),
            executor.stats)
