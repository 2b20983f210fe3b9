"""Incremental, delta-driven execution and auditing (semi-naive).

The batch engine answers "what does the program derive from *this*
instance?"; this module answers "what changes when the instance
changes?" — the question the paper's Section 6 vision of transformation
programs in front of evolving databases turns into the hot path.

Core idea (semi-naive delta joins): a clause's solution set only changes
on bindings that *read* a changed object.  Every read during body
evaluation and head application starts at an object bound by a body
member atom and follows stored references, so the bindings to
re-derive are exactly those that bind a member atom to an object in the
delta **or to a transitive referrer of one** (an object whose stored
value chain reaches a changed object).  :class:`ReverseIndex` maintains
the referrer relation; for each clause the planner compiles one seeded
variant of its join plan per member atom
(:func:`repro.engine.planner.plan_delta_seeds`), which collapses that
atom to a membership test of the seed oid and joins the remaining atoms
through the shared, delta-maintained
:class:`~repro.semantics.match.IndexPool`.

:class:`IncrementalTransform` maintains a transformed target instance
under source deltas by counting each clause firing's primitive head
effects (:func:`repro.engine.executor.head_effects`): retracted bindings
decrement, new bindings increment, and only target objects whose counts
moved are re-assembled.  :class:`IncrementalAudit` maintains a
constraint-violation set the same way: new violations from inserted
body solutions, retracted violations from deleted ones, head-witness
rechecks when the delta could (un)satisfy existing heads.

Both engines fall back to a per-clause full recompute when seeding
cannot be exact (a member atom that is not a plain variable, or — for
audits — a delta that removes potential head witnesses).  The batch
path stays on as the differential oracle: incremental results are
identical to a full recompute on every workload, enforced by
``tests/engine/test_incremental.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import
    # cycle: evolution.operators builds on morphase, which imports the
    # engine package; deltas are plain data, so nothing here needs the
    # class at runtime)
    from ..evolution.delta import Delta

from ..lang.ast import (Clause, Const, EqAtom, InAtom, LeqAtom, LtAtom,
                        MemberAtom, NeqAtom, Proj, RecordTerm, SkolemTerm,
                        Term, Var, VariantTerm)
from ..model.types import (ClassType, ListType, RecordType, SetType, Type)
from ..model.values import type_of_base
from ..model.instance import Instance
from ..model.values import Oid, Value, ValueError_, check_value, oids_in
from ..obs.metrics import publish_engine_stats
from ..semantics.eval import Binding
from ..semantics.match import Matcher
from ..semantics.satisfaction import Violation, clause_violations
from .columnar import seeded_batch_columnar, stream_plan_columnar
from .executor import (
    EFFECT_CREATE, EFFECT_SET, Effect, ExecutionError, _HeadPlan,
    assemble_target_value, head_effects)
from .planner import (AuditPlan, DeltaSeed, ProgramPlan, plan_audit,
                      plan_delta_seeds, plan_program)


class ReverseIndex:
    """Who stores a reference to whom: oid -> the oids whose value holds it.

    The read-set of any evaluation rooted at an object is that object
    plus everything reachable through stored references; inverting the
    reference relation therefore answers the incremental engine's key
    question — *which objects' derivations may a change to this object
    affect?* — as a transitive referrer closure.
    """

    def __init__(self, instance: Optional[Instance] = None) -> None:
        self._referrers: Dict[Oid, Set[Oid]] = {}
        if instance is not None:
            for cname in instance.schema.class_names():
                for oid in instance.objects_of(cname):
                    self._add_refs(oid, instance.value_of(oid))

    def _add_refs(self, oid: Oid, value: Value) -> None:
        for ref in oids_in(value):
            self._referrers.setdefault(ref, set()).add(oid)

    def _remove_refs(self, oid: Oid, value: Value) -> None:
        for ref in oids_in(value):
            holders = self._referrers.get(ref)
            if holders is not None:
                holders.discard(oid)
                if not holders:
                    del self._referrers[ref]

    def referrers(self, oid: Oid) -> frozenset:
        return frozenset(self._referrers.get(oid, ()))

    def closure(self, oids: Iterable[Oid]) -> Set[Oid]:
        """The given oids plus every transitive referrer of them."""
        seen: Set[Oid] = set(oids)
        queue = list(seen)
        while queue:
            current = queue.pop()
            for referrer in self._referrers.get(current, ()):
                if referrer not in seen:
                    seen.add(referrer)
                    queue.append(referrer)
        return seen

    def update_object(self, oid: Oid, old_value: Optional[Value],
                      new_value: Optional[Value]) -> None:
        """Replace one object's outgoing reference contributions."""
        if old_value is not None:
            self._remove_refs(oid, old_value)
        if new_value is not None:
            self._add_refs(oid, new_value)

    def apply_delta(self, old_instance: Instance, delta: Delta) -> None:
        """Maintain the relation across ``delta`` (old values looked up
        in ``old_instance``; new values read from the delta itself)."""
        for cname, oids in delta.deletes.items():
            for oid in oids:
                self._remove_refs(oid, old_instance.value_of(oid))
        for cname, objs in delta.updates.items():
            for oid, value in objs.items():
                self._remove_refs(oid, old_instance.value_of(oid))
                self._add_refs(oid, value)
        for cname, objs in delta.inserts.items():
            for oid, value in objs.items():
                self._add_refs(oid, value)


def _group_by_class(oids: Iterable[Oid]) -> Dict[str, List[Oid]]:
    grouped: Dict[str, List[Oid]] = {}
    for oid in sorted(oids, key=str):
        grouped.setdefault(oid.class_name, []).append(oid)
    return grouped


# ----------------------------------------------------------------------
# Static read-set analysis (attribute-level change pruning)
# ----------------------------------------------------------------------

class ClauseReads:
    """What a clause can observe of the instance, statically.

    ``attributes`` is the set of ``(class, attribute)`` pairs any
    evaluation of the clause may project from a stored object;
    ``member_classes`` the classes whose *extent membership* the clause
    tests or enumerates.  ``exact`` is False when some projection's
    subject could not be typed — the clause must then be treated as
    reading everything.

    The incremental engine uses this to skip seeding entirely for
    clauses that cannot observe a change: an update touching only
    attributes outside ``attributes`` (and no membership the clause
    sees) cannot alter the clause's solutions or head values.
    """

    def __init__(self, clause: Clause, class_type_of) -> None:
        self.exact = True
        self.attributes: Set[Tuple[str, str]] = set()
        self.member_classes: Set[str] = set()
        self._class_type_of = class_type_of
        atoms = list(clause.body) + list(clause.head)
        self._var_types: Dict[str, Type] = {}
        for _ in range(len(atoms) + 1):
            progressed = False
            for atom in atoms:
                progressed |= self._type_atom(atom)
            if not progressed:
                break
        for atom in atoms:
            if isinstance(atom, MemberAtom):
                self.member_classes.add(atom.class_name)
            for term in _atom_terms(atom):
                self._note_reads(term)

    # -- variable typing (fixpoint) ------------------------------------
    def _type_atom(self, atom) -> bool:
        progressed = False
        if isinstance(atom, MemberAtom) and isinstance(atom.element, Var):
            progressed = self._assign(atom.element.name,
                                      ClassType(atom.class_name))
        elif isinstance(atom, EqAtom):
            for side, other in ((atom.left, atom.right),
                                (atom.right, atom.left)):
                if isinstance(side, Var) and side.name not in self._var_types:
                    inferred = self._type_of(other)
                    if inferred is not None:
                        progressed |= self._assign(side.name, inferred)
        elif isinstance(atom, InAtom) and isinstance(atom.element, Var):
            if atom.element.name not in self._var_types:
                collection = self._type_of(atom.collection)
                if isinstance(collection, (SetType, ListType)):
                    progressed = self._assign(atom.element.name,
                                              collection.element)
        return progressed

    def _assign(self, name: str, inferred: Type) -> bool:
        if self._var_types.get(name) == inferred:
            return False
        if name in self._var_types:
            return False  # keep the first, don't oscillate
        self._var_types[name] = inferred
        return True

    def _type_of(self, term: Term) -> Optional[Type]:
        if isinstance(term, Var):
            return self._var_types.get(term.name)
        if isinstance(term, Const):
            return type_of_base(term.value)
        if isinstance(term, SkolemTerm):
            return ClassType(term.class_name)
        if isinstance(term, Proj):
            subject = self._type_of(term.subject)
            if isinstance(subject, ClassType):
                subject = self._class_type_of(subject.name)
            if isinstance(subject, RecordType) \
                    and subject.has_field(term.attr):
                return subject.field_type(term.attr)
            return None
        return None  # records/variants: not needed for pruning

    # -- projection reads ----------------------------------------------
    def _note_reads(self, term: Term) -> None:
        if isinstance(term, Proj):
            self._note_reads(term.subject)
            subject = self._type_of(term.subject)
            if isinstance(subject, ClassType):
                # Projecting through an object identity dereferences a
                # stored value: a read of (class, attribute).
                self.attributes.add((subject.name, term.attr))
            elif not isinstance(subject, RecordType):
                self.exact = False
        elif isinstance(term, RecordTerm):
            for _, sub in term.fields:
                self._note_reads(sub)
        elif isinstance(term, VariantTerm):
            self._note_reads(term.payload)
        elif isinstance(term, SkolemTerm):
            for _, sub in term.args:
                self._note_reads(sub)

    # -- relevance -----------------------------------------------------
    def observes(self, oid: Oid,
                 changed_attrs: Optional[frozenset]) -> bool:
        """Can this clause observe the given change at all?

        ``changed_attrs`` is None for an insert or delete (existence
        changed) and the set of differing attribute labels for an
        in-place update.
        """
        if not self.exact:
            return True
        cname = oid.class_name
        if changed_attrs is None:
            return (cname in self.member_classes
                    or any(read_class == cname
                           for read_class, _ in self.attributes))
        return any((cname, attr) in self.attributes
                   for attr in changed_attrs)


def _atom_terms(atom) -> Tuple[Term, ...]:
    if isinstance(atom, MemberAtom):
        return (atom.element,)
    if isinstance(atom, (EqAtom, NeqAtom, LtAtom, LeqAtom)):
        return (atom.left, atom.right)
    if isinstance(atom, InAtom):
        return (atom.element, atom.collection)
    return ()


def changed_attributes(delta: "Delta", old_instance: Instance
                       ) -> Dict[Oid, Optional[frozenset]]:
    """Per changed object: the differing attribute labels, or None.

    None marks existence changes (inserts and deletes); updates map to
    the set of record labels whose values differ (or None when either
    value is not a record — every read must then be assumed affected).
    """
    from ..model.values import Record
    changes: Dict[Oid, Optional[frozenset]] = {}
    for cname, objs in delta.inserts.items():
        for oid in objs:
            changes[oid] = None
    for cname, oids in delta.deletes.items():
        for oid in oids:
            changes[oid] = None
    for cname, objs in delta.updates.items():
        for oid, new_value in objs.items():
            old_value = old_instance.value_of(oid)
            if not (isinstance(old_value, Record)
                    and isinstance(new_value, Record)):
                changes[oid] = None
                continue
            labels = set(old_value.labels()) | set(new_value.labels())
            changes[oid] = frozenset(
                label for label in labels
                if not (old_value.has(label) and new_value.has(label)
                        and old_value.get(label) == new_value.get(label)))
    return changes


def seeded_solutions(matcher: Matcher, seeds: Sequence[DeltaSeed],
                     seed_oids: Mapping[str, Sequence[Oid]],
                     counters: Optional["IncrementalStats"] = None
                     ) -> Optional[List[Binding]]:
    """All clause-body solutions binding a member atom to a seed oid.

    Each member atom is seeded independently with the seed oids of its
    class; solutions are deduplicated across seeds (a binding touching
    two seeds is found twice but reported once).  Returns ``None`` when
    a member atom with seed oids has no seeded plan — the clause cannot
    be delta-joined exactly and the caller must recompute it fully.

    The whole seed vector of each member atom runs as one batch through
    the vectorized stage compiler
    (:func:`repro.engine.columnar.seeded_batch_columnar`); rows stay
    grouped by seed oid in seed order, so the deduplication sees
    bindings in the order of one seeded run per oid.
    """
    relevant = [(seed, tuple(seed_oids.get(seed.class_name, ())))
                for seed in seeds]
    if all(not oids for _, oids in relevant):
        return []
    bindings: List[Binding] = []
    keys: Set[frozenset] = set()
    for seed, oids in relevant:
        if not oids:
            continue
        if seed.plan is None:
            return None
        if counters is not None:
            counters.seeds_probed += len(oids)
        for binding in seeded_batch_columnar(
                matcher, seed.plan.steps, seed.variable, oids, counters):
            key = frozenset(binding.items())
            if key not in keys:
                keys.add(key)
                bindings.append(binding)
    return bindings


def _delta_prologue(delta: "Delta", old_instance: Instance):
    """The per-delta inputs both engines need, computed once.

    Returns ``(removed_by_class, added_by_class, all_changed,
    changes)``: the per-class removed/added oid groups, the
    deduplicated list of every changed oid, and the per-oid
    changed-attribute map of :func:`changed_attributes`.
    """
    removed_by_class = delta.removed_by_class()
    added_by_class = delta.added_by_class()
    all_changed: List[Oid] = []
    seen: Set[Oid] = set()
    for group in (removed_by_class, added_by_class):
        for oids in group.values():
            for oid in oids:
                if oid not in seen:
                    seen.add(oid)
                    all_changed.append(oid)
    changes = changed_attributes(delta, old_instance)
    return removed_by_class, added_by_class, all_changed, changes


def _pruned_seed_groups(reads: ClauseReads, all_changed: Sequence[Oid],
                        changes: Mapping[Oid, Optional[frozenset]],
                        rev: ReverseIndex,
                        cache: Dict[Oid, Set[Oid]]
                        ) -> Dict[str, List[Oid]]:
    """Seed oids for one clause: closures of the changes it observes."""
    relevant = [oid for oid in all_changed
                if reads.observes(oid, changes[oid])]
    if not relevant:
        return {}
    seeds: Set[Oid] = set()
    for oid in relevant:
        closure = cache.get(oid)
        if closure is None:
            closure = rev.closure([oid])
            cache[oid] = closure
        seeds |= closure
    return _group_by_class(seeds)


@dataclass
class IncrementalStats:
    """Counters for one :meth:`IncrementalTransform.apply_delta` run."""

    delta_size: int = 0
    seeds_probed: int = 0
    bindings_removed: int = 0
    bindings_added: int = 0
    clauses_skipped: int = 0
    clauses_seeded: int = 0
    clauses_recomputed: int = 0
    indexes_maintained: int = 0
    indexes_rebuilt: int = 0
    target_objects_touched: int = 0
    violations_added: int = 0
    violations_removed: int = 0
    violations_rechecked: int = 0
    # Vectorized-execution counters (same meaning as on
    # ExecutionStats: batch stages run, fallback steps, total
    # rows through batch stages, widest batch seen).
    vectorized_steps: int = 0
    fallback_steps: int = 0
    vectorized_rows: int = 0
    max_batch_rows: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class DeltaResult:
    """Outcome of one incremental transformation step."""

    target: Instance
    stats: IncrementalStats
    delta: Delta


class _TargetStore:
    """Counted head effects, aggregated per target object.

    ``presence`` counts every effect touching an object (creation,
    assignment or insertion — exactly the events that make the batch
    executor materialise a pending object); an object exists while its
    presence is positive.  ``attrs`` counts derivations per value: more
    than one distinct value with positive count is the batch engine's
    "program is not functional" conflict, detected at re-assembly.
    """

    def __init__(self) -> None:
        self.presence: Dict[Oid, int] = {}
        self.attrs: Dict[Oid, Dict[str, Dict[Value, int]]] = {}
        self.elems: Dict[Oid, Dict[str, Dict[Value, int]]] = {}

    def apply(self, effect: Effect, sign: int, touched: Set[Oid]) -> None:
        kind, oid = effect[0], effect[1]
        touched.add(oid)
        self.presence[oid] = self.presence.get(oid, 0) + sign
        if self.presence[oid] < 0:
            raise ExecutionError(
                f"incremental bookkeeping underflow on {oid} (a retracted "
                f"binding was never recorded)")
        if self.presence[oid] == 0:
            del self.presence[oid]
        if kind == EFFECT_CREATE:
            return
        group = self.attrs if kind == EFFECT_SET else self.elems
        attr, value = effect[2], effect[3]
        per_attr = group.setdefault(oid, {})
        per_value = per_attr.setdefault(attr, {})
        count = per_value.get(value, 0) + sign
        if count < 0:
            raise ExecutionError(
                f"incremental bookkeeping underflow on {oid}.{attr}")
        if count == 0:
            per_value.pop(value, None)
            if not per_value:
                per_attr.pop(attr, None)
                if not per_attr:
                    group.pop(oid, None)
        else:
            per_value[value] = count

    def attributes_of(self, oid: Oid) -> Dict[str, Value]:
        attributes: Dict[str, Value] = {}
        for attr, values in self.attrs.get(oid, {}).items():
            live = [value for value, count in values.items() if count > 0]
            if len(live) > 1:
                raise ExecutionError(
                    f"conflict on {oid}.{attr}: clauses derive "
                    f"{len(live)} distinct values (the program is not "
                    f"functional)")
            if live:
                attributes[attr] = live[0]
        return attributes

    def set_attributes_of(self, oid: Oid) -> Dict[str, Set[Value]]:
        return {attr: {value for value, count in values.items() if count > 0}
                for attr, values in self.elems.get(oid, {}).items()
                if any(count > 0 for count in values.values())}


class IncrementalTransform:
    """A transformation session maintaining its target under deltas.

    Construction runs the program once (planned, over the shared index
    pool) while recording each clause firing's effect counts; every
    :meth:`apply_delta` then patches the counts from seeded delta joins
    and re-assembles only the touched target objects.  ``target`` always
    equals what :func:`repro.engine.executor.execute` would produce from
    the current source — the differential tests enforce bit-equality.
    """

    def __init__(self, program: Iterable[Clause], source: Instance,
                 target_schema,
                 defaults: Optional[Mapping[Tuple[str, str], Value]] = None,
                 validate: bool = True) -> None:
        self.clauses: List[Clause] = list(program)
        self.source = source
        self.target_schema = target_schema
        self.defaults = dict(defaults or {})
        self.validate = validate
        self._poisoned: Optional[str] = None

        source_classes = set(source.schema.class_names())
        for clause in self.clauses:
            for atom in clause.body:
                if (isinstance(atom, MemberAtom)
                        and atom.class_name not in source_classes):
                    raise ExecutionError(
                        f"clause {clause.name or clause}: body mentions "
                        f"non-source class {atom.class_name}; not in "
                        f"normal form")

        self.plan: ProgramPlan = plan_program(self.clauses, source)
        cardinalities = source.class_sizes()
        self._head_plans = [_HeadPlan(clause, target_schema)
                            for clause in self.clauses]

        def class_type_of(cname: str):
            if source.schema.has_class(cname):
                return source.schema.class_type(cname)
            if target_schema.has_class(cname):
                return target_schema.class_type(cname)
            return None

        self._reads = [ClauseReads(clause, class_type_of)
                       for clause in self.clauses]
        self._seeds: List[Tuple[DeltaSeed, ...]] = [
            plan_delta_seeds(clause, cardinalities)
            for clause in self.clauses]
        # The seeded variants may probe selectors the batch plans never
        # need (joins inverted around the seed); build their indexes up
        # front so the first delta does not pay lazy builds mid-join.
        self.plan.pool.prebuild(sorted(
            {key for seeds in self._seeds for seed in seeds
             if seed.plan is not None for key in seed.plan.index_paths}))

        self.clause_effects: List[Dict[Effect, int]] = [
            {} for _ in self.clauses]
        self._store = _TargetStore()
        self.stats = IncrementalStats()

        matcher = Matcher(source, index_pool=self.plan.pool)
        touched: Set[Oid] = set()
        for index, clause in enumerate(self.clauses):
            self._run_clause_full(index, matcher, source, touched)
        self.target = self._assemble_all()
        if validate:
            self.target.validate()
        self.source_rev = ReverseIndex(source)
        self.target_rev = ReverseIndex(self.target)

    # ------------------------------------------------------------------
    def _run_clause_full(self, index: int, matcher: Matcher,
                         instance: Instance, touched: Set[Oid]) -> None:
        clause = self.clauses[index]
        label = clause.name or str(clause)
        join_plan = self.plan.plan_for(clause)
        if join_plan is not None:
            bindings = stream_plan_columnar(
                matcher, join_plan.steps, None, self.stats)
        else:
            bindings = matcher.solutions(clause.body)
        for binding in bindings:
            effects = head_effects(self._head_plans[index], binding,
                                   instance, label)
            self._record(index, effects, +1, touched)

    def _clause_seeds(self, index: int, all_changed: Sequence[Oid],
                      changes: Mapping[Oid, Optional[frozenset]],
                      rev: ReverseIndex, cache: Dict[Oid, Set[Oid]]
                      ) -> Dict[str, List[Oid]]:
        return _pruned_seed_groups(self._reads[index], all_changed,
                                   changes, rev, cache)

    def _record(self, index: int, effects: Sequence[Effect], sign: int,
                touched: Set[Oid]) -> None:
        counter = self.clause_effects[index]
        for effect in effects:
            oid = effect[1]
            if not self.target_schema.has_class(oid.class_name):
                raise ExecutionError(
                    f"object {oid} belongs to no target class")
            counter[effect] = counter.get(effect, 0) + sign
            if counter[effect] == 0:
                del counter[effect]
            self._store.apply(effect, sign, touched)

    def _assemble_one(self, oid: Oid) -> Optional[Value]:
        """The object's current stored value, or None when retracted."""
        if self._store.presence.get(oid, 0) <= 0:
            return None
        ctype = self.target_schema.class_type(oid.class_name)
        value, missing = assemble_target_value(
            oid.class_name, oid, ctype, self._store.attributes_of(oid),
            self._store.set_attributes_of(oid), self.defaults)
        if value is None:
            if self.validate:
                raise ExecutionError(
                    "incomplete transformation (the program does not "
                    f"fully describe these objects): {oid}: missing "
                    f"attributes {missing}")
            return None
        return value

    def _assemble_all(self) -> Instance:
        valuations: Dict[str, Dict[Oid, Value]] = {
            cname: {} for cname in self.target_schema.class_names()}
        incomplete: List[str] = []
        for oid in sorted(self._store.presence, key=str):
            ctype = self.target_schema.class_type(oid.class_name)
            value, missing = assemble_target_value(
                oid.class_name, oid, ctype, self._store.attributes_of(oid),
                self._store.set_attributes_of(oid), self.defaults)
            if value is None:
                incomplete.append(f"{oid}: missing attributes {missing}")
                continue
            valuations[oid.class_name][oid] = value
        if incomplete and self.validate:
            raise ExecutionError(
                "incomplete transformation (the program does not fully "
                "describe these objects): " + "; ".join(incomplete))
        return Instance(self.target_schema, valuations)

    # ------------------------------------------------------------------
    def apply_delta(self, delta: Delta) -> DeltaResult:
        """Advance the source by ``delta`` and patch the target.

        Raises :class:`ExecutionError` exactly when a full recompute
        over the updated source would (conflicts, incompleteness,
        ill-formed results); after such an error the session is spent
        and must be rebuilt.
        """
        if self._poisoned is not None:
            raise ExecutionError(
                f"incremental session is spent ({self._poisoned}); "
                f"start a new one")
        start = time.perf_counter()
        stats = IncrementalStats(delta_size=delta.size())
        try:
            target = self._apply_delta(delta, stats)
        except Exception as exc:
            self._poisoned = str(exc)
            raise
        stats.elapsed_seconds = time.perf_counter() - start
        self.stats = stats
        publish_engine_stats("incremental", stats)
        return DeltaResult(target=target, stats=stats, delta=delta)

    def _apply_delta(self, delta: Delta, stats: IncrementalStats
                     ) -> Instance:
        old_source = self.source
        removed_by_class, added_by_class, all_changed, changes = \
            _delta_prologue(delta, old_source)

        # Phase 1 — retracted bindings, enumerated over the *old*
        # instance.  Both phases seed each clause from the changed oids
        # it can *observe* (attribute-level read-set pruning) plus
        # their transitive referrers: the closure over-approximates the
        # affected bindings (a referrer need not actually read the
        # changed object), so a binding retracted here that still holds
        # is re-derived in phase 3 from the same surviving seeds —
        # retract-then-rederive makes the over-approximation harmless.
        removal_seeds = _group_by_class(
            self.source_rev.closure(all_changed))
        cache_old: Dict[Oid, Set[Oid]] = {}
        removals: Dict[int, List[List[Effect]]] = {}
        fallback: Set[int] = set()
        matcher_old = Matcher(old_source, index_pool=self.plan.pool)
        for index, clause in enumerate(self.clauses):
            label = clause.name or str(clause)
            bindings = seeded_solutions(
                matcher_old, self._seeds[index],
                self._clause_seeds(index, all_changed, changes,
                                   self.source_rev, cache_old), stats)
            if bindings is None:
                fallback.add(index)
                continue
            if bindings:
                removals[index] = [
                    head_effects(self._head_plans[index], binding,
                                 old_source, label)
                    for binding in bindings]

        # Phase 2 — swap in the updated instance; maintain the referrer
        # relation and patch the shared index pool in place (the seed
        # closures bound every index entry that can move, including
        # through dereferencing paths).  Permissive application: the
        # batch oracle tolerates dangling source references (affected
        # bindings simply die), so the incremental path must too.
        new_source = delta.apply_to(old_source, validate_changed=False)
        self.source_rev.apply_delta(old_source, delta)
        self.source = new_source

        # Deleted oids seed nothing themselves (their membership tests
        # fail) but their surviving referrers re-derive here; the
        # referrer edges survive in the maintained relation because
        # only changed objects' outgoing references were rewritten.
        addition_seeds = _group_by_class(
            self.source_rev.closure(all_changed))
        maintained, rebuilt = self.plan.pool.rebase(
            new_source, removal_seeds, addition_seeds,
            strict_removed=removed_by_class,
            strict_added=added_by_class, changed_attrs=changes)
        stats.indexes_maintained += maintained
        stats.indexes_rebuilt += rebuilt

        # Phase 3 — bindings over the new instance, then commit.
        matcher_new = Matcher(new_source, index_pool=self.plan.pool)
        cache_new: Dict[Oid, Set[Oid]] = {}
        additions: Dict[int, List[List[Effect]]] = {}
        for index, clause in enumerate(self.clauses):
            if index in fallback:
                continue
            label = clause.name or str(clause)
            bindings = seeded_solutions(
                matcher_new, self._seeds[index],
                self._clause_seeds(index, all_changed, changes,
                                   self.source_rev, cache_new), stats)
            if bindings is None:
                fallback.add(index)
                continue
            if bindings:
                additions[index] = [
                    head_effects(self._head_plans[index], binding,
                                 new_source, label)
                    for binding in bindings]

        touched: Set[Oid] = set()
        for index, effect_lists in removals.items():
            if index in fallback:
                continue
            stats.bindings_removed += len(effect_lists)
            for effects in effect_lists:
                self._record(index, effects, -1, touched)
        for index, effect_lists in additions.items():
            if index in fallback:
                continue
            stats.bindings_added += len(effect_lists)
            for effects in effect_lists:
                self._record(index, effects, +1, touched)
        for index in sorted(fallback):
            stats.clauses_recomputed += 1
            for effect, count in list(self.clause_effects[index].items()):
                for _ in range(count):
                    self._store.apply(effect, -1, touched)
            self.clause_effects[index] = {}
            self._run_clause_full(index, matcher_new, new_source, touched)
        for index in range(len(self.clauses)):
            if index in fallback:
                continue
            if index in removals or index in additions:
                stats.clauses_seeded += 1
            else:
                stats.clauses_skipped += 1

        self.target = self._refreeze(touched, stats)
        return self.target

    def _refreeze(self, touched: Set[Oid], stats: IncrementalStats
                  ) -> Instance:
        """Re-assemble only the touched target objects.

        Validation is proportional to the change: changed values are
        type-checked and their references resolved, and removals are
        checked against the target's reverse index so a dangling
        reference fails here exactly as a full freeze-and-validate
        would.
        """
        valuations: Dict[str, Dict[Oid, Value]] = {
            cname: dict(objs)
            for cname, objs in self.target.valuations.items()}
        changed: List[Tuple[Oid, Optional[Value], Optional[Value]]] = []
        for oid in sorted(touched, key=str):
            old_value = valuations[oid.class_name].get(oid)
            new_value = self._assemble_one(oid)
            if new_value == old_value:
                continue
            changed.append((oid, old_value, new_value))
            if new_value is None:
                del valuations[oid.class_name][oid]
            else:
                valuations[oid.class_name][oid] = new_value
        stats.target_objects_touched = len(changed)
        if not changed:
            return self.target
        updated = Instance(self.target_schema, valuations)
        if self.validate:
            removed_oids = {oid for oid, _, value in changed
                            if value is None}
            for oid, _, value in changed:
                if value is None:
                    # The reverse index predates this refreeze, so a
                    # listed referrer may have been rewritten in the
                    # same step: only its *current* value convicts it.
                    for referrer in self.target_rev.referrers(oid):
                        if (referrer in removed_oids
                                or not updated.has_object(referrer)):
                            continue
                        if oid in oids_in(updated.value_of(referrer)):
                            raise ExecutionError(
                                f"transformation produced an ill-formed "
                                f"instance: {referrer} references {oid}, "
                                f"which is not in the instance")
                    continue
                ctype = self.target_schema.class_type(oid.class_name)
                try:
                    check_value(value, ctype)
                except ValueError_ as exc:
                    raise ExecutionError(
                        f"transformation produced an ill-formed instance: "
                        f"class {oid.class_name}, object {oid}: "
                        f"{exc}") from exc
                for ref in oids_in(value):
                    if not updated.has_object(ref):
                        raise ExecutionError(
                            f"transformation produced an ill-formed "
                            f"instance: class {oid.class_name}, object "
                            f"{oid}: value references {ref}, which is "
                            f"not in the instance")
        for oid, old_value, new_value in changed:
            self.target_rev.update_object(oid, old_value, new_value)
        return updated


# ----------------------------------------------------------------------
# Incremental constraint auditing
# ----------------------------------------------------------------------

@dataclass
class AuditDeltaResult:
    """Violation diff produced by one :meth:`IncrementalAudit.apply_delta`."""

    added: List[Violation]
    removed: List[Violation]
    violations: List[Violation]
    stats: IncrementalStats

    @property
    def ok(self) -> bool:
        return not self.violations


class IncrementalAudit:
    """A constraint audit maintaining its violation set under deltas.

    Violations are body solutions with no satisfying head extension.
    Under a delta: seeded body solutions over the old instance retract
    (their violations, if any, disappear with them), seeded body
    solutions over the new instance are (re)checked, surviving
    violations are re-probed when inserts could supply a missing head
    witness, and a clause is fully rechecked when the delta removes
    objects of a class its head draws witnesses from — the only case
    where a previously satisfied body can silently lose support.
    """

    def __init__(self, instance: Instance,
                 constraints: Iterable[Clause]) -> None:
        self.instance = instance
        self.constraints: List[Clause] = list(constraints)
        self.plan: AuditPlan = plan_audit(self.constraints, instance)
        cardinalities = instance.class_sizes()
        self._seeds = [plan_delta_seeds(clause, cardinalities)
                       for clause in self.constraints]
        self.plan.pool.prebuild(sorted(
            {key for seeds in self._seeds for seed in seeds
             if seed.plan is not None for key in seed.plan.index_paths}))
        self._body_vars = [
            frozenset().union(*(atom.variables() for atom in clause.body))
            if clause.body else frozenset()
            for clause in self.constraints]
        self._head_member_classes = [
            frozenset(atom.class_name for atom in clause.head
                      if isinstance(atom, MemberAtom))
            for clause in self.constraints]

        def class_type_of(cname: str):
            if instance.schema.has_class(cname):
                return instance.schema.class_type(cname)
            return None

        self._reads = [ClauseReads(clause, class_type_of)
                       for clause in self.constraints]
        self._violations: List[Dict[frozenset, Violation]] = []
        self.stats = IncrementalStats()
        self._poisoned: Optional[str] = None
        self._rev = ReverseIndex(instance)
        matcher = Matcher(instance, index_pool=self.plan.pool)
        for index, clause in enumerate(self.constraints):
            found = clause_violations(
                instance, clause, limit=None, matcher=matcher,
                plan=self.plan.plan_for(clause))
            self._violations.append({
                frozenset(violation.binding.items()): violation
                for violation in found})

    # ------------------------------------------------------------------
    def violations(self) -> List[Violation]:
        """The current violation set (stable order)."""
        out: List[Violation] = []
        for per_clause in self._violations:
            for key in sorted(per_clause, key=lambda k: sorted(map(str, k))):
                out.append(per_clause[key])
        return out

    def _head_satisfiable(self, index: int, matcher: Matcher,
                          binding: Binding) -> bool:
        clause = self.constraints[index]
        constraint_plan = self.plan.plan_for(clause)
        head_steps = constraint_plan.head.steps if (
            constraint_plan is not None
            and constraint_plan.head is not None) else None
        return matcher.satisfiable(clause.head, binding, plan=head_steps)

    def apply_delta(self, delta: Delta) -> AuditDeltaResult:
        """Advance the audited instance by ``delta``; return the diff."""
        if self._poisoned is not None:
            raise ExecutionError(
                f"incremental audit session is spent ({self._poisoned}); "
                f"start a new one")
        start = time.perf_counter()
        stats = IncrementalStats(delta_size=delta.size())
        try:
            added, removed = self._apply_delta(delta, stats)
        except Exception as exc:
            self._poisoned = str(exc)
            raise
        stats.elapsed_seconds = time.perf_counter() - start
        stats.violations_added = len(added)
        stats.violations_removed = len(removed)
        self.stats = stats
        return AuditDeltaResult(added=added, removed=removed,
                                violations=self.violations(), stats=stats)

    def _apply_delta(self, delta: Delta, stats: IncrementalStats
                     ) -> Tuple[List[Violation], List[Violation]]:
        old_instance = self.instance
        removed_by_class, added_by_class, all_changed, changes = \
            _delta_prologue(delta, old_instance)
        rev = self._rev
        # Both phases seed bodies from the closures of the changes each
        # clause observes (retract-then-rederive absorbs the
        # over-approximation); the head triggers stay narrow — witness
        # *loss* needs removed-side objects, witness *gain* added-side.
        removal_trigger = {oid.class_name for oid in rev.closure(
            oid for oids in removed_by_class.values() for oid in oids)}
        removal_seeds = _group_by_class(rev.closure(all_changed))
        cache_old: Dict[Oid, Set[Oid]] = {}

        # Phase 1 — over the old instance: retract the body solutions
        # that read removed objects, and decide which clauses need a
        # full recheck (removed objects of a head-witness class).
        matcher_old = Matcher(old_instance, index_pool=self.plan.pool)
        retract_keys: Dict[int, Set[frozenset]] = {}
        full_recheck: Set[int] = set()
        for index, clause in enumerate(self.constraints):
            if self._head_member_classes[index] & removal_trigger:
                full_recheck.add(index)
                continue
            bindings = seeded_solutions(
                matcher_old, self._seeds[index],
                _pruned_seed_groups(self._reads[index], all_changed,
                                    changes, rev, cache_old), stats)
            if bindings is None:
                full_recheck.add(index)
                continue
            if bindings:
                body_vars = self._body_vars[index]
                retract_keys[index] = {
                    frozenset((name, value)
                              for name, value in binding.items()
                              if name in body_vars)
                    for binding in bindings}

        # Phase 2 — swap instances, patch the pool (seed closures bound
        # the movable index entries, as in the transform engine).
        new_instance = delta.apply_to(old_instance,
                                      validate_changed=False)
        rev.apply_delta(old_instance, delta)
        self.instance = new_instance

        addition_trigger = {oid.class_name for oid in rev.closure(
            oid for oids in added_by_class.values() for oid in oids)}
        addition_seeds = _group_by_class(rev.closure(all_changed))
        maintained, rebuilt = self.plan.pool.rebase(
            new_instance, removal_seeds, addition_seeds,
            strict_removed=removed_by_class,
            strict_added=added_by_class, changed_attrs=changes)
        stats.indexes_maintained += maintained
        stats.indexes_rebuilt += rebuilt
        matcher_new = Matcher(new_instance, index_pool=self.plan.pool)
        cache_new: Dict[Oid, Set[Oid]] = {}
        added: List[Violation] = []
        removed: List[Violation] = []
        for index, clause in enumerate(self.constraints):
            per_clause = self._violations[index]
            if index not in full_recheck:
                bindings = seeded_solutions(
                    matcher_new, self._seeds[index],
                    _pruned_seed_groups(self._reads[index], all_changed,
                                        changes, rev, cache_new), stats)
                if bindings is None:
                    full_recheck.add(index)
            if index in full_recheck:
                stats.clauses_recomputed += 1
                found = clause_violations(
                    new_instance, clause, limit=None, matcher=matcher_new,
                    plan=self.plan.plan_for(clause))
                fresh = {frozenset(violation.binding.items()): violation
                         for violation in found}
                for key, violation in fresh.items():
                    if key not in per_clause:
                        added.append(violation)
                for key, violation in per_clause.items():
                    if key not in fresh:
                        removed.append(violation)
                self._violations[index] = fresh
                continue
            # Retract violations whose body solutions disappeared, then
            # re-derive the seeded solutions of the new instance.  A
            # violation retracted and immediately re-derived unchanged
            # is reinstated silently (it never left the set).
            rechecked: Set[frozenset] = set()
            retracted_now: Dict[frozenset, Violation] = {}
            for key in retract_keys.get(index, ()):
                violation = per_clause.pop(key, None)
                if violation is not None:
                    retracted_now[key] = violation
            body_vars = self._body_vars[index]
            for binding in bindings:
                projected = {name: value for name, value in binding.items()
                             if name in body_vars}
                key = frozenset(projected.items())
                rechecked.add(key)
                satisfied = self._head_satisfiable(index, matcher_new,
                                                   projected)
                stats.violations_rechecked += 1
                if satisfied:
                    prior = per_clause.pop(key, None)
                    if prior is not None:
                        removed.append(prior)
                    elif key in retracted_now:
                        removed.append(retracted_now.pop(key))
                elif key in retracted_now:
                    per_clause[key] = retracted_now.pop(key)
                elif key not in per_clause:
                    violation = Violation(clause, projected)
                    per_clause[key] = violation
                    added.append(violation)
            removed.extend(retracted_now.values())
            if bindings or retract_keys.get(index):
                stats.clauses_seeded += 1
            else:
                stats.clauses_skipped += 1
            # Inserted objects of a head-witness class may satisfy
            # violations whose bodies the delta never touched.
            if self._head_member_classes[index] & addition_trigger:
                for key in list(per_clause):
                    if key in rechecked:
                        continue
                    stats.violations_rechecked += 1
                    if self._head_satisfiable(index, matcher_new,
                                              dict(key)):
                        removed.append(per_clause.pop(key))
        return added, removed
