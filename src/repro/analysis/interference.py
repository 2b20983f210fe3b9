"""Clause-interference analysis (WOL301, WOL302, WOL304, WOL305).

Computes every clause's static write-set (head effects on target
classes) and read-set (:class:`~repro.engine.incremental.ClauseReads`,
the incremental engine's own notion), then:

* **WOL301** — two clauses writing the same non-key scalar attribute
  whose bodies can overlap: their co-firing raises a runtime conflict,
  and the winner depends on clause order otherwise.  Identity (key)
  attributes are exempt — equal keys mean the *same* object, so the
  writes agree by construction — and pairs whose combined bodies are
  congruence-unsatisfiable are provably disjoint (the variant-guard
  pattern of ``workloads/synthetic.py``).
* **WOL302** — cycles in the produce/consume graph over target classes
  (a clause consuming what it transitively produces): the normaliser
  rejects recursion, and results would be iteration-order sensitive.
* **WOL304** — clauses whose read-set is imprecise (an untypeable
  projection subject): incremental seeding must over-approximate to
  "reads everything" for them.
* **WOL305** — clauses whose join plan has no vectorizable step; the
  columnar executor falls back to row-at-a-time enumeration for every
  stage of the body.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..engine.columnar import step_vectorizable
from ..engine.incremental import ClauseReads
from ..engine.planner import PlanError, plan_clause
from ..lang.ast import Clause, EqAtom, MemberAtom, Proj, SkolemTerm, Var
from ..normalization.congruence import Unsatisfiable, congruence_of
from .analyzer import AnalysisContext
from .diagnostics import Diagnostic


def run(context: AnalysisContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    out.extend(_write_conflicts(context))
    out.extend(_produce_consume_cycles(context))
    for index in range(len(context.clauses)):
        out.extend(_read_precision(context, index))
        out.extend(_vectorizability(context, index))
    return out


# ----------------------------------------------------------------------
# WOL301: conflicting scalar writes
# ----------------------------------------------------------------------

def _write_conflicts(context: AnalysisContext) -> List[Diagnostic]:
    writers: Dict[Tuple[str, str], List[Tuple[int, str]]] = {}
    for index in range(len(context.clauses)):
        effects = context.head_effects(index)
        for cname, attr, subject in effects.scalar_writes:
            key_attrs = context.effective_key_attrs(cname)
            if key_attrs is not None and attr in key_attrs:
                continue  # identity attribute: writes agree by key
            writers.setdefault((cname, attr), []).append((index, subject))

    out: List[Diagnostic] = []
    for (cname, attr), entries in sorted(writers.items()):
        clause_indexes = sorted({index for index, _ in entries})
        if len(clause_indexes) < 2:
            continue
        overlapping = _overlapping_pairs(context, cname, attr, entries)
        if not overlapping:
            continue
        pair_text = ", ".join(
            f"({context.label(a)}, {context.label(b)})"
            for a, b in overlapping)
        anchor = overlapping[0][0]
        out.append(Diagnostic(
            "WOL301",
            f"attribute ({cname}, {attr}) is written by multiple "
            f"clauses with overlapping bodies: {pair_text}; co-firing "
            f"raises a conflict and results are clause-order sensitive",
            clause=context.label(anchor), clause_index=anchor,
            suggestion="make the clause bodies mutually exclusive, or "
                       "derive the attribute in a single clause"))
    return out


def _overlapping_pairs(context: AnalysisContext, cname: str, attr: str,
                       entries: List[Tuple[int, str]]
                       ) -> List[Tuple[int, int]]:
    """Writer pairs whose bodies can bind the same object."""
    pairs: List[Tuple[int, int]] = []
    seen: Set[Tuple[int, int]] = set()
    for position, (left, left_var) in enumerate(entries):
        for right, right_var in entries[position + 1:]:
            if left == right:
                continue
            ordered = (min(left, right), max(left, right))
            if ordered in seen:
                continue
            seen.add(ordered)
            if _may_overlap(context, cname, left, left_var,
                            right, right_var):
                pairs.append(ordered)
    return sorted(pairs)


def _key_link_atoms(context: AnalysisContext, cname: str,
                    clause: Clause, subject: str) -> Tuple:
    """Head equations that pin the written object's key attributes.

    Only these head atoms may join the combined congruence: they say
    *which* object the clause writes (two writers touching the same
    object agree on its keys), while every other head write is exactly
    the potential conflict being tested and must stay out.
    """
    key_attrs = context.effective_key_attrs(cname) or frozenset()
    linked = []
    for atom in clause.head:
        if not isinstance(atom, EqAtom):
            continue
        if (isinstance(atom.left, Var)
                and isinstance(atom.right, SkolemTerm)):
            linked.append(atom)  # explicit identity
            continue
        for side in (atom.left, atom.right):
            if (isinstance(side, Proj) and isinstance(side.subject, Var)
                    and side.subject.name == subject
                    and side.attr in key_attrs):
                linked.append(atom)
                break
    return tuple(linked)


def _may_overlap(context: AnalysisContext, cname: str, left: int,
                 left_var: str, right: int, right_var: str) -> bool:
    """False only when co-firing on one object is provably impossible.

    Combines both SNF bodies with the written subjects unified, adds
    the head equations pinning each subject's key attributes (so the
    "same object" hypothesis propagates through the keys) and the
    schema/constraint key knowledge, then asks the congruence engine
    for a contradiction.
    """
    left_snf = context.snf(left)
    right_snf = context.snf(right)
    if left_snf is None or right_snf is None:
        return True
    renamed = right_snf.rename_apart(left_snf.variables())
    renaming = _variable_map(right_snf, renamed)
    subject = renaming.get(right_var, right_var)
    unify = {subject: Var(left_var)}
    combined = (tuple(left_snf.body)
                + _key_link_atoms(context, cname, left_snf, left_var)
                + tuple(atom.substitute(unify) for atom in renamed.body)
                + tuple(atom.substitute(unify) for atom in
                        _key_link_atoms(context, cname, renamed, subject)))
    try:
        congruence_of(combined, context.congruence_key_paths())
    except Unsatisfiable:
        return False
    except Exception:
        return True
    return True


def _variable_map(original: Clause, renamed: Clause) -> Dict[str, str]:
    """Positional variable correspondence between a clause and its
    ``rename_apart`` image (atom structure is preserved, so zipping the
    term walks lines the variables up)."""
    mapping: Dict[str, str] = {}
    before = [node for atom in original.atoms() for term in atom.terms()
              for node in term.walk() if isinstance(node, Var)]
    after = [node for atom in renamed.atoms() for term in atom.terms()
             for node in term.walk() if isinstance(node, Var)]
    for old, new in zip(before, after, strict=True):
        mapping.setdefault(old.name, new.name)
    return mapping


# ----------------------------------------------------------------------
# WOL302: produce/consume cycles
# ----------------------------------------------------------------------

def _produce_consume_cycles(context: AnalysisContext) -> List[Diagnostic]:
    produces: Dict[int, Set[str]] = {}
    edges: Dict[str, Set[str]] = {}
    for index in range(len(context.clauses)):
        produced = {cname for cname, _ in
                    context.head_effects(index).creations}
        for atom in context.clauses[index].head:
            if (isinstance(atom, MemberAtom)
                    and context.is_target_class(atom.class_name)):
                produced.add(atom.class_name)
        produces[index] = produced
        for consumed in context.consumers(index):
            for target in produced:
                edges.setdefault(consumed, set()).add(target)

    cyclic = _classes_in_cycles(edges)
    if not cyclic:
        return []
    out: List[Diagnostic] = []
    for index in range(len(context.clauses)):
        consumed = context.consumers(index) & cyclic
        produced = produces[index] & cyclic
        if consumed and produced:
            out.append(Diagnostic(
                "WOL302",
                f"produce/consume cycle through target classes "
                f"{sorted(cyclic)}: this clause consumes "
                f"{sorted(consumed)} and produces {sorted(produced)}",
                clause=context.label(index), clause_index=index,
                suggestion="break the recursion; WOL programs are "
                           "non-recursive (results would depend on "
                           "clause iteration order)"))
    return out


def _classes_in_cycles(edges: Dict[str, Set[str]]) -> Set[str]:
    """Nodes on some cycle: reachable from themselves."""
    cyclic: Set[str] = set()
    for start in edges:
        frontier = set(edges.get(start, ()))
        seen: Set[str] = set()
        while frontier:
            node = frontier.pop()
            if node == start:
                cyclic.add(start)
                break
            if node in seen:
                continue
            seen.add(node)
            frontier |= edges.get(node, set())
    return cyclic


# ----------------------------------------------------------------------
# WOL304 / WOL305: read-set precision, vectorizability
# ----------------------------------------------------------------------


def _read_precision(context: AnalysisContext,
                    index: int) -> List[Diagnostic]:
    clause = context.clauses[index]
    try:
        reads = ClauseReads(clause, context.class_type_of)
    except Exception:
        return []
    if reads.exact:
        return []
    return [Diagnostic(
        "WOL304",
        "read-set is imprecise (a projection subject could not be "
        "typed); incremental seeding treats this clause as reading "
        "every attribute",
        clause=context.label(index), clause_index=index,
        suggestion="bind projection subjects through class membership "
                   "so their types are statically known")]


def _vectorizability(context: AnalysisContext,
                     index: int) -> List[Diagnostic]:
    clause = context.clauses[index]
    if not clause.body:
        return []
    try:
        plan = plan_clause(clause)
    except PlanError:
        return []  # already WOL104
    if any(step_vectorizable(step) for step in plan.steps):
        return []
    return [Diagnostic(
        "WOL305",
        "no step of the join plan is vectorizable; columnar execution "
        "falls back to row-at-a-time enumeration for every stage",
        clause=context.label(index), clause_index=index,
        suggestion="start the body with a class membership scan or "
                   "attribute bindings so batches can form")]
