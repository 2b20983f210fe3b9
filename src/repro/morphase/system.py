"""The Morphase system façade (paper Section 5, Figure 6).

Morphase wires the whole pipeline together::

    WOL transformation program + constraints        (user)
        + auto-generated key clauses                (meta-data)
      -> semi-normal form -> normal form            (normaliser)
      -> execution                                  (direct or via CPL)
      -> target database instance

Usage::

    morphase = Morphase([us_schema(), euro_schema()], target_schema(),
                        PROGRAM_TEXT)
    result = morphase.transform([us_instance, euro_instance])
    result.target            # the integrated instance
    result.normalized.report # compile statistics
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..engine.executor import ExecutionStats, execute
from ..engine.planner import ProgramPlan, plan_program
from ..lang.ast import Clause, Program
from ..lang.parser import parse_program
from ..lang.range_restriction import check_range_restriction
from ..lang.typecheck import check_clause
from ..model.instance import Instance
from ..model.keys import KeySpec, KeyedSchema, key_violations
from ..model.schema import Schema, merge_schemas
from ..normalization.keyclauses import recognise_key_clause
from ..normalization.normalize import (
    NormalizationOptions, NormalizedProgram, normalize)
from ..normalization.snf import snf_clause
from ..obs.trace import span
from ..semantics.satisfaction import (Violation, merge_instances,
                                      program_violations)
from .metadata import generate_target_key_clauses

AnySchema = Union[Schema, KeyedSchema]


class MorphaseError(Exception):
    """Raised for configuration or source-validation failures."""


@dataclass
class MorphaseResult:
    """Outcome of one transformation run."""

    target: Instance
    normalized: NormalizedProgram
    stats: ExecutionStats
    source_violations: Tuple[Violation, ...] = ()
    cpl_source: Optional[str] = None
    plan: Optional[ProgramPlan] = None


def _plain_schema(schema: AnySchema) -> Schema:
    return schema.schema if isinstance(schema, KeyedSchema) else schema


def _keys_of(schema: AnySchema) -> Optional[KeySpec]:
    return schema.keys if isinstance(schema, KeyedSchema) else None


class Morphase:
    """Compile once, transform many times (the paper's trade-off)."""

    def __init__(self, source_schemas: Sequence[AnySchema],
                 target_schema: AnySchema,
                 program: Union[Program, str],
                 options: Optional[NormalizationOptions] = None,
                 auto_keys: bool = True,
                 typecheck: bool = True,
                 preflight: bool = True) -> None:
        self.source_schemas = list(source_schemas)
        self.target_schema = target_schema
        self.options = options or NormalizationOptions()
        self.auto_keys = auto_keys
        self.preflight = preflight
        self._program_text = program if isinstance(program, str) else None
        self._preflight_report = None

        self.source_schema = merge_schemas(
            "__source__", [_plain_schema(s) for s in self.source_schemas])
        self.target_plain = _plain_schema(target_schema)
        self.all_classes = (self.source_schema.class_names()
                            + self.target_plain.class_names())
        self.merged_schema = merge_schemas(
            "__all__",
            [self.source_schema, self.target_plain])

        if isinstance(program, str):
            program = parse_program(program, classes=self.all_classes)
        self.program = program

        if typecheck:
            for clause in self.program:
                check_clause(self.merged_schema, clause)
                check_range_restriction(clause)

        self.source_keys = self._merge_source_keys()
        self._normalized: Optional[NormalizedProgram] = None

    # ------------------------------------------------------------------
    def _merge_source_keys(self) -> Optional[KeySpec]:
        functions = {}
        for schema in self.source_schemas:
            keys = _keys_of(schema)
            if keys is None:
                continue
            for cname in keys.classes():
                functions[cname] = keys.key_for(cname)
        return KeySpec(functions) if functions else None

    def _program_with_auto_keys(self) -> Program:
        if not self.auto_keys or not isinstance(self.target_schema,
                                                KeyedSchema):
            return self.program
        written = set()
        for clause in self.program:
            recognised = recognise_key_clause(snf_clause(clause))
            if recognised is not None:
                written.add(recognised.class_name)
        generated = generate_target_key_clauses(self.target_schema,
                                                skip=written)
        if not generated:
            return self.program
        return Program(self.program.clauses + tuple(generated))

    # ------------------------------------------------------------------
    def preflight_report(self):
        """The static analyzer's report over this program (cached).

        Runs the full :mod:`repro.analysis` pass pipeline — safety,
        dead clauses, interference, schema/key lint — with the key
        knowledge this system compiled (schema keys plus recognised key
        constraints).  Inline ``-- lint: disable=...`` directives in
        the program text are honoured.
        """
        if self._preflight_report is None:
            from ..analysis import analyze_program, parse_suppressions
            suppressions = (parse_suppressions(self._program_text)
                            if self._program_text else frozenset())
            self._preflight_report = analyze_program(
                self.program, self.source_schema, self.target_plain,
                target_keys=_keys_of(self.target_schema),
                source_keys=self.source_keys,
                suppressions=suppressions)
        return self._preflight_report

    def _ensure_preflight(self) -> None:
        """Refuse to run a program the analyzer rejects.

        One aggregated :class:`MorphaseError` lists every error-severity
        diagnostic.  Disable with ``Morphase(..., preflight=False)`` or
        suppress individual findings in the program text.
        """
        if not self.preflight:
            return
        errors = self.preflight_report().errors()
        if not errors:
            return
        detail = "; ".join(
            f"{d.code} [{d.clause or '<program>'}] {d.message}"
            for d in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        raise MorphaseError(
            f"preflight analysis found {len(errors)} error(s): "
            f"{detail}{more}; fix them, suppress with "
            f"'-- lint: disable=CODE', or pass preflight=False")

    # ------------------------------------------------------------------
    def compile(self, force: bool = False) -> NormalizedProgram:
        """Normalise the program (cached)."""
        if self._normalized is None or force:
            self._normalized = normalize(
                self._program_with_auto_keys(),
                self.source_schema, self.target_plain,
                source_keys=self.source_keys, options=self.options)
        return self._normalized

    # ------------------------------------------------------------------
    def check_source(self, source: Instance,
                     use_planner: bool = True) -> List[Violation]:
        """Audit the merged source instance against source constraints.

        Includes schema-level key specifications: a key violation is
        reported as a violation of the corresponding identity clause.
        The audit is planned by default (one shared prebuilt index pool
        across all constraint clauses); ``use_planner=False`` runs the
        naive per-clause matchers, kept as the differential oracle.
        """
        self._ensure_preflight()
        normalized = self.compile()
        violations = list(program_violations(
            source, normalized.source_constraints, limit_per_clause=5,
            use_planner=use_planner))
        if self.source_keys is not None:
            for bad in key_violations(source, self.source_keys):
                violations.append(Violation(_key_violation_clause(bad), {}))
        return violations

    def plan(self, sources: Union[Instance, Sequence[Instance]]
             ) -> ProgramPlan:
        """Plan the compiled normal form against the source instance(s).

        Exposes the execution planner's choices (fixed atom orders,
        shared indexes) without running the transformation — the CLI's
        ``plan`` subcommand prints this.  Indexes are *not* prebuilt:
        explaining a plan should not pay an execution cost.
        """
        merged = self._merge_sources(sources)
        return plan_program(self.compile().program(), merged,
                            prebuild=False)

    def _merge_sources(self, sources: Union[Instance, Sequence[Instance]]
                       ) -> Instance:
        if isinstance(sources, Instance):
            return (sources if sources.schema.classes
                    == self.source_schema.classes
                    else merge_instances("__source__", [sources]))
        return merge_instances("__source__", list(sources))

    def transform(self, sources: Union[Instance, Sequence[Instance]],
                  validate: bool = True,
                  check_source_constraints: bool = False,
                  backend: str = "direct",
                  defaults=None,
                  use_planner: bool = True) -> MorphaseResult:
        """Run the compiled program over the source instance(s).

        ``backend`` is ``"direct"`` (the one-pass executor) or ``"cpl"``
        (translate to CPL and interpret — the paper's production path).
        ``defaults`` maps ``(class, attribute)`` to fill-in values for
        attributes no clause derived (direct backend only); see
        :meth:`repro.engine.executor.Executor.freeze`.

        The direct backend plans the program once per run by default
        (fixed atom orders plus a shared prebuilt index pool);
        ``use_planner=False`` forces the naive per-clause path, kept as
        the differential oracle.
        """
        with span("preflight"):
            self._ensure_preflight()
            merged = self._merge_sources(sources)
        with span("compile", clauses=len(self.program.clauses)):
            normalized = self.compile()
        source_violations: Tuple[Violation, ...] = ()
        if check_source_constraints:
            found = self.check_source(merged)
            source_violations = tuple(found)
            if found:
                raise MorphaseError(
                    "source constraints violated: "
                    + "; ".join(str(v) for v in found[:5]))

        program_plan: Optional[ProgramPlan] = None
        if backend == "direct":
            if use_planner:
                with span("plan") as plan_span:
                    program_plan = plan_program(normalized.program(),
                                                merged)
                    plan_span.set(indexes=program_plan.prebuilt_indexes)
            with span("execute"):
                target, stats = execute(
                    normalized.program(), merged, self.target_plain,
                    validate=validate, defaults=defaults,
                    plan=program_plan)
            cpl_source = None
        elif backend == "cpl":
            if defaults:
                raise MorphaseError(
                    "defaults are only supported by the direct backend")
            from ..cpl.translate import translate_program
            from ..cpl.interp import run_cpl
            cpl_program = translate_program(normalized.program(),
                                            self.target_plain)
            start = time.perf_counter()
            target = run_cpl(cpl_program, merged, self.target_plain,
                             validate=validate)
            stats = ExecutionStats(
                clauses_run=len(normalized.clauses),
                elapsed_seconds=time.perf_counter() - start)
            cpl_source = cpl_program.source()
        else:
            raise MorphaseError(f"unknown backend {backend!r}")

        return MorphaseResult(target=target, normalized=normalized,
                              stats=stats,
                              source_violations=source_violations,
                              cpl_source=cpl_source, plan=program_plan)

    # ------------------------------------------------------------------
    # Incremental execution (delta-driven change propagation)
    # ------------------------------------------------------------------
    def begin_incremental(self, sources: Union[Instance,
                                               Sequence[Instance]],
                          defaults=None):
        """Start an incremental transformation session.

        Runs the compiled program once (planned, recording per-clause
        effect counts) and returns an
        :class:`~repro.engine.incremental.IncrementalTransform` whose
        ``target`` tracks the source under :meth:`apply_delta` — the
        change-propagation mode the paper's Section 6 envisions for
        transformations in front of evolving databases.
        """
        from ..engine.incremental import IncrementalTransform
        self._ensure_preflight()
        merged = self._merge_sources(sources)
        normalized = self.compile()
        return IncrementalTransform(normalized.program(), merged,
                                    self.target_plain, defaults=defaults)

    def apply_delta(self, state, delta):
        """Advance an incremental session by one source delta.

        ``state`` is the session from :meth:`begin_incremental`; the
        returned :class:`~repro.engine.incremental.DeltaResult` carries
        the updated target instance and the propagation statistics.
        The result is identical to re-running :meth:`transform` on the
        updated source (the full recompute stays on as the differential
        oracle).
        """
        return state.apply_delta(delta)

    def begin_incremental_audit(self, sources: Union[Instance,
                                                     Sequence[Instance]],
                                constraints=None):
        """Start an incremental source-constraint audit session.

        Audits the merged source against ``constraints`` (default: the
        compiled program's source constraints, as :meth:`check_source`
        uses) and returns an
        :class:`~repro.engine.incremental.IncrementalAudit` maintaining
        the complete violation set under :meth:`audit_delta`.
        """
        from ..engine.incremental import IncrementalAudit
        merged = self._merge_sources(sources)
        if constraints is None:
            constraints = list(self.compile().source_constraints)
        return IncrementalAudit(merged, constraints)

    def audit_delta(self, state, delta):
        """Advance an incremental audit session by one source delta.

        Returns an
        :class:`~repro.engine.incremental.AuditDeltaResult`: the newly
        raised violations (from inserts and updates), the retracted
        ones (from deletes and updates), and the full surviving set —
        identical to a fresh audit of the updated instance.
        """
        return state.apply_delta(delta)

    # ------------------------------------------------------------------
    # Durable store + service (snapshot/WAL persistence, warm sessions)
    # ------------------------------------------------------------------
    def open_store(self, path: str,
                   sources: Union[Instance, Sequence[Instance], None]
                   = None,
                   fsync: bool = False):
        """Open (or create) a durable warehouse store for this system.

        An existing store at ``path`` is recovered — latest snapshot
        plus WAL tail, torn final record tolerated.  Otherwise
        ``sources`` must be given and the store is initialised with
        their merged instance as snapshot zero.  The store persists
        the *merged source*; transformed targets are derived state a
        :meth:`serve` session keeps warm.
        """
        from ..store.store import StoreError, WarehouseStore
        if WarehouseStore.exists(path):
            store = WarehouseStore.open(path, fsync=fsync)
            if (store.instance.schema.class_names()
                    != self.source_schema.class_names()):
                raise MorphaseError(
                    f"store at {path} holds classes "
                    f"{store.instance.schema.class_names()}, but this "
                    f"system's merged source schema has "
                    f"{self.source_schema.class_names()}")
            return store
        if sources is None:
            raise MorphaseError(
                f"no store at {path} and no sources to initialise one")
        try:
            return WarehouseStore.create(
                path, self._merge_sources(sources), fsync=fsync)
        except StoreError as exc:
            raise MorphaseError(str(exc)) from exc

    def serve(self, store, defaults=None):
        """A warm, thread-safe serving session over an open store.

        Returns a :class:`~repro.service.session.WarehouseSession`:
        the compiled plan, shared index pool and incremental
        transform/audit state stay hot across requests, writers
        group-commit delta bursts, readers run concurrently.  Hand it
        to :func:`repro.service.server.make_server` for the HTTP
        front end.
        """
        from ..service.session import WarehouseSession
        return WarehouseSession(self, store, defaults=defaults)

    # ------------------------------------------------------------------
    def audit(self, sources: Union[Instance, Sequence[Instance]],
              target: Instance,
              use_planner: bool = True) -> List[Violation]:
        """Check the original program (transformations + constraints)
        against source and target together — the definition of a
        Tr-transformation (Section 3.2).

        The whole audit is planned once by default: every clause body
        and head-satisfiability probe is compiled into a fixed join
        order and executed over one shared, prebuilt index pool.
        ``use_planner=False`` is the naive per-clause oracle.
        """
        self._ensure_preflight()
        if isinstance(sources, Instance):
            sources = [sources]
        combined = merge_instances("__audit__", list(sources) + [target])
        return list(program_violations(combined, self.program,
                                       limit_per_clause=5,
                                       use_planner=use_planner))


def _key_violation_clause(violation) -> Clause:
    """A placeholder clause naming the violated key (for reporting)."""
    from ..lang.ast import Const, EqAtom
    return Clause(
        (EqAtom(Const(str(violation)), Const(str(violation))),),
        (),
        name=f"key_{violation.class_name}")
