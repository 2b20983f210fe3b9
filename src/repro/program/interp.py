"""Executing compiled query programs.

Execution materialises, per statement, a :class:`ResultSet`: a
duplicate-free set of rows in *canonical order*.  Rows are JSON-encoded
at the engine boundary (``value_to_json`` with the instance's dump
oid-encoder, so anonymous objects carry the same ``Class#n`` labels a
dump of the instance would) and ordered by their sorted-key JSON
rendering.  That single definition buys three guarantees at once:

* set algebra (``union``/``intersect``/``difference``) is well-defined
  — row equality is JSON equality;
* ``limit`` is deterministic — "first N" of a canonical order;
* planned and dynamic execution give byte-identical results —
  dedup-then-sort erases enumeration order.

``query`` statements run the planned path as vectorized columnar
batches (:meth:`~repro.semantics.match.Matcher.run_plan_columnar`);
bodies with no static plan fall back to the dynamic matcher.
Set-algebra statements never touch the instance — they fold earlier
result sets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from ..io.json_io import dump_oid_encoder, value_to_json
from ..model.instance import Instance
from ..obs.metrics import REGISTRY
from ..obs.trace import span
from ..semantics.match import Matcher
from .ast import (DifferenceOp, IntersectOp, LimitOp, ProgramError,
                  ProjectOp, QueryOp, QueryProgram, UnionOp)
from .compile import CompiledProgram, CompiledStatement, compile_program

Row = Dict[str, Any]

#: Statements executed, by operator — the program-DSL mirror of the
#: per-engine ``repro_engine_*`` counters.
_STATEMENTS_TOTAL = REGISTRY.counter(
    "repro_program_statements_total",
    "Query-program statements executed, by operator.", ("op",))


def _row_key(row: Row) -> str:
    return json.dumps(row, sort_keys=True)


@dataclass(frozen=True)
class ResultSet:
    """A statement's materialised result: canonical-order row set.

    ``rows`` are JSON-compatible dicts, duplicate-free, sorted by their
    ``json.dumps(..., sort_keys=True)`` rendering.
    """

    columns: Tuple[str, ...]
    rows: Tuple[Row, ...]

    @staticmethod
    def from_rows(columns: Tuple[str, ...],
                  rows: Iterator[Row]) -> "ResultSet":
        """Dedup + canonically order an arbitrary row enumeration."""
        by_key: Dict[str, Row] = {}
        for row in rows:
            by_key.setdefault(_row_key(row), row)
        ordered = tuple(by_key[key] for key in sorted(by_key))
        return ResultSet(columns=columns, rows=ordered)

    def keys(self) -> Tuple[str, ...]:
        return tuple(_row_key(row) for row in self.rows)

    def to_json(self) -> Dict[str, Any]:
        return {"columns": list(self.columns),
                "rows": [dict(row) for row in self.rows]}


@dataclass(frozen=True)
class StatementTrace:
    """Per-statement execution record (the service's response detail)."""

    name: str
    op: str
    rows: int
    planned: bool = False

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "op": self.op,
                               "rows": self.rows}
        if self.op == "query":
            out["planned"] = self.planned
        return out


@dataclass(frozen=True)
class ProgramResult:
    """The whole run: every statement's size, the result statement's rows."""

    program: QueryProgram
    result: ResultSet
    traces: Tuple[StatementTrace, ...]
    sets: Dict[str, ResultSet] = field(default_factory=dict, compare=False)

    def to_json(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {}
        if self.program.name is not None:
            document["program"] = self.program.name
        document["result"] = self.program.result_name
        document["columns"] = list(self.result.columns)
        document["rows"] = [dict(row) for row in self.result.rows]
        document["statements"] = [t.to_json() for t in self.traces]
        return document


def run_compiled(compiled: CompiledProgram, instance: Instance,
                 oid_encoder=None) -> ProgramResult:
    """Run a compiled program against ``instance``.

    ``instance`` must be the instance the program was compiled against
    (the pool's indexes address its oids).
    """
    encoder = oid_encoder if oid_encoder is not None \
        else dump_oid_encoder(instance)
    matcher = Matcher(instance, index_pool=compiled.pool)

    sets: Dict[str, ResultSet] = {}
    traces: List[StatementTrace] = []
    for statement in compiled.statements:
        op = statement.statement.op
        name = statement.statement.name
        with span(f"{op.op} {name}") as stmt_span:
            if isinstance(op, QueryOp):
                result, trace = _run_query(statement, matcher, encoder)
            else:
                result = _run_algebra(op, statement.columns, sets)
                trace = StatementTrace(name=name, op=op.op,
                                       rows=len(result.rows))
            stmt_span.set(rows=len(result.rows))
        _STATEMENTS_TOTAL.labels(op.op).inc()
        sets[name] = result
        traces.append(trace)

    result_name = compiled.program.result_name
    final = sets[result_name] if result_name is not None \
        else ResultSet(columns=(), rows=())
    return ProgramResult(program=compiled.program, result=final,
                         traces=tuple(traces), sets=sets)


def run_program(program: QueryProgram, instance: Instance,
                pool=None, oid_encoder=None) -> ProgramResult:
    """Compile and run in one call (validation errors raise)."""
    compiled = compile_program(program, instance, pool=pool)
    return run_compiled(compiled, instance, oid_encoder=oid_encoder)


# ----------------------------------------------------------------------
# Statement execution
# ----------------------------------------------------------------------

def _run_query(statement: CompiledStatement, matcher: Matcher,
               encoder) -> Tuple[ResultSet, StatementTrace]:
    query = statement.query
    assert query is not None
    columns = statement.columns
    plan = statement.plan
    bindings = (matcher.solutions(query.body) if plan is None
                else matcher.run_plan_columnar(plan.steps))

    def rows() -> Iterator[Row]:
        for binding in bindings:
            yield {name: value_to_json(binding[name], encoder)
                   for name in columns if name in binding}

    result = ResultSet.from_rows(columns, rows())
    trace = StatementTrace(
        name=statement.statement.name, op="query",
        rows=len(result.rows), planned=plan is not None)
    return result, trace


def _run_algebra(op, columns: Tuple[str, ...],
                 sets: Dict[str, ResultSet]) -> ResultSet:
    """Fold earlier result sets; all inputs exist (validation ensures)."""
    if isinstance(op, UnionOp):
        def union_rows() -> Iterator[Row]:
            for source in op.sources:
                yield from sets[source].rows
        return ResultSet.from_rows(columns, union_rows())
    if isinstance(op, IntersectOp):
        key_sets = [set(sets[source].keys()) for source in op.sources]
        shared = set.intersection(*key_sets) if key_sets else set()
        first = sets[op.sources[0]]
        return ResultSet.from_rows(
            columns, (row for row in first.rows
                      if _row_key(row) in shared))
    if isinstance(op, DifferenceOp):
        right = set(sets[op.right].keys())
        return ResultSet.from_rows(
            columns, (row for row in sets[op.left].rows
                      if _row_key(row) not in right))
    if isinstance(op, ProjectOp):
        source = sets[op.source]
        return ResultSet.from_rows(
            columns, ({name: row[name] for name in op.columns
                       if name in row}
                      for row in source.rows))
    if isinstance(op, LimitOp):
        source = sets[op.source]
        return ResultSet(columns=columns,
                         rows=source.rows[:op.count])
    raise ProgramError(f"unhandled operator {op!r}")  # pragma: no cover
