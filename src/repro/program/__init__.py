"""Composable query programs over warehouse instances.

The query-program DSL (ROADMAP open item: "a composable query DSL
served over the API") — statically-bounded named statements, each a WOL
conjunctive query or a set-algebra fold of earlier results, with a
canonical versioned JSON AST (:mod:`~repro.program.ast`), a text form
that round-trips through it (:mod:`~repro.program.parser`), WOL5xx
static validation (:mod:`~repro.program.validate`), and planned
columnar execution (:mod:`~repro.program.compile`,
:mod:`~repro.program.interp`).  Served as ``POST /program`` by
:mod:`repro.service` and as ``repro program`` on the CLI.
"""

from .ast import (ALL_OPS, MAX_STATEMENTS, PROGRAM_VERSION, DifferenceOp,
                  IntersectOp, LimitOp, Op, ProgramError, ProgramParseError,
                  ProgramValidationError, ProjectOp, QueryOp, QueryProgram,
                  Statement, UnionOp)
from .compile import CompiledProgram, CompiledStatement, compile_program
from .interp import (ProgramResult, ResultSet, StatementTrace, run_compiled,
                     run_program)
from .parser import format_program, format_statement, parse_program_text
from .validate import check_program, validate_program, validate_text

__all__ = [
    "PROGRAM_VERSION", "MAX_STATEMENTS", "ALL_OPS",
    "ProgramError", "ProgramParseError", "ProgramValidationError",
    "QueryOp", "UnionOp", "IntersectOp", "DifferenceOp", "ProjectOp",
    "LimitOp", "Op", "Statement", "QueryProgram",
    "parse_program_text", "format_program", "format_statement",
    "validate_program", "check_program", "validate_text",
    "compile_program", "CompiledProgram", "CompiledStatement",
    "run_program", "run_compiled", "ProgramResult", "ResultSet",
    "StatementTrace",
]
