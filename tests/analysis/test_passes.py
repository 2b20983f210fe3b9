"""One firing test per diagnostic code — the analyzer's vocabulary.

Each test presents the smallest program that trips exactly the code
under test (plus whatever co-findings its defect implies) and asserts
the diagnostic anchors to the right clause.  Together they pin every
entry of the :data:`repro.analysis.CODES` registry.
"""

from repro.analysis import CODES, analyze_text
from repro.model.schema import parse_schema

from .universe import PREAMBLE, codes_of


def has(report, code, clause=None):
    for diagnostic in report.diagnostics:
        if diagnostic.code == code and (clause is None
                                        or diagnostic.clause == clause):
            return diagnostic
    raise AssertionError(
        f"expected {code} ({clause or 'any clause'}); got "
        f"{[str(d) for d in report.diagnostics]}")


class TestSafetyPass:
    def test_wol100_parse_error(self, lint):
        report = lint("this is ; not wol {{{")
        assert codes_of(report) == ["WOL100"]
        assert not report.ok

    def test_wol101_not_range_restricted(self, lint):
        report = lint(PREAMBLE + """
transformation B: Y in Out, Y.name = M, Y.v = M
  <= I in Item, J < M;
""")
        assert has(report, "WOL101", clause="B")
        assert not report.ok

    def test_wol102_type_error(self, lint):
        report = lint(PREAMBLE + """
transformation T: Y in Out, Y.name = M, Y.v = M
  <= I in Item, M = I.missing;
""")
        assert has(report, "WOL102", clause="T")
        assert not report.ok

    def test_wol103_unresolved_obligations(self, lint, tgt_schema):
        pair = parse_schema(
            "schema P { class Pair = (name: str) key name; }")
        report = analyze_text("""
constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;
transformation T: Y in Out, Y.name = N, Y.v = N
  <= M in Pair, M = Mk_Pair(X), N = X.name;
""", [pair], tgt_schema)
        found = has(report, "WOL103", clause="T")
        assert found.severity == "warning"

    def test_wol104_statically_unorderable(self, lint):
        report = lint(PREAMBLE + """
transformation O: Z in Out, Z.name = N, Z.v = W
  <= I in Item, N = I.name, (name = W, a = A, b = I.b) in Item;
""")
        found = has(report, "WOL104", clause="O")
        assert found.severity == "warning"
        assert "waits on" in found.message


class TestDeadCodePass:
    def test_wol201_unsatisfiable_body(self, lint):
        report = lint(PREAMBLE + """
transformation U: Y in Out, Y.name = M, Y.v = M
  <= I in Item, M = I.name, I.a = "x", I.a = "y";
""")
        assert has(report, "WOL201", clause="U")
        assert not report.ok

    def test_wol202_dead_selector(self, lint):
        report = lint("""
constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;
transformation W: X.v = N <= X in Out, I in Item, N = I.name;
""")
        found = has(report, "WOL202", clause="W")
        assert found.severity == "warning"

    def test_wol203_duplicate_clause(self, lint):
        report = lint(PREAMBLE + """
transformation P1: Y in Out, Y.name = M, Y.v = M
  <= J in Item, M = J.name;
""")
        assert has(report, "WOL203")

    def test_wol204_unused_body_variable(self, lint):
        report = lint("""
constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;
transformation P0: X in Out, X.name = N, X.v = N
  <= I in Item, N = I.name, A = I.a;
""")
        found = has(report, "WOL204", clause="P0")
        assert found.severity == "info"
        assert report.ok


class TestInterferencePass:
    def test_wol301_conflicting_writes(self, lint):
        report = lint(PREAMBLE.replace(", X.v = N", "") + """
transformation W1: X.v = V <= X in Out, I in Item,
  X.name = I.name, V = I.a;
transformation W2: X.v = V <= X in Out, I in Item,
  X.name = I.name, V = I.b;
""")
        found = has(report, "WOL301")
        assert "(Out, v)" in found.message

    def test_wol301_disjoint_guards_do_not_fire(self, lint):
        """Bodies made exclusive by key congruence stay silent — the
        variant-guard pattern of ``workloads/synthetic.py``."""
        from repro.workloads import synthetic
        source, target = synthetic.variant_schemas(3, 2)
        report = analyze_text(synthetic.variant_split_program_text(3, 2),
                              [source], target)
        assert all(d.code != "WOL301" for d in report.diagnostics)

    def test_wol302_produce_consume_cycle(self, lint):
        report = lint(PREAMBLE + """
transformation R: X in Out, X.name = M, X.v = M
  <= Y in Out, M = Y.v;
""")
        assert has(report, "WOL302", clause="R")

    def test_wol304_imprecise_read_set(self, lint, tgt_schema):
        pair = parse_schema(
            "schema P { class Pair = (name: str) key name; }")
        report = analyze_text("""
constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;
transformation T: Y in Out, Y.name = N, Y.v = N
  <= M in Pair, M = Mk_Pair(X), N = X.name;
""", [pair], tgt_schema)
        assert has(report, "WOL304", clause="T")

    def test_wol305_not_vectorizable(self, lint):
        """A record-pattern generator needs per-candidate unification,
        so the single-step plan has nothing the columnar executor can
        batch."""
        report = lint(PREAMBLE + """
transformation V: X in Out, X.name = N, X.v = N
  <= (name = N, a = A, b = B) in Item;
""")
        found = has(report, "WOL305", clause="V")
        assert found.severity == "info"
        assert "vectorizable" in found.message


class TestSchemaLintPass:
    def test_wol401_key_incomplete_creation(self, lint):
        report = lint("""
constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;
transformation K: Y in Out, Y.v = V <= I in Item, V = I.a;
""")
        assert has(report, "WOL401", clause="K")
        assert not report.ok

    def test_wol402_unreachable_class(self, lint, tgt_schema):
        ghost = parse_schema("""
schema S2 {
  class Item = (name: str, a: str, b: str) key name;
  class Ghost = (name: str) key name;
}
""")
        report = analyze_text(PREAMBLE, [ghost], tgt_schema)
        found = has(report, "WOL402")
        assert "Ghost" in found.message
        assert found.severity == "info"

    def test_wol403_dangling_skolem_label(self, lint):
        report = lint("""
constraint KOut: X = Mk_Out(nick = N) <= X in Out, N = X.name;
transformation P0: X in Out, X.name = N, X.v = N
  <= I in Item, N = I.name;
""")
        found = has(report, "WOL403", clause="KOut")
        assert "nick" in found.message


class TestSuppressionsEndToEnd:
    CONFLICT = PREAMBLE.replace(", X.v = N", "") + """
transformation W1: X.v = V <= X in Out, I in Item,
  X.name = I.name, V = I.a;
transformation W2: X.v = V <= X in Out, I in Item,
  X.name = I.name, V = I.b;
"""

    def test_directive_moves_finding_to_suppressed(self, lint):
        noisy = lint(self.CONFLICT)
        quiet = lint("-- lint: disable=WOL301\n" + self.CONFLICT)
        assert any(d.code == "WOL301" for d in noisy.diagnostics)
        assert all(d.code != "WOL301" for d in quiet.diagnostics)
        assert any(d.code == "WOL301" for d in quiet.suppressed)


def test_clean_program_is_clean(lint):
    report = lint(PREAMBLE)
    assert report.diagnostics == []
    assert report.ok
    assert set(report.passes_run) == {
        "safety", "deadcode", "interference", "schema"}


def test_every_code_has_a_firing_test():
    """The registry and the firing tests must not drift apart.

    The WOL5xx family belongs to the query-program validator
    (:mod:`repro.program.validate`); its firing tests live in
    ``tests/program/test_validate.py``.  Every other code fires here.
    """
    import pathlib
    here = pathlib.Path(__file__)
    text = here.read_text()
    program_text = (here.parent.parent / "program"
                    / "test_validate.py").read_text()
    for code in CODES:
        source = program_text if code.startswith("WOL5") else text
        assert f'"{code}"' in source, f"no firing test mentions {code}"
