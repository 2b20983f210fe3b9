"""Mechanics of the diagnostics framework itself.

The code registry, severity ordering, report rendering and the inline
suppression directives — everything downstream (CLI, preflight,
service) builds on these invariants.
"""

import json
import re

from repro.analysis import (CODES, Diagnostic, DiagnosticReport,
                            SEVERITY_RANK, merge_reports,
                            parse_suppressions)
from repro.analysis.diagnostics import (SEVERITY_ERROR, SEVERITY_INFO,
                                        SEVERITY_WARNING)
from repro.analysis.suppress import is_suppressed


class TestRegistry:
    def test_every_code_is_wol_numbered_and_complete(self):
        for code, info in CODES.items():
            assert re.fullmatch(r"WOL\d{3}", code)
            assert info.code == code
            assert info.severity in SEVERITY_RANK
            assert info.title and info.meaning

    def test_families_cover_all_passes(self):
        families = {code[:4] + "0" for code in CODES} - {"WOL10"}
        assert families == {"WOL20", "WOL30", "WOL40", "WOL50"}
        assert "WOL100" in CODES  # the analyzer's own entry gate
        assert "WOL500" in CODES  # the program validator's entry gate

    def test_severity_order(self):
        assert (SEVERITY_RANK[SEVERITY_ERROR]
                > SEVERITY_RANK[SEVERITY_WARNING]
                > SEVERITY_RANK[SEVERITY_INFO])


def _sample_report():
    return DiagnosticReport(diagnostics=[
        Diagnostic("WOL204", "unused variable A", clause="C2",
                   clause_index=2),
        Diagnostic("WOL101", "unbound variable N", clause="C1",
                   clause_index=1, suggestion="bind N in the body"),
        Diagnostic("WOL301", "conflicting writes", clause="C1",
                   clause_index=1),
    ], passes_run=("safety", "interference"))


class TestReport:
    def test_deterministic_order_and_counts(self):
        report = _sample_report()
        assert [d.code for d in report.diagnostics] == [
            "WOL101", "WOL301", "WOL204"]
        assert report.counts() == {"error": 1, "warning": 1, "info": 1}
        assert report.max_severity() == "error"
        assert not report.ok

    def test_at_or_above_threshold(self):
        report = _sample_report()
        assert [d.code for d in report.at_or_above("error")] == ["WOL101"]
        assert [d.code for d in report.at_or_above("warning")] == [
            "WOL101", "WOL301"]
        assert len(report.at_or_above("info")) == 3

    def test_render_text_shape(self):
        text = _sample_report().render_text("prog.wol")
        first, *rest = text.splitlines()
        assert first == ("prog.wol: 3 diagnostic(s) "
                         "(1 error, 1 warning, 1 info), 0 suppressed")
        assert any("fix: bind N in the body" in line for line in rest)

    def test_render_clean(self):
        text = DiagnosticReport().render_text()
        assert text.splitlines()[-1] == "  clean"

    def test_to_json_round_trips(self):
        document = _sample_report().to_json()
        json.dumps(document)  # must be serialisable as-is
        assert document["ok"] is False
        assert document["counts"]["error"] == 1
        assert document["passes"] == ["safety", "interference"]
        first = document["diagnostics"][0]
        assert first["code"] == "WOL101"
        assert first["severity"] == "error"
        assert first["title"] == CODES["WOL101"].title

    def test_merge_reports(self):
        merged = merge_reports([_sample_report(), _sample_report()])
        assert len(merged.diagnostics) == 6
        assert merged.passes_run == ("safety", "interference")


class TestSuppressions:
    def test_file_and_clause_scoped(self):
        text = ("-- lint: disable=WOL301\n"
                "# lint: disable=WOL204,WOL305 clause=C6\n"
                "T: X in Out <= I in Item;\n")
        sup = parse_suppressions(text)
        assert sup == frozenset({("WOL301", None), ("WOL204", "C6"),
                                 ("WOL305", "C6")})
        assert is_suppressed(sup, "WOL301", None)
        assert is_suppressed(sup, "WOL301", "anything")
        assert is_suppressed(sup, "WOL204", "C6")
        assert not is_suppressed(sup, "WOL204", "C7")
        assert not is_suppressed(sup, "WOL204", None)

    def test_non_directive_comments_ignored(self):
        assert parse_suppressions("-- a comment\n# another\n") == frozenset()
