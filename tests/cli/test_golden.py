"""Golden-file regression tests for the CLI's machine-readable output.

The ``plan``, ``check --json`` and ``apply-delta --json`` outputs are
consumed by CI and external tools, so their exact shape is pinned
against goldens stored in ``tests/cli/goldens/``.  Volatile fields
(elapsed milliseconds, filesystem paths) are scrubbed to stable
placeholders before comparison; everything else — plan step orders,
estimated costs, violation witnesses, propagation counters — must
match byte for byte.

To regenerate after an intentional output change::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/cli

Fixtures are chosen so no anonymous object identity ever reaches the
output (anonymous oids carry process-local serials): the ``check``
golden audits a transformed ReLiBase warehouse whose objects are all
Skolem-keyed, and the ``apply-delta`` golden's violation diff stays
empty by construction.
"""

import json
import os

import pytest

from repro.cli import main
from repro.io import dump_instance
from repro.morphase import Morphase
from repro.workloads import cities, relibase

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

RELIBASE_CONSTRAINTS_TEXT = """
-- Accession is a key for Protein (equal accession, equal object).
KeyProtein:
  X = Y <= X in Protein, Y in Protein, X.accession = Y.accession;

-- Every complex's ligand is a warehouse ligand.
IncComplexLigand:
  V in Ligand <= M in Complex, V = M.ligand;
"""

CITIES_DELTA = {
    "inserts": {
        "CountryE": [{
            "id": {"$oid": "CountryE", "label": "CountryE#new"},
            "value": {"$rec": {"name": "Utopia",
                               "language": "utopian",
                               "currency": "UTO"}}}],
        "CityE": [{
            "id": {"$oid": "CityE", "label": "CityE#new"},
            "value": {"$rec": {
                "name": "Nowhere", "is_capital": True,
                "country": {"$oid": "CountryE",
                            "label": "CountryE#new"}}}}],
    }}


def compare_to_golden(name: str, rendered: str) -> None:
    """Assert ``rendered`` equals the stored golden (or regenerate)."""
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("UPDATE_GOLDENS"):
        with open(path, "w") as handle:
            handle.write(rendered)
    if not os.path.exists(path):
        pytest.fail(f"golden {name} missing; regenerate with "
                    f"UPDATE_GOLDENS=1")
    with open(path) as handle:
        expected = handle.read()
    assert rendered == expected, (
        f"CLI output drifted from goldens/{name}; if the change is "
        f"intentional, regenerate with UPDATE_GOLDENS=1")


def scrub(document, replacements) -> str:
    """Stable rendering of a JSON document with volatile fields fixed.

    ``replacements`` maps a dotted path to the placeholder that
    replaces whatever value the run produced.
    """
    for dotted, placeholder in replacements.items():
        node = document
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        assert leaf in node, f"expected {dotted} in CLI output"
        node[leaf] = placeholder
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.fixture()
def relibase_workspace(tmp_path):
    (tmp_path / "sp.schema").write_text(relibase.SWISSPROT_SCHEMA_TEXT)
    (tmp_path / "pdb.schema").write_text(relibase.PDB_SCHEMA_TEXT)
    (tmp_path / "relibase.schema").write_text(
        relibase.RELIBASE_SCHEMA_TEXT)
    (tmp_path / "program.wol").write_text(relibase.PROGRAM_TEXT)
    dump_instance(relibase.sample_swissprot(), str(tmp_path / "sp.json"))
    dump_instance(relibase.sample_pdb(), str(tmp_path / "pdb.json"))
    return tmp_path


@pytest.fixture()
def cities_workspace(tmp_path):
    (tmp_path / "us.schema").write_text(cities.US_SCHEMA_TEXT)
    (tmp_path / "euro.schema").write_text(cities.EURO_SCHEMA_TEXT)
    (tmp_path / "target.schema").write_text(cities.TARGET_SCHEMA_TEXT)
    (tmp_path / "program.wol").write_text(cities.PROGRAM_TEXT)
    dump_instance(cities.sample_us_instance(), str(tmp_path / "us.json"))
    dump_instance(cities.sample_euro_instance(),
                  str(tmp_path / "euro.json"))
    (tmp_path / "delta.json").write_text(json.dumps(CITIES_DELTA))
    return tmp_path


class TestPlanGolden:
    def test_plan_output(self, relibase_workspace, capsys):
        w = relibase_workspace
        code = main(["plan",
                     "--source", str(w / "sp.schema"),
                     "--source", str(w / "pdb.schema"),
                     "--target", str(w / "relibase.schema"),
                     str(w / "program.wol"),
                     "--data", str(w / "sp.json"),
                     "--data", str(w / "pdb.json")])
        out = capsys.readouterr().out
        assert code == 0
        compare_to_golden("plan_relibase.txt", out)


class TestCheckGolden:
    def corrupted_warehouse(self, workspace):
        """A transformed warehouse with one duplicated Protein key."""
        morphase = Morphase(
            [relibase.swissprot_schema(), relibase.pdb_schema()],
            relibase.relibase_schema(), relibase.PROGRAM_TEXT)
        target = morphase.transform(
            [relibase.sample_swissprot(), relibase.sample_pdb()]).target
        builder = target.builder()
        proteins = sorted(target.objects_of("Protein"), key=str)
        builder.put(proteins[0],
                    target.value_of(proteins[0]).with_field(
                        "accession",
                        target.value_of(proteins[1]).get("accession")))
        bad = builder.freeze(validate=False)
        dump_instance(bad, str(workspace / "warehouse.json"))

    def test_check_json_with_violations(self, relibase_workspace,
                                        capsys):
        w = relibase_workspace
        (w / "constraints.wol").write_text(RELIBASE_CONSTRAINTS_TEXT)
        self.corrupted_warehouse(w)
        code = main(["check",
                     "--source", str(w / "relibase.schema"),
                     str(w / "constraints.wol"),
                     "--data", str(w / "warehouse.json"),
                     "--json"])
        out = capsys.readouterr().out
        assert code == 1
        rendered = scrub(json.loads(out),
                         {"stats.elapsed_ms": "<elapsed>"})
        compare_to_golden("check_relibase.json", rendered)

    def test_check_json_naive_matches_planned_golden(
            self, relibase_workspace, capsys):
        """The naive audit emits the same violations as the planned one
        (report stats differ by construction, so only the violation
        block is pinned)."""
        w = relibase_workspace
        (w / "constraints.wol").write_text(RELIBASE_CONSTRAINTS_TEXT)
        self.corrupted_warehouse(w)
        code = main(["check",
                     "--source", str(w / "relibase.schema"),
                     str(w / "constraints.wol"),
                     "--data", str(w / "warehouse.json"),
                     "--json", "--no-planner"])
        out = capsys.readouterr().out
        assert code == 1
        with open(os.path.join(GOLDEN_DIR,
                               "check_relibase.json")) as handle:
            golden = json.load(handle)
        assert json.loads(out)["violations"] == golden["violations"]


class TestApplyDeltaGolden:
    def test_apply_delta_json(self, cities_workspace, capsys):
        w = cities_workspace
        code = main(["apply-delta",
                     "--source", str(w / "us.schema"),
                     "--source", str(w / "euro.schema"),
                     "--target", str(w / "target.schema"),
                     str(w / "program.wol"),
                     "--data", str(w / "us.json"),
                     "--data", str(w / "euro.json"),
                     "--delta", str(w / "delta.json"),
                     "--out", str(w / "updated.json"),
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        rendered = scrub(json.loads(out),
                         {"stats.elapsed_ms": "<elapsed>",
                          "target.path": "<out>"})
        compare_to_golden("apply_delta_cities.json", rendered)


GENOME_GENE_DELTA = {
    "inserts": {
        "Gene": [{
            "id": {"$oid": "Gene",
                   "key": {"$rec": {"name": "G-golden"}}},
            "value": {"$rec": {
                "name": "G-golden",
                "symbol": {"$set": ["gld-1"]},
                "description": {"$set": ["golden gene"]}}}}],
    }}


@pytest.fixture()
def genome_store(tmp_path):
    """A genome store (all-keyed oids, so every byte is deterministic)
    with one snapshot generation and two WAL records."""
    from repro.evolution.delta import delta_from_json
    from repro.store import WarehouseStore
    from repro.workloads import genome

    source = genome.source_instance()
    store = WarehouseStore.create(str(tmp_path / "store"), source)
    store.append(store.decode_delta(GENOME_GENE_DELTA))
    second = json.loads(json.dumps(GENOME_GENE_DELTA).replace(
        "G-golden", "G-golden2"))
    store.append(delta_from_json(second, store.instance))
    store.close()
    return tmp_path


def scrub_text(rendered: str, replacements) -> str:
    for needle, placeholder in replacements.items():
        assert needle in rendered, (
            f"expected {needle!r} in CLI output")
        rendered = rendered.replace(needle, placeholder)
    return rendered


GENOME_PROGRAM_TEXT = """program golden;

seqs = query { N | X in Sequence, N = X.name };
genes = query { N | G in Gene, N = G.name };
both = union seqs, genes;
top = limit both 5;
"""


class TestProgramGoldens:
    """``repro program`` output is API: the JSON result document and
    the canonical AST rendering are pinned against goldens.  The genome
    workload keys every oid, so each byte is deterministic."""

    @pytest.fixture()
    def genome_workspace(self, tmp_path):
        from repro.workloads import genome
        dump_instance(genome.source_instance(),
                      str(tmp_path / "genome.json"))
        (tmp_path / "program.qp").write_text(GENOME_PROGRAM_TEXT)
        return tmp_path

    def test_program_json_golden(self, genome_workspace, capsys):
        w = genome_workspace
        code = main(["program", str(w / "program.qp"),
                     "--data", str(w / "genome.json"), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        rendered = json.dumps(json.loads(out), indent=2,
                              sort_keys=True) + "\n"
        compare_to_golden("program_genome.json", rendered)

    def test_program_ast_golden(self, genome_workspace, capsys):
        w = genome_workspace
        code = main(["program", str(w / "program.qp"), "--ast"])
        out = capsys.readouterr().out
        assert code == 0
        compare_to_golden("program_ast_genome.json", out)

    def test_envelope_golden(self):
        """The versioned service envelope is wire format — pin it."""
        from repro.service import envelope_error, envelope_ok
        rendered = json.dumps(
            {"ok": envelope_ok({"answer": 42}),
             "error": envelope_error(
                 "validation_failed", "program failed validation",
                 details={"diagnostics": []})},
            indent=2, sort_keys=True) + "\n"
        compare_to_golden("service_envelope.json", rendered)


class TestStoreGoldens:
    def test_serve_help(self, capsys, monkeypatch):
        """The serve surface is API: flags may be added, not drifted.

        Whitespace is normalised before comparison so argparse wrap
        changes across Python versions do not masquerade as drift.
        """
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main(["serve", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        normalized = " ".join(out.split()) + "\n"
        compare_to_golden("serve_help.txt", normalized)

    def test_snapshot_init_golden(self, tmp_path, capsys):
        from repro.io import dump_instance
        from repro.workloads import genome
        dump_instance(genome.source_instance(),
                      str(tmp_path / "genome.json"))
        code = main(["snapshot", "--store", str(tmp_path / "store"),
                     "--data", str(tmp_path / "genome.json")])
        out = capsys.readouterr().out
        assert code == 0
        rendered = scrub_text(out, {str(tmp_path / "store"): "<store>"})
        compare_to_golden("snapshot_genome.txt", rendered)

    def test_snapshot_compact_golden(self, genome_store, capsys):
        code = main(["snapshot", "--store",
                     str(genome_store / "store")])
        out = capsys.readouterr().out
        assert code == 0
        rendered = scrub_text(
            out, {str(genome_store / "store"): "<store>"})
        compare_to_golden("snapshot_compact_genome.txt", rendered)

    def test_replay_json_golden(self, genome_store, capsys):
        code = main(["replay", "--store", str(genome_store / "store"),
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        rendered = scrub(json.loads(out),
                         {"store": "<store>"})
        compare_to_golden("replay_genome.json", rendered)

    def test_store_format_roundtrip_golden(self, genome_store):
        """The canonical store serialisation is the durable format —
        pin it, and pin that a reopened store reproduces it exactly."""
        from repro.store import WarehouseStore
        store = WarehouseStore.open(str(genome_store / "store"))
        rendered = json.dumps(store.canonical_json(), indent=2,
                              sort_keys=True) + "\n"
        compare_to_golden("store_canonical_genome.json", rendered)
        again = WarehouseStore.open(str(genome_store / "store"))
        assert json.dumps(again.canonical_json(), indent=2,
                          sort_keys=True) + "\n" == rendered
        store.close()
        again.close()
