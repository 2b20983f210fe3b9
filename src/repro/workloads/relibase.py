"""The ReLiBase data-warehouse trial (paper Section 6).

"The WOL language has also been used independently by researchers in the
VODAK project at Darmstadt, Germany, in order to build a data-warehouse of
protein and protein-ligand data for use in drug design.  This project
involved transforming data from a variety of public molecular biology
databases, including SWISSPROT and PDB, and storing it in an
object-oriented database, ReLiBase."

This workload reproduces that shape: two heterogeneous sources —
a SWISSPROT-like flat entry database (sequence records keyed by accession)
and a PDB-like structure database (structures with chains and bound
ligands) — integrated by a WOL program into a ReLiBase-like object model
(proteins referencing their structures, ligands, and binding complexes).
It is the repository's second *multi-source* integration after the cities
example, with set-valued target attributes exercised end to end.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..lang.ast import Program
from ..lang.parser import parse_program
from ..model.instance import Instance, InstanceBuilder
from ..model.keys import KeyedSchema
from ..model.schema import parse_schema
from ..model.values import Record

SWISSPROT_SCHEMA_TEXT = """
schema SwissProt {
  class SpEntry = (accession: str, protein_name: str, organism: str,
                   seq_length: int) key accession;
}
"""

PDB_SCHEMA_TEXT = """
schema Pdb {
  class PdbStructure = (pdb_id: str, accession: str, resolution: float,
                        method: str) key pdb_id;
  class PdbLigand    = (code: str, formula: str) key code;
  class PdbBinding   = (structure: PdbStructure, ligand: PdbLigand,
                        affinity: float) key structure.pdb_id, ligand.code;
}
"""

RELIBASE_SCHEMA_TEXT = """
schema ReLiBase {
  class Protein   = (accession: str, name: str, organism: str,
                     structures: {Structure}) key accession;
  class Structure = (pdb_id: str, resolution: float,
                     protein: Protein) key pdb_id;
  class Ligand    = (code: str, formula: str) key code;
  class Complex   = (structure: Structure, ligand: Ligand,
                     affinity: float);
}
"""

PROGRAM_TEXT = """
-- Proteins come from SWISSPROT entries.
transformation RP:
  P in Protein, P.accession = A, P.name = N, P.organism = O
  <= E in SpEntry, A = E.accession, N = E.protein_name,
     O = E.organism;

-- Structures come from PDB entries whose accession has a SWISSPROT
-- counterpart (the cross-database join of the warehouse build).  The
-- head also inserts the structure into its protein's set-valued
-- structures attribute (accumulated across firings).
transformation RS:
  S in Structure, S.pdb_id = I, S.resolution = R, S.protein = P,
  S in P.structures
  <= X in PdbStructure, I = X.pdb_id, R = X.resolution,
     E in SpEntry, X.accession = E.accession,
     P in Protein, P.accession = E.accession;

-- Ligands copy over from PDB.
transformation RL:
  L in Ligand, L.code = C, L.formula = F
  <= Y in PdbLigand, C = Y.code, F = Y.formula;

-- Binding complexes join structures and ligands.
transformation RC:
  M in Complex, M.structure = S, M.ligand = L, M.affinity = K
  <= B in PdbBinding, K = B.affinity,
     X = B.structure, S in Structure, S.pdb_id = X.pdb_id,
     Y = B.ligand, L in Ligand, L.code = Y.code;

-- Complexes are identified by the (structure, ligand) pair.
constraint KeyComplex:
  M = Mk_Complex(structure = S, ligand = L)
  <= M in Complex, S = M.structure, L = M.ligand;
"""


def swissprot_schema() -> KeyedSchema:
    return parse_schema(SWISSPROT_SCHEMA_TEXT)


def pdb_schema() -> KeyedSchema:
    return parse_schema(PDB_SCHEMA_TEXT)


def relibase_schema() -> KeyedSchema:
    return parse_schema(RELIBASE_SCHEMA_TEXT)


def relibase_constraints() -> List:
    """The ReLiBase object model's constraint library, as WOL clauses.

    Keys, inclusion and containment dependencies derived from the
    ReLiBase schema (Protein/Structure/Ligand/Complex), plus the
    structures/protein inverse: every structure appears in its
    protein's set-valued ``structures`` attribute (which the RS
    transformation maintains by construction).
    """
    from ..constraints.library import schema_constraints
    from ..lang.ast import (Clause, EqAtom, InAtom, KIND_CONSTRAINT,
                            MemberAtom, Proj, Var)
    clauses = schema_constraints(relibase_schema())
    clauses.append(Clause(
        (InAtom(Var("S"), Proj(Var("P"), "structures")),),
        (MemberAtom(Var("S"), "Structure"),
         EqAtom(Var("P"), Proj(Var("S"), "protein"))),
        name="inv_Structure_protein", kind=KIND_CONSTRAINT))
    return clauses


def warehouse_program() -> Program:
    classes = (swissprot_schema().schema.class_names()
               + pdb_schema().schema.class_names()
               + relibase_schema().schema.class_names())
    return parse_program(PROGRAM_TEXT, classes=classes)


def sample_swissprot() -> Instance:
    builder = InstanceBuilder(swissprot_schema().schema)
    for accession, name, organism, length in [
            ("P00533", "EGFR", "Homo sapiens", 1210),
            ("P24941", "CDK2", "Homo sapiens", 298),
            ("P56817", "BACE1", "Homo sapiens", 501)]:
        builder.new("SpEntry", Record.of(
            accession=accession, protein_name=name, organism=organism,
            seq_length=length))
    return builder.freeze()


def sample_pdb() -> Instance:
    builder = InstanceBuilder(pdb_schema().schema)
    structures = {}
    for pdb_id, accession, resolution, method in [
            ("1M17", "P00533", 2.6, "X-ray"),
            ("2ITY", "P00533", 3.4, "X-ray"),
            ("1HCK", "P24941", 1.9, "X-ray"),
            ("9XYZ", "Q99999", 2.0, "X-ray")]:  # no SWISSPROT match
        structures[pdb_id] = builder.new("PdbStructure", Record.of(
            pdb_id=pdb_id, accession=accession, resolution=resolution,
            method=method))
    ligands = {}
    for code, formula in [("AQ4", "C22H23N3O4"), ("ATP", "C10H16N5O13P3")]:
        ligands[code] = builder.new("PdbLigand", Record.of(
            code=code, formula=formula))
    for pdb_id, code, affinity in [("1M17", "AQ4", 7.2),
                                   ("1HCK", "ATP", 5.1)]:
        builder.new("PdbBinding", Record.of(
            structure=structures[pdb_id], ligand=ligands[code],
            affinity=affinity))
    return builder.freeze()


#: Default benchmark size (see
#: :data:`repro.workloads.genome.BENCHMARK_SIZE`).
BENCHMARK_SIZE = {"proteins": 2000,
                           "structures_per_protein": 3,
                           "ligands": 400, "bindings": 6000,
                           "seed": 7}


def benchmark_sources(scale: float = 1.0) -> Tuple[Instance, Instance]:
    """The canonical benchmark SWISSPROT/PDB pair, optionally scaled."""
    size = dict(BENCHMARK_SIZE)
    for field in ("proteins", "ligands", "bindings"):
        size[field] = max(1, int(size[field] * scale))
    return generate_sources(**size)


def generate_sources(proteins: int, structures_per_protein: int,
                     ligands: int, bindings: int,
                     seed: int = 0) -> Tuple[Instance, Instance]:
    """Synthetic SWISSPROT and PDB instances for scaling runs."""
    rng = random.Random(seed)
    sp_builder = InstanceBuilder(swissprot_schema().schema)
    accessions = []
    for index in range(proteins):
        accession = f"P{index:05d}"
        accessions.append(accession)
        sp_builder.new("SpEntry", Record.of(
            accession=accession, protein_name=f"PROT{index}",
            organism=rng.choice(["Homo sapiens", "Mus musculus"]),
            seq_length=rng.randrange(100, 2000)))

    pdb_builder = InstanceBuilder(pdb_schema().schema)
    structure_oids = []
    for index in range(proteins * structures_per_protein):
        accession = accessions[index % proteins]
        structure_oids.append(pdb_builder.new("PdbStructure", Record.of(
            pdb_id=f"S{index:04d}", accession=accession,
            resolution=round(rng.uniform(1.2, 3.8), 2),
            method=rng.choice(["X-ray", "NMR"]))))
    ligand_oids = []
    for index in range(ligands):
        ligand_oids.append(pdb_builder.new("PdbLigand", Record.of(
            code=f"L{index:03d}", formula=f"C{index}H{index}N")))
    seen = set()
    made = 0
    while made < bindings and len(seen) < (len(structure_oids)
                                           * max(len(ligand_oids), 1)):
        structure = rng.choice(structure_oids)
        ligand = rng.choice(ligand_oids)
        key = (structure, ligand)
        if key in seen:
            continue
        seen.add(key)
        pdb_builder.new("PdbBinding", Record.of(
            structure=structure, ligand=ligand,
            affinity=round(rng.uniform(3.0, 9.5), 1)))
        made += 1
    return sp_builder.freeze(), pdb_builder.freeze()
