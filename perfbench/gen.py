"""Seeded copy of the C7 scale-document generator.

``build_scale_document(n, seed=0)`` returns exactly the bytes of
``tests/test_acceptance.py::build_scale_document(n)``; any other seed shuffles
the data lines that follow the schema block, so the document keeps its
triples, schema and metric values while its order changes.
"""

from __future__ import annotations

from random import Random

EX = "http://example.org/scale#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"


def build_scale_document(n_triples: int = 400_000, seed: int = 0) -> tuple[bytes, int]:
    """The document and its number of undeclared-predicate lines (M4's numerator)."""
    lines = []
    classes = [f"{EX}Class{i}" for i in range(22)]
    obj_props = [f"{EX}rel{i}" for i in range(60)]
    dt_props = [f"{EX}attr{i}" for i in range(33)]
    dt_ranges = ["string", "integer", "decimal", "date"]
    for c in classes:
        lines.append(f"<{c}> <{RDF}type> <{OWL}Class> .")
    for c in classes[1:]:
        lines.append(f"<{c}> <{RDFS}subClassOf> <{classes[0]}> .")
    lines.append(f"<{classes[1]}> <{OWL}disjointWith> <{classes[2]}> .")
    for p in obj_props:
        lines.append(f"<{p}> <{RDF}type> <{OWL}ObjectProperty> .")
        lines.append(f"<{p}> <{RDFS}range> <{classes[0]}> .")
    for i, p in enumerate(dt_props):
        lines.append(f"<{p}> <{RDF}type> <{OWL}DatatypeProperty> .")
        lines.append(f"<{p}> <{RDFS}range> <{XSD}{dt_ranges[i % 4]}> .")
    lines.append(f"<{obj_props[0]}> <{RDF}type> <{OWL}FunctionalProperty> .")
    lines.append(f"<{dt_props[0]}> <{RDF}type> <{OWL}InverseFunctionalProperty> .")
    schema_end = len(lines)
    n_inst = 24_000
    insts = [f"{EX}item{i}" for i in range(n_inst)]
    for i, inst in enumerate(insts):
        lines.append(f"<{inst}> <{RDF}type> <{classes[i % 22]}> .")
    words = ["alpha", "beta", "gamma", "delta", "omega", "zzxqy"]
    undeclared = 0
    k = 0
    while len(lines) < n_triples:
        i = k % n_inst
        j = k // n_inst  # distinct (subject, predicate) pair per k
        s = insts[i]
        roll = k % 10
        if roll < 6:
            line = f"<{s}> <{obj_props[j % 60]}> <{insts[(k * 7 + 1) % n_inst]}> ."
        elif roll < 7:
            line = f'<{s}> <{dt_props[(j % 8) * 4]}> "{words[k % 6]} word {k}" .'
        elif roll < 9:
            line = f'<{s}> <{dt_props[(j % 8) * 4 + 1]}> "{k}"^^<{XSD}integer> .'
        else:
            line = f"<{s}> <{EX}undeclared{k % 5}> <{EX}obj{k}> ."
            undeclared += 1
        lines.append(line)
        k += 1
    if seed:
        data = lines[schema_end:]
        Random(seed).shuffle(data)
        lines[schema_end:] = data
    lines.append("")
    return "\n".join(lines).encode(), undeclared
