import tracemalloc

from rdfqa import (
    Iri,
    PropertyKind,
    Triple,
    build_instance_index,
    build_schema_index,
    make_dataset,
    parse_dataset,
)
from rdfqa.core.model import (
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_DISJOINT_WITH,
    RDF_TYPE,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
)
from rdfqa.metrics import m5_disjoint_membership

from .oracle import _superclasses
from .test_acceptance import build_wide_document

EX = "http://example.org/x#"


def iri(local):
    return Iri(EX + local)


def test_empty_schema_dataset():
    ds = make_dataset("none", [Triple(iri("a"), iri("p"), iri("b"))])
    schema = build_schema_index(ds)
    assert not schema.classes
    assert not schema.properties


def test_family_counts(family):
    schema = build_schema_index(family)
    assert len(schema.classes) == 18
    assert len(schema.properties) == 17
    kinds = [k for k in schema.properties.values()]
    assert kinds.count(PropertyKind.OBJECT) == 11
    assert kinds.count(PropertyKind.DATATYPE) == 6
    instances = build_instance_index(family)
    assert len(instances.classes_of) == 7


def test_disjoint_closure_propagates_to_subclasses():
    a, b, c = iri("A"), iri("B"), iri("C")
    ds = make_dataset("dj", [
        Triple(a, OWL_DISJOINT_WITH, b),
        Triple(c, RDFS_SUBCLASSOF, a),
    ])
    schema = build_schema_index(ds)
    assert schema.disjoint_with == {a: frozenset({b}), b: frozenset({a})}
    for x, y in ((a, b), (c, b)):
        assert schema.disjoint(x, y) and schema.disjoint(y, x)
    assert not schema.disjoint(a, a)
    assert not schema.disjoint(a, c) and not schema.disjoint(c, a)


def test_complement_counts_as_disjoint():
    a, b, c = iri("A"), iri("B"), iri("C")
    ds = make_dataset("cp", [Triple(a, Iri("http://www.w3.org/2002/07/owl#complementOf"), b),
                             Triple(c, RDFS_SUBCLASSOF, a)])
    schema = build_schema_index(ds)
    assert schema.disjoint(a, b) and schema.disjoint(b, a)
    assert schema.disjoint(c, b) and schema.disjoint(b, c)
    assert not schema.disjoint(a, a)
    assert not schema.disjoint(a, c) and not schema.disjoint(c, a)
    assert a in schema.classes


def test_subclass_cycles_terminate():
    a, b = iri("A"), iri("B")
    ds = make_dataset("cyc", [
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, a),
    ])
    schema = build_schema_index(ds)
    assert schema.is_transitive_subclass(a, b)
    assert schema.is_transitive_subclass(b, a)
    assert schema.is_transitive_subclass(a, a)


def test_ancestors_walk_cycles_self_loops_and_diamonds():
    a, b, c, d, e = (iri(x) for x in "ABCDE")
    hierarchies = {
        "two-cycle": [(a, b), (b, a), (c, a)],
        "self-loop": [(a, a), (b, a)],
        "diamond": [(a, b), (a, c), (b, d), (c, d), (d, e)],
    }
    for name, links in hierarchies.items():
        ds = make_dataset(name, [Triple(x, RDFS_SUBCLASSOF, y) for x, y in links]
                          + [Triple(iri("F"), RDF_TYPE, OWL_CLASS)])
        schema = build_schema_index(ds)
        for cls in (a, b, c, d, e, iri("F")):
            assert schema.ancestors(cls) == _superclasses(ds.triples, cls), (name, cls)
        # a class with no rdfs:subClassOf has none, and asking leaves the
        # index equal to a fresh one
        assert schema.ancestors(iri("F")) == frozenset()
        assert schema == build_schema_index(ds)
    assert schema.ancestors(a) == {b, c, d, e}  # the diamond's foot reaches every class


def test_kind_inferred_from_range():
    ds = make_dataset("k", [
        Triple(iri("pd"), RDFS_RANGE, Iri("http://www.w3.org/2001/XMLSchema#integer")),
        Triple(iri("C"), RDF_TYPE, OWL_CLASS),
        Triple(iri("po"), RDFS_RANGE, iri("C")),
        Triple(iri("pu"), RDFS_RANGE, iri("NotAClass")),
        Triple(iri("pt"), RDF_TYPE, OWL_DATATYPE_PROPERTY),
    ])
    schema = build_schema_index(ds)
    assert schema.properties[iri("pd")] is PropertyKind.DATATYPE
    assert schema.properties[iri("po")] is PropertyKind.OBJECT
    assert schema.properties[iri("pt")] is PropertyKind.DATATYPE
    # a non-XSD range value counts as a declared class, so pu is object-kind
    assert schema.properties[iri("pu")] is PropertyKind.OBJECT
    assert iri("NotAClass") in schema.classes


def test_instance_set_semantics():
    x, c, d = iri("x"), iri("C"), iri("D")
    ds = make_dataset("inst", [
        Triple(x, RDF_TYPE, c),
        Triple(x, RDF_TYPE, d),
    ])
    idx = build_instance_index(ds)
    assert idx.classes_of[x] == frozenset({c, d})
    assert idx.classes_of.keys() == {x}
    assert idx.members_of[c] == frozenset({x})


def test_zero_type_triples_means_no_instances():
    ds = make_dataset("u", [Triple(iri("a"), iri("p"), iri("b"))])
    assert not build_instance_index(ds).classes_of


def test_builtin_exclusion(family, zoo):
    for ds in (family, zoo):
        schema = build_schema_index(ds)
        instances = build_instance_index(ds)
        for c in schema.classes | instances.classes_of.keys():
            assert not c.text.startswith((
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
                "http://www.w3.org/2000/01/rdf-schema#",
                "http://www.w3.org/2002/07/owl#",
                "http://www.w3.org/2001/XMLSchema#",
            ))


def test_membership_maps_are_mutual_inverses(family):
    idx = build_instance_index(family)
    for inst, classes in idx.classes_of.items():
        for c in classes:
            assert inst in idx.members_of[c]
    for c, members in idx.members_of.items():
        for inst in members:
            assert c in idx.classes_of[inst]


def test_predicate_groups_cover_every_triple(family):
    idx = build_instance_index(family)
    assert sum(idx.predicate_counts.values()) == len(family.triples)


def test_wide_hierarchy_keeps_only_the_declared_pair():
    # 300 subclasses under each of two disjoint classes: the index holds the
    # one declared pair, not the 90k pairs it implies; 2 MB is about five
    # times the measured peak
    ds = parse_dataset(build_wide_document(300), "ntriples", "wide")
    tracemalloc.start()
    try:
        schema = build_schema_index(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert sum(map(len, schema.disjoint_with.values())) == 2
    mv = m5_disjoint_membership(schema, build_instance_index(ds))
    assert mv.offenders == ("http://example.org/wide#x",)
