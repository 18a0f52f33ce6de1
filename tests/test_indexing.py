from rdfqa import (
    Iri,
    PropertyKind,
    Triple,
    build_instance_index,
    build_schema_index,
    make_dataset,
)
from rdfqa.core.model import (
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_DISJOINT_WITH,
    RDF_TYPE,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
)

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
    assert len(instances.instances) == 7


def test_disjoint_closure_propagates_to_subclasses():
    a, b, c = iri("A"), iri("B"), iri("C")
    ds = make_dataset("dj", [
        Triple(a, OWL_DISJOINT_WITH, b),
        Triple(c, RDFS_SUBCLASSOF, a),
    ])
    schema = build_schema_index(ds)
    assert schema.disjoint_pairs == frozenset({frozenset({a, b}), frozenset({c, b})})


def test_complement_counts_as_disjoint():
    a, b = iri("A"), iri("B")
    ds = make_dataset("cp", [Triple(a, Iri("http://www.w3.org/2002/07/owl#complementOf"), b)])
    schema = build_schema_index(ds)
    assert frozenset({a, b}) in schema.disjoint_pairs
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
    assert idx.instances == frozenset({x})
    assert idx.members_of[c] == frozenset({x})


def test_zero_type_triples_means_no_instances():
    ds = make_dataset("u", [Triple(iri("a"), iri("p"), iri("b"))])
    assert build_instance_index(ds).instances == frozenset()


def test_builtin_exclusion(family, zoo):
    for ds in (family, zoo):
        schema = build_schema_index(ds)
        instances = build_instance_index(ds)
        for c in schema.classes | instances.instances:
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
