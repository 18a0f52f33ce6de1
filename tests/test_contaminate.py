import hashlib
import json
import sys

import pytest

import rdfqa
from rdfqa import (
    ContaminationPlan,
    HEURISTIC_TARGETS,
    HeuristicId,
    MetricId,
    assess,
    replay_manifest,
    serialize_dataset,
)
from rdfqa.contaminate import (
    Edit,
    EditAction,
    EditLog,
    ReplayError,
    _IN_RANGE_LEXICAL,
    contaminate,
    load_plan,
    manifest_from_dict,
    manifest_to_dict,
    manifest_to_json,
    plan_from_dict,
)
from rdfqa.core.indexing import SchemaIndex
from rdfqa.core.model import (
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_DISJOINT_WITH,
    OWL_FUNCTIONAL_PROPERTY,
    OWL_OBJECT_PROPERTY,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Triple,
    is_declaration_triple,
    make_dataset,
)
from rdfqa.core.parsing import parse_dataset, triple_to_ntriples
from rdfqa.fixtures import fixture_path
from rdfqa.metrics import LEXICAL_CHECKS

from .test_acceptance import build_scale_document, build_wide_document

SEED = 424242


def test_the_package_attribute_contaminate_is_the_module():
    # so that monkeypatch.setattr("rdfqa.contaminate.X", ...) reaches the module
    assert rdfqa.contaminate is sys.modules["rdfqa.contaminate"]


def plan_for(h, n=3, seed=SEED):
    return ContaminationPlan(intensities={h: n}, seed=seed, dataset_id="zoo")


def test_h2_count_arithmetic(zoo, words):
    hundred = make_dataset("hundred", [
        Triple(Iri(f"http://ex/s{i}"), Iri("http://ex/p"), Iri(f"http://ex/o{i}"))
        for i in range(100)
    ])
    plan = ContaminationPlan(intensities={HeuristicId.H2: 5}, seed=7)
    dirty, manifest = contaminate(hundred, plan, words)
    assert len(dirty.triples) == 95
    assert sum(1 for e in manifest.edits if e.action is EditAction.REMOVE_TRIPLE) == 5
    assert manifest.achieved[HeuristicId.H2] == 5


_FAKE_ORDER = ("integer", "decimal", "double", "boolean", "date", "dateTime", "gYear")


@pytest.mark.parametrize("first, second, faked", [
    *(pytest.param(a, b, a, id=f"{a}-{b}") for a, b in zip(_FAKE_ORDER, _FAKE_ORDER[1:])),
    # M2 never checks a property with an xsd:string range, so H3 fakes none
    pytest.param("gYear", "string", None, id="gYear-string"),
])
def test_h3_targets_the_first_checkable_datatype_among_the_ranges(words, first, second, faked):
    # the order of LEXICAL_CHECKS decides which declared range H3 fakes;
    # one case per adjacent pair pins the whole order
    xsd = "http://www.w3.org/2001/XMLSchema#"
    p = Iri("http://ex/p")
    triples = [Triple(p, RDF_TYPE, OWL_DATATYPE_PROPERTY)]
    triples += [Triple(p, RDFS_RANGE, Iri(xsd + r)) for r in (second, first)]
    triples.append(Triple(Iri("http://ex/s"), p, Literal("7")))
    plan = ContaminationPlan(intensities={HeuristicId.H3: 1}, seed=1)
    _, manifest = contaminate(make_dataset("ranges", triples), plan, words)
    if faked is None:
        assert manifest.edits == ()
        assert manifest.warnings == (
            "H3: requested 1, achieved 0 (no rewritable datatype-property triples)",)
    else:
        (edit,) = manifest.edits
        assert edit.after.object.datatype == Iri(xsd + faked)


def _one_value_of(ranges, literal, *types):
    """``ex:p``, a datatype property of ``ranges`` and of each of ``types``,
    and one triple ``ex:s ex:p literal``."""
    p = Iri("http://ex/p")
    return make_dataset("one", [
        Triple(p, RDF_TYPE, OWL_DATATYPE_PROPERTY),
        *(Triple(p, RDF_TYPE, t) for t in types),
        *(Triple(p, RDFS_RANGE, r) for r in ranges),
        Triple(Iri("http://ex/s"), p, literal),
    ])


def _disjoint_pair(a, b):
    """``a owl:disjointWith b`` and one usage triple."""
    s, p, o = (Iri(f"http://ex/{x}") for x in "spo")
    return make_dataset("pair", [Triple(a, OWL_DISJOINT_WITH, b), Triple(s, p, o)])


@pytest.mark.parametrize("h, dataset, achieved", [
    (HeuristicId.H3, _one_value_of((XSD_INTEGER,), Literal("5", datatype=XSD_INTEGER)), 1),
    # with an xsd:string range M2 checks no lexical form, so H3 has no edit
    (HeuristicId.H3, _one_value_of((XSD_INTEGER, XSD_STRING), Literal("5", datatype=XSD_INTEGER)),
     0),
    (HeuristicId.H13, _one_value_of((XSD_INTEGER,), Literal("12", datatype=XSD_INTEGER)), 1),
    # xsd:string and xsd:integer are declared, so H13 retags to xsd:decimal
    (HeuristicId.H13,
     _one_value_of((XSD_INTEGER, XSD_STRING), Literal("12", datatype=XSD_STRING)), 1),
    (HeuristicId.H13,
     _one_value_of((XSD_INTEGER, XSD_STRING), Literal("12", datatype=XSD_INTEGER)), 1),
    # every tag H13 may write is declared, so M9 would flag none
    (HeuristicId.H13,
     _one_value_of((XSD_STRING, *LEXICAL_CHECKS), Literal("12", datatype=XSD_INTEGER)), 0),
    # M2 checks no lexical form of a property with an xsd:string range, so H4
    # and H5 may misspell its values and H11 may write any value for it
    (HeuristicId.H4, _one_value_of((XSD_BOOLEAN, XSD_STRING), Literal("true")), 1),
    (HeuristicId.H5, _one_value_of((XSD_BOOLEAN, XSD_STRING), Literal("true")), 1),
    (HeuristicId.H11,
     _one_value_of((XSD_BOOLEAN, XSD_STRING), Literal("true"), OWL_FUNCTIONAL_PROPERTY), 1),
    # xsd:boolean has no fresh values, so H11 writes one valid for xsd:date
    (HeuristicId.H11, _one_value_of((XSD_BOOLEAN, XSD_DATE),
                                    Literal("2000-01-01", datatype=XSD_DATE),
                                    OWL_FUNCTIONAL_PROPERTY), 1),
    (HeuristicId.H9, _disjoint_pair(Iri("http://ex/A"), Iri("http://ex/B")), 1),
    # M5 reads no builtin class, so H9 types no instance into a builtin pair
    (HeuristicId.H9, _disjoint_pair(OWL_OBJECT_PROPERTY, OWL_DATATYPE_PROPERTY), 0),
])
def test_each_edit_a_heuristic_counts_raises_its_metric(words, h, dataset, achieved):
    dirty, manifest = contaminate(dataset, ContaminationPlan({h: 1}, 0), words)
    target = HEURISTIC_TARGETS[h]
    before, after = (assess(d, words).metrics[target].numerator for d in (dataset, dirty))
    assert after - before == manifest.achieved[h] == achieved
    assert bool(manifest.warnings) == (not achieved)


def test_each_in_range_value_passes_its_check_and_each_plain_value_fails_all():
    # H11 writes in-range values that M2 must pass, H3 plain ones it must flag;
    # k runs past the 700-year cycle of the date generators
    assert _IN_RANGE_LEXICAL.keys() == LEXICAL_CHECKS.keys() - {XSD_BOOLEAN} | {None}
    for k in range(1501):
        plain = _IN_RANGE_LEXICAL[None](k)
        for datatype, check in LEXICAL_CHECKS.items():
            assert not check(plain), (datatype, plain)
            if datatype in _IN_RANGE_LEXICAL:
                assert check(_IN_RANGE_LEXICAL[datatype](k)), (datatype, k)


def test_h3_counts_no_rewrite_onto_the_triple_itself(words):
    # the first fresh value is contamvalue1, so H3 would rewrite the triple
    # onto itself: the apply rule skips it and records no edit
    dataset = _one_value_of((XSD_INTEGER,), Literal("contamvalue1", datatype=XSD_INTEGER))
    dirty, manifest = contaminate(dataset, ContaminationPlan({HeuristicId.H3: 1}, 0), words)
    assert manifest.achieved[HeuristicId.H3] == 0
    assert manifest.edits == ()
    assert dirty.triples == dataset.triples


def test_h11_makes_no_copy_of_a_boolean_value(words):
    # xsd:boolean has no unbounded distinct values to stay inside the range with
    dataset = _one_value_of((XSD_BOOLEAN,), Literal("true", datatype=XSD_BOOLEAN),
                            OWL_FUNCTIONAL_PROPERTY)
    _, manifest = contaminate(dataset, ContaminationPlan({HeuristicId.H11: 1}, 0), words)
    assert manifest.achieved[HeuristicId.H11] == 0
    assert manifest.warnings == (
        "H11: requested 1, achieved 0 (no functional-property triples to copy)",)


@pytest.mark.parametrize("seed", range(6))
def test_h7_removes_only_the_declarations_of_the_role_it_picks(words, seed):
    # P is both a class and a property; each role owns its own declaration
    P, i = Iri("http://ex/P"), Iri("http://ex/i")
    as_class = Triple(P, RDF_TYPE, OWL_CLASS)
    as_property = Triple(P, RDF_TYPE, OWL_OBJECT_PROPERTY)
    dataset = make_dataset("both", [as_class, as_property, Triple(i, RDF_TYPE, P),
                                    Triple(i, P, Iri("http://ex/o"))])
    _, manifest = contaminate(dataset, ContaminationPlan({HeuristicId.H7: 1}, seed), words)
    assert [e.before for e in manifest.edits] in ([as_class], [as_property])


@pytest.mark.parametrize("seed", range(6))
def test_h7_removes_only_the_triples_the_schema_index_reads_as_declarations(words, seed):
    # none of the last three declares C: a blank or literal object, a blank subject
    C, i = Iri("http://ex/C"), Iri("http://ex/i")
    declaration = Triple(C, RDF_TYPE, OWL_CLASS)
    dataset = make_dataset("ignored", [
        declaration, Triple(i, RDF_TYPE, C),
        Triple(C, RDFS_SUBCLASSOF, BlankNode("b")),
        Triple(C, OWL_DISJOINT_WITH, Literal("x")),
        Triple(BlankNode("p"), RDFS_DOMAIN, C),
    ])
    _, manifest = contaminate(dataset, ContaminationPlan({HeuristicId.H7: 1}, seed), words)
    assert [e.before for e in manifest.edits] == [declaration]
    assert manifest.achieved[HeuristicId.H7] == 1


def test_h9_adds_instance_into_disjoint_pair(zoo, words):
    before = assess(zoo, words)
    dirty, manifest = contaminate(zoo, plan_for(HeuristicId.H9, 1), words)
    after = assess(dirty, words)
    m5 = MetricId.DISJOINT_MEMBERSHIP
    assert after.metrics[m5].numerator == before.metrics[m5].numerator + 1
    adds = [e for e in manifest.edits if e.heuristic is HeuristicId.H9]
    assert len(adds) == 2
    assert all(e.after.predicate.text.endswith("#type") for e in adds)


def test_every_heuristic_raises_its_metric_in_isolation(zoo, words):
    base = assess(zoo, words)
    for h in HeuristicId:
        dirty, manifest = contaminate(zoo, plan_for(h), words)
        after = assess(dirty, words)
        target = HEURISTIC_TARGETS[h]
        assert after.metrics[target].value > base.metrics[target].value, h
        assert manifest.achieved[h] == 3, h
        assert not manifest.warnings, h


def test_numerator_isolation_on_clean_fixture(zoo, words):
    # flag-count numerators of unrelated metrics stay at zero, with one
    # documented exception: H2/H6/H7 remove or rename type assertions,
    # class declarations or subclass links, which can strip the
    # classification an object relied on to satisfy a range check
    base = assess(zoo, words)
    allowed = {
        HeuristicId.H2: {MetricId.OUT_OF_RANGE},
        HeuristicId.H6: {MetricId.OUT_OF_RANGE},
        HeuristicId.H7: {MetricId.OUT_OF_RANGE},
    }
    for h in HeuristicId:
        dirty, _ = contaminate(zoo, plan_for(h), words)
        after = assess(dirty, words)
        for mid in MetricId:
            if mid in (HEURISTIC_TARGETS[h], MetricId.MISSING_VALUES):
                continue
            if mid in allowed.get(h, ()):
                continue
            assert after.metrics[mid].numerator == base.metrics[mid].numerator, (h, mid)


def test_shortfall_is_warning_not_error(words):
    bare = make_dataset("bare", [
        Triple(Iri("http://ex/a"), Iri("http://ex/p"), Iri("http://ex/b")),
    ])
    plan = ContaminationPlan(intensities={HeuristicId.H11: 2}, seed=5)
    dirty, manifest = contaminate(bare, plan, words)
    assert manifest.achieved[HeuristicId.H11] == 0
    assert any("H11" in w for w in manifest.warnings)
    assert dirty.triples == bare.triples


def test_seed_determinism_and_seed_sensitivity(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    d1, m1 = contaminate(zoo, plan, words)
    d2, m2 = contaminate(zoo, plan, words)
    assert serialize_dataset(d1) == serialize_dataset(d2)
    assert manifest_to_dict(m1) == manifest_to_dict(m2)
    other = ContaminationPlan(intensities=plan.intensities, seed=plan.seed + 1)
    d3, _ = contaminate(zoo, other, words)
    assert serialize_dataset(d3) != serialize_dataset(d1)


def test_replay_reproduces_contaminated_exactly(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    dirty, manifest = contaminate(zoo, plan, words)
    assert replay_manifest(zoo, manifest).triples == dirty.triples


def test_replay_survives_manifest_json_roundtrip(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    dirty, manifest = contaminate(zoo, plan, words)
    revived = manifest_from_dict(json.loads(json.dumps(manifest_to_dict(manifest))))
    assert replay_manifest(zoo, revived).triples == dirty.triples


def test_replay_rejects_stale_manifest(zoo, words):
    dirty, manifest = contaminate(zoo, plan_for(HeuristicId.H2, 2), words)
    wrong_base = make_dataset("other", list(zoo.triples[:5]))
    with pytest.raises(ReplayError):
        replay_manifest(wrong_base, manifest)


def test_replay_error_names_the_stale_triple(zoo, words):
    _, manifest = contaminate(zoo, plan_for(HeuristicId.H2, 2), words)
    wrong_base = make_dataset("other", list(zoo.triples[:5]))
    stale = next(e.before for e in manifest.edits if e.before not in wrong_base.triples)
    with pytest.raises(ReplayError) as err:
        replay_manifest(wrong_base, manifest)
    assert triple_to_ntriples(stale) in str(err.value)
    assert "remove_triple" in str(err.value)


def test_edit_log_rejects_edits_that_cannot_apply():
    a, b = (Triple(Iri("http://ex/s"), Iri("http://ex/p"), Iri(f"http://ex/{o}"))
            for o in "ab")
    log = EditLog([a])
    for edit in (Edit(HeuristicId.H1, after=a),
                 Edit(HeuristicId.H2, before=b),
                 Edit(HeuristicId.H3, before=b, after=a)):
        with pytest.raises(ReplayError):
            log.apply(edit)
    with pytest.raises(ValueError, match="names no triple"):
        Edit(HeuristicId.H1)
    rewrite = Edit(HeuristicId.H3, before=a, after=b)
    log.apply(rewrite)
    assert log.current() == [b]
    assert log.edits == [rewrite]  # rejected edits leave no trace


def test_h11_adding_a_declaration_triple_writes_add_axiom(words):
    # rdfs:subClassOf declared functional: H11's copy is a subclass axiom
    A = Iri("http://ex/A")
    dataset = make_dataset("axiom", [Triple(RDFS_SUBCLASSOF, RDF_TYPE, OWL_FUNCTIONAL_PROPERTY),
                                     Triple(A, RDFS_SUBCLASSOF, Iri("http://ex/B"))])
    dirty, manifest = contaminate(dataset, ContaminationPlan({HeuristicId.H11: 1}, 0), words)
    (edit,) = manifest_to_dict(manifest)["edits"]
    assert edit == {"heuristic": "H11", "action": "add_axiom", "before": None,
                    "after": f"<{A.text}> <{RDFS_SUBCLASSOF.text}> <contam:h11-object-0> ."}
    # the bytes the contaminator wrote when it labelled this edit add_triple
    assert hashlib.sha256(serialize_dataset(dirty)).hexdigest() == \
        "9b616ffdf33fa7fb6f0b04c45aff64cfc9079926a2a1e6e0d5ddb0cc8d372ee1"
    loaded = manifest_from_dict(json.loads(manifest_to_json(manifest)))
    assert replay_manifest(dataset, loaded).triples == dirty.triples


def test_replay_rejects_a_rewrite_onto_a_present_triple():
    a, b = (Triple(Iri("http://ex/s"), Iri("http://ex/p"), Iri(f"http://ex/{o}"))
            for o in "ab")
    manifest = manifest_from_dict({"edits": [{
        "heuristic": "H3", "action": "rewrite_triple",
        "before": triple_to_ntriples(a), "after": triple_to_ntriples(b)}]})
    with pytest.raises(ReplayError) as err:
        replay_manifest(make_dataset("d", [a, b]), manifest)
    assert str(err.value).endswith("triple is already present: " + triple_to_ntriples(b))


# sha256 of the serialized output and of the manifest JSON for every
# heuristic at 3 on the 30k-triple scale document, recorded before the
# contaminator and replay were folded into one edit engine
SCALE_30K_DIGESTS = {
    0: ("b76c90236d9bb17f8a120feb5bfac0c021ee949bbb050826d351dd72749f8d21",
        "466d4418f72f0d6aa63dab457cc09db0e34ecc99f586a4b50bacdc2c7b407fd2"),
    1: ("fce1f748b02aa383680d0c7ac8d2a503de21fa2567602aa317ffa7e9e0e4c3ae",
        "56206161407b8f82b83b3e22912beeddc3983368da96253b342c435b448a9821"),
}


# sha256 of the serialized output and of the manifest JSON for each
# heuristic alone, seed 0, recorded before the heuristics shared one sample
# step and one apply rule: at 5 on the 30k-triple scale document (13 of the
# 14 achieve 5; the 10k document has no usage triples) and at 1000 on
# family.nt, which drives the shortfall paths and H6's fallback
SCALE_30K_SINGLE_DIGESTS = {
    "H1": ("dafb71f36c412fe3996bf9d1f6eb080481e14d5fe30954555bd43b58ce36d164",
           "af5b8fe92bfd69b0f592fe136dcf8f4279df2189c23c7811c749b79f96c063f7"),
    "H2": ("c97735e1016f110575ab7c319dd11684bd4d5b5e9556404b2b91e169f49b7ab6",
           "087908056685d955046606119445f8b2cfbd5e87d5093e076ff1d9e3387d6e91"),
    "H3": ("e3740d1c5b830e847893cccf286a10b5a0c80f31654fd29cb8b12100fc5b09a6",
           "23e3559dcea6b214272909c82dafabc04667a5aa0b0ee083e531a2b3f76f2349"),
    "H4": ("a9c8435d399a1228699fe99381b1df7572bf5046aa612031d5155e4716fc1db2",
           "ba2d5aca11d03697fd40b9b6c2a41881d051ddab651c072a0624055b33c59081"),
    "H5": ("7ae928d16c5abce49207c8166b7965ffe45a963c5d06cbb0d7a6905218fed109",
           "d8d00d2315267859b8a224cd3e19ee84b74eba1475be2f97b7f35963309959cb"),
    "H6": ("07ac0ed77f0f99022e4d633c47d5e4c20f144ffd9bd31c6d4dfaf19d3f4a6d30",
           "d653925fc270326de3c332d8a80c76a259c44e3d53c99e0e04a1e3102d649c39"),
    "H7": ("fe068a8317e389ca7aef6b0ac551a4d0e4419fc4465f1dc15d20914b7374b10f",
           "e1ce60cc4e2089a4e2372487ec05f3d14a8109085bde756700036065a955fd13"),
    "H8": ("40f7c1a3b1fbd63dbb891869966ae3e151fce2d79a8f3619f4d7ff92e4f358a8",
           "60da964010e7a81df034b0ffeadcc786311e76ea3d92b1cc471885d5c6d2c23c"),
    "H9": ("ef41da2393d0d6d79526adae2c18ff9a041305f9733f16588b0d44279e1af8d0",
           "9755d81997fd234a343bbf5eec02110db4991129588c300b516cf2f6758238e0"),
    "H10": ("caa7b336cf8a3bf0697f56264952071550f11ed7ca6d5d5245b6bb6520fe9329",
           "5c445665d40062379d3c98816e8cffa3b0198046cebe498bc3fa7a736d76f8b5"),
    "H11": ("85933f67ed903af6ba1fc8c54bbfdb1c067e26e9bdeaee2fb17b033cd265f3fc",
           "a2c97fe30144554512baf8a43d26f1984166b6f364104e1bc898c81669a376e2"),
    "H12": ("8e07224978ee93b4b391dfcf676128f9a5ce0da143f2379a1287133fe684f779",
           "891d96a3a19e9302b421260688b3b710fb22ec03dfb2aff22d88a63afddea9a8"),
    "H13": ("5726edf1573fa8012ae110b16d0778022e699b79e415bdddbe783306cfbe6459",
           "09e025b97348cd6ad6dfbd0bd535fc360ef2ac58c14f21ab519826aac7224882"),
    "H14": ("db0ade6d535c643dd37ffa44d6794f9f14f73cd413aebe84969d0c8b2daaf8a2",
           "ae215e96eda59edcd2f0ffd996459c61243ccfc3993f854a2240c9a6f985c15a"),
}
FAMILY_1000_SINGLE_DIGESTS = {
    "H1": ("23fb6df279b130b74ce5afe72ebbdfe4f467fe954d1b82767a4f67a95ff524a3",
           "e39547496a5e8b2a40d0e567ed9785d1ab90adcec4a0e610eb6255889909c4bc"),
    "H2": ("6ff2b9900d4f358466675623140f2cdb01c6cd5da8ba6c505f7712577ef977fc",
           "32f14a5d0ff61c85500be3c5f02b7934952a6413fe0cea2c8e419926ff2d0d56"),
    "H3": ("b676c85870b6053256a83936c438fec08d241626c2fd5aef4022c61dd5cf17cc",
           "2f685efad1ac26077fb06865265a0392785086eab86d836e99674f928eb44ea9"),
    "H4": ("f285519028d63bdd5d10d4a8e5b3594f62bc45e6d894ec8e7710763809e1df39",
           "98cce09249c2fc05bbe9064d8bf3b8ab10ecf73e6e270700e0974fd3da76bfbb"),
    "H5": ("4c768e4dfd5a620bbfdfe859ba6fadf2c3d313d71848390ae2f2818a7b5fbc6a",
           "a7ad84b0fe216d9d6ca3ad4af5cac81275a11933faf1fe355bdb27e2bbfa9665"),
    "H6": ("940f6c225b861edbfae332af006b463cf1b3633d1cf5dda5ccd3411be2183cc9",
           "aa0f6e6cb00709235d188622543b8fdb6697329c5f66cf1736d820182dc6bfee"),
    "H7": ("23cff1b61b4a0a7f912531547d285462a622a2128ee27d13ac180efb94f54b5b",
           "0f258c863be58e6a934868a6415b7f55d502d4efc4ffa290dda037fede968042"),
    "H8": ("e357053977118af117b1a462b11b53d3908ea152e3f907cef2b9f5dc5ffd2cf1",
           "6569144aecac70f12fcd7f2d7ce24202758ead1a77e4569544c959653393859b"),
    "H9": ("04eee6df9371ca1226904feb130bb3df135bd488995249ba6c4e7ae227c1683b",
           "2efa1d58bc159716a3cb8845c6cef23db5e429c20383b082e8bf3fc6bddc14e9"),
    "H10": ("dc5aa6adb004f6422995cc163324a14f05f1e648674c448c586d09cd61ac0ce8",
           "42626ef600f718633335da4382bfc5bd479111456e56e62ea0a76a440754da9d"),
    "H11": ("fdf1414d901cbf0c2a547b86daa16efdbe4627bcd6658982c93fd8a6f90586e2",
           "a4b0baaeeb1512a89e3663f17f394ec48dc51007cdd308d876dc0c99ec39b296"),
    "H12": ("05569c45b156f0869f2a0de9b5ec1315488e4c24888cdf3d0e75e0959b365670",
           "c68e0bc5a89e713f254f52218d114c90266d847d83bd15c15f0e2eb02d5c077e"),
    "H13": ("890499a4d7ccc35b099a583041073bb0af65bad6c7a540b5f69448d07d4434fe",
           "1c6b16a9678d9f1d6c369423c2b309fdb87590e737a78faaea66467f7117e2cf"),
    "H14": ("0b866632449f3cece5c719975bf6d9712378c30b69d091ff008c3e8927c62c06",
           "a17bbcbc69846064734e871ddd853773c88661169357171ae4a911d779ec8396"),
}


@pytest.mark.parametrize("seed", sorted(SCALE_30K_DIGESTS))
def test_all_heuristics_on_scale_document_match_recorded_digests(words, seed):
    scale = parse_dataset(build_scale_document(30_000), "ntriples", "scale")
    plan = ContaminationPlan({h: 3 for h in HeuristicId}, seed, "scale")
    dirty, manifest = contaminate(scale, plan, words)
    digests = (hashlib.sha256(serialize_dataset(dirty)).hexdigest(),
               hashlib.sha256(manifest_to_json(manifest).encode("utf-8")).hexdigest())
    assert digests == SCALE_30K_DIGESTS[seed]
    assert replay_manifest(scale, manifest).triples == dirty.triples


@pytest.fixture(scope="module")
def scale_30k():
    return parse_dataset(build_scale_document(30_000), "ntriples", "scale")


def _digests(dataset, plan, words):
    dirty, manifest = contaminate(dataset, plan, words)
    return (hashlib.sha256(serialize_dataset(dirty)).hexdigest(),
            hashlib.sha256(manifest_to_json(manifest).encode("utf-8")).hexdigest())


@pytest.mark.parametrize("h", list(HeuristicId))
def test_each_heuristic_alone_matches_recorded_digests(scale_30k, family, words, h):
    plan = ContaminationPlan({h: 5}, 0, scale_30k.id)
    assert _digests(scale_30k, plan, words) == SCALE_30K_SINGLE_DIGESTS[h.value]
    plan = ContaminationPlan({h: 1000}, 0, family.id)
    assert _digests(family, plan, words) == FAMILY_1000_SINGLE_DIGESTS[h.value]


# sha256 of the serialized output and of the manifest JSON for H8, H9 and
# H14 at 3 on a 20-subclass wide document, recorded while the schema index
# still stored every derived disjoint pair; H9 draws from the sorted pair
# list, so these pin its order on a schema where disjointness is inherited
WIDE_20_DIGESTS = {
    0: ("8e930a28d5610642a82d45aac870bf5de257ac18624374e84b40a507e9cb86dc",
        "de70e80743b38fad7f0366cc445d4830987986ea27ce200ee284e121c50fbd0c"),
    1: ("4532541b3f2d46141ae1dba251578e595ec7db4dc6ef9ca565c49f099ae7d817",
        "6133f9036370c98eb2ff8c524f15de8b40538433babfb60a2b57813845523c42"),
}


@pytest.mark.parametrize("seed", sorted(WIDE_20_DIGESTS))
def test_disjointness_heuristics_on_wide_document_match_recorded_digests(words, seed):
    wide = parse_dataset(build_wide_document(20), "ntriples", "wide")
    plan = ContaminationPlan({HeuristicId.H8: 3, HeuristicId.H9: 3, HeuristicId.H14: 3},
                             seed, wide.id)
    assert _digests(wide, plan, words) == WIDE_20_DIGESTS[seed]


def build_many_classes_document(n_classes):
    """Classes ``C0``.. each declared ``owl:Class`` with one instance
    ``i0``.., plus an instance ``s`` in ``C0`` and ``C1``: the one pair of
    classes that share an instance."""
    ex = "http://example.org/many#"
    rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    owl = "http://www.w3.org/2002/07/owl#"
    lines = []
    for i in range(n_classes):
        lines.append(f"<{ex}C{i}> <{rdf}type> <{owl}Class> .")
        lines.append(f"<{ex}i{i}> <{rdf}type> <{ex}C{i}> .")
    lines.append(f"<{ex}s> <{rdf}type> <{ex}C0> .")
    lines.append(f"<{ex}s> <{rdf}type> <{ex}C1> .")
    lines.append("")
    return "\n".join(lines).encode()


@pytest.fixture(scope="module")
def many_classes():
    return parse_dataset(build_many_classes_document(3000), "ntriples", "many")


# sha256 of the serialized output and of the manifest JSON for H7 at 10**12
# and H8 at 3 on the 3000-class document, recorded while H7 scanned every
# declaration per chosen term and H8 tested every pair of classes
MANY_3000_DIGESTS = {
    "H7": ("080a7f574cb3d1b58e16a84931fefa209575ce085089101c968a7c594927c522",
           "4ce1aaa6d18e3e2dce83cf6e215844b61af5ca6bcc80357072c51f9ec95fe4fb"),
    "H8": ("fafd5229ca4726bb582d016b1a4a7b297e567e56b99ad080c73ee04c29bd5149",
           "bbfc3a7ca35fa157420b7f45ea030a4d0ae31e8f3974cb2dd2c267c380c070d0"),
}


def test_h8_decides_only_the_class_pairs_that_share_an_instance(
        many_classes, words, monkeypatch):
    calls = []
    disjoint = SchemaIndex.disjoint
    monkeypatch.setattr(SchemaIndex, "disjoint",
                        lambda schema, a, b: calls.append((a, b)) or disjoint(schema, a, b))
    plan = ContaminationPlan({HeuristicId.H8: 3}, 0, many_classes.id)
    assert _digests(many_classes, plan, words) == MANY_3000_DIGESTS["H8"]
    # C0 and C1 are the one pair with a shared instance
    assert len(calls) <= 1


def test_h7_visits_each_declaration_at_most_once_per_term_it_declares(
        many_classes, words, monkeypatch):
    checks = []
    contains = EditLog.__contains__
    monkeypatch.setattr(EditLog, "__contains__",
                        lambda log, t: checks.append(t) or contains(log, t))
    plan = ContaminationPlan({HeuristicId.H7: 10**12}, 0, many_classes.id)
    assert _digests(many_classes, plan, words) == MANY_3000_DIGESTS["H7"]
    declarations = sum(map(is_declaration_triple, many_classes.triples))
    assert len(checks) <= 2 * declarations


def test_bundled_dirty_fixture_regenerates(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    dirty, manifest = contaminate(zoo, plan, words)
    assert serialize_dataset(dirty) == fixture_path("zoo_dirty.nt").read_bytes()
    bundled = json.loads(fixture_path("zoo_dirty.manifest.json").read_text())
    assert manifest_to_dict(manifest) == bundled


def test_injected_terms_use_reserved_namespace(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    _, manifest = contaminate(zoo, plan, words)
    fresh = [term for e in manifest.edits if e.after is not None
             for term in (e.after.subject, e.after.predicate, e.after.object)
             if isinstance(term, Iri) and term.text.startswith("contam:")]
    assert fresh, "expected contam: IRIs in the edit stream"
    source_iris = {t.text for triple in zoo.triples
                   for t in (triple.subject, triple.predicate, triple.object)
                   if isinstance(t, Iri)}
    assert not {t.text for t in fresh} & source_iris


@pytest.mark.parametrize("position", ["subject", "predicate", "object", "datatype"])
def test_fresh_iri_skips_only_an_input_iri_of_its_text(words, position):
    taken = Iri("contam:h1-property-0")
    ex = {part: Iri(f"http://example.org/{part}") for part in ("subject", "predicate", "object")}
    dataset = make_dataset("d", [
        Triple(ex["subject"], ex["predicate"], Literal("1", datatype=taken))
        if position == "datatype" else Triple(**{**ex, position: taken}),
        # the next text, but as a literal and a blank node: neither is an IRI
        Triple(ex["subject"], ex["predicate"], Literal("contam:h1-property-1")),
        Triple(BlankNode("contam:h1-property-1"), ex["predicate"], ex["object"]),
    ])
    _, manifest = contaminate(dataset, ContaminationPlan({HeuristicId.H1: 2}, 0), words)
    assert [e.after.subject for e in manifest.edits] == [
        Iri("contam:h1-property-1"), Iri("contam:h1-property-2")]


def test_achieved_never_exceeds_requested(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    _, manifest = contaminate(zoo, plan, words)
    for h, requested in plan.intensities.items():
        assert manifest.achieved[h] <= requested


def test_the_manifest_names_the_dataset_unless_the_plan_does(zoo, words):
    _, manifest = contaminate(zoo, ContaminationPlan({HeuristicId.H1: 1}, 0), words)
    assert manifest_to_dict(manifest)["dataset"] == zoo.id == "zoo_clean"
    _, manifest = contaminate(zoo, ContaminationPlan({HeuristicId.H1: 1}, 0, "named"), words)
    assert manifest_to_dict(manifest)["dataset"] == "named"


def test_plan_json_roundtrip():
    raw = {"seed": 42, "intensities": {"H1": 1, "H9": 2}}
    plan = plan_from_dict(raw)
    assert plan.seed == 42
    assert plan.intensities[HeuristicId.H9] == 2
    assert plan_from_dict({"seed": plan.seed, "intensities": {
        h.value: n for h, n in plan.intensities.items()}}) == plan


def test_plan_rejects_negative_intensity():
    with pytest.raises(ValueError):
        plan_from_dict({"seed": 1, "intensities": {"H3": -1}})


def test_no_plan_with_a_negative_intensity_reaches_the_contaminator(zoo, words):
    with pytest.raises(ValueError, match="^negative intensity for H3$"):
        contaminate(zoo, ContaminationPlan({HeuristicId.H3: -1}, 0), words)


def test_neon_sample_plans_load():
    for name in ("fao_water_areas", "water_economic_zones", "large_marine_ecosystems",
                 "geopolitical_entities", "isscaap_species_classification",
                 "species_taxonomic_classification", "commodities", "vessels"):
        plan = load_plan(fixture_path(f"plans/neon/{name}.json"))
        assert sum(plan.intensities.values()) > 0
