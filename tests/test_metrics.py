from itertools import compress

import pytest

from rdfqa import Iri, Literal, MetricId, Triple, assess, make_dataset
from rdfqa.core.indexing import build_instance_index, build_schema_index
from rdfqa.core.model import (
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_DISJOINT_WITH,
    OWL_FUNCTIONAL_PROPERTY,
    OWL_INVERSE_FUNCTIONAL_PROPERTY,
    OWL_OBJECT_PROPERTY,
    RDF_TYPE,
    RDFS_RANGE,
    XSD_DATE,
    XSD_DATETIME,
    XSD_INTEGER,
    XSD_STRING,
)
from rdfqa.metrics import (
    _TOKEN_RE,
    Dictionary,
    m1_missing_property_values,
    m2_out_of_range_values,
    m3_misspelled_values,
    m4_undefined_terms,
    m5_disjoint_membership,
    m6_inconsistent_values,
    m7_functional_conflicts,
    m8_inverse_functional_conflicts,
    m9_improper_datatype,
    m10_similar_classes,
    token_flags,
)

EX = "http://example.org/m#"


def iri(local):
    return Iri(EX + local)


def indices(ds):
    return build_schema_index(ds), build_instance_index(ds)


def declare_class(c):
    return Triple(c, RDF_TYPE, OWL_CLASS)


def declare_prop(p, kind=OWL_OBJECT_PROPERTY):
    return Triple(p, RDF_TYPE, kind)


WORDS = Dictionary(id="t", words=frozenset({"john", "smith", "hello"}))


# -- M1

def test_m1_zero_usage_is_maximal():
    ds = make_dataset("m1", [declare_class(iri("C")), declare_prop(iri("p"))])
    schema, inst = indices(ds)
    mv = m1_missing_property_values(schema, inst)
    assert mv.value == 1.0
    assert mv.numerator == 0 and mv.denominator == 1
    assert mv.offenders == (EX + "p",)


def test_m1_hand_counted_ratio():
    # 2 classes, 2 properties, 3 usage triples -> 1 - 3/4 = 0.25
    ds = make_dataset("m1b", [
        declare_class(iri("C")), declare_class(iri("D")),
        declare_prop(iri("p")), declare_prop(iri("q")),
        Triple(iri("x"), iri("p"), iri("y")),
        Triple(iri("x"), iri("q"), iri("y")),
        Triple(iri("y"), iri("p"), iri("x")),
    ])
    mv = m1_missing_property_values(*indices(ds))
    assert mv.value == 1 - 3 / 4
    assert (mv.numerator, mv.denominator) == (3, 4)


def test_m1_degenerate_without_schema():
    ds = make_dataset("m1c", [Triple(iri("x"), iri("p"), iri("y")),
                              declare_prop(iri("p"))])
    mv = m1_missing_property_values(*indices(ds))
    assert mv.value == 0.0 and mv.degenerate


def test_m1_clamps_when_usage_exceeds_grid():
    ds = make_dataset("m1d", [
        declare_class(iri("C")), declare_prop(iri("p")),
        Triple(iri("x"), iri("p"), iri("y")),
        Triple(iri("y"), iri("p"), iri("x")),
    ])
    mv = m1_missing_property_values(*indices(ds))
    assert mv.value == 0.0 and mv.clamped


# -- M2

def test_m2_nothing_checkable_without_declarations():
    ds = make_dataset("m2", [Triple(iri("x"), iri("p"), Literal("abc"))])
    schema, inst = indices(ds)
    assert m2_out_of_range_values(ds, schema, inst).value == 0.0


def test_m2_lexical_violation_for_integer_range():
    ds = make_dataset("m2b", [
        Triple(iri("q"), RDFS_RANGE, XSD_INTEGER),
        Triple(iri("x"), iri("q"), Literal("abc")),
    ])
    schema, inst = indices(ds)
    mv = m2_out_of_range_values(ds, schema, inst)
    assert mv.numerator == 1
    assert mv.offenders == (1,)


def test_m2_object_range_respects_transitive_subclass():
    person, child, son = iri("Person"), iri("Child"), iri("Son")
    sub = Iri("http://www.w3.org/2000/01/rdf-schema#subClassOf")
    ds = make_dataset("m2c", [
        declare_class(person), declare_class(child), declare_class(son),
        Triple(child, sub, person), Triple(son, sub, child),
        declare_prop(iri("knows")),
        Triple(iri("knows"), RDFS_RANGE, person),
        Triple(iri("ali"), RDF_TYPE, son),
        Triple(iri("x"), iri("knows"), iri("ali")),
    ])
    schema, inst = indices(ds)
    assert m2_out_of_range_values(ds, schema, inst).numerator == 0


def test_m2_untyped_objects_are_not_flagged():
    ds = make_dataset("m2d", [
        declare_class(iri("C")),
        declare_prop(iri("p")),
        Triple(iri("p"), RDFS_RANGE, iri("C")),
        Triple(iri("x"), iri("p"), iri("mystery")),
    ])
    schema, inst = indices(ds)
    assert m2_out_of_range_values(ds, schema, inst).numerator == 0


@pytest.mark.parametrize("lexical, ok", [
    ("5", True), ("+5", True), ("-5", True), ("05", True),
    ("5_0", False), (" 5", False), ("5.0", False), ("", False), ("abc", False),
])
def test_m2_integer_lexical_space(lexical, ok):
    ds = make_dataset("m2e", [
        Triple(iri("q"), RDFS_RANGE, XSD_INTEGER),
        Triple(iri("x"), iri("q"), Literal(lexical)),
    ])
    schema, inst = indices(ds)
    assert m2_out_of_range_values(ds, schema, inst).numerator == (0 if ok else 1)


_LAST_DAYS = ("01-31", "02-28", "03-31", "04-30", "05-31", "06-30",
              "07-31", "08-31", "09-30", "10-31", "11-30", "12-31")
_DAYS_AFTER = ("01-32", "02-29", "03-32", "04-31", "05-32", "06-31",
               "07-32", "08-32", "09-31", "10-32", "11-31", "12-32")

# today's verdicts at each bound of the xsd:date and xsd:dateTime checks
_DATE_BOUNDS = [
    *((f"2023-{d}", True) for d in _LAST_DAYS),
    *((f"2023-{d}", False) for d in _DAYS_AFTER),
    ("2023-05-00", False), ("2023-05-01", True),
    # 29 February: a leap year, a century that is not one, and one that is
    ("2024-02-29", True), ("1900-02-29", False), ("2000-02-29", True),
    ("2024-02-30", False), ("2000-02-30", False),
    ("2023-00-15", False), ("2023-01-15", True), ("2023-12-15", True),
    ("2023-13-15", False),
]
_TIME_BOUNDS = [
    ("00:00:00", True), ("23:00:00", True), ("24:00:00", False),
    ("12:59:00", True), ("12:60:00", False), ("12:00:59", True), ("12:00:60", False),
    ("23:59:59", True), ("23:59:59.999", True),
]


@pytest.mark.parametrize("datatype, lexical, ok", [
    *((XSD_DATE, date, ok) for date, ok in _DATE_BOUNDS),
    *((XSD_DATETIME, f"{date}T12:00:00", ok) for date, ok in _DATE_BOUNDS),
    *((XSD_DATETIME, f"2024-02-29T{time}", ok) for time, ok in _TIME_BOUNDS),
    *((XSD_DATETIME, f"2023-02-29T{time}", False) for time, _ in _TIME_BOUNDS),
])
def test_m2_date_and_time_bounds(datatype, lexical, ok):
    ds = make_dataset("m2f", [
        Triple(iri("q"), RDFS_RANGE, datatype),
        Triple(iri("x"), iri("q"), Literal(lexical)),
    ])
    schema, inst = indices(ds)
    assert m2_out_of_range_values(ds, schema, inst).numerator == (0 if ok else 1)


# -- M3

def test_m3_no_literals_no_flags():
    ds = make_dataset("m3", [Triple(iri("x"), iri("p"), iri("y"))])
    assert m3_misspelled_values(ds, WORDS).value == 0.0


def test_m3_known_tokens_pass():
    ds = make_dataset("m3b", [Triple(iri("x"), iri("p"), Literal("John Smith"))])
    assert m3_misspelled_values(ds, WORDS).numerator == 0


def test_m3_unknown_token_flags_once_per_triple():
    ds = make_dataset("m3c", [
        Triple(iri("x"), iri("p"), Literal("Smithp")),
        Triple(iri("x"), iri("q"), Literal("Smithp zzz")),
    ])
    mv = m3_misspelled_values(ds, WORDS)
    assert mv.numerator == 2
    assert mv.offenders == (0, 1)


def test_m3_skips_digits_nonenglish_and_typed_literals():
    ds = make_dataset("m3d", [
        Triple(iri("x"), iri("p"), Literal("abc123")),
        Triple(iri("x"), iri("p"), Literal("zzz", language="fr")),
        Triple(iri("x"), iri("p"), Literal("zzz", datatype=XSD_INTEGER)),
        Triple(iri("x"), iri("p"), Literal("zzz", language="en")),
        Triple(iri("x"), iri("p"), Literal("zzz", datatype=XSD_STRING)),
    ])
    mv = m3_misspelled_values(ds, WORDS)
    assert mv.numerator == 2
    assert mv.offenders == (3, 4)


# -- M4

def test_m4_all_terms_declared(family):
    schema, _ = indices(family)
    assert m4_undefined_terms(family, schema).numerator == 0


def test_m4_counts_undeclared_class_and_property():
    ds = make_dataset("m4b", [
        Triple(iri("x"), iri("undeclaredP"), iri("y")),
        Triple(iri("x"), RDF_TYPE, iri("undeclaredC")),
    ])
    schema, _ = indices(ds)
    mv = m4_undefined_terms(ds, schema)
    assert mv.numerator == 2
    assert mv.offenders == (0, 1)


def test_m4_builtin_predicates_and_classes_exempt():
    ds = make_dataset("m4c", [
        Triple(iri("x"), RDF_TYPE, Iri("http://www.w3.org/2002/07/owl#Thing")),
        Triple(iri("x"), Iri("http://www.w3.org/2000/01/rdf-schema#label"), Literal("x")),
    ])
    schema, _ = indices(ds)
    assert m4_undefined_terms(ds, schema).numerator == 0


# -- M5

def test_m5_no_disjointness_no_flags(zoo):
    schema, inst = indices(zoo)
    assert m5_disjoint_membership(schema, inst).numerator == 0


def test_m5_instance_counted_once_across_pairs():
    a, b, c = iri("A"), iri("B"), iri("C")
    ds = make_dataset("m5", [
        Triple(a, OWL_DISJOINT_WITH, b),
        Triple(a, OWL_DISJOINT_WITH, c),
        Triple(b, OWL_DISJOINT_WITH, c),
        Triple(iri("i"), RDF_TYPE, a),
        Triple(iri("i"), RDF_TYPE, b),
        Triple(iri("i"), RDF_TYPE, c),
    ])
    schema, inst = indices(ds)
    mv = m5_disjoint_membership(schema, inst)
    assert mv.numerator == 1
    assert mv.denominator == 1
    assert mv.offenders == (EX + "i",)


# -- M6

def test_m6_same_type_duplicate_values_do_not_conflict():
    ds = make_dataset("m6", [
        Triple(iri("x"), iri("p"), Literal("a")),
        Triple(iri("x"), iri("p"), Literal("b")),
        Triple(iri("x"), iri("q"), iri("y")),
        Triple(iri("x"), iri("q"), iri("z")),
    ])
    assert m6_inconsistent_values(ds).numerator == 0


def test_m6_three_way_group_counts_two():
    ds = make_dataset("m6b", [
        Triple(iri("x"), iri("p"), iri("a")),
        Triple(iri("x"), iri("p"), iri("b")),
        Triple(iri("x"), iri("p"), Literal("c")),
    ])
    mv = m6_inconsistent_values(ds)
    assert mv.numerator == 2
    assert mv.offenders == (0, 1, 2)


def test_m6_datatype_difference_is_a_conflict():
    ds = make_dataset("m6c", [
        Triple(iri("x"), iri("p"), Literal("5", datatype=XSD_INTEGER)),
        Triple(iri("x"), iri("p"), Literal("5", datatype=XSD_STRING)),
    ])
    assert m6_inconsistent_values(ds).numerator == 1


def test_m6_rdf_type_groups_excluded():
    ds = make_dataset("m6d", [
        Triple(iri("x"), RDF_TYPE, iri("C")),
        Triple(iri("x"), RDF_TYPE, Literal("weird")),
    ])
    assert m6_inconsistent_values(ds).numerator == 0


# -- M7

def test_m7_single_use_per_subject_is_clean(family):
    schema, _ = indices(family)
    assert m7_functional_conflicts(family, schema).numerator == 0


def test_m7_k_minus_one():
    p = iri("fp")
    ds = make_dataset("m7", [
        Triple(p, RDF_TYPE, OWL_FUNCTIONAL_PROPERTY),
        Triple(iri("x"), p, iri("a")),
        Triple(iri("x"), p, iri("b")),
        Triple(iri("x"), p, iri("c")),
        Triple(iri("x"), p, iri("d")),
    ])
    schema, _ = indices(ds)
    assert m7_functional_conflicts(ds, schema).numerator == 3


# -- M8

def test_m8_requires_declaration():
    ds = make_dataset("m8", [
        Triple(iri("x"), iri("p"), iri("o")),
        Triple(iri("y"), iri("p"), iri("o")),
    ])
    schema, _ = indices(ds)
    assert m8_inverse_functional_conflicts(ds, schema).numerator == 0


def test_m8_void_literals_form_one_group():
    p = iri("ifp")
    triples = [Triple(p, RDF_TYPE, OWL_INVERSE_FUNCTIONAL_PROPERTY)]
    for i in range(5):
        dt = XSD_STRING if i % 2 else None
        triples.append(Triple(iri(f"s{i}"), p, Literal("", datatype=dt)))
    ds = make_dataset("m8b", triples)
    schema, _ = indices(ds)
    assert m8_inverse_functional_conflicts(ds, schema).numerator == 4


# -- M9

def test_m9_decision_table():
    p = iri("dp")
    base = [
        Triple(p, RDF_TYPE, OWL_DATATYPE_PROPERTY),
        Triple(p, RDFS_RANGE, XSD_STRING),
        Triple(iri("x"), p, Literal("plain")),                      # ok: plain on string
        Triple(iri("x"), p, Literal("tagged", datatype=XSD_STRING)),  # ok: exact
        Triple(iri("x"), p, Literal("5", datatype=XSD_INTEGER)),     # flag: wrong tag
    ]
    ds = make_dataset("m9", base)
    schema, _ = indices(ds)
    mv = m9_improper_datatype(ds, schema)
    assert mv.numerator == 1
    assert mv.offenders == (4,)


def test_m9_plain_flagged_when_range_is_not_string():
    p = iri("year")
    ds = make_dataset("m9b", [
        Triple(p, RDF_TYPE, OWL_DATATYPE_PROPERTY),
        Triple(p, RDFS_RANGE, XSD_INTEGER),
        Triple(iri("x"), p, Literal("1996")),
    ])
    schema, _ = indices(ds)
    assert m9_improper_datatype(ds, schema).numerator == 1


def test_m9_is_about_tags_not_lexical_values():
    p = iri("year")
    ds = make_dataset("m9c", [
        Triple(p, RDF_TYPE, OWL_DATATYPE_PROPERTY),
        Triple(p, RDFS_RANGE, XSD_INTEGER),
        Triple(iri("x"), p, Literal("not-a-number", datatype=XSD_INTEGER)),
    ])
    schema, _ = indices(ds)
    # wrong value but right tag: M2's business, not M9's
    assert m9_improper_datatype(ds, schema).numerator == 0


# -- M10

def test_m10_distinct_instance_sets_are_clean(family):
    schema, inst = indices(family)
    assert m10_similar_classes(schema, inst).numerator == 0


def test_m10_three_identical_sets_count_three():
    a, b, c = iri("A"), iri("B"), iri("C")
    triples = [declare_class(a), declare_class(b), declare_class(c)]
    for cls in (a, b, c):
        triples.append(Triple(iri("i"), RDF_TYPE, cls))
    ds = make_dataset("m10", triples)
    schema, inst = indices(ds)
    mv = m10_similar_classes(schema, inst)
    assert mv.numerator == 3
    assert mv.denominator == 3


def test_m10_subclass_related_pairs_excluded():
    a, b = iri("A"), iri("B")
    sub = Iri("http://www.w3.org/2000/01/rdf-schema#subClassOf")
    ds = make_dataset("m10b", [
        declare_class(a), declare_class(b), Triple(b, sub, a),
        Triple(iri("i"), RDF_TYPE, a), Triple(iri("i"), RDF_TYPE, b),
    ])
    schema, inst = indices(ds)
    assert m10_similar_classes(schema, inst).numerator == 0


def test_m10_empty_sets_never_similar():
    ds = make_dataset("m10c", [declare_class(iri("A")), declare_class(iri("B"))])
    schema, inst = indices(ds)
    assert m10_similar_classes(schema, inst).numerator == 0


# -- assess orchestration

def test_assess_empty_dataset_flags_degenerates():
    report = assess(make_dataset("empty", []), WORDS)
    assert all(mv.value == 0.0 for mv in report.metrics.values())
    flagged = {f.split(": ")[1] for f in report.flags if f.startswith("DegenerateDenominator")}
    assert {"M1", "M5", "M10"} <= flagged


def test_assess_selection_contract(family, words):
    report = assess(family, words, selection=(MetricId.FUNCTIONAL_CONFLICTS,))
    assert set(report.metrics) == {MetricId.FUNCTIONAL_CONFLICTS}


def test_assess_is_deterministic(family, words):
    from rdfqa.reporting import report_to_dict
    assert report_to_dict(assess(family, words)) == report_to_dict(assess(family, words))


def test_assess_empty_dictionary_flag(family):
    report = assess(family, Dictionary(id="empty", words=frozenset()))
    assert any(f.startswith("EmptyDictionary") for f in report.flags)
    assert report.metrics[MetricId.MISSPELLED_VALUES].numerator > 0


def test_offender_cap():
    triples = [Triple(iri(f"s{i}"), iri("undeclared"), iri("o")) for i in range(60)]
    ds = make_dataset("cap", triples)
    schema, _ = indices(ds)
    mv = m4_undefined_terms(ds, schema)
    assert mv.numerator == 60
    assert len(mv.offenders) == 50

    # M6 keeps whole conflicting groups in first-seen order: each subject's
    # IRI object sits at k, its literal object at 60 + k
    triples = ([Triple(iri(f"s{k}"), iri("p"), iri("o")) for k in range(60)]
               + [Triple(iri(f"s{k}"), iri("p"), Literal("x")) for k in range(60)])
    mv = m6_inconsistent_values(make_dataset("cap6", triples))
    assert mv.numerator == 60
    assert mv.offenders == tuple(i for k in range(25) for i in (k, 60 + k))

    # M5 keeps instance IRIs in IRI order (i0, i1, i10, ...)
    triples = [Triple(iri("A"), RDF_TYPE, OWL_CLASS), Triple(iri("B"), RDF_TYPE, OWL_CLASS),
               Triple(iri("A"), OWL_DISJOINT_WITH, iri("B"))]
    for k in range(60):
        triples += [Triple(iri(f"i{k}"), RDF_TYPE, iri("A")),
                    Triple(iri(f"i{k}"), RDF_TYPE, iri("B"))]
    ds = make_dataset("cap5", triples)
    mv = m5_disjoint_membership(*indices(ds))
    assert mv.numerator == 60
    assert mv.offenders == tuple(sorted(EX + f"i{k}" for k in range(60))[:50])


# the second list is saved with a byte order mark, which is no part of its first word
@pytest.mark.parametrize("text", ["# comment\nAlpha\n\n  beta  \n#another\n",
                                  "\ufeffAlpha\nbeta\n"])
def test_load_dictionary_skips_comments(tmp_path, text):
    from rdfqa import load_dictionary
    path = tmp_path / "words.txt"
    path.write_bytes(text.encode("utf-8"))
    d = load_dictionary(path)
    assert d.words == frozenset({"alpha", "beta"})
    assert "ALPHA" in d


def test_metric_id_lookup_is_case_insensitive():
    from rdfqa.metrics import metric_id
    assert metric_id("m10") is MetricId.SIMILAR_CLASSES
    with pytest.raises(ValueError):
        metric_id("M11")


def test_token_kernel_needs_no_digit_check():
    # a digit (category Nd or No) is never alphabetic, so the kernel's length
    # and isalpha() rule agrees with one that also rejects any token holding
    # a digit, on every code point but the surrogates, alone and inside a
    # token; with an empty dictionary every checked token is unknown
    def with_digit_check(text):
        return [token for token in _TOKEN_RE.findall(text)
                if not any(map(str.isdigit, token)) and len(token) >= 2 and token.isalpha()]

    chars = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
    assert not any(c.isdigit() and c.isalpha() for c in chars)
    # a character that is not alphanumeric ends a token, so only the
    # alphanumeric ones can sit inside one
    inside = [c for c in chars if c.isalnum()]
    outside = [c for c in chars if not c.isalnum()]
    empty = Dictionary(id="empty", words=frozenset())
    for shape in ("{}", "{0}{0}", "ab{}cd"):
        # each text is one whole token or holds none
        texts = list(map(shape.format, inside))
        unknown, checked = token_flags(texts, empty)
        assert list(compress(texts, checked)) == with_digit_check(" ".join(texts)), shape
        assert unknown == checked, shape
    # the others hold no token at all, alone or doubled
    for shape in ("{}", "{0}{0}"):
        text = " ".join(map(shape.format, outside))
        assert _TOKEN_RE.findall(text) == [] and token_flags([text], empty) == ([False], [False])


def test_token_kernel_flags_each_text_on_its_own():
    words = Dictionary(id="t", words=frozenset({"alpha", "beta"}))
    texts = ["alpha beta", "Alpha zzqx", "a 12 x9", "", "beta2 BETA", "zzqx"]
    assert token_flags(texts, words) == ([False, True, False, False, False, True],
                                         [True, True, False, False, True, True])
