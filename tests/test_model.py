"""The term model: tagged tuples that hash and compare in C."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from rdfqa.core.model import XSD_INTEGER, BlankNode, Iri, Literal, Triple

TERMS = [
    Iri("http://ex/a"),
    BlankNode("b0"),
    Literal("plain"),
    Literal("42", datatype=XSD_INTEGER),
    Literal("colour", language="en-GB"),
]
TRIPLES = [Triple(BlankNode("b0"), Iri("http://ex/p"), term) for term in TERMS]


def test_kinds_with_the_same_text_differ():
    kinds = [Iri("x"), BlankNode("x"), Literal("x")]
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            assert a != b
    assert len(dict.fromkeys(kinds)) == 3
    assert len({Triple(BlankNode("s"), Iri("http://ex/p"), o) for o in kinds}) == 3


def test_equal_terms_built_apart_compare_and_hash_equal():
    again = [
        Iri("http://ex/" + "a"),
        BlankNode("".join(["b", "0"])),
        Literal("pla" + "in"),
        Literal("4" + "2", datatype=Iri("http://www.w3.org/2001/XMLSchema#integer")),
        Literal("colour", None, "en-GB"),
    ]
    for a, b in zip(TERMS, again):
        assert a is not b and a == b and hash(a) == hash(b)
    rebuilt = [Triple(*t) for t in TRIPLES]
    assert rebuilt == TRIPLES and list(map(hash, rebuilt)) == list(map(hash, TRIPLES))


def test_a_term_equals_its_plain_tuple():
    assert Iri("x") == (0, "x")
    assert BlankNode("x") == (1, "x")
    assert Literal("x", XSD_INTEGER) == (2, "x", XSD_INTEGER, None)


@pytest.mark.parametrize("value", [*TERMS, *TRIPLES], ids=repr)
def test_pickle_and_copy_round_trip(value):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)
    for copied in (copy.copy(value), copy.deepcopy(value)):
        assert copied == value and type(copied) is type(value)
        assert repr(copied) == repr(value)


def test_attributes_and_repr_keep_their_form():
    iri, bnode, plain, typed, tagged = TERMS
    assert (iri.text, bnode.label) == ("http://ex/a", "b0")
    assert (typed.lexical, typed.datatype, typed.language) == ("42", XSD_INTEGER, None)
    assert (tagged.lexical, tagged.datatype, tagged.language) == ("colour", None, "en-GB")
    assert repr(Iri("x")) == "Iri(text='x')"
    assert repr(BlankNode("x")) == "BlankNode(label='x')"
    assert repr(plain) == "Literal(lexical='plain', datatype=None, language=None)"
    assert repr(typed) == ("Literal(lexical='42', datatype=Iri(text="
                           "'http://www.w3.org/2001/XMLSchema#integer'), language=None)")
    assert repr(Triple(iri, iri, bnode)) == (
        "Triple(subject=Iri(text='http://ex/a'), predicate=Iri(text='http://ex/a'), "
        "object=BlankNode(label='b0'))")
    t = TRIPLES[3]
    assert (t.subject, t.predicate, t.object) == (BlankNode("b0"), Iri("http://ex/p"), typed)


def test_constructor_checks_raise_value_error():
    with pytest.raises(ValueError, match="non-empty"):
        Iri("")
    with pytest.raises(ValueError, match="both a datatype and a language"):
        Literal("x", datatype=XSD_INTEGER, language="en")


@pytest.mark.parametrize("cls", [Iri, BlankNode, Literal, Triple])
def test_hash_and_eq_are_tuples_own(cls):
    # a Python-level override would put every hash and comparison back in Python
    assert cls.__hash__ is tuple.__hash__
    assert cls.__eq__ is tuple.__eq__
    assert cls.__ne__ is tuple.__ne__


def test_no_instance_carries_a_dict():
    for value in [*TERMS, *TRIPLES]:
        assert not hasattr(value, "__dict__")


# texts over a few characters share prefixes often; the rest reach any
# code point, non-ASCII ones included
_TEXTS = st.one_of(st.text("a/é\u4e2d\U0001f600", min_size=1, max_size=6),
                   st.text(min_size=1, max_size=4))


@given(texts=st.lists(_TEXTS, max_size=12), pairs=st.lists(st.tuples(_TEXTS, _TEXTS), max_size=12))
def test_iris_sort_by_their_text_and_hold_no_other_kind(texts, pairs):
    iris = [Iri(text) for text in texts]
    assert sorted(iris) == sorted(iris, key=lambda iri: iri.text)
    iri_pairs = [(Iri(a), Iri(b)) for a, b in pairs]
    assert sorted(iri_pairs) == sorted(iri_pairs, key=lambda p: (p[0].text, p[1].text))
    members = frozenset(iris)
    for text in texts:
        assert Iri(text) in members
        for other in (BlankNode(text), Literal(text), Literal(text, datatype=Iri(text)),
                      Literal(text, language="en")):
            assert other not in members
