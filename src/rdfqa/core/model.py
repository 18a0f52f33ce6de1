"""Immutable RDF data model: terms, triples and datasets.

Terms are tagged tuples: an IRI is ``(0, text)``, a blank node ``(1, label)``
and a literal ``(2, lexical, datatype, language)``, and a triple is a named
tuple of three terms. So dedup, every index dict and every grouping key hash
and compare in C. The tag keeps the kinds apart: ``Iri("x")`` and
``BlankNode("x")`` differ. A term also compares equal to its plain tuple
(``Iri("x") == (0, "x")``); the named attributes are the public view.
So IRIs sort by their text, and a blank node or a literal is never a
member of a set of IRIs.

A dataset keeps its triples in document order and never contains exact
duplicates; both properties are load-bearing for deterministic reports and
byte-stable serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, Union

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

#: Namespaces treated as built-in vocabulary. IRIs under these prefixes are
#: never reported as declared classes or as instances.
BUILTIN_NAMESPACES: tuple[str, ...] = (RDF_NS, RDFS_NS, OWL_NS, XSD_NS)


class _Term(tuple):
    """A term: its kind's tag, then its fields."""

    __slots__ = ()

    def __getnewargs__(self):
        # pickle and copy rebuild a term from its fields, through __new__
        return self[1:]


class Iri(_Term):
    """An absolute IRI."""

    __slots__ = ()
    text = property(itemgetter(1))

    def __new__(cls, text: str):
        if not text:
            raise ValueError("IRI must be non-empty")
        return tuple.__new__(cls, (0, text))

    def __repr__(self):
        return f"Iri(text={self[1]!r})"


class BlankNode(_Term):
    __slots__ = ()
    label = property(itemgetter(1))

    def __new__(cls, label: str):
        return tuple.__new__(cls, (1, label))

    def __repr__(self):
        return f"BlankNode(label={self[1]!r})"


class Literal(_Term):
    """An RDF literal.

    At most one of ``datatype`` and ``language`` may be present; a literal
    with neither is a plain literal.
    """

    __slots__ = ()
    lexical = property(itemgetter(1))
    datatype = property(itemgetter(2))
    language = property(itemgetter(3))

    def __new__(cls, lexical: str, datatype: Iri | None = None, language: str | None = None):
        if datatype is not None and language is not None:
            raise ValueError("literal cannot carry both a datatype and a language tag")
        return tuple.__new__(cls, (2, lexical, datatype, language))

    def __repr__(self):
        return f"Literal(lexical={self[1]!r}, datatype={self[2]!r}, language={self[3]!r})"


Term = Union[Iri, BlankNode, Literal]
SubjectTerm = Union[Iri, BlankNode]


class Triple(NamedTuple):
    subject: SubjectTerm
    predicate: Iri
    object: Term


@dataclass(frozen=True)
class Dataset:
    """A parsed RDF document: a duplicate-free, ordered sequence of triples.

    ``by_predicate``, read by ``of()``, and ``objects`` are caches built on
    first use, not fields: ``==``, ``hash``, ``repr`` and
    ``dataclasses.replace`` ignore them.
    ``of()`` and the sizes of the ``by_predicate`` entries are what the index
    builders read; the contaminator's ``EditLog`` shares ``of()`` and keeps
    a ``by_predicate`` of its own.
    """

    id: str
    triples: tuple[Triple, ...]
    duplicate_count: int = 0

    @cached_property
    def by_predicate(self) -> dict[Iri, list[int]]:
        """Each used predicate's triple indices, in first-use order; read-only."""
        by_predicate: dict[Iri, list[int]] = {}
        for i, t in enumerate(self.triples):
            by_predicate.setdefault(t.predicate, []).append(i)
        return by_predicate

    @cached_property
    def objects(self) -> tuple[Term, ...]:
        """The object of every triple, in document order: one column that
        the metrics index by the triple indices of ``by_predicate``."""
        return tuple(map(itemgetter(2), self.triples))

    def of(self, predicates: Iterable[Iri]) -> list[Triple]:
        """The triples of ``predicates``, in document order."""
        triples = self.triples
        return [triples[i] for i in sorted(i for p in set(predicates)
                                           for i in self.by_predicate.get(p, ()))]


def make_dataset(dataset_id: str, triples: Sequence[Triple]) -> Dataset:
    """Build a Dataset, keeping the first of exact duplicates and counting the rest."""
    kept = tuple(dict.fromkeys(triples))
    return Dataset(id=dataset_id, triples=kept, duplicate_count=len(triples) - len(kept))


def is_builtin(iri: Iri) -> bool:
    return iri.text.startswith(BUILTIN_NAMESPACES)


# Vocabulary terms consumed by the indexer and the contaminator.
RDF_TYPE = Iri(RDF_NS + "type")
RDF_PROPERTY = Iri(RDF_NS + "Property")
RDF_FIRST = Iri(RDF_NS + "first")
RDF_REST = Iri(RDF_NS + "rest")
RDF_NIL = Iri(RDF_NS + "nil")
RDFS_CLASS = Iri(RDFS_NS + "Class")
RDFS_SUBCLASSOF = Iri(RDFS_NS + "subClassOf")
RDFS_DOMAIN = Iri(RDFS_NS + "domain")
RDFS_RANGE = Iri(RDFS_NS + "range")
OWL_CLASS = Iri(OWL_NS + "Class")
OWL_OBJECT_PROPERTY = Iri(OWL_NS + "ObjectProperty")
OWL_DATATYPE_PROPERTY = Iri(OWL_NS + "DatatypeProperty")
OWL_FUNCTIONAL_PROPERTY = Iri(OWL_NS + "FunctionalProperty")
OWL_INVERSE_FUNCTIONAL_PROPERTY = Iri(OWL_NS + "InverseFunctionalProperty")
OWL_DISJOINT_WITH = Iri(OWL_NS + "disjointWith")
OWL_COMPLEMENT_OF = Iri(OWL_NS + "complementOf")

XSD_STRING = Iri(XSD_NS + "string")
XSD_INTEGER = Iri(XSD_NS + "integer")
XSD_DECIMAL = Iri(XSD_NS + "decimal")
XSD_DOUBLE = Iri(XSD_NS + "double")
XSD_BOOLEAN = Iri(XSD_NS + "boolean")
XSD_DATE = Iri(XSD_NS + "date")
XSD_DATETIME = Iri(XSD_NS + "dateTime")
XSD_GYEAR = Iri(XSD_NS + "gYear")

#: rdf:type objects that declare a class, and those that declare a property.
CLASS_TYPES = frozenset({RDFS_CLASS, OWL_CLASS})
PROPERTY_TYPES = frozenset({
    RDF_PROPERTY, OWL_OBJECT_PROPERTY, OWL_DATATYPE_PROPERTY,
    OWL_FUNCTIONAL_PROPERTY, OWL_INVERSE_FUNCTIONAL_PROPERTY,
})
#: rdf:type objects that mark a triple as a class or property declaration.
DECLARATION_TYPES = CLASS_TYPES | PROPERTY_TYPES

#: Predicates whose triples belong to the schema rather than the instance data.
AXIOM_PREDICATES = frozenset({
    RDFS_SUBCLASSOF, RDFS_DOMAIN, RDFS_RANGE, OWL_DISJOINT_WITH, OWL_COMPLEMENT_OF,
})


def is_declaration_triple(t: Triple) -> bool:
    """True for schema-level triples (declarations and axioms)."""
    if t.predicate in AXIOM_PREDICATES:
        return True
    return t.predicate == RDF_TYPE and t.object in DECLARATION_TYPES
