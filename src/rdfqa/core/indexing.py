"""Schema and instance indices over a parsed dataset.

The schema index holds what the document *declares* (classes, properties and
their kinds, domain/range axioms, functional/inverse-functional markers, the
declared disjoint pairs; ``SchemaIndex.disjoint`` derives the rest), and in
``declared_by`` the triples that declare each term in each role, so the
contaminator's H7 removes declarations by the same rule. The instance index
holds what the document *uses* (instance/class memberships and per-predicate
triple counts); it decides once per distinct ``rdf:type`` object whether it
is a class, and keeps each equal class set once. Keeping declaration and
usage apart is what lets the undefined-terms metric compare the two. The
schema builder reads only the declaration triples (``declarations()``), the
instance builder only the ``rdf:type`` triples (``of()``), and
``predicate_counts`` is read off the same by-predicate view. A ``Dataset``
and the contaminator's ``EditLog`` answer these reads alike, so an index of
the log equals one of its current triples.
Subclass links are kept as declared and walked for each class asked about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Mapping

from .model import (
    CLASS_TYPES,
    OWL_DATATYPE_PROPERTY,
    OWL_FUNCTIONAL_PROPERTY,
    OWL_INVERSE_FUNCTIONAL_PROPERTY,
    OWL_OBJECT_PROPERTY,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    XSD_NS,
    Iri,
    Triple,
    is_builtin,
)


class PropertyKind(enum.Enum):
    OBJECT = "object"
    DATATYPE = "datatype"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SchemaIndex:
    """Declared vocabulary of a dataset. Treat all fields as immutable.

    Subclass links are kept as declared, in ``parents``, and ``ancestors``
    walks them for each class that is asked about; disjointness only as
    declared, in ``disjoint_with``, and ``disjoint`` derives the rest.

    ``declared_by`` is the one record of what declares what: it maps
    ``("class", term)`` and ``("property", term)``, in first-mention order,
    to the triples that declare ``term`` in that role, in document order;
    ``classes`` and the order of ``properties`` are its keys. Only a triple
    with an IRI subject declares, and IRIs under ``BUILTIN_NAMESPACES`` are
    never classes.
    """

    classes: frozenset[Iri]
    properties: Mapping[Iri, PropertyKind]
    range_of: Mapping[Iri, frozenset[Iri]]
    #: the XSD-namespace ranges of each datatype-kind property that has some
    xsd_ranges: Mapping[Iri, frozenset[Iri]]
    functional: frozenset[Iri]
    inverse_functional: frozenset[Iri]
    #: per class, its ``owl:disjointWith``/``owl:complementOf`` partners, both ways
    disjoint_with: Mapping[Iri, frozenset[Iri]]
    #: declared superclasses per subclass subject
    parents: Mapping[Iri, frozenset[Iri]]
    declared_by: Mapping[tuple[str, Iri], list[Triple]]
    _ancestors: dict[Iri, frozenset[Iri]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def ancestors(self, cls: Iri) -> frozenset[Iri]:
        """The transitive superclasses of ``cls``, walked on its first ask; with
        ``cls`` itself when the declared hierarchy is cyclic."""
        if (known := self._ancestors.get(cls)) is None:
            parents, seen = self.parents, set()
            stack = list(parents.get(cls, ()))
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(parents.get(node, ()))
            known = self._ancestors[cls] = frozenset(seen)
        return known

    def is_transitive_subclass(self, child: Iri, parent: Iri) -> bool:
        return parent in self.ancestors(child)

    def disjoint(self, a: Iri, b: Iri) -> bool:
        """Whether ``a != b`` and some class among ``a`` and its ancestors is
        declared disjoint with some class among ``b`` and its ancestors."""
        if a == b:
            return False
        declared, up_a = self.disjoint_with, self.ancestors(a)
        if len(up_a) > len(declared):  # visit only the declared ancestors
            up_a = up_a.intersection(declared)
        up_b = self.ancestors(b)
        for x in (a, *up_a):
            partners = declared.get(x)
            if partners and (b in partners or not partners.isdisjoint(up_b)):
                return True
        return False


@dataclass(frozen=True)
class InstanceIndex:
    """Usage-side view of a dataset. Treat all fields as immutable.

    An instance is an IRI subject of an ``rdf:type`` triple whose object is
    an IRI outside ``BUILTIN_NAMESPACES``; ``classes_of`` and ``members_of``
    are the two directions of that membership (the instances are the keys of
    ``classes_of``).
    """

    classes_of: Mapping[Iri, frozenset[Iri]]
    members_of: Mapping[Iri, frozenset[Iri]]
    #: number of triples per predicate, covering every triple
    predicate_counts: Mapping[Iri, int]


def build_schema_index(store) -> SchemaIndex:
    """Collect the declared classes, properties and axioms of ``store``, a
    ``Dataset`` or an ``EditLog``.

    An empty or schema-free dataset yields an empty index.
    """
    # first-mention document order, so downstream iteration is deterministic
    declared_by: dict[tuple[str, Iri], list[Triple]] = {}
    prop_types: dict[Iri, set[Iri]] = {}
    range_of: dict[Iri, set[Iri]] = {}
    disjoint_with: dict[Iri, set[Iri]] = {}
    subclass_of: dict[Iri, set[Iri]] = {}

    def declare(role, term, t):
        # an IRI under BUILTIN_NAMESPACES never becomes a declared class
        if role == "property" or not is_builtin(term):
            declared_by.setdefault((role, term), []).append(t)

    for t in map(store.triples.__getitem__, store.declarations()):
        s, p, o = t
        if not isinstance(s, Iri):
            continue
        if p == RDF_TYPE:  # its object is a class or a property type
            if o in CLASS_TYPES:
                declare("class", s, t)
            else:
                prop_types.setdefault(s, set()).add(o)
                declare("property", s, t)
        elif p == RDFS_DOMAIN:
            declare("property", s, t)
            if isinstance(o, Iri):
                declare("class", o, t)
        elif p == RDFS_RANGE:
            declare("property", s, t)
            ranges = range_of.setdefault(s, set())
            if isinstance(o, Iri):
                ranges.add(o)
                declare("class", o, t)
        elif isinstance(o, Iri):
            declare("class", s, t)
            if p == RDFS_SUBCLASSOF:
                subclass_of.setdefault(s, set()).add(o)
            elif s != o:  # the rest: owl:disjointWith and owl:complementOf
                disjoint_with.setdefault(s, set()).add(o)
                disjoint_with.setdefault(o, set()).add(s)

    classes = frozenset(term for role, term in declared_by if role == "class")
    properties: dict[Iri, PropertyKind] = {}
    xsd_ranges: dict[Iri, frozenset[Iri]] = {}
    for prop in (term for role, term in declared_by if role == "property"):
        types = prop_types.get(prop, frozenset())
        ranges = range_of.get(prop, set())
        xsd = frozenset(r for r in ranges if r.text.startswith(XSD_NS))
        if OWL_DATATYPE_PROPERTY in types:
            kind = PropertyKind.DATATYPE
        elif OWL_OBJECT_PROPERTY in types:
            kind = PropertyKind.OBJECT
        elif xsd:
            kind = PropertyKind.DATATYPE
        elif any(r in classes for r in ranges):
            kind = PropertyKind.OBJECT
        else:
            kind = PropertyKind.UNKNOWN
        properties[prop] = kind
        if kind is PropertyKind.DATATYPE and xsd:
            xsd_ranges[prop] = xsd

    functional = frozenset(p for p, types in prop_types.items()
                           if OWL_FUNCTIONAL_PROPERTY in types)
    inverse_functional = frozenset(p for p, types in prop_types.items()
                                   if OWL_INVERSE_FUNCTIONAL_PROPERTY in types)

    return SchemaIndex(
        classes=classes,
        properties=properties,
        range_of={p: frozenset(v) for p, v in range_of.items()},
        xsd_ranges=xsd_ranges,
        functional=functional,
        inverse_functional=inverse_functional,
        disjoint_with={c: frozenset(v) for c, v in disjoint_with.items()},
        parents={c: frozenset(v) for c, v in subclass_of.items()},
        declared_by=declared_by,
    )


def instance_memberships(store) -> tuple[dict[Iri, frozenset[Iri]], dict[Iri, frozenset[Iri]]]:
    """The ``classes_of`` and ``members_of`` of ``store``, a ``Dataset`` or an
    ``EditLog``, read from its ``rdf:type`` triples alone.

    Whether an object is a class is decided once per distinct object, and
    equal sets are kept once: most instances share their class set with
    many others.
    """
    typed = store.of((RDF_TYPE,))
    objects = list(map(itemgetter(2), typed))
    classes = {o for o in set(objects) if isinstance(o, Iri) and not is_builtin(o)}
    classes_of: dict[Iri, set[Iri]] = {}
    members_of: dict[Iri, set[Iri]] = {}
    for s, _, o in compress(typed, map(classes.__contains__, objects)):
        if isinstance(s, Iri):
            classes_of.setdefault(s, set()).add(o)
            members_of.setdefault(o, set()).add(s)

    interned: dict[frozenset[Iri], frozenset[Iri]] = {}
    for groups in (classes_of, members_of):
        for key, values in groups.items():  # in place: each set is freed as it goes
            values = frozenset(values)
            groups[key] = interned.setdefault(values, values)
    return classes_of, members_of


def build_instance_index(store) -> InstanceIndex:
    """Collect the instance memberships and per-predicate triple counts of
    ``store``, a ``Dataset`` or an ``EditLog``.

    Membership requires an IRI subject and a non-builtin IRI class; blank
    nodes are never instances.
    """
    classes_of, members_of = instance_memberships(store)
    return InstanceIndex(
        classes_of=classes_of,
        members_of=members_of,
        # a log keeps the entry of a predicate whose triples were all removed
        predicate_counts={p: len(ix) for p, ix in store.by_predicate.items() if ix},
    )
