"""Schema and instance indices over a parsed dataset.

The schema index holds what the document *declares* (classes, properties and
their kinds, domain/range axioms, functional/inverse-functional markers, the
declared disjoint pairs; ``SchemaIndex.disjoint`` derives the rest). The
instance index holds what the document *uses* (instance/class memberships and
per-predicate triple counts). Keeping declaration and usage apart is what lets
the undefined-terms metric compare the two. Both builders read only their own
predicates through ``of()``, and ``predicate_counts`` is read off the same
by-predicate view. A ``Dataset`` and the contaminator's ``EditLog`` answer
both reads alike, so an index of the log equals one of its current triples.
Subclass links are kept as declared and walked for each class asked about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from .model import (
    CLASS_TYPES,
    OWL_COMPLEMENT_OF,
    OWL_DATATYPE_PROPERTY,
    OWL_DISJOINT_WITH,
    OWL_FUNCTIONAL_PROPERTY,
    OWL_INVERSE_FUNCTIONAL_PROPERTY,
    OWL_OBJECT_PROPERTY,
    PROPERTY_TYPES,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    XSD_NS,
    Iri,
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
    declared, in ``disjoint_with``, and ``disjoint`` derives the rest. IRIs
    under ``BUILTIN_NAMESPACES`` never enter ``classes``.
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
    classes: set[Iri] = set()
    prop_types: dict[Iri, set[Iri]] = {}
    range_of: dict[Iri, set[Iri]] = {}
    disjoint_with: dict[Iri, set[Iri]] = {}
    subclass_of: dict[Iri, set[Iri]] = {}
    # first-mention document order, so downstream iteration is deterministic
    prop_order: dict[Iri, None] = {}

    def note_class(term):
        if isinstance(term, Iri) and not is_builtin(term):
            classes.add(term)

    for t in store.of((RDF_TYPE, RDFS_SUBCLASSOF, OWL_DISJOINT_WITH, OWL_COMPLEMENT_OF,
                       RDFS_DOMAIN, RDFS_RANGE)):
        p = t.predicate
        if p == RDF_TYPE:
            if not isinstance(t.subject, Iri) or not isinstance(t.object, Iri):
                continue
            if t.object in CLASS_TYPES:
                note_class(t.subject)
            elif t.object in PROPERTY_TYPES:
                prop_types.setdefault(t.subject, set()).add(t.object)
                prop_order.setdefault(t.subject)
        elif p == RDFS_SUBCLASSOF:
            if isinstance(t.subject, Iri) and isinstance(t.object, Iri):
                note_class(t.subject)
                subclass_of.setdefault(t.subject, set()).add(t.object)
        elif p == OWL_DISJOINT_WITH or p == OWL_COMPLEMENT_OF:
            if isinstance(t.subject, Iri) and isinstance(t.object, Iri):
                note_class(t.subject)
                if t.subject != t.object:
                    disjoint_with.setdefault(t.subject, set()).add(t.object)
                    disjoint_with.setdefault(t.object, set()).add(t.subject)
        elif p == RDFS_DOMAIN:
            if isinstance(t.subject, Iri):
                prop_order.setdefault(t.subject)
                note_class(t.object)
        elif p == RDFS_RANGE:
            if isinstance(t.subject, Iri):
                range_of.setdefault(t.subject, set())
                prop_order.setdefault(t.subject)
                if isinstance(t.object, Iri):
                    range_of[t.subject].add(t.object)
                    if not t.object.text.startswith(XSD_NS):
                        note_class(t.object)

    properties: dict[Iri, PropertyKind] = {}
    xsd_ranges: dict[Iri, frozenset[Iri]] = {}
    for prop in prop_order:
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
        classes=frozenset(classes),
        properties=properties,
        range_of={p: frozenset(v) for p, v in range_of.items()},
        xsd_ranges=xsd_ranges,
        functional=functional,
        inverse_functional=inverse_functional,
        disjoint_with={c: frozenset(v) for c, v in disjoint_with.items()},
        parents={c: frozenset(v) for c, v in subclass_of.items()},
    )


def build_instance_index(store) -> InstanceIndex:
    """Collect the instance memberships and per-predicate triple counts of
    ``store``, a ``Dataset`` or an ``EditLog``.

    Membership requires an IRI subject and a non-builtin IRI class; blank
    nodes are never instances.
    """
    classes_of: dict[Iri, set[Iri]] = {}
    members_of: dict[Iri, set[Iri]] = {}
    for t in store.of((RDF_TYPE,)):
        if isinstance(t.object, Iri) and isinstance(t.subject, Iri) and not is_builtin(t.object):
            classes_of.setdefault(t.subject, set()).add(t.object)
            members_of.setdefault(t.object, set()).add(t.subject)

    return InstanceIndex(
        classes_of={i: frozenset(v) for i, v in classes_of.items()},
        members_of={c: frozenset(v) for c, v in members_of.items()},
        # a log keeps the entry of a predicate whose triples were all removed
        predicate_counts={p: len(ix) for p, ix in store.by_predicate.items() if ix},
    )
