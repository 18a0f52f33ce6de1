"""The ten dataset quality metrics and the assessment orchestrator.

Each metric is a pure function over the immutable dataset/index structures
and reports an undesirable-outcome ratio in [0, 1]: a numerator of offending
items, a denominator of total outcomes, and the first ``OFFENDER_CAP``
offenders (triple indices or IRIs). A zero denominator never raises; it
yields value 0 and a DegenerateDenominator flag on the report. IRIs under
``BUILTIN_NAMESPACES`` are never classes, instances or undefined terms.

The triple metrics read the dataset per predicate, through
``Dataset.by_predicate``, and read objects from ``Dataset.objects``, the
one object column the dataset builds once for every metric. M2, M4 and M9
take a predicate's objects from it by triple index, and M3 and M6 read it
whole. M2, M3, M4 and M9 decide their rule once per distinct value they
read, and flag with C-level iterators (``map``, ``compress``, set
membership), so no Python code runs per triple; ``_flagged`` merges the
flagged indices into document order. In detail:

- M2 decides once per distinct asserted class set (object properties) or
  lexical form (datatype properties), and skips a property whose verdict
  cannot vary: no class set misses its range, or ``checked_ranges`` (its
  lexical rule, which the contaminator reads too) leaves it out.
- M3's rule reads only the object, so it takes the whole object column.
  The literals it checks are found per distinct (datatype, language) pair,
  and ``token_flags``, the token kernel the contaminator shares, decides
  their tokens once per distinct token.
- M4 flags every triple of an undeclared predicate, and decides
  ``rdf:type`` once per distinct class.
- M9 decides once per distinct datatype of each property.

M6, M7 and M8 keep whole conflicting groups in first-seen order
(``_conflict_groups``). A group never spans two predicates, so each
predicate's triples are grouped on their own, by the subject (M6, M7) or
the object (M8). M6 groups only the predicates whose objects are of more
than one term type. M1, M5 and M10 read the indices and keep IRIs.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import chain, combinations, compress, repeat
from operator import attrgetter, itemgetter, not_
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .core.indexing import (
    InstanceIndex,
    PropertyKind,
    SchemaIndex,
    build_instance_index,
    build_schema_index,
)
from .core.model import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_STRING,
    Dataset,
    Iri,
    Literal,
    Term,
    Triple,
    is_builtin,
)
from . import __version__
from .fixtures import fixture_path

#: Offenders kept per metric in a report; the numerator counts all of them.
OFFENDER_CAP = 50


class MetricId(enum.StrEnum):
    """The ten metrics, keyed M1..M10 in reports, CSV columns and the CLI."""

    MISSING_VALUES = "M1"
    OUT_OF_RANGE = "M2"
    MISSPELLED_VALUES = "M3"
    UNDEFINED_TERMS = "M4"
    DISJOINT_MEMBERSHIP = "M5"
    INCONSISTENT_VALUES = "M6"
    FUNCTIONAL_CONFLICTS = "M7"
    INVERSE_FUNCTIONAL_CONFLICTS = "M8"
    IMPROPER_DATATYPE = "M9"
    SIMILAR_CLASSES = "M10"


ALL_METRICS: tuple[MetricId, ...] = tuple(MetricId)

_METRIC_BY_KEY = {m.value: m for m in MetricId}


def metric_id(key: str) -> MetricId:
    """Resolve 'M1'..'M10' (case-insensitive) to a MetricId."""
    m = _METRIC_BY_KEY.get(key.upper().strip())
    if m is None:
        raise ValueError(f"unknown metric id: {key!r}")
    return m


@dataclass(frozen=True)
class MetricValue:
    id: MetricId
    value: float
    numerator: int
    denominator: int
    clamped: bool = False
    #: sample of offending items: triple indices (int) or IRIs (str)
    offenders: tuple[int | str, ...] = ()

    @property
    def degenerate(self) -> bool:
        return self.denominator == 0


@dataclass(frozen=True)
class ReportCounts:
    triples: int
    instances: int
    classes: int
    properties: int


@dataclass(frozen=True)
class MetricReport:
    dataset_id: str
    counts: ReportCounts
    metrics: Mapping[MetricId, MetricValue]
    dictionary_id: str | None
    tool_version: str
    flags: tuple[str, ...]


# ---------------------------------------------------------------------------
# Dictionary


@dataclass(frozen=True)
class Dictionary:
    """A case-insensitive word list for the misspelling metric."""

    id: str
    words: frozenset[str]

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.words


def load_dictionary(path: str | Path, dictionary_id: str | None = None) -> Dictionary:
    """Load a word list: UTF-8, one word per line, '#' lines are comments.
    A leading byte order mark is dropped, as it is from a dataset."""
    path = Path(path)
    words = set()
    for line in path.read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        words.add(line.lower())
    return Dictionary(id=dictionary_id or path.stem, words=frozenset(words))


def default_dictionary() -> Dictionary:
    """The bundled English word list."""
    return load_dictionary(fixture_path("words.txt"), "builtin-en")


# tokens are maximal alphanumeric runs; digit-bearing tokens are exempt from
# spell checking, pure-alphabetic tokens of length >= 2 are checked
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _spellable_tags(datatype: Iri | None, language: str | None) -> bool:
    """Whether a literal with these tags is plain, English-tagged or xsd:string."""
    if datatype is not None and datatype != XSD_STRING:
        return False
    if language is None:
        return True
    lang = language.lower()
    return lang == "en" or lang.startswith("en-")


def checkable_mask(objects: Iterable[Term]) -> list[bool]:
    """Which of ``objects`` are spell-checkable literals (plain,
    English-tagged or xsd:string); decided once per distinct pair of tags,
    so no Python code runs per object."""
    # a literal's (datatype, language), and () for an IRI or blank node
    tags = list(map(itemgetter(slice(2, None)), objects))
    spellable = {tag for tag in set(tags) if tag and _spellable_tags(*tag)}
    return list(map(spellable.__contains__, tags))


def token_flags(texts: Iterable[str], dictionary: Dictionary) -> tuple[list[bool], list[bool]]:
    """For each of ``texts``: whether it holds a checked token that is not in
    ``dictionary``, and whether it holds a checked token at all.

    A checked token is alphabetic and of length >= 2. A digit (category Nd
    or No) is never alphabetic, so a token holding one is exempt. Each
    distinct token is decided once, so no Python code runs per text.
    """
    tokens = list(map(_TOKEN_RE.findall, texts))
    checked = {token for token in set(chain.from_iterable(tokens))
               if len(token) >= 2 and token.isalpha()}
    unknown = {token for token in checked if token.lower() not in dictionary.words}
    return (list(map(not_, map(unknown.isdisjoint, tokens))),
            list(map(not_, map(checked.isdisjoint, tokens))))


def has_unknown_token(text: str, dictionary: Dictionary) -> bool:
    return token_flags((text,), dictionary)[0][0]


# ---------------------------------------------------------------------------
# Lexical validity per XSD datatype (used by the out-of-range metric)


_DATE_RE = re.compile(
    r"(-?)([0-9]{4,})-([0-9]{2})-([0-9]{2})(?:Z|[+-](?:0[0-9]|1[0-4]):[0-5][0-9])?\Z")
_DATETIME_RE = re.compile(
    r"(-?)([0-9]{4,})-([0-9]{2})-([0-9]{2})"
    r"T([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.[0-9]+)?"
    r"(?:Z|[+-](?:0[0-9]|1[0-4]):[0-5][0-9])?\Z")

_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _ymd_ok(year: str, month: str, day: str) -> bool:
    m, d = int(month), int(day)
    if not 1 <= m <= 12:
        return False
    # the leap rule reads the year mod 400, and 10000 is 0 mod 400, so the
    # last four digits decide it for a year of any length
    y = int(year[-4:])
    leap = y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)
    limit = 29 if (m == 2 and leap) else _MONTH_DAYS[m - 1]
    return 1 <= d <= limit


def _valid_date(lexical: str) -> bool:
    m = _DATE_RE.match(lexical)
    return bool(m) and _ymd_ok(m.group(2), m.group(3), m.group(4))


def _valid_datetime(lexical: str) -> bool:
    m = _DATETIME_RE.match(lexical)
    if not m or not _ymd_ok(m.group(2), m.group(3), m.group(4)):
        return False
    return int(m.group(5)) <= 23 and int(m.group(6)) <= 59 and int(m.group(7)) <= 59


#: A truthy result for a valid lexical form, per datatype whose lexical forms
#: are checked, in the order ``checked_ranges`` lists a property's ranges.
#: xsd:string is absent: every lexical form is valid for it. Only xsd:date
#: and xsd:dateTime need Python past the pattern.
LEXICAL_CHECKS: dict[Iri, Callable[[str], object]] = {
    XSD_INTEGER: re.compile(r"[+-]?[0-9]+\Z").match,
    XSD_DECIMAL: re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)\Z").match,
    XSD_DOUBLE: re.compile(
        r"(?:[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[+-]?INF|NaN)\Z").match,
    XSD_BOOLEAN: re.compile(r"(?:true|false|1|0)\Z").match,
    XSD_DATE: _valid_date,
    XSD_DATETIME: _valid_datetime,
    XSD_GYEAR: re.compile(r"-?[0-9]{4,}(?:Z|[+-](?:0[0-9]|1[0-4]):[0-5][0-9])?\Z").match,
}


def checked_ranges(schema: SchemaIndex) -> dict[Iri, list[Iri]]:
    """M2's lexical rule: each datatype property whose lexical forms M2
    checks, mapped to the ranges it checks them against, in
    ``LEXICAL_CHECKS`` order. A property with an xsd:string range is absent,
    since every lexical form is valid for it."""
    return {p: checked for p, ranges in schema.xsd_ranges.items() if XSD_STRING not in ranges
            and (checked := [r for r in LEXICAL_CHECKS if r in ranges])}


# ---------------------------------------------------------------------------
# Metric implementations


def _ratio_value(mid: MetricId, num: int, den: int,
                 offenders: Sequence[int | str]) -> MetricValue:
    value = num / den if den > 0 else 0.0
    return MetricValue(id=mid, value=min(value, 1.0), numerator=num, denominator=den,
                       clamped=value > 1.0, offenders=tuple(offenders[:OFFENDER_CAP]))


def _objects(dataset: Dataset, indices: Iterable[int]) -> list[Term]:
    """The objects of the triples at ``indices``, in their order."""
    return list(map(dataset.objects.__getitem__, indices))


def _literal_objects(dataset: Dataset, indices: list[int]) -> tuple[list[int], list[Literal]]:
    """Those of ``indices`` whose triple's object is a literal, and the literals."""
    objects = _objects(dataset, indices)
    is_literal = list(map(isinstance, objects, repeat(Literal)))
    return list(compress(indices, is_literal)), list(compress(objects, is_literal))


def _flagged(mid: MetricId, dataset: Dataset, flagged: list[int]) -> MetricValue:
    """The flagged triple indices, merged into document order, over all triples."""
    flagged.sort()
    return _ratio_value(mid, len(flagged), len(dataset.triples), flagged)


def _conflict_groups(mid: MetricId, dataset: Dataset, predicates: Iterable[Iri],
                     key: Callable[[Triple], object],
                     excess: Callable[[list[Triple]], int]) -> MetricValue:
    """Group the triples of each of ``predicates`` by ``key``; each group of
    two or more adds ``excess(group)`` conflicts, over all triples. Every
    triple of a conflicting group is an offender, in first-seen group order."""
    triples = dataset.triples
    num = 0
    conflicting = []
    for p in set(predicates):
        groups: dict[object, list[int]] = {}
        for i in dataset.by_predicate.get(p, ()):
            groups.setdefault(key(triples[i]), []).append(i)
        for group in groups.values():
            if len(group) > 1:
                k = excess([triples[i] for i in group])
                if k:
                    num += k
                    conflicting.append(group)
    # a group's indices ascend, so its first one is where it was first seen
    conflicting.sort(key=itemgetter(0))
    offenders = [i for group in conflicting for i in group]
    return _ratio_value(mid, num, len(triples), offenders)


def m1_missing_property_values(schema: SchemaIndex, instances: InstanceIndex) -> MetricValue:
    """1 - (usage of declared properties) / (|Cls| * |Prp|), floored at 0.

    Offenders are declared properties that are never used as a predicate.
    """
    usage = sum(instances.predicate_counts.get(p, 0) for p in schema.properties)
    den = len(schema.classes) * len(schema.properties)
    offenders = [p.text for p in schema.properties if not instances.predicate_counts.get(p)]
    value = 1.0 - usage / den if den else 0.0
    clamped = value < 0.0
    return MetricValue(MetricId.MISSING_VALUES, 0.0 if clamped else value,
                       usage, den, clamped=clamped,
                       offenders=tuple(offenders[:OFFENDER_CAP]))


def m2_out_of_range_values(dataset: Dataset, schema: SchemaIndex,
                           instances: InstanceIndex) -> MetricValue:
    """Triples whose object falls outside the predicate's declared range.

    Object properties: the object must carry at least one asserted class that
    is, or transitively specializes, a declared class range. Datatype
    properties that ``checked_ranges`` lists: the literal's lexical form
    must be valid for one of the ranges it lists.
    """
    class_ranges = {p: frozenset(r for r in schema.range_of.get(p, ()) if r in schema.classes)
                    for p, kind in schema.properties.items() if kind is PropertyKind.OBJECT}
    classes_of, by_predicate = instances.classes_of, dataset.by_predicate
    # each distinct asserted class set with all their superclasses: a set is
    # in range when its lift meets a class range; only IRIs have one
    lifted = {s: s.union(*map(schema.ancestors, s)) for s in set(classes_of.values())}
    flagged: list[int] = []
    for p, ranges in class_ranges.items():
        out = {asserted for asserted, lift in lifted.items() if lift.isdisjoint(ranges)}
        if ranges and out and (idx := by_predicate.get(p)):
            flagged += compress(idx, map(out.__contains__,
                                         map(classes_of.get, _objects(dataset, idx))))
    for p, ranges in checked_ranges(schema).items():
        if not (idx := by_predicate.get(p)):
            continue
        idx, literals = _literal_objects(dataset, idx)
        lexicals = list(map(itemgetter(1), literals))
        invalid = list(set(lexicals))
        for r in ranges:
            invalid = list(compress(invalid, map(not_, map(LEXICAL_CHECKS[r], invalid))))
        if invalid:
            flagged += compress(idx, map(set(invalid).__contains__, lexicals))
    return _flagged(MetricId.OUT_OF_RANGE, dataset, flagged)


def m3_misspelled_values(dataset: Dataset, dictionary: Dictionary) -> MetricValue:
    """Triples whose checkable literal object carries a token not in the dictionary.

    The rule reads only the object, so the whole object column is read.
    """
    objects = dataset.objects
    checkable = checkable_mask(objects)
    unknown, _ = token_flags(map(itemgetter(1), compress(objects, checkable)), dictionary)
    flagged = list(compress(compress(range(len(objects)), checkable), unknown))
    return _flagged(MetricId.MISSPELLED_VALUES, dataset, flagged)


def m4_undefined_terms(dataset: Dataset, schema: SchemaIndex) -> MetricValue:
    """Usage of classes (as rdf:type objects) or properties never declared.

    Every triple of an undeclared, non-builtin predicate is flagged.
    """
    flagged: list[int] = []
    for p, idx in dataset.by_predicate.items():
        if p == RDF_TYPE:
            objects = _objects(dataset, idx)
            undefined = {o for o in set(objects) if isinstance(o, Iri)
                         and not is_builtin(o) and o not in schema.classes}
            flagged += compress(idx, map(undefined.__contains__, objects))
        elif not is_builtin(p) and p not in schema.properties:
            flagged += idx
    return _flagged(MetricId.UNDEFINED_TERMS, dataset, flagged)


def m5_disjoint_membership(schema: SchemaIndex, instances: InstanceIndex) -> MetricValue:
    """Instances asserted into two disjoint classes.

    Two classes are disjoint when ``SchemaIndex.disjoint`` says so: declared
    disjoint, or under two classes that are. Each instance counts once no
    matter how many disjoint pairs it violates, and each distinct set of
    asserted classes is decided once.
    """
    # an instance of a single class cannot violate a disjoint pair
    flagged = {classes for classes in set(instances.classes_of.values()) if len(classes) > 1
               and any(schema.disjoint(a, b) for a, b in combinations(classes, 2))}
    offenders = sorted(i.text for i, classes in instances.classes_of.items()
                       if classes in flagged)
    return _ratio_value(MetricId.DISJOINT_MEMBERSHIP, len(offenders),
                        len(instances.classes_of), offenders)


def _term_type_key(term):
    """IRI, blank node, or literal of one datatype (None when untagged)."""
    return type(term), term.datatype if isinstance(term, Literal) else None


def _one_type_key(dataset: Dataset, indices: list[int], types: list[type]) -> bool:
    """Whether the objects of the triples at ``indices`` share one
    ``_term_type_key``; ``types`` holds the type of every triple's object."""
    kinds = set(map(types.__getitem__, indices))
    return len(kinds) == 1 and (Literal not in kinds
                                or len(set(map(itemgetter(2), _objects(dataset, indices)))) == 1)


def m6_inconsistent_values(dataset: Dataset) -> MetricValue:
    """Same subject and predicate, objects of conflicting term types.

    Objects conflict when their term types differ (IRI vs literal, or
    differing literal datatypes); a conflicting pair contributes exactly 1.
    Reads every predicate except rdf:type, and groups only those whose
    objects have two or more type keys. With two or more type keys in a
    group, every object conflicts with at least one other, so all of them
    participate.
    """
    # one pass over the object column; reading the types predicate by
    # predicate would stride through the whole dataset once per predicate
    types = list(map(type, dataset.objects))
    return _conflict_groups(
        MetricId.INCONSISTENT_VALUES, dataset,
        [p for p, idx in dataset.by_predicate.items()
         if p != RDF_TYPE and not _one_type_key(dataset, idx, types)],
        key=attrgetter("subject"),
        excess=lambda group: (len(group) - 1
                              if len({_term_type_key(t.object) for t in group}) > 1 else 0))


def m7_functional_conflicts(dataset: Dataset, schema: SchemaIndex) -> MetricValue:
    """Functional properties holding several distinct values for one subject."""
    return _conflict_groups(
        MetricId.FUNCTIONAL_CONFLICTS, dataset, schema.functional,
        key=attrgetter("subject"),
        excess=lambda group: len({t.object for t in group}) - 1)


def m8_inverse_functional_conflicts(dataset: Dataset, schema: SchemaIndex) -> MetricValue:
    """Inverse-functional properties sharing one value across subjects.

    Empty-string literal objects form a single shared group per property (the
    void-value pathology), whatever their datatype or language tag.
    """
    return _conflict_groups(
        MetricId.INVERSE_FUNCTIONAL_CONFLICTS, dataset, schema.inverse_functional,
        key=lambda t: ("" if isinstance(t.object, Literal) and t.object.lexical == ""
                       else t.object),
        excess=lambda group: len({t.subject for t in group}) - 1)


def improper_tag(datatype: Iri | None, ranges: frozenset[Iri]) -> bool:
    """The improper-datatype rule: a literal's datatype tag, xsd:string when
    untagged, is not among its predicate's XSD ``ranges``."""
    return (XSD_STRING if datatype is None else datatype) not in ranges


def m9_improper_datatype(dataset: Dataset, schema: SchemaIndex) -> MetricValue:
    """Literal datatype tags that differ from the declared datatype range.

    Unlike the out-of-range metric this compares the annotation, not the
    lexical value. Untyped (plain or language-tagged) literals are flagged
    only when the declared range is not xsd:string.
    """
    flagged: list[int] = []
    for p, ranges in schema.xsd_ranges.items():
        if idx := dataset.by_predicate.get(p):
            # an IRI or blank node object is never flagged
            idx, literals = _literal_objects(dataset, idx)
            datatypes = list(map(itemgetter(2), literals))
            improper = {d for d in set(datatypes) if improper_tag(d, ranges)}
            if improper:
                flagged += compress(idx, map(improper.__contains__, datatypes))
    return _flagged(MetricId.IMPROPER_DATATYPE, dataset, flagged)


def m10_similar_classes(schema: SchemaIndex, instances: InstanceIndex) -> MetricValue:
    """Distinct, non-subclass-related classes over identical instance sets.

    Both members of a similar pair count; classes without instances never do.
    """
    by_members: dict[frozenset[Iri], list[Iri]] = {}
    for cls in sorted(schema.classes):
        members = instances.members_of.get(cls)
        if members:
            by_members.setdefault(members, []).append(cls)
    offenders = []
    for cohort in by_members.values():
        for cls in cohort:
            if any(other != cls
                   and not schema.is_transitive_subclass(cls, other)
                   and not schema.is_transitive_subclass(other, cls)
                   for other in cohort):
                offenders.append(cls.text)
    return _ratio_value(MetricId.SIMILAR_CLASSES, len(offenders),
                        len(schema.classes), offenders)


# ---------------------------------------------------------------------------
# Orchestration


def assess(dataset: Dataset, dictionary: Dictionary,
           selection: Iterable[MetricId] | None = None) -> MetricReport:
    """Index the dataset once and evaluate the selected metrics (default: all).

    M3 checks tokens against ``dictionary``; an empty one is flagged.
    Metric-level degeneracies become report flags, never errors; two
    assessments of the same bytes produce identical reports.
    """
    selected = tuple(selection) if selection is not None else ALL_METRICS
    schema = build_schema_index(dataset)
    instances = build_instance_index(dataset)

    evaluators = {
        MetricId.MISSING_VALUES: lambda: m1_missing_property_values(schema, instances),
        MetricId.OUT_OF_RANGE: lambda: m2_out_of_range_values(dataset, schema, instances),
        MetricId.MISSPELLED_VALUES: lambda: m3_misspelled_values(dataset, dictionary),
        MetricId.UNDEFINED_TERMS: lambda: m4_undefined_terms(dataset, schema),
        MetricId.DISJOINT_MEMBERSHIP: lambda: m5_disjoint_membership(schema, instances),
        MetricId.INCONSISTENT_VALUES: lambda: m6_inconsistent_values(dataset),
        MetricId.FUNCTIONAL_CONFLICTS: lambda: m7_functional_conflicts(dataset, schema),
        MetricId.INVERSE_FUNCTIONAL_CONFLICTS: lambda: m8_inverse_functional_conflicts(dataset, schema),
        MetricId.IMPROPER_DATATYPE: lambda: m9_improper_datatype(dataset, schema),
        MetricId.SIMILAR_CLASSES: lambda: m10_similar_classes(schema, instances),
    }

    flags = []
    if dataset.duplicate_count:
        flags.append(f"DuplicateTriplesDropped: {dataset.duplicate_count}")
    if MetricId.MISSPELLED_VALUES in selected and not dictionary.words:
        flags.append("EmptyDictionary: every checkable token will be flagged")

    metrics: dict[MetricId, MetricValue] = {}
    for mid in ALL_METRICS:
        if mid in selected:
            mv = evaluators[mid]()
            metrics[mid] = mv
            if mv.degenerate:
                flags.append(f"DegenerateDenominator: {mid.value}")

    return MetricReport(
        dataset_id=dataset.id,
        counts=ReportCounts(
            triples=len(dataset.triples),
            instances=len(instances.classes_of),
            classes=len(schema.classes),
            properties=len(schema.properties),
        ),
        metrics=metrics,
        dictionary_id=dictionary.id if MetricId.MISSPELLED_VALUES in selected else None,
        tool_version=__version__,
        flags=tuple(flags),
    )
