"""The ten dataset quality metrics and the assessment orchestrator.

Each metric is a pure function over the immutable dataset/index structures
and reports an undesirable-outcome ratio in [0, 1]: a numerator of offending
items, a denominator of total outcomes, and the first ``OFFENDER_CAP``
offenders (triple indices or IRIs). A zero denominator never raises; it
yields value 0 and a DegenerateDenominator flag on the report. IRIs under
``BUILTIN_NAMESPACES`` are never classes, instances or undefined terms.

The seven triple metrics read the dataset through one by-predicate view
and share two scan shapes: ``_flagged`` keeps the flagged triples of
``Dataset.of(predicates)`` in document order (M2, M3, M4, M9), and
``_conflict_groups`` keeps whole conflicting groups in first-seen order
(M6, M7, M8). A conflict group never spans two predicates, so it groups
each predicate's triples on their own, by the subject (M6, M7) or the
object (M8). Each reads only its own predicates: M2 the properties with
class or checkable datatype ranges, M4 ``rdf:type`` and the used
predicates that are neither builtin nor declared, M6 all but ``rdf:type``,
M7 the functional and M8 the inverse-functional properties, M9 the
properties with XSD ranges. M3's rule reads only the object, so it visits
every triple. M1, M5 and M10 read the indices and keep IRIs.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter, itemgetter
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
    Triple,
    is_builtin,
)
from . import __version__
from .fixtures import fixture_path

#: Offenders kept per metric in a report; the numerator counts all of them.
OFFENDER_CAP = 50


class MetricId(str, enum.Enum):
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

    def __str__(self):
        return self.value


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
    """Load a word list: UTF-8, one word per line, '#' lines are comments."""
    path = Path(path)
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
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


def checkable_text(term) -> str | None:
    """Text of a spell-checkable literal (plain, English-tagged or xsd:string)."""
    if not isinstance(term, Literal):
        return None
    if term.datatype is not None and term.datatype != XSD_STRING:
        return None
    if term.language is not None:
        lang = term.language.lower()
        if lang != "en" and not lang.startswith("en-"):
            return None
    return term.lexical


def alpha_tokens(text: str):
    """Spell-checkable tokens: alphabetic, length >= 2, no digits."""
    for token in _TOKEN_RE.findall(text):
        if any(c.isdigit() for c in token):
            continue
        if len(token) >= 2 and token.isalpha():
            yield token


def has_unknown_token(text: str, dictionary: Dictionary) -> bool:
    return any(token.lower() not in dictionary.words for token in alpha_tokens(text))


# ---------------------------------------------------------------------------
# Lexical validity per XSD datatype (used by the out-of-range metric)


_LEXICAL_RES = {
    XSD_INTEGER: re.compile(r"[+-]?[0-9]+\Z"),
    XSD_DECIMAL: re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)\Z"),
    XSD_DOUBLE: re.compile(
        r"(?:[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[+-]?INF|NaN)\Z"),
    XSD_BOOLEAN: re.compile(r"(?:true|false|1|0)\Z"),
    XSD_GYEAR: re.compile(r"-?[0-9]{4,}(?:Z|[+-](?:0[0-9]|1[0-4]):[0-5][0-9])?\Z"),
}

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


def lexical_valid(lexical: str, datatype: Iri) -> bool | None:
    """True/False for the checkable XSD datatypes, None for unknown ones."""
    if datatype == XSD_STRING:
        return True
    if datatype == XSD_DATE:
        return _valid_date(lexical)
    if datatype == XSD_DATETIME:
        return _valid_datetime(lexical)
    pattern = _LEXICAL_RES.get(datatype)
    if pattern is None:
        return None
    return pattern.match(lexical) is not None


#: Datatypes whose lexical forms are checked, in the order the contaminator
#: picks a target from a property's declared ranges; xsd:string comes last
#: because every lexical form is valid for it.
CHECKABLE_DATATYPES: tuple[Iri, ...] = (
    XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_BOOLEAN,
    XSD_DATE, XSD_DATETIME, XSD_GYEAR, XSD_STRING,
)


# ---------------------------------------------------------------------------
# Metric implementations


def _ratio_value(mid: MetricId, num: int, den: int,
                 offenders: Sequence[int | str]) -> MetricValue:
    value = num / den if den > 0 else 0.0
    return MetricValue(id=mid, value=min(value, 1.0), numerator=num, denominator=den,
                       clamped=value > 1.0, offenders=tuple(offenders[:OFFENDER_CAP]))


def _flagged(mid: MetricId, dataset: Dataset, indices: Iterable[int],
             flags: Callable[[Triple], bool]) -> MetricValue:
    """The visited triples that ``flags``, in document order, over all triples."""
    triples = dataset.triples
    flagged = [i for i in indices if flags(triples[i])]
    return _ratio_value(mid, len(flagged), len(triples), flagged)


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
    properties: the literal's lexical form must be valid for some checkable
    datatype range; unknown datatypes are never flagged.
    """
    class_ranges = {p: frozenset(r for r in schema.range_of.get(p, ()) if r in schema.classes)
                    for p, kind in schema.properties.items() if kind is PropertyKind.OBJECT}
    dt_ranges = {prop: tuple(r for r in ranges if r in CHECKABLE_DATATYPES)
                 for prop, ranges in schema.xsd_ranges.items()}
    checked = [p for p, ranges in (*class_ranges.items(), *dt_ranges.items()) if ranges]
    # the asserted classes each object property admits: a class range, or a
    # class that transitively specializes one
    admitted = {p: ranges | {c for c, sup in schema.ancestors.items()
                             if not sup.isdisjoint(ranges)}
                for p, ranges in class_ranges.items() if ranges}

    def out_of_range(t: Triple) -> bool:
        classes = admitted.get(t.predicate)
        if classes is not None:
            # only IRIs have asserted classes
            asserted = instances.classes_of.get(t.object)
            return asserted is not None and asserted.isdisjoint(classes)
        return (isinstance(t.object, Literal)
                and not any(lexical_valid(t.object.lexical, d) for d in dt_ranges[t.predicate]))

    return _flagged(MetricId.OUT_OF_RANGE, dataset, dataset.of(checked), out_of_range)


def m3_misspelled_values(dataset: Dataset, dictionary: Dictionary) -> MetricValue:
    """Triples whose checkable literal object carries a token not in the dictionary.

    The rule reads only the object, so every triple is visited.
    """
    return _flagged(MetricId.MISSPELLED_VALUES, dataset, range(len(dataset.triples)),
                    lambda t: (text := checkable_text(t.object)) is not None
                    and has_unknown_token(text, dictionary))


def m4_undefined_terms(dataset: Dataset, schema: SchemaIndex) -> MetricValue:
    """Usage of classes (as rdf:type objects) or properties never declared.

    Every triple of an undeclared, non-builtin predicate is flagged.
    """
    undeclared = [p for p in dataset.by_predicate
                  if not is_builtin(p) and p not in schema.properties]
    return _flagged(MetricId.UNDEFINED_TERMS, dataset, dataset.of((RDF_TYPE, *undeclared)),
                    lambda t: t.predicate != RDF_TYPE or (
                        isinstance(t.object, Iri) and not is_builtin(t.object)
                        and t.object not in schema.classes))


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


def m6_inconsistent_values(dataset: Dataset) -> MetricValue:
    """Same subject and predicate, objects of conflicting term types.

    Objects conflict when their term types differ (IRI vs literal, or
    differing literal datatypes); a conflicting pair contributes exactly 1.
    Visits every triple except the rdf:type ones. With two or more type keys
    in a group, every object conflicts with at least one other, so all of
    them participate.
    """
    return _conflict_groups(
        MetricId.INCONSISTENT_VALUES, dataset,
        (p for p in dataset.by_predicate if p != RDF_TYPE),
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


def improper_datatype(t: Triple, xsd_ranges: Mapping[Iri, frozenset[Iri]]) -> bool:
    """The improper-datatype rule: ``t``'s object is a literal whose datatype
    tag, xsd:string when untagged, is not among its predicate's ``xsd_ranges``."""
    ranges = xsd_ranges.get(t.predicate)
    if not ranges or not isinstance(t.object, Literal):
        return False
    tag = t.object.datatype
    return (XSD_STRING if tag is None else tag) not in ranges


def m9_improper_datatype(dataset: Dataset, schema: SchemaIndex) -> MetricValue:
    """Literal datatype tags that differ from the declared datatype range.

    Unlike the out-of-range metric this compares the annotation, not the
    lexical value. Untyped (plain or language-tagged) literals are flagged
    only when the declared range is not xsd:string.
    """
    return _flagged(MetricId.IMPROPER_DATATYPE, dataset, dataset.of(schema.xsd_ranges),
                    lambda t: improper_datatype(t, schema.xsd_ranges))


def m10_similar_classes(schema: SchemaIndex, instances: InstanceIndex) -> MetricValue:
    """Distinct, non-subclass-related classes over identical instance sets.

    Both members of a similar pair count; classes without instances never do.
    """
    by_members: dict[frozenset[Iri], list[Iri]] = {}
    for cls in sorted(schema.classes, key=lambda c: c.text):
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


def assess(dataset: Dataset, dictionary: Dictionary | None = None,
           selection: Iterable[MetricId] | None = None) -> MetricReport:
    """Index the dataset once and evaluate the selected metrics (default: all).

    Metric-level degeneracies become report flags, never errors; two
    assessments of the same bytes produce identical reports.
    """
    selected = tuple(selection) if selection is not None else ALL_METRICS
    schema = build_schema_index(dataset)
    instances = build_instance_index(dataset)
    if dictionary is None:
        dictionary = Dictionary(id="(none)", words=frozenset())

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
