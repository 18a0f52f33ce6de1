"""Deterministic quality-defect injection.

Fourteen heuristics (H1..H14), each mapped to the metric it is meant to
raise, are applied in fixed order with a single seeded random stream, so the
same dataset, plan and seed always produce byte-identical output. Every edit
is recorded in a manifest; replaying the manifest against the original
dataset reproduces the contaminated dataset exactly. When a heuristic's
preconditions cannot be met, the shortfall is a warning, never an error.

The contaminator and replay share one edit engine, ``EditLog``: a slot list
with holes plus a position map, so value-based edits are O(1) and both paths
apply an edit the same way. The log keeps one view from each predicate to
its slots, so a heuristic reads only the triples of its own predicates, in
document order. The index builders read the log itself, as they read a
``Dataset``; the schema index is cached and rebuilt only after an edit to a
declaration triple. Every heuristic picks its candidates with one
sample step, through the rule of the metric it raises (H4, H5 and H13 ask
M3's ``token_flags``; H8 pairs classes within each asserted class set, as M5
reads them), and makes every edit through one apply rule, which skips an
edit whose resulting triple is already present.

Injected terms live under the reserved ``contam:`` IRI scheme so they are
recognizable, and a minted IRI skips any term the input already holds, so it
can never collide with source vocabulary.

Heuristics are designed to hit only their own metric, but defects interact;
measure one heuristic at a time when studying metric response. Documented
cross-talk: every added usage triple nudges the missing-values usage sum;
H2/H7 shrink the triple/property totals that several denominators use; and
H2, H6 and H7 can strip the type assertion, class declaration or subclass
link an object relied on to satisfy its range check, lifting the
out-of-range count. In combined plans, later heuristics may also edit
earlier heuristics' output.
"""

from __future__ import annotations

import enum
import json
import string
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress
from operator import attrgetter, itemgetter, not_
from pathlib import Path
from random import Random
from typing import Iterable, Mapping

from .core.indexing import SchemaIndex, build_schema_index
from .core.model import (
    CLASS_TYPES,
    OWL_CLASS,
    OWL_DISJOINT_WITH,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    OWL_COMPLEMENT_OF,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_GYEAR,
    XSD_INTEGER,
    XSD_STRING,
    AXIOM_PREDICATES,
    DECLARATION_TYPES,
    Dataset,
    Iri,
    Literal,
    Triple,
    is_declaration_triple,
)
from .core.parsing import ParseError, parse_ntriples, triple_to_ntriples
from .metrics import (CHECKABLE_DATATYPES, Dictionary, MetricId, checkable_mask,
                      default_dictionary, has_unknown_token, improper_datatype,
                      token_flags)
from .reporting import malformed, read_json, typed, typed_items


class HeuristicId(str, enum.Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"
    H4 = "H4"
    H5 = "H5"
    H6 = "H6"
    H7 = "H7"
    H8 = "H8"
    H9 = "H9"
    H10 = "H10"
    H11 = "H11"
    H12 = "H12"
    H13 = "H13"
    H14 = "H14"

    def __str__(self):
        return self.value


ALL_HEURISTICS: tuple[HeuristicId, ...] = tuple(HeuristicId)

#: which metric each heuristic is designed to raise
HEURISTIC_TARGETS: dict[HeuristicId, MetricId] = {
    HeuristicId.H1: MetricId.MISSING_VALUES,
    HeuristicId.H2: MetricId.MISSING_VALUES,
    HeuristicId.H3: MetricId.OUT_OF_RANGE,
    HeuristicId.H4: MetricId.MISSPELLED_VALUES,
    HeuristicId.H5: MetricId.MISSPELLED_VALUES,
    HeuristicId.H6: MetricId.UNDEFINED_TERMS,
    HeuristicId.H7: MetricId.UNDEFINED_TERMS,
    HeuristicId.H8: MetricId.DISJOINT_MEMBERSHIP,
    HeuristicId.H9: MetricId.DISJOINT_MEMBERSHIP,
    HeuristicId.H10: MetricId.INCONSISTENT_VALUES,
    HeuristicId.H11: MetricId.FUNCTIONAL_CONFLICTS,
    HeuristicId.H12: MetricId.INVERSE_FUNCTIONAL_CONFLICTS,
    HeuristicId.H13: MetricId.IMPROPER_DATATYPE,
    HeuristicId.H14: MetricId.SIMILAR_CLASSES,
}


#: H1 and H9 make one edit per unit of intensity, but at most this many per
#: triple of the input, so a huge intensity cannot exhaust time and memory
EDITS_PER_INPUT_TRIPLE = 10


class EditAction(str, enum.Enum):
    ADD_TRIPLE = "add_triple"
    REMOVE_TRIPLE = "remove_triple"
    REWRITE_TRIPLE = "rewrite_triple"
    ADD_AXIOM = "add_axiom"
    REMOVE_AXIOM = "remove_axiom"


@dataclass(frozen=True)
class Edit:
    heuristic: HeuristicId
    action: EditAction
    before: Triple | None = None
    after: Triple | None = None


@dataclass(frozen=True)
class ContaminationPlan:
    intensities: Mapping[HeuristicId, int]
    seed: int
    dataset_id: str = ""

    def __post_init__(self):
        for h, n in self.intensities.items():
            if n < 0:
                raise ValueError(f"negative intensity for {h}")

    def intensity(self, h: HeuristicId) -> int:
        return int(self.intensities.get(h, 0))


@dataclass(frozen=True)
class ContaminationManifest:
    plan: ContaminationPlan
    edits: tuple[Edit, ...]
    achieved: Mapping[HeuristicId, int]
    warnings: tuple[str, ...] = ()


class ReplayError(Exception):
    pass


#: datatypes whose lexical space admits generated-invalid values
_FAKEABLE = tuple(d for d in CHECKABLE_DATATYPES if d != XSD_STRING)
_CLASS_AXIOM_PREDICATES = frozenset({RDFS_SUBCLASSOF, OWL_DISJOINT_WITH, OWL_COMPLEMENT_OF})


def _fake_targets(schema: SchemaIndex) -> dict[Iri, Iri]:
    """Each property's first declared range in ``_FAKEABLE`` order, for the
    properties that have one."""
    return {p: target for p, ranges in schema.range_of.items()
            if (target := next((r for r in _FAKEABLE if r in ranges), None)) is not None}


#: the k-th fresh lexical form inside each fake target's range (``None``: no
#: fakeable range); xsd:boolean is absent, it has no unbounded distinct values
_IN_RANGE_LEXICAL = {
    None: lambda k: f"contamvalue{k}",
    XSD_INTEGER: lambda k: str(900000 + k),
    XSD_DECIMAL: lambda k: f"{900000 + k}.5",
    XSD_DOUBLE: lambda k: f"{900000 + k}.5",
    XSD_DATE: lambda k: f"{1200 + k % 700:04d}-01-15",
    XSD_DATETIME: lambda k: f"{1200 + k % 700:04d}-01-15T10:30:00",
    XSD_GYEAR: lambda k: f"{1200 + k % 700:04d}",
}


def _with_lexical(t: Triple, lexical: str) -> Triple:
    """``t`` with its literal's lexical form replaced; datatype and language kept."""
    return Triple(t.subject, t.predicate, Literal(lexical, t.object.datatype, t.object.language))


_ADD_ACTIONS = frozenset({EditAction.ADD_TRIPLE, EditAction.ADD_AXIOM})
_REMOVE_ACTIONS = frozenset({EditAction.REMOVE_TRIPLE, EditAction.REMOVE_AXIOM})


class EditLog:
    """The edit engine shared by the contaminator and manifest replay.

    Triples sit in a slot list with ``None`` holes, and a position map finds
    a triple's slot, so every edit is O(1) and a rewrite keeps its triple's
    place in document order. One view maps each predicate to the ids of its
    filled slots; ``of()`` reads it, so a heuristic visits only the triples
    of its own predicates. ``of()`` and ``by_predicate`` read as a
    ``Dataset``'s do, so ``build_schema_index`` and ``build_instance_index``
    take the log itself. The one cached index is ``schema()``, built on
    first use and dropped after an edit to a declaration triple.
    """

    def __init__(self, triples: Iterable[Triple]):
        self.slots: list[Triple | None] = list(triples)
        self.pos: dict[Triple, int] = {t: i for i, t in enumerate(self.slots)}
        self.by_predicate: dict[Iri, dict[int, None]] = {}
        for i, t in enumerate(self.slots):
            self.by_predicate.setdefault(t.predicate, {})[i] = None
        self.edits: list[Edit] = []
        self._schema: SchemaIndex | None = None

    def __contains__(self, t: Triple) -> bool:
        return t in self.pos

    def current(self) -> list[Triple]:
        return [t for t in self.slots if t is not None]

    def of(self, predicates: Iterable[Iri]) -> list[Triple]:
        """The current triples of ``predicates``, in document order."""
        ids = sorted(i for p in set(predicates) for i in self.by_predicate.get(p, ()))
        return [self.slots[i] for i in ids]

    def dataset(self, dataset_id: str) -> Dataset:
        return Dataset(id=dataset_id, triples=tuple(self.current()))

    def apply(self, edit: Edit):
        before, after = edit.before, edit.after
        if edit.action in _ADD_ACTIONS:
            if after is None or after in self.pos:
                _reject(edit, after, "is already present")
            before, i = None, len(self.slots)
            self.slots.append(None)
        elif edit.action in _REMOVE_ACTIONS:
            if before is None or before not in self.pos:
                _reject(edit, before, "is absent")
            after = None
        else:
            if before is None or after is None or before not in self.pos:
                _reject(edit, before, "is absent")
            if after != before and after in self.pos:
                _reject(edit, after, "is already present")
        # a before frees its slot and an after fills it
        if before is not None:
            i = self.pos.pop(before)
            self.slots[i] = None
            del self.by_predicate[before.predicate][i]
        if after is not None:
            self.slots[i] = after
            self.pos[after] = i
            self.by_predicate.setdefault(after.predicate, {})[i] = None
        self.edits.append(edit)
        if any(t is not None and is_declaration_triple(t) for t in (before, after)):
            self._schema = None

    def schema(self) -> SchemaIndex:
        if self._schema is None:
            self._schema = build_schema_index(self)
        return self._schema


def _reject(edit: Edit, t: Triple | None, why: str):
    line = triple_to_ntriples(t) if t is not None else "(none given)"
    raise ReplayError(f"cannot apply {edit.heuristic.value} {edit.action.value}, "
                      f"triple {why}: {line}")


class _Contaminator:
    def __init__(self, dataset: Dataset, plan: ContaminationPlan, dictionary: Dictionary):
        self.dataset_id = dataset.id
        self.plan = plan
        self.dictionary = dictionary
        self.rng = Random(plan.seed)
        self.log = EditLog(dataset.triples)
        # H1 and H9 need no candidates, so their edits are bounded by the input
        self.edit_cap = EDITS_PER_INPUT_TRIPLE * len(dataset.triples)
        self.achieved: dict[HeuristicId, int] = {}
        self.warnings: list[str] = []
        self.input_terms = set(chain.from_iterable(dataset.triples))
        self.fresh_counter = 0
        self.value_counter = 0

    # -- the one sample step and the one apply rule

    def _sample(self, candidates: list, n: int) -> list:
        return self.rng.sample(candidates, min(n, len(candidates)))

    def apply(self, h: HeuristicId, action: EditAction,
              before: Triple | None = None, after: Triple | None = None) -> int:
        """Apply one edit; 0 when ``after`` is already present, else 1."""
        if after is not None and after in self.log:
            return 0
        self.log.apply(Edit(h, action, before, after))
        return 1

    def fresh_iri(self, tag: str) -> Iri:
        # the counter never repeats a text, so only the input's terms can collide
        while True:
            iri = Iri(f"contam:{tag}-{self.fresh_counter}")
            self.fresh_counter += 1
            if iri not in self.input_terms:
                return iri

    def record(self, h: HeuristicId, requested: int, achieved: int, why: str = ""):
        self.achieved[h] = achieved
        if achieved < requested:
            reason = f" ({why})" if why else ""
            self.warnings.append(f"{h.value}: requested {requested}, achieved {achieved}{reason}")

    # -- heuristics, in application order

    def _capped(self, n: int) -> tuple[int, str]:
        return min(n, self.edit_cap), f"at most {EDITS_PER_INPUT_TRIPLE} per input triple"

    def h1_fresh_properties(self, n: int):
        done, why = self._capped(n)
        for _ in range(done):
            self.apply(HeuristicId.H1, EditAction.ADD_AXIOM,
                       after=Triple(self.fresh_iri("h1-property"), RDF_TYPE, RDF_PROPERTY))
        self.record(HeuristicId.H1, n, done, why)

    def h2_remove_triples(self, n: int):
        candidates = [t for t in self.log.current() if not is_declaration_triple(t)]
        done = sum(self.apply(HeuristicId.H2, EditAction.REMOVE_TRIPLE, before=t)
                   for t in self._sample(candidates, n))
        self.record(HeuristicId.H2, n, done, "not enough removable triples")

    def h3_out_of_range(self, n: int):
        schema = self.log.schema()
        # every fakeable range is an XSD range; H3 rewrites datatype-kind properties only
        targets = {p: target for p, target in _fake_targets(schema).items()
                   if p in schema.xsd_ranges}
        candidates = [(t, targets[t.predicate]) for t in self.log.of(targets)
                      if isinstance(t.object, Literal)]
        done = sum(self.apply(HeuristicId.H3, EditAction.REWRITE_TRIPLE, t,
                              Triple(t.subject, t.predicate,
                                     Literal(self._fresh_plain_value(), datatype=target)))
                   for t, target in self._sample(candidates, n))
        self.record(HeuristicId.H3, n, done, "no rewritable datatype-property triples")

    def _fresh_plain_value(self) -> str:
        # digit-bearing token: invalid for every fakeable datatype, and the
        # spell checker skips it
        self.value_counter += 1
        return f"contamvalue{self.value_counter}"

    def _spellable_candidates(self, schema):
        current = self.log.current()
        checkable = list(compress(current, checkable_mask(map(itemgetter(2), current))))
        unknown, checked = token_flags([t.object.lexical for t in checkable], self.dictionary)
        fakeable = _fake_targets(schema).keys()
        # a candidate holds checked tokens, every one of them in the dictionary
        return [t for t, bad, good in zip(checkable, unknown, checked)
                if good and not bad and t.predicate not in fakeable]

    def h4_mutate_literals(self, n: int):
        candidates = self._spellable_candidates(self.log.schema())
        self.rng.shuffle(candidates)
        done = 0
        for t in candidates:
            if done == n:
                break
            lexical = self._mutate_lexical(t.object.lexical)
            if lexical is not None:
                done += self.apply(HeuristicId.H4, EditAction.REWRITE_TRIPLE, t,
                                   _with_lexical(t, lexical))
        self.record(HeuristicId.H4, n, done, "no cleanly-spelled literals to corrupt")

    def _mutate_lexical(self, lexical: str) -> str | None:
        for _ in range(20):
            if self.rng.random() < 0.5:
                pos = self.rng.randrange(len(lexical) + 1)
                ch = self.rng.choice(string.ascii_lowercase)
                mutated = lexical[:pos] + ch + lexical[pos:]
            else:
                alpha_positions = [i for i, c in enumerate(lexical) if c.isalpha()]
                if not alpha_positions:
                    continue
                pos = self.rng.choice(alpha_positions)
                mutated = lexical[:pos] + lexical[pos + 1:]
            if mutated != lexical and has_unknown_token(mutated, self.dictionary):
                return mutated
        return None

    def h5_replace_literals(self, n: int):
        candidates = self._spellable_candidates(self.log.schema())
        done = sum(self.apply(HeuristicId.H5, EditAction.REWRITE_TRIPLE, t,
                              _with_lexical(t, self._absent_token()))
                   for t in self._sample(candidates, n))
        self.record(HeuristicId.H5, n, done, "no cleanly-spelled literals to replace")

    def _absent_token(self) -> str:
        while True:
            k = self.value_counter
            self.value_counter += 1
            suffix = []
            while True:
                suffix.append(string.ascii_lowercase[k % 26])
                k //= 26
                if k == 0:
                    break
            token = "zq" + "".join(suffix)
            if token not in self.dictionary:
                return token

    def h6_rename_terms(self, n: int):
        schema = self.log.schema()
        candidates = [t for t in self.log.of((RDF_TYPE,))
                      if isinstance(t.object, Iri) and t.object in schema.classes]
        done = sum(self.apply(HeuristicId.H6, EditAction.REWRITE_TRIPLE, t,
                              Triple(t.subject, RDF_TYPE, self.fresh_iri("h6-class")))
                   for t in self._sample(candidates, n))
        if done < n:
            # fall back to renaming predicates of declared-property usage
            # triples; this also lowers the missing-values usage sum
            candidates = self.log.of(p for p in schema.properties if p != RDF_TYPE)
            done += sum(self.apply(HeuristicId.H6, EditAction.REWRITE_TRIPLE, t,
                                   Triple(t.subject, self.fresh_iri("h6-property"), t.object))
                        for t in self._sample(candidates, n - done))
        self.record(HeuristicId.H6, n, done, "no renameable usage triples")

    def h7_remove_declarations(self, n: int):
        schema = self.log.schema()
        used_classes = sorted(
            {t.object for t in self.log.of((RDF_TYPE,))
             if isinstance(t.object, Iri) and t.object in schema.classes},
            key=lambda c: c.text)
        used_props = sorted((p for p in schema.properties if self.log.by_predicate.get(p)),
                            key=lambda p: p.text)
        pool = [("class", c) for c in used_classes] + [("property", p) for p in used_props]
        chosen = self._sample(pool, n)
        # one pass groups the declaration triples by the (kind, term) they
        # declare, in document order; an instance's rdf:type triple has no
        # declaration type as its object, so it joins no group. A triple an
        # earlier term removed is skipped
        declaring: dict[tuple[str, object], list[Triple]] = {}
        for t in self.log.of((RDF_TYPE, *AXIOM_PREDICATES)):
            s, p, o = t
            if p == RDF_TYPE:
                if o in CLASS_TYPES:
                    declaring.setdefault(("class", s), []).append(t)
                if o in DECLARATION_TYPES:
                    declaring.setdefault(("property", s), []).append(t)
            elif p in _CLASS_AXIOM_PREDICATES:
                declaring.setdefault(("class", s), []).append(t)
            elif p == RDFS_DOMAIN or p == RDFS_RANGE:
                declaring.setdefault(("class", o), []).append(t)
                declaring.setdefault(("property", s), []).append(t)
        for key in chosen:
            for t in declaring.get(key, ()):
                if t in self.log:
                    self.apply(HeuristicId.H7, EditAction.REMOVE_AXIOM, before=t)
        self.record(HeuristicId.H7, n, len(chosen), "no used declared terms")

    def _memberships(self, classes: frozenset[Iri]) -> list[tuple[Iri, Iri]]:
        """``(instance, class)`` for each current ``rdf:type`` triple that
        makes an IRI an instance of one of ``classes``, in document order."""
        return [(t.subject, t.object) for t in self.log.of((RDF_TYPE,))
                if t.object in classes and isinstance(t.subject, Iri)]

    def h8_make_disjoint(self, n: int):
        schema = self.log.schema()
        classes_of: dict[Iri, set[Iri]] = {}
        for instance, cls in self._memberships(schema.classes):
            classes_of.setdefault(instance, set()).add(cls)
        # M5's shape: two declared classes share an instance only inside one
        # distinct asserted class set
        shared = {pair for classes in {frozenset(c) for c in classes_of.values()}
                  for pair in combinations(sorted(classes, key=attrgetter("text")), 2)}
        candidates = sorted((pair for pair in shared if not schema.disjoint(*pair)),
                            key=lambda pair: (pair[0].text, pair[1].text))
        done = sum(self.apply(HeuristicId.H8, EditAction.ADD_AXIOM,
                              after=Triple(a, OWL_DISJOINT_WITH, b))
                   for a, b in self._sample(candidates, n))
        self.record(HeuristicId.H8, n, done, "no class pairs share instances")

    def h9_disjoint_instances(self, n: int):
        schema = self.log.schema()
        # every class in a disjoint pair is declared disjoint or has parents
        related = sorted(schema.parents.keys() | schema.disjoint_with.keys(),
                         key=lambda c: c.text)
        pairs = [pair for pair in combinations(related, 2) if schema.disjoint(*pair)]
        done, why = self._capped(n) if pairs else (0, "no disjoint class pairs available")
        for _ in range(done):
            a, b = self.rng.choice(pairs)
            inst = self.fresh_iri("h9-instance")
            self.apply(HeuristicId.H9, EditAction.ADD_TRIPLE, after=Triple(inst, RDF_TYPE, a))
            self.apply(HeuristicId.H9, EditAction.ADD_TRIPLE, after=Triple(inst, RDF_TYPE, b))
        self.record(HeuristicId.H9, n, done, why)

    def h10_type_conflicts(self, n: int):
        schema = self.log.schema()
        candidates = [t for t in self.log.of(p for p in schema.properties
                                             if p != RDF_TYPE and p not in schema.functional)
                      if isinstance(t.object, Literal)]
        done = sum(self.apply(HeuristicId.H10, EditAction.ADD_TRIPLE,
                              after=Triple(t.subject, t.predicate, self.fresh_iri("h10-object")))
                   for t in self._sample(candidates, n))
        self.record(HeuristicId.H10, n, done, "no literal-valued usage triples")

    def h11_functional_duplicates(self, n: int):
        schema = self.log.schema()
        candidates = self.log.of(schema.functional)
        targets = _fake_targets(schema)
        done = sum(self.apply(HeuristicId.H11, EditAction.ADD_TRIPLE,
                              after=Triple(t.subject, t.predicate, new_object))
                   for t in self._sample(candidates, n)
                   if (new_object := self._fresh_object_like(t, targets, "h11-object")) is not None)
        self.record(HeuristicId.H11, n, done, "no functional-property triples to copy")

    def h12_inverse_functional_duplicates(self, n: int):
        candidates = self.log.of(self.log.schema().inverse_functional)
        done = sum(self.apply(HeuristicId.H12, EditAction.ADD_TRIPLE,
                              after=Triple(self.fresh_iri("h12-subject"), t.predicate, t.object))
                   for t in self._sample(candidates, n))
        self.record(HeuristicId.H12, n, done,
                    "no inverse-functional-property triples to copy")

    def _fresh_object_like(self, t: Triple, targets: Mapping[Iri, Iri], tag: str):
        """A new object distinct from the original, matching its term type and
        staying inside the declared lexical range (no side effects on the
        range/datatype metrics)."""
        if not isinstance(t.object, Literal):
            return self.fresh_iri(tag)
        lexical = _IN_RANGE_LEXICAL.get(targets.get(t.predicate))
        for _ in range(50):
            self.value_counter += 1
            if lexical is None:
                return None  # xsd:boolean: no unbounded distinct values
            candidate = Literal(lexical(self.value_counter),
                                datatype=t.object.datatype, language=t.object.language)
            if candidate != t.object and Triple(t.subject, t.predicate, candidate) not in self.log:
                return candidate
        return None

    def h13_retag_literals(self, n: int):
        schema = self.log.schema()
        typed_values = self.log.of(p for p in schema.xsd_ranges if p != RDF_TYPE)
        group_sizes = Counter((t.subject, t.predicate) for t in typed_values)
        candidates = []
        for t in typed_values:
            xsd_ranges = schema.xsd_ranges[t.predicate]
            if not isinstance(t.object, Literal) or improper_datatype(t, schema.xsd_ranges):
                continue
            if group_sizes[t.subject, t.predicate] != 1:
                continue
            new_tag = XSD_STRING if XSD_STRING not in xsd_ranges else XSD_INTEGER
            candidates.append((t, new_tag))
        # only a literal with no checked token is retagged
        _, checked = token_flags([t.object.lexical for t, _ in candidates], self.dictionary)
        candidates = list(compress(candidates, map(not_, checked)))
        done = sum(self.apply(HeuristicId.H13, EditAction.REWRITE_TRIPLE, t,
                              Triple(t.subject, t.predicate,
                                     Literal(t.object.lexical, datatype=new_tag)))
                   for t, new_tag in self._sample(candidates, n))
        self.record(HeuristicId.H13, n, done, "no retaggable datatype-property literals")

    def h14_clone_classes(self, n: int):
        members_of: dict[Iri, set[Iri]] = {}
        for instance, cls in self._memberships(self.log.schema().classes):
            members_of.setdefault(cls, set()).add(instance)
        candidates = sorted(members_of, key=attrgetter("text"))
        chosen = self._sample(candidates, n)
        for cls in chosen:
            clone = self.fresh_iri("h14-class")
            self.apply(HeuristicId.H14, EditAction.ADD_AXIOM,
                       after=Triple(clone, RDF_TYPE, OWL_CLASS))
            for member in sorted(members_of[cls], key=lambda m: m.text):
                self.apply(HeuristicId.H14, EditAction.ADD_TRIPLE,
                           after=Triple(member, RDF_TYPE, clone))
        self.record(HeuristicId.H14, n, len(chosen), "no classes with instances")

    def run(self) -> tuple[Dataset, ContaminationManifest]:
        steps = {
            HeuristicId.H1: self.h1_fresh_properties,
            HeuristicId.H2: self.h2_remove_triples,
            HeuristicId.H3: self.h3_out_of_range,
            HeuristicId.H4: self.h4_mutate_literals,
            HeuristicId.H5: self.h5_replace_literals,
            HeuristicId.H6: self.h6_rename_terms,
            HeuristicId.H7: self.h7_remove_declarations,
            HeuristicId.H8: self.h8_make_disjoint,
            HeuristicId.H9: self.h9_disjoint_instances,
            HeuristicId.H10: self.h10_type_conflicts,
            HeuristicId.H11: self.h11_functional_duplicates,
            HeuristicId.H12: self.h12_inverse_functional_duplicates,
            HeuristicId.H13: self.h13_retag_literals,
            HeuristicId.H14: self.h14_clone_classes,
        }
        for h in ALL_HEURISTICS:
            n = self.plan.intensity(h)
            if n > 0:
                steps[h](n)
        contaminated = self.log.dataset(self.dataset_id)
        manifest = ContaminationManifest(
            plan=self.plan,
            edits=tuple(self.log.edits),
            achieved=dict(self.achieved),
            warnings=tuple(self.warnings),
        )
        return contaminated, manifest


def contaminate(dataset: Dataset, plan: ContaminationPlan,
                dictionary: Dictionary | None = None) -> tuple[Dataset, ContaminationManifest]:
    """Apply the plan's heuristics in H1..H14 order with a seeded stream.

    The dictionary is consulted by H4/H5 so injected misspellings are
    guaranteed absent from it; the bundled word list is used by default.
    """
    if dictionary is None:
        dictionary = default_dictionary()
    return _Contaminator(dataset, plan, dictionary).run()


def replay_manifest(original: Dataset, manifest: ContaminationManifest) -> Dataset:
    """Re-apply a manifest's edits; reproduces the contaminated dataset exactly."""
    log = EditLog(original.triples)
    for edit in manifest.edits:
        log.apply(edit)
    return log.dataset(original.id)


# ---------------------------------------------------------------------------
# Plan / manifest files


def plan_from_dict(data: Mapping) -> ContaminationPlan:
    with malformed("plan"):
        return ContaminationPlan(
            intensities={HeuristicId(k.upper()): typed(v, int)
                         for k, v in data.get("intensities", {}).items()},
            seed=typed(data.get("seed", 0), int),
            dataset_id=typed(data.get("dataset", ""), str),
        )


def _by_heuristic(counts: Mapping[HeuristicId, int]) -> dict[str, int]:
    return {h.value: int(counts[h]) for h in ALL_HEURISTICS if h in counts}


def load_plan(path: str | Path) -> ContaminationPlan:
    return plan_from_dict(read_json(path, "plan"))


def _triple_from_line(line: str) -> Triple:
    try:
        (triple,) = parse_ntriples(line).triples
    except (ParseError, ValueError) as exc:
        raise ValueError(f"not one N-Triples triple: {line!r} ({exc})") from None
    return triple


def manifest_to_dict(manifest: ContaminationManifest) -> dict:
    return {
        "dataset": manifest.plan.dataset_id,
        "seed": manifest.plan.seed,
        "requested": _by_heuristic(manifest.plan.intensities),
        "achieved": _by_heuristic(manifest.achieved),
        "warnings": list(manifest.warnings),
        "edits": [
            {
                "heuristic": e.heuristic.value,
                "action": e.action.value,
                "before": triple_to_ntriples(e.before) if e.before else None,
                "after": triple_to_ntriples(e.after) if e.after else None,
            }
            for e in manifest.edits
        ],
    }


def manifest_from_dict(data: Mapping) -> ContaminationManifest:
    with malformed("manifest"):
        plan = plan_from_dict({**data, "intensities": data.get("requested", {})})
        edits = []
        for entry in data.get("edits", ()):
            edits.append(Edit(
                heuristic=HeuristicId(entry["heuristic"]),
                action=EditAction(entry["action"]),
                before=_triple_from_line(entry["before"]) if entry.get("before") else None,
                after=_triple_from_line(entry["after"]) if entry.get("after") else None,
            ))
        return ContaminationManifest(
            plan=plan,
            edits=tuple(edits),
            achieved={HeuristicId(k): typed(v, int) for k, v in data.get("achieved", {}).items()},
            warnings=typed_items(data.get("warnings", []), str),
        )


def manifest_to_json(manifest: ContaminationManifest) -> str:
    return json.dumps(manifest_to_dict(manifest), indent=2) + "\n"


def load_manifest(path: str | Path) -> ContaminationManifest:
    return manifest_from_dict(read_json(path, "manifest"))
