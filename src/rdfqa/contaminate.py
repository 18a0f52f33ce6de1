"""Deterministic quality-defect injection.

Fourteen heuristics (H1..H14), each mapped to the metric it is meant to
raise, are applied in fixed order with a single seeded random stream, so the
same dataset, plan and seed always produce byte-identical output. Every edit
is recorded in a manifest; replaying the manifest against the original
dataset reproduces the contaminated dataset exactly. When a heuristic's
preconditions cannot be met, the shortfall is a warning, never an error.

An edit is its two triples, a ``before`` to remove and an ``after`` to add;
its manifest action (add, remove or rewrite, and ``_axiom`` when the triple
added or removed is a declaration) is read off them, and a manifest whose
label disagrees is malformed. ``run()`` is the one place that knows which
heuristic is running: it tags each edit with it, and it records the count
each heuristic achieved and the warning for any shortfall.

The contaminator and replay share one edit engine, ``EditLog``: a slot list
with holes plus a position map, so value-based edits are O(1) and both paths
apply an edit the same way. The log keeps one view from each predicate to
its slots, so a heuristic reads only the triples of its own predicates, in
document order. The index builders read the log itself, as they read a
``Dataset``; the schema index is cached and rebuilt only after an edit to a
declaration triple. Every heuristic picks its candidates with one
sample step, through the rule of the metric it raises (H3 fakes the first
range M2's ``checked_ranges`` lists for a property, H4 and H5 leave those
properties, and H11 stays valid for them; H4, H5 and H13 ask M3's
``token_flags``, and H13 M9's ``improper_tag``; H7 removes the triples that
``SchemaIndex.declared_by`` records for a term, what M4 reads as declared;
H8 pairs classes within each asserted class set, as M5 reads them), and
makes every edit through one apply rule, which skips an edit whose
resulting triple is already present.

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
import string
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, combinations, compress, count
from operator import itemgetter, not_
from pathlib import Path
from random import Random
from typing import Iterable, Mapping

from .core.indexing import SchemaIndex, build_instance_index, build_schema_index
from .core.model import (
    OWL_CLASS,
    OWL_DISJOINT_WITH,
    RDF_PROPERTY,
    RDF_TYPE,
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
    is_declaration_triple,
)
from .core.parsing import ParseError, parse_ntriples, triple_to_ntriples
from .metrics import (LEXICAL_CHECKS, Dictionary, MetricId, checkable_mask, checked_ranges,
                      has_unknown_token, improper_tag, token_flags)
from .reporting import counted, malformed, read_json, to_json, typed, typed_items


class HeuristicId(enum.StrEnum):
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

#: the reserved scheme of every IRI the contaminator mints
FRESH_IRI_PREFIX = "contam:"


class EditAction(enum.StrEnum):
    ADD_TRIPLE = "add_triple"
    REMOVE_TRIPLE = "remove_triple"
    REWRITE_TRIPLE = "rewrite_triple"
    ADD_AXIOM = "add_axiom"
    REMOVE_AXIOM = "remove_axiom"


@dataclass(frozen=True)
class Edit:
    """One edit of a heuristic: ``before`` is removed, ``after`` is added, and
    an edit with both rewrites ``before`` into ``after`` in its place. An edit
    names at least one triple, and its ``action`` is read off the two."""

    heuristic: HeuristicId
    before: Triple | None = None
    after: Triple | None = None

    def __post_init__(self):
        if self.before is None and self.after is None:
            raise ValueError(f"an edit of {self.heuristic.value} names no triple")

    @property
    def action(self) -> EditAction:
        """Only an ``after`` is an add, only a ``before`` a remove, both a
        rewrite; adding or removing a declaration triple is an axiom edit."""
        if self.before is None:
            return (EditAction.ADD_AXIOM if is_declaration_triple(self.after)
                    else EditAction.ADD_TRIPLE)
        if self.after is None:
            return (EditAction.REMOVE_AXIOM if is_declaration_triple(self.before)
                    else EditAction.REMOVE_TRIPLE)
        return EditAction.REWRITE_TRIPLE


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


#: the tags H13 may write, in the order it tries them
_RETAGS = (XSD_STRING, *LEXICAL_CHECKS)

#: the k-th fresh lexical form inside each range M2 checks, and (``None``) one
#: failing every check; xsd:boolean is absent, it has no unbounded distinct values
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


class EditLog:
    """The edit engine shared by the contaminator and manifest replay.

    ``triples`` is a slot list with ``None`` holes, and a position map finds
    a triple's slot, so every edit is O(1) and a rewrite keeps its triple's
    place in document order. One view maps each predicate to the ids of its
    filled slots; ``of()`` reads it, so a heuristic visits only the triples
    of its own predicates. ``of()`` is a ``Dataset``'s own, and
    ``by_predicate`` reads as a ``Dataset``'s does, so ``build_schema_index``
    and ``build_instance_index`` take the log itself. The one cached index
    is ``schema()``, built on first use and dropped after an edit to a
    declaration triple.

    ``apply`` reads only the triples an edit names: its ``before`` must be
    present, and its ``after`` absent unless it is the ``before``. A
    rejected edit raises ``ReplayError`` and leaves the log as it was.
    """

    def __init__(self, triples: Iterable[Triple]):
        self.triples: list[Triple | None] = list(triples)
        # the triples are duplicate-free, so ``pos`` lists them in slot order,
        # and both indexes share one int object per slot
        self.pos: dict[Triple, int] = dict(zip(self.triples, count()))
        self.by_predicate: dict[Iri, dict[int, None]] = {}
        for t, i in self.pos.items():
            self.by_predicate.setdefault(t.predicate, {})[i] = None
        self.edits: list[Edit] = []
        self._schema: SchemaIndex | None = None

    def __contains__(self, t: Triple) -> bool:
        return t in self.pos

    def current(self) -> list[Triple]:
        return [t for t in self.triples if t is not None]

    # the view lists filled slots only, so of() never meets a hole
    of = Dataset.of

    def dataset(self, dataset_id: str) -> Dataset:
        return Dataset(id=dataset_id, triples=tuple(self.current()))

    def apply(self, edit: Edit):
        before, after = edit.before, edit.after
        if before is not None and before not in self.pos:
            _reject(edit, before, "is absent")
        if after is not None and after != before and after in self.pos:
            _reject(edit, after, "is already present")
        # a before frees its slot and an after fills it, or a new last one
        if before is None:
            i = len(self.triples)
            self.triples.append(None)
        else:
            i = self.pos.pop(before)
            self.triples[i] = None
            del self.by_predicate[before.predicate][i]
        if after is not None:
            self.triples[i] = after
            self.pos[after] = i
            self.by_predicate.setdefault(after.predicate, {})[i] = None
        self.edits.append(edit)
        if any(t is not None and is_declaration_triple(t) for t in (before, after)):
            self._schema = None

    def schema(self) -> SchemaIndex:
        if self._schema is None:
            self._schema = build_schema_index(self)
        return self._schema


def _reject(edit: Edit, t: Triple, why: str):
    raise ReplayError(f"cannot apply {edit.heuristic.value} {edit.action.value}, "
                      f"triple {why}: {triple_to_ntriples(t)}")


class _Contaminator:
    def __init__(self, dataset: Dataset, plan: ContaminationPlan, dictionary: Dictionary):
        self.dataset_id = dataset.id
        # the manifest names the dataset its edits apply to
        self.plan = replace(plan, dataset_id=plan.dataset_id or dataset.id)
        self.dictionary = dictionary
        self.rng = Random(plan.seed)
        self.log = EditLog(dataset.triples)
        # H1 and H9 need no candidates, so their edits are bounded by the input
        self.edit_cap = EDITS_PER_INPUT_TRIPLE * len(dataset.triples)
        # the heuristic ``run()`` is running; ``apply`` tags each edit with it
        self.heuristic: HeuristicId | None = None
        # the input IRIs that ``fresh_iri`` could mint, the only ones it must skip
        self.input_terms = {t for t in set(chain.from_iterable(dataset.triples))
                            if isinstance(t, Iri) and t.text.startswith(FRESH_IRI_PREFIX)}
        self.fresh_counter = 0
        self.value_counter = 0

    # -- the one sample step and the one apply rule

    def _sample(self, candidates: list, n: int) -> list:
        return self.rng.sample(candidates, min(n, len(candidates)))

    def apply(self, before: Triple | None = None, after: Triple | None = None) -> int:
        """Apply one edit of the running heuristic; 0 if ``after`` is present, else 1."""
        if after is not None and after in self.log:
            return 0
        self.log.apply(Edit(self.heuristic, before, after))
        return 1

    def fresh_iri(self, tag: str) -> Iri:
        # the counter never repeats a text, so only the input's terms can collide
        while True:
            iri = Iri(f"{FRESH_IRI_PREFIX}{tag}-{self.fresh_counter}")
            self.fresh_counter += 1
            if iri not in self.input_terms:
                return iri

    # -- heuristics, in application order; each returns how many of its
    #    ``n`` edits it achieved, and why it fell short if it did

    def _capped(self, n: int) -> tuple[int, str]:
        return min(n, self.edit_cap), f"at most {EDITS_PER_INPUT_TRIPLE} per input triple"

    def h1_fresh_properties(self, n: int):
        done, why = self._capped(n)
        for _ in range(done):
            self.apply(after=Triple(self.fresh_iri("h1-property"), RDF_TYPE, RDF_PROPERTY))
        return done, why

    def h2_remove_triples(self, n: int):
        candidates = [t for t in self.log.current() if not is_declaration_triple(t)]
        done = sum(self.apply(before=t) for t in self._sample(candidates, n))
        return done, "not enough removable triples"

    def h3_out_of_range(self, n: int):
        # fake the first range M2 checks a property's lexical forms against
        ranges = checked_ranges(self.log.schema())
        candidates = [(t, ranges[t.predicate][0]) for t in self.log.of(ranges)
                      if isinstance(t.object, Literal)]
        done = sum(self.apply(t, Triple(t.subject, t.predicate,
                                        Literal(self._fresh_plain_value(), datatype=target)))
                   for t, target in self._sample(candidates, n))
        return done, "no rewritable datatype-property triples"

    def _fresh_plain_value(self) -> str:
        # digit-bearing token: invalid for every checked datatype, and the
        # spell checker skips it
        self.value_counter += 1
        return _IN_RANGE_LEXICAL[None](self.value_counter)

    def _spellable_candidates(self, schema):
        current = self.log.current()
        checkable = list(compress(current, checkable_mask(map(itemgetter(2), current))))
        unknown, checked = token_flags([t.object.lexical for t in checkable], self.dictionary)
        in_m2 = checked_ranges(schema)
        # checked tokens, all in the dictionary, of a property M2 does not check
        return [t for t, bad, good in zip(checkable, unknown, checked)
                if good and not bad and t.predicate not in in_m2]

    def h4_mutate_literals(self, n: int):
        candidates = self._spellable_candidates(self.log.schema())
        self.rng.shuffle(candidates)
        done = 0
        for t in candidates:
            if done == n:
                break
            lexical = self._mutate_lexical(t.object.lexical)
            if lexical is not None:
                done += self.apply(t, _with_lexical(t, lexical))
        return done, "no cleanly-spelled literals to corrupt"

    def _mutate_lexical(self, lexical: str) -> str | None:
        for _ in range(20):
            if self.rng.random() < 0.5:
                pos = self.rng.randrange(len(lexical) + 1)
                ch = self.rng.choice(string.ascii_lowercase)
                mutated = lexical[:pos] + ch + lexical[pos:]
            else:
                # a candidate holds a checked token, so it holds a letter
                alpha_positions = [i for i, c in enumerate(lexical) if c.isalpha()]
                pos = self.rng.choice(alpha_positions)
                mutated = lexical[:pos] + lexical[pos + 1:]
            if mutated != lexical and has_unknown_token(mutated, self.dictionary):
                return mutated
        return None

    def h5_replace_literals(self, n: int):
        candidates = self._spellable_candidates(self.log.schema())
        done = sum(self.apply(t, _with_lexical(t, self._absent_token()))
                   for t in self._sample(candidates, n))
        return done, "no cleanly-spelled literals to replace"

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
        candidates = [t for t in self.log.of((RDF_TYPE,)) if t.object in schema.classes]
        done = sum(self.apply(t, Triple(t.subject, RDF_TYPE, self.fresh_iri("h6-class")))
                   for t in self._sample(candidates, n))
        if done < n:
            # fall back to renaming predicates of declared-property usage
            # triples; this also lowers the missing-values usage sum
            candidates = self.log.of(p for p in schema.properties if p != RDF_TYPE)
            done += sum(self.apply(t, Triple(t.subject, self.fresh_iri("h6-property"), t.object))
                        for t in self._sample(candidates, n - done))
        return done, "no renameable usage triples"

    def h7_remove_declarations(self, n: int):
        schema = self.log.schema()
        used_classes = sorted({t.object for t in self.log.of((RDF_TYPE,))
                               if t.object in schema.classes})
        used_props = sorted(p for p in schema.properties if self.log.by_predicate.get(p))
        pool = [("class", c) for c in used_classes] + [("property", p) for p in used_props]
        chosen = self._sample(pool, n)
        # a triple that declares two chosen terms is removed once
        for key in chosen:
            for t in schema.declared_by[key]:
                if t in self.log:
                    self.apply(before=t)
        return len(chosen), "no used declared terms"

    def h8_make_disjoint(self, n: int):
        schema = self.log.schema()
        # M5's shape: two declared classes share an instance only inside one
        # distinct asserted class set
        asserted = {classes & schema.classes
                    for classes in set(build_instance_index(self.log).classes_of.values())}
        shared = {pair for classes in asserted
                  for pair in combinations(sorted(classes), 2)}
        candidates = sorted(pair for pair in shared if not schema.disjoint(*pair))
        done = sum(self.apply(after=Triple(a, OWL_DISJOINT_WITH, b))
                   for a, b in self._sample(candidates, n))
        return done, "no class pairs share instances"

    def h9_disjoint_instances(self, n: int):
        schema = self.log.schema()
        # every class in a disjoint pair is declared disjoint or has parents;
        # M5 reads no builtin class, so a builtin one is no class here
        related = sorted(c for c in schema.parents.keys() | schema.disjoint_with.keys()
                         if not is_builtin(c))
        pairs = [pair for pair in combinations(related, 2) if schema.disjoint(*pair)]
        done, why = self._capped(n) if pairs else (0, "no disjoint class pairs available")
        for _ in range(done):
            a, b = self.rng.choice(pairs)
            inst = self.fresh_iri("h9-instance")
            self.apply(after=Triple(inst, RDF_TYPE, a))
            self.apply(after=Triple(inst, RDF_TYPE, b))
        return done, why

    def h10_type_conflicts(self, n: int):
        schema = self.log.schema()
        candidates = [t for t in self.log.of(p for p in schema.properties
                                             if p != RDF_TYPE and p not in schema.functional)
                      if isinstance(t.object, Literal)]
        done = sum(self.apply(after=Triple(t.subject, t.predicate, self.fresh_iri("h10-object")))
                   for t in self._sample(candidates, n))
        return done, "no literal-valued usage triples"

    def h11_functional_duplicates(self, n: int):
        schema = self.log.schema()
        candidates = self.log.of(schema.functional)
        ranges = checked_ranges(schema)
        done = sum(self.apply(after=Triple(t.subject, t.predicate, new_object))
                   for t in self._sample(candidates, n)
                   if (new_object := self._fresh_object_like(t, ranges, "h11-object")) is not None)
        return done, "no functional-property triples to copy"

    def h12_inverse_functional_duplicates(self, n: int):
        candidates = self.log.of(self.log.schema().inverse_functional)
        done = sum(self.apply(after=Triple(self.fresh_iri("h12-subject"), t.predicate, t.object))
                   for t in self._sample(candidates, n))
        return done, "no inverse-functional-property triples to copy"

    def _fresh_object_like(self, t: Triple, ranges: Mapping[Iri, list[Iri]], tag: str):
        """A new object distinct from the original, of its term type and tags,
        inside the first of its ``checked_ranges`` that has fresh values (any
        value when M2 checks none), so the range/datatype metrics stay put."""
        if not isinstance(t.object, Literal):
            return self.fresh_iri(tag)
        lexical = next((_IN_RANGE_LEXICAL[r] for r in ranges.get(t.predicate, (None,))
                        if r in _IN_RANGE_LEXICAL), None)
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
        # M9 flags the new tag only when no range declares it
        new_tags = {p: tag for p, ranges in schema.xsd_ranges.items() if p != RDF_TYPE and
                    (tag := next((x for x in _RETAGS if improper_tag(x, ranges)), None)) is not None}
        typed_values = self.log.of(new_tags)
        group_sizes = Counter((t.subject, t.predicate) for t in typed_values)
        candidates = [(t, new_tags[t.predicate]) for t in typed_values
                      if isinstance(t.object, Literal)
                      and not improper_tag(t.object.datatype, schema.xsd_ranges[t.predicate])
                      and group_sizes[t.subject, t.predicate] == 1]
        # only a literal with no checked token is retagged
        _, checked = token_flags([t.object.lexical for t, _ in candidates], self.dictionary)
        candidates = list(compress(candidates, map(not_, checked)))
        done = sum(self.apply(t, Triple(t.subject, t.predicate,
                                        Literal(t.object.lexical, datatype=new_tag)))
                   for t, new_tag in self._sample(candidates, n))
        return done, "no retaggable datatype-property literals"

    def h14_clone_classes(self, n: int):
        classes = self.log.schema().classes
        members_of = {cls: members for cls, members
                      in build_instance_index(self.log).members_of.items() if cls in classes}
        candidates = sorted(members_of)
        chosen = self._sample(candidates, n)
        for cls in chosen:
            clone = self.fresh_iri("h14-class")
            self.apply(after=Triple(clone, RDF_TYPE, OWL_CLASS))
            for member in sorted(members_of[cls]):
                self.apply(after=Triple(member, RDF_TYPE, clone))
        return len(chosen), "no classes with instances"

    def run(self) -> tuple[Dataset, ContaminationManifest]:
        steps = (self.h1_fresh_properties, self.h2_remove_triples, self.h3_out_of_range,
                 self.h4_mutate_literals, self.h5_replace_literals, self.h6_rename_terms,
                 self.h7_remove_declarations, self.h8_make_disjoint,
                 self.h9_disjoint_instances, self.h10_type_conflicts,
                 self.h11_functional_duplicates, self.h12_inverse_functional_duplicates,
                 self.h13_retag_literals, self.h14_clone_classes)
        achieved, warnings = {}, []
        for h, step in zip(ALL_HEURISTICS, steps, strict=True):
            n = self.plan.intensity(h)
            if n > 0:
                self.heuristic = h
                achieved[h], why = step(n)
                if achieved[h] < n:
                    warnings.append(f"{h.value}: requested {n}, achieved {achieved[h]} ({why})")
        manifest = ContaminationManifest(self.plan, tuple(self.log.edits), achieved,
                                         tuple(warnings))
        return self.log.dataset(self.dataset_id), manifest


def contaminate(dataset: Dataset, plan: ContaminationPlan,
                dictionary: Dictionary) -> tuple[Dataset, ContaminationManifest]:
    """Apply the plan's heuristics in H1..H14 order with a seeded stream.

    The dictionary is consulted by H4, H5 and H13, so an injected misspelling
    is absent from it and a retagged literal holds no word M3 checks.
    """
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


def _edit_from_dict(entry: Mapping) -> Edit:
    """The edit of its triples; an ``action`` other than theirs is malformed."""
    before, after = (_triple_from_line(entry[k]) if entry.get(k) else None
                     for k in ("before", "after"))
    edit = Edit(HeuristicId(entry["heuristic"]), before, after)
    if entry["action"] != edit.action:
        raise ValueError(f"malformed manifest: an edit labelled {entry['action']!r}, "
                         f"but its triples make it {edit.action.value}")
    return edit


def manifest_from_dict(data: Mapping) -> ContaminationManifest:
    with malformed("manifest"):
        plan = plan_from_dict({**data, "intensities": data.get("requested", {})})
        return ContaminationManifest(
            plan=plan,
            edits=tuple(map(_edit_from_dict, data.get("edits", ()))),
            achieved={HeuristicId(k): counted(v, "manifest", f"achieved {k}")
                      for k, v in data.get("achieved", {}).items()},
            warnings=typed_items(data.get("warnings", []), str),
        )


def manifest_to_json(manifest: ContaminationManifest) -> str:
    return to_json(manifest_to_dict(manifest))


def load_manifest(path: str | Path) -> ContaminationManifest:
    return manifest_from_dict(read_json(path, "manifest"))
