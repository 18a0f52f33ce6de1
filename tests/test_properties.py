"""Invariant checks over seeded random datasets."""

import dataclasses
from collections import Counter
from itertools import combinations
from random import Random

from rdfqa import (
    ContaminationPlan,
    Dataset,
    HeuristicId,
    Iri,
    Literal,
    MetricId,
    assess,
    build_instance_index,
    build_schema_index,
    merge_datasets,
    parse_dataset,
    replay_manifest,
    serialize_dataset,
)
from rdfqa import metrics
from rdfqa.contaminate import (Edit, EditAction, EditLog, _Contaminator, _fake_targets,
                               contaminate, manifest_to_json)
from rdfqa.core.indexing import PropertyKind
from rdfqa.core.model import (AXIOM_PREDICATES, OWL_CLASS, OWL_COMPLEMENT_OF,
                              OWL_DATATYPE_PROPERTY, OWL_DISJOINT_WITH, OWL_OBJECT_PROPERTY,
                              RDF_TYPE, RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBCLASSOF, XSD_NS,
                              Triple, is_builtin, is_declaration_triple, make_dataset)
from rdfqa.metrics import OFFENDER_CAP, Dictionary, has_unknown_token
from rdfqa.reporting import report_from_dict, report_to_dict

from . import datagen, oracle
from .datagen import DICT_WORDS, make_random_dataset
from .oracle import _disjoint_pairs, brute_force_metrics

WORDS = Dictionary(id="gen", words=DICT_WORDS)
RUNS = 150


def datasets(seed, runs=RUNS, max_triples=30):
    rng = Random(seed)
    for _ in range(runs):
        yield make_random_dataset(rng, max_triples)


def test_serialization_roundtrip_on_random_datasets():
    for ds in datasets(101):
        again = parse_dataset(serialize_dataset(ds), "ntriples", ds.id)
        assert again.triples == ds.triples


def test_reports_are_deterministic_per_byte_stream():
    for ds in datasets(102, runs=40):
        blob = serialize_dataset(ds)
        r1 = assess(parse_dataset(blob, "ntriples", "x"), WORDS)
        r2 = assess(parse_dataset(blob, "ntriples", "x"), WORDS)
        assert report_to_dict(r1) == report_to_dict(r2)


def test_metric_values_stay_in_unit_interval():
    for ds in datasets(103):
        for mv in assess(ds, WORDS).metrics.values():
            assert 0.0 <= mv.value <= 1.0
            assert mv.numerator >= 0 and mv.denominator >= 0


def test_index_consistency():
    for ds in datasets(104, runs=60):
        idx = build_instance_index(ds)
        assert sum(idx.predicate_counts.values()) == len(ds.triples)
        for inst, classes in idx.classes_of.items():
            for c in classes:
                assert inst in idx.members_of[c]
        schema = build_schema_index(ds)
        for c in schema.classes | idx.classes_of.keys():
            assert not is_builtin(c)
        assert schema.functional <= set(schema.properties)
        assert schema.inverse_functional <= set(schema.properties)
        domain_subjects = {t.subject for t in ds.triples
                           if t.predicate == RDFS_DOMAIN and isinstance(t.subject, Iri)}
        for p in domain_subjects | set(schema.range_of):
            assert p in schema.properties


def test_zero_scale_invariance():
    for ds in datasets(105, runs=60):
        schema = build_schema_index(ds)
        report = assess(ds, WORDS)
        if not schema.functional:
            assert report.metrics[MetricId.FUNCTIONAL_CONFLICTS].value == 0.0
        if not schema.inverse_functional:
            assert report.metrics[MetricId.INVERSE_FUNCTIONAL_CONFLICTS].value == 0.0
        if not schema.disjoint_with:
            assert report.metrics[MetricId.DISJOINT_MEMBERSHIP].value == 0.0


def test_report_json_roundtrip():
    for ds in datasets(106, runs=40):
        report = assess(ds, WORDS)
        assert report_to_dict(report_from_dict(report_to_dict(report))) == report_to_dict(report)


# -- offender soundness: every sampled offender, re-checked in isolation,
#    satisfies the metric's flagging predicate


def _recheck(ds, schema, instances, mid, offender):
    triples = ds.triples
    if mid is MetricId.MISSING_VALUES:
        prop = Iri(offender)
        return prop in schema.properties and not any(
            t.predicate == prop for t in triples)
    if mid is MetricId.DISJOINT_MEMBERSHIP:
        inst = Iri(offender)
        return any(schema.disjoint(a, b)
                   for a, b in combinations(instances.classes_of[inst], 2))
    if mid is MetricId.SIMILAR_CLASSES:
        cls = Iri(offender)
        members = instances.members_of.get(cls)
        if not members:
            return False
        return any(
            other != cls and instances.members_of.get(other) == members
            and not schema.is_transitive_subclass(cls, other)
            and not schema.is_transitive_subclass(other, cls)
            for other in schema.classes)
    t = triples[offender]
    if mid is MetricId.OUT_OF_RANGE:
        kind = schema.properties.get(t.predicate)
        ranges = schema.range_of.get(t.predicate, frozenset())
        if kind is PropertyKind.OBJECT:
            class_ranges = {r for r in ranges if r in schema.classes}
            asserted = instances.classes_of.get(t.object, frozenset())
            return bool(class_ranges) and bool(asserted) and not any(
                c in class_ranges or class_ranges & schema.ancestors(c)
                for c in asserted)
        dts = [r for r in ranges if r in oracle.LEXICAL_CHECKS]
        return bool(dts) and isinstance(t.object, Literal) and not any(
            oracle.LEXICAL_CHECKS[d](t.object.lexical) for d in dts)
    if mid is MetricId.MISSPELLED_VALUES:
        text = oracle._checkable_text(t.object)
        return text is not None and has_unknown_token(text, WORDS)
    if mid is MetricId.UNDEFINED_TERMS:
        if t.predicate == RDF_TYPE:
            return (isinstance(t.object, Iri) and not is_builtin(t.object)
                    and t.object not in schema.classes)
        return not is_builtin(t.predicate) and t.predicate not in schema.properties
    if mid is MetricId.INCONSISTENT_VALUES:
        def type_key(term):
            if isinstance(term, Iri):
                return ("iri",)
            if isinstance(term, Literal):
                return ("literal", term.datatype.text if term.datatype else None)
            return ("bnode",)
        peers = [u.object for u in triples
                 if u.predicate == t.predicate and u.subject == t.subject
                 and u.predicate != RDF_TYPE]
        return any(type_key(o) != type_key(t.object) for o in peers)
    if mid is MetricId.FUNCTIONAL_CONFLICTS:
        if t.predicate not in schema.functional:
            return False
        peers = {u.object for u in triples
                 if u.subject == t.subject and u.predicate == t.predicate}
        return len(peers) > 1
    if mid is MetricId.INVERSE_FUNCTIONAL_CONFLICTS:
        if t.predicate not in schema.inverse_functional:
            return False

        def group_key(o):
            return "" if isinstance(o, Literal) and o.lexical == "" else o
        peers = {u.subject for u in triples
                 if u.predicate == t.predicate
                 and group_key(u.object) == group_key(t.object)}
        return len(peers) > 1
    if mid is MetricId.IMPROPER_DATATYPE:
        if schema.properties.get(t.predicate) is not PropertyKind.DATATYPE:
            return False
        ranges = {r for r in schema.range_of.get(t.predicate, frozenset())
                  if r.text.startswith(XSD_NS)}
        if not ranges or not isinstance(t.object, Literal):
            return False
        tag = t.object.datatype
        if tag is None:
            return Iri(XSD_NS + "string") not in ranges
        return tag not in ranges
    raise AssertionError(mid)


def test_offender_soundness():
    for ds in datasets(107):
        schema = build_schema_index(ds)
        instances = build_instance_index(ds)
        report = assess(ds, WORDS)
        for mid, mv in report.metrics.items():
            for offender in mv.offenders:
                assert _recheck(ds, schema, instances, mid, offender), (mid, offender, ds.id)


def test_triple_offenders_are_the_first_flagged_in_document_order():
    # larger datasets than the default, so that some reach the offender cap
    per_triple = (MetricId.OUT_OF_RANGE, MetricId.MISSPELLED_VALUES,
                  MetricId.UNDEFINED_TERMS, MetricId.IMPROPER_DATATYPE)
    capped = 0
    for ds in datasets(111, runs=60, max_triples=150):
        schema = build_schema_index(ds)
        instances = build_instance_index(ds)
        report = assess(ds, WORDS)
        for mid in per_triple:
            flagged = [i for i in range(len(ds.triples))
                       if _recheck(ds, schema, instances, mid, i)]
            mv = report.metrics[mid]
            assert mv.numerator == len(flagged), (mid, ds.id)
            assert list(mv.offenders) == flagged[:OFFENDER_CAP], (mid, ds.id)
            capped += len(flagged) > OFFENDER_CAP
    assert capped


def _kernel_branches(ds):
    """Which per-predicate shortcut of M2, M3, M6 and M9 each predicate of
    ``ds`` takes, told apart with the oracle's own helpers."""
    triples = ds.triples
    kinds = oracle._declared_properties(triples)
    classes = oracle._declared_classes(triples)
    class_sets = oracle._instances_with_classes(triples).values()
    xsd_string = Iri(XSD_NS + "string")
    dated = {Iri(XSD_NS + "date"), Iri(XSD_NS + "dateTime")}
    branches = Counter()
    for p in {t.predicate for t in triples} - {RDF_TYPE}:
        objects = [t.object for t in triples if t.predicate == p]
        types = {oracle._term_type(o) for o in objects}
        branches["M6 one type key" if len(types) == 1 else "M6 mixed"] += 1
        ranges = oracle._ranges_of(triples, p)
        if kinds.get(p) == "object" and (class_ranges := ranges & classes):
            out = any(not any(c == r or r in oracle._superclasses(triples, c)
                              for c in asserted for r in class_ranges)
                      for asserted in class_sets)
            branches["M2 some class set out of range" if out
                     else "M2 no class set out of range"] += 1
        if kinds.get(p) == "datatype":
            checkable = ranges & oracle.LEXICAL_CHECKS.keys()
            if xsd_string in checkable:
                branches["M2 xsd:string range"] += 1
            elif checkable & dated:
                branches["M2 date or dateTime range"] += 1
            elif checkable:
                branches["M2 pattern ranges only"] += 1
            tags = {o.datatype for o in objects if isinstance(o, Literal)}
            if any(r.text.startswith(XSD_NS) for r in ranges) and len(tags) > 1:
                branches["M9 several tags"] += 1
    for t in triples:
        if isinstance(t.object, Literal):
            checkable = oracle._checkable_text(t.object) is not None
            branches["M3 checkable literal" if checkable else "M3 literal not checkable"] += 1
    return branches


def _kernel_dataset(rng):
    """A dataset in which each property's objects are all of one term type
    or mixed, and the instances' classes are all admitted by the object
    properties' ranges or not, each by a coin toss."""
    classes, props, insts = datagen.CLASSES[:4], datagen.PROPS[:5], datagen.INSTANCES[:6]
    triples = [Triple(c, RDF_TYPE, OWL_CLASS) for c in classes]
    triples.append(Triple(classes[1], RDFS_SUBCLASSOF, classes[0]))
    for p in props[:2]:
        triples += [Triple(p, RDF_TYPE, OWL_OBJECT_PROPERTY), Triple(p, RDFS_RANGE, classes[0])]
    for p in props[2:]:
        triples.append(Triple(p, RDF_TYPE, OWL_DATATYPE_PROPERTY))
        triples += [Triple(p, RDFS_RANGE, d)
                    for d in rng.sample(datagen.DATATYPES[:8], rng.randrange(1, 3))]
    pool = classes[:2] if rng.random() < 0.5 else classes
    for inst in insts:
        triples += [Triple(inst, RDF_TYPE, c) for c in rng.sample(pool, rng.randrange(1, 3))]
    for p in [*props, datagen.PROPS[6]]:
        mixed, datatype = rng.random() < 0.5, rng.choice([None, *datagen.DATATYPES])
        for _ in range(rng.randrange(1, 9)):
            if mixed:
                obj = datagen._object_term(rng)
            elif p in props[:2]:
                obj = rng.choice(datagen.INSTANCES)
            else:
                obj = Literal(rng.choice(datagen.LEXICALS), datatype)
            triples.append(Triple(rng.choice(insts), p, obj))
    rng.shuffle(triples)
    return make_dataset(f"kernel-{rng.randrange(1 << 30)}", triples)


def test_metric_kernels_match_the_oracle_on_every_shortcut(monkeypatch):
    # M2, M3, M6 and M9 decide per predicate and per distinct value, and skip
    # a predicate whose verdict cannot vary; on datasets where each shortcut
    # both fires and does not, every value equals the oracle's, and the
    # offenders are the first flagged triples in document order
    monkeypatch.setattr(metrics, "OFFENDER_CAP", 4)  # so that the cap binds
    kernels = (MetricId.OUT_OF_RANGE, MetricId.MISSPELLED_VALUES,
               MetricId.INCONSISTENT_VALUES, MetricId.IMPROPER_DATATYPE)
    branches, capped = Counter(), 0
    rng = Random(116)
    kernel_datasets = [_kernel_dataset(rng) for _ in range(150)]
    for ds in [*datasets(115, runs=100, max_triples=60), *kernel_datasets]:
        branches += _kernel_branches(ds)
        schema, instances = build_schema_index(ds), build_instance_index(ds)
        report = assess(ds, WORDS)
        expected = brute_force_metrics(list(ds.triples), set(DICT_WORDS))
        for mid in kernels:
            mv = report.metrics[mid]
            assert (mv.numerator, mv.denominator, mv.value, mv.clamped) == expected[mid.value], \
                (mid, ds.id)
            if mid is MetricId.INCONSISTENT_VALUES:
                # whole conflicting groups, in the order each group is first seen
                groups = {}
                for i, t in enumerate(ds.triples):
                    if _recheck(ds, schema, instances, mid, i):
                        groups.setdefault((t.subject, t.predicate), []).append(i)
                flagged = [i for group in groups.values() for i in group]
            else:
                flagged = [i for i in range(len(ds.triples))
                           if _recheck(ds, schema, instances, mid, i)]
                assert mv.numerator == len(flagged), (mid, ds.id)
            assert list(mv.offenders) == flagged[:4], (mid, ds.id)
            capped += len(flagged) > 4
    assert capped >= 20
    for branch in ("M6 one type key", "M6 mixed",
                   "M2 no class set out of range", "M2 some class set out of range",
                   "M2 xsd:string range", "M2 date or dateTime range", "M2 pattern ranges only",
                   "M9 several tags", "M3 checkable literal", "M3 literal not checkable"):
        assert branches[branch] >= 20, (branch, branches)


def test_contamination_replay_on_random_datasets():
    rng = Random(108)
    for _ in range(40):
        ds = make_random_dataset(rng, max_triples=40)
        plan = ContaminationPlan(
            intensities={h: rng.randrange(0, 3) for h in HeuristicId},
            seed=rng.randrange(1 << 32),
        )
        dirty, manifest = contaminate(ds, plan, WORDS)
        assert replay_manifest(ds, manifest).triples == dirty.triples
        for h, requested in plan.intensities.items():
            assert manifest.achieved.get(h, 0) <= requested
        for mv in assess(dirty, WORDS).metrics.values():
            assert 0.0 <= mv.value <= 1.0


def test_disjoint_matches_the_oracle_pair_set():
    # the rule over declared partners and ancestors decides every pair of
    # hierarchy IRIs as the oracle's closed pair set does, cycles included
    hierarchy = (RDFS_SUBCLASSOF, OWL_DISJOINT_WITH, OWL_COMPLEMENT_OF)
    derived = 0
    for ds in datasets(114):
        schema = build_schema_index(ds)
        closed = _disjoint_pairs(ds.triples)
        terms = {term for t in ds.triples if t.predicate in hierarchy
                 for term in (t.subject, t.object) if isinstance(term, Iri)}
        for x in terms:
            for y in terms:
                assert schema.disjoint(x, y) == (frozenset((x, y)) in closed), (ds.id, x, y)
        derived += any(y not in schema.disjoint_with.get(x, ()) for x, y in map(tuple, closed))
    assert derived >= 10  # enough datasets whose disjointness is inherited


def test_ancestors_match_the_oracle_superclasses():
    # every class the generator can name, whether or not the dataset declares
    # it, with subclass chains and cycles among them
    for ds in datasets(119):
        schema = build_schema_index(ds)
        for c in datagen.CLASSES + datagen.BUILTIN_CLASSES:
            assert schema.ancestors(c) == oracle._superclasses(ds.triples, c), (ds.id, c)


# -- the edit engine caches the schema index and drops it only after an edit
#    to a declaration triple; its by-predicate view tracks every edit


def test_indices_read_only_their_own_triples():
    for ds in datasets(109):
        declarations = make_dataset(ds.id, [t for t in ds.triples if is_declaration_triple(t)])
        typed = make_dataset(ds.id, [t for t in ds.triples if t.predicate == RDF_TYPE])
        schema, from_declarations = build_schema_index(ds), build_schema_index(declarations)
        assert schema == from_declarations
        assert list(schema.properties) == list(from_declarations.properties)
        assert build_instance_index(ds).members_of == build_instance_index(typed).members_of


def test_index_cache_never_changes_a_choice(monkeypatch):
    plans = [{h: 2} for h in HeuristicId] + [{h: 2 for h in HeuristicId}]
    rng = Random(110)
    cases = [(make_random_dataset(rng, max_triples=40), rng.randrange(1 << 32))
             for _ in range(40)]

    def run_all():
        out = []
        for ds, seed in cases:
            for intensities in plans:
                dirty, manifest = contaminate(ds, ContaminationPlan(intensities, seed), WORDS)
                out.append((serialize_dataset(dirty), manifest_to_json(manifest)))
        return out

    cached = run_all()
    # the reference has no cache and no view: every read filters all current triples
    monkeypatch.setattr(EditLog, "schema",
                        lambda log: build_schema_index(make_dataset("", log.current())))

    def of(log, predicates):
        predicates = set(predicates)
        return [t for t in log.current() if t.predicate in predicates]

    monkeypatch.setattr(EditLog, "of", of)
    assert run_all() == cached


def _pairwise_h8_candidates(log):
    """H8's candidates by the rule it used before it read the class sets:
    every pair of declared classes, in text order, that are not disjoint
    and share a member."""
    schema = log.schema()
    members_of = build_instance_index(log).members_of
    classes = sorted(schema.classes, key=lambda c: c.text)
    candidates = []
    for i, a in enumerate(classes):
        members_a = members_of.get(a)
        if not members_a:
            continue
        for b in classes[i + 1:]:
            if schema.disjoint(a, b):
                continue
            members_b = members_of.get(b)
            if members_b and members_a & members_b:
                candidates.append((a, b))
    return candidates


def test_h8_candidates_match_the_pairwise_rule(monkeypatch):
    # H8 samples its candidate list once, and at the time of its call the
    # same log gives the pairwise rule's list; a combined plan hands H8 a
    # log that H2..H7 have edited
    seen = []
    sample = _Contaminator._sample

    def recording_sample(self, candidates, n):
        if n == 10**6:
            seen.append((candidates, _pairwise_h8_candidates(self.log)))
        return sample(self, candidates, n)

    monkeypatch.setattr(_Contaminator, "_sample", recording_sample)
    plans = [{HeuristicId.H8: 10**6},
             {**{h: 2 for h in HeuristicId}, HeuristicId.H8: 10**6}]
    for ds in datasets(115):
        for seed, intensities in enumerate(plans):
            contaminate(ds, ContaminationPlan(intensities, seed), WORDS)
    assert len(seen) == 2 * RUNS
    for candidates, pairwise in seen:
        assert candidates == pairwise
    assert sum(1 for candidates, _ in seen if candidates) >= 40
    assert sum(1 for candidates, _ in seen if len(candidates) > 1) >= 4  # order pinned


def _heuristic_predicate_sets(schema):
    """Each predicate set that a heuristic passes to ``EditLog.of``."""
    declared = [p for p in schema.properties if p != RDF_TYPE]
    return [
        (RDF_TYPE, *AXIOM_PREDICATES),
        (RDF_TYPE,),
        [p for p in _fake_targets(schema) if p in schema.xsd_ranges],
        declared,
        [p for p in declared if p not in schema.functional],
        schema.functional,
        schema.inverse_functional,
        [p for p in schema.xsd_ranges if p != RDF_TYPE],
    ]


def test_by_predicate_view_follows_every_edit():
    rng = Random(111)
    for ds in datasets(111, runs=60):
        log = EditLog(ds.triples)
        fresh = list(make_random_dataset(rng, max_triples=20).triples)
        predicates = sorted({t.predicate for t in ds.triples + tuple(fresh)}, key=str)
        predicates.append(Iri("contam:h6-property-0"))
        for _ in range(rng.randrange(1, 30)):
            current = log.current()
            action = rng.choice(list(EditAction))
            if action in (EditAction.ADD_TRIPLE, EditAction.ADD_AXIOM):
                before, after = None, rng.choice(fresh)
            elif not current:
                continue
            elif action in (EditAction.REMOVE_TRIPLE, EditAction.REMOVE_AXIOM):
                before, after = rng.choice(current), None
            else:
                # a rewrite that keeps or changes the predicate, the object or both
                before = rng.choice(current)
                after = Triple(before.subject, rng.choice([before.predicate, *predicates]),
                               rng.choice([before.object, rng.choice(fresh).object]))
            if after is not None and after != before and after in log:
                continue
            log.apply(Edit(HeuristicId.H1, action, before, after))
            current = log.current()
            # each builder reads the log as it reads a dataset of its current triples
            reference = make_dataset("", current)
            schema = build_schema_index(log)
            assert schema == build_schema_index(reference) == log.schema()
            assert list(schema.properties) == list(build_schema_index(reference).properties)
            assert build_instance_index(log) == build_instance_index(reference)
            for chosen in _heuristic_predicate_sets(log.schema()):
                chosen = set(chosen)
                assert log.of(chosen) == [t for t in current if t.predicate in chosen]
            used = {t.predicate for t in current}
            assert {p for p, slots in log.by_predicate.items() if slots} == used


# -- the dataset's by-predicate view: the indices and metrics read only the
#    triples of their own predicates through Dataset.of


def _brute_of(ds, predicates):
    predicates = set(predicates)
    return [t for t in ds.triples if t.predicate in predicates]


def test_by_predicate_view_answers_every_set_the_indices_and_metrics_pass(monkeypatch):
    asked = []
    of = Dataset.of

    def recording_of(ds, predicates):
        predicates = list(predicates)
        asked.append(predicates)
        return of(ds, predicates)

    monkeypatch.setattr(Dataset, "of", recording_of)
    unused = Iri("http://example.org/gen#unused")
    for ds in datasets(112):
        asked.clear()
        assess(ds, WORDS)
        # both indices; every triple metric reads each predicate's triples
        # straight from dataset.by_predicate
        assert len(asked) == 2
        used = [t.predicate for t in ds.triples[:4]]
        for chosen in [*asked, [], [unused], [unused, *used], used + used[::-1]]:
            assert of(ds, chosen) == _brute_of(ds, chosen)
        assert of(ds, (p for p in used * 3)) == _brute_of(ds, used)
        assert of(ds, ds.by_predicate) == list(ds.triples)


def test_building_the_view_changes_no_dataset_value():
    for ds in datasets(113, runs=60):
        fresh = Dataset(ds.id, ds.triples, ds.duplicate_count)
        before = (hash(ds), repr(ds))
        ds.of((RDF_TYPE,))
        assert "by_predicate" in vars(ds) and "by_predicate" not in vars(fresh)
        assert ds == fresh and (hash(ds), repr(ds)) == before == (hash(fresh), repr(fresh))
        copied = dataclasses.replace(ds)
        assert copied == fresh and "by_predicate" not in vars(copied)
        # merging a dataset whose view is built gives what merging a fresh copy gives
        merged = merge_datasets(ds, Dataset("other", ds.triples[::-1]))
        assert merged == merge_datasets(fresh, Dataset("other", ds.triples[::-1]))
        assert merged.of((RDF_TYPE,)) == _brute_of(merged, (RDF_TYPE,))
