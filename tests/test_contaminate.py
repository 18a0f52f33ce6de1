import hashlib
import json

import pytest

from rdfqa import (
    ContaminationPlan,
    HEURISTIC_TARGETS,
    HeuristicId,
    MetricId,
    assess,
    contaminate,
    replay_manifest,
    serialize_dataset,
)
from rdfqa.contaminate import (
    Edit,
    EditAction,
    EditLog,
    ReplayError,
    load_plan,
    manifest_from_dict,
    manifest_to_dict,
    manifest_to_json,
    plan_from_dict,
    plan_to_dict,
)
from rdfqa.core.model import (
    OWL_DATATYPE_PROPERTY,
    RDF_TYPE,
    RDFS_RANGE,
    Iri,
    Literal,
    Triple,
    make_dataset,
)
from rdfqa.core.parsing import parse_dataset, triple_to_ntriples
from rdfqa.fixtures import fixture_path

from .test_acceptance import build_scale_document

SEED = 424242


def plan_for(h, n=3, seed=SEED):
    return ContaminationPlan(intensities={h: n}, seed=seed, dataset_id="zoo")


def test_h2_count_arithmetic(zoo, words):
    hundred = make_dataset("hundred", [
        Triple(Iri(f"http://ex/s{i}"), Iri("http://ex/p"), Iri(f"http://ex/o{i}"))
        for i in range(100)
    ])
    plan = ContaminationPlan(intensities={HeuristicId.H2: 5}, seed=7)
    dirty, manifest = contaminate(hundred, plan, words)
    assert len(dirty.triples) == 95
    assert sum(1 for e in manifest.edits if e.action is EditAction.REMOVE_TRIPLE) == 5
    assert manifest.achieved[HeuristicId.H2] == 5


_FAKE_ORDER = ("integer", "decimal", "double", "boolean", "date", "dateTime", "gYear", "string")


@pytest.mark.parametrize("first, second", zip(_FAKE_ORDER, _FAKE_ORDER[1:]))
def test_h3_targets_the_first_checkable_datatype_among_the_ranges(words, first, second):
    # the order of CHECKABLE_DATATYPES decides which declared range H3 fakes;
    # one case per adjacent pair pins the whole order (xsd:string is never faked)
    xsd = "http://www.w3.org/2001/XMLSchema#"
    p = Iri("http://ex/p")
    triples = [Triple(p, RDF_TYPE, OWL_DATATYPE_PROPERTY)]
    triples += [Triple(p, RDFS_RANGE, Iri(xsd + r)) for r in (second, first)]
    triples.append(Triple(Iri("http://ex/s"), p, Literal("7")))
    plan = ContaminationPlan(intensities={HeuristicId.H3: 1}, seed=1)
    _, manifest = contaminate(make_dataset("ranges", triples), plan, words)
    (edit,) = manifest.edits
    assert edit.after.object.datatype == Iri(xsd + first)


def test_h9_adds_instance_into_disjoint_pair(zoo, words):
    before = assess(zoo, words)
    dirty, manifest = contaminate(zoo, plan_for(HeuristicId.H9, 1), words)
    after = assess(dirty, words)
    m5 = MetricId.DISJOINT_MEMBERSHIP
    assert after.metrics[m5].numerator == before.metrics[m5].numerator + 1
    adds = [e for e in manifest.edits if e.heuristic is HeuristicId.H9]
    assert len(adds) == 2
    assert all(e.after.predicate.text.endswith("#type") for e in adds)


def test_every_heuristic_raises_its_metric_in_isolation(zoo, words):
    base = assess(zoo, words)
    for h in HeuristicId:
        dirty, manifest = contaminate(zoo, plan_for(h), words)
        after = assess(dirty, words)
        target = HEURISTIC_TARGETS[h]
        assert after.metrics[target].value > base.metrics[target].value, h
        assert manifest.achieved[h] == 3, h
        assert not manifest.warnings, h


def test_numerator_isolation_on_clean_fixture(zoo, words):
    # flag-count numerators of unrelated metrics stay at zero, with one
    # documented exception: H2/H6/H7 remove or rename type assertions,
    # class declarations or subclass links, which can strip the
    # classification an object relied on to satisfy a range check
    base = assess(zoo, words)
    allowed = {
        HeuristicId.H2: {MetricId.OUT_OF_RANGE},
        HeuristicId.H6: {MetricId.OUT_OF_RANGE},
        HeuristicId.H7: {MetricId.OUT_OF_RANGE},
    }
    for h in HeuristicId:
        dirty, _ = contaminate(zoo, plan_for(h), words)
        after = assess(dirty, words)
        for mid in MetricId:
            if mid in (HEURISTIC_TARGETS[h], MetricId.MISSING_VALUES):
                continue
            if mid in allowed.get(h, ()):
                continue
            assert after.metrics[mid].numerator == base.metrics[mid].numerator, (h, mid)


def test_shortfall_is_warning_not_error(words):
    bare = make_dataset("bare", [
        Triple(Iri("http://ex/a"), Iri("http://ex/p"), Iri("http://ex/b")),
    ])
    plan = ContaminationPlan(intensities={HeuristicId.H11: 2}, seed=5)
    dirty, manifest = contaminate(bare, plan, words)
    assert manifest.achieved[HeuristicId.H11] == 0
    assert any("H11" in w for w in manifest.warnings)
    assert dirty.triples == bare.triples


def test_seed_determinism_and_seed_sensitivity(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    d1, m1 = contaminate(zoo, plan, words)
    d2, m2 = contaminate(zoo, plan, words)
    assert serialize_dataset(d1) == serialize_dataset(d2)
    assert manifest_to_dict(m1) == manifest_to_dict(m2)
    other = ContaminationPlan(intensities=plan.intensities, seed=plan.seed + 1)
    d3, _ = contaminate(zoo, other, words)
    assert serialize_dataset(d3) != serialize_dataset(d1)


def test_replay_reproduces_contaminated_exactly(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    dirty, manifest = contaminate(zoo, plan, words)
    assert replay_manifest(zoo, manifest).triples == dirty.triples


def test_replay_survives_manifest_json_roundtrip(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    dirty, manifest = contaminate(zoo, plan, words)
    revived = manifest_from_dict(json.loads(json.dumps(manifest_to_dict(manifest))))
    assert replay_manifest(zoo, revived).triples == dirty.triples


def test_replay_rejects_stale_manifest(zoo, words):
    dirty, manifest = contaminate(zoo, plan_for(HeuristicId.H2, 2), words)
    wrong_base = make_dataset("other", list(zoo.triples[:5]))
    with pytest.raises(ReplayError):
        replay_manifest(wrong_base, manifest)


def test_replay_error_names_the_stale_triple(zoo, words):
    _, manifest = contaminate(zoo, plan_for(HeuristicId.H2, 2), words)
    wrong_base = make_dataset("other", list(zoo.triples[:5]))
    stale = next(e.before for e in manifest.edits if e.before not in wrong_base.triples)
    with pytest.raises(ReplayError) as err:
        replay_manifest(wrong_base, manifest)
    assert triple_to_ntriples(stale) in str(err.value)
    assert "remove_triple" in str(err.value)


def test_edit_log_rejects_edits_that_cannot_apply():
    a, b = (Triple(Iri("http://ex/s"), Iri("http://ex/p"), Iri(f"http://ex/{o}"))
            for o in "ab")
    log = EditLog([a])
    for edit in (Edit(HeuristicId.H1, EditAction.ADD_TRIPLE, after=a),
                 Edit(HeuristicId.H2, EditAction.REMOVE_TRIPLE, before=b),
                 Edit(HeuristicId.H3, EditAction.REWRITE_TRIPLE, before=b, after=a)):
        with pytest.raises(ReplayError):
            log.apply(edit)
    rewrite = Edit(HeuristicId.H3, EditAction.REWRITE_TRIPLE, before=a, after=b)
    log.apply(rewrite)
    assert log.current() == [b]
    assert log.edits == [rewrite]  # rejected edits leave no trace


# sha256 of the serialized output and of the manifest JSON for every
# heuristic at 3 on the 30k-triple scale document, recorded before the
# contaminator and replay were folded into one edit engine
SCALE_30K_DIGESTS = {
    0: ("b76c90236d9bb17f8a120feb5bfac0c021ee949bbb050826d351dd72749f8d21",
        "466d4418f72f0d6aa63dab457cc09db0e34ecc99f586a4b50bacdc2c7b407fd2"),
    1: ("fce1f748b02aa383680d0c7ac8d2a503de21fa2567602aa317ffa7e9e0e4c3ae",
        "56206161407b8f82b83b3e22912beeddc3983368da96253b342c435b448a9821"),
}


@pytest.mark.parametrize("seed", sorted(SCALE_30K_DIGESTS))
def test_all_heuristics_on_scale_document_match_recorded_digests(words, seed):
    scale = parse_dataset(build_scale_document(30_000), "ntriples", "scale")
    plan = ContaminationPlan({h: 3 for h in HeuristicId}, seed, "scale")
    dirty, manifest = contaminate(scale, plan, words)
    digests = (hashlib.sha256(serialize_dataset(dirty)).hexdigest(),
               hashlib.sha256(manifest_to_json(manifest).encode("utf-8")).hexdigest())
    assert digests == SCALE_30K_DIGESTS[seed]
    assert replay_manifest(scale, manifest).triples == dirty.triples


def test_bundled_dirty_fixture_regenerates(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    dirty, manifest = contaminate(zoo, plan, words)
    assert serialize_dataset(dirty) == fixture_path("zoo_dirty.nt").read_bytes()
    bundled = json.loads(fixture_path("zoo_dirty.manifest.json").read_text())
    assert manifest_to_dict(manifest) == bundled


def test_injected_terms_use_reserved_namespace(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    _, manifest = contaminate(zoo, plan, words)
    fresh = [term for e in manifest.edits if e.after is not None
             for term in (e.after.subject, e.after.predicate, e.after.object)
             if isinstance(term, Iri) and term.text.startswith("contam:")]
    assert fresh, "expected contam: IRIs in the edit stream"
    source_iris = {t.text for triple in zoo.triples
                   for t in (triple.subject, triple.predicate, triple.object)
                   if isinstance(t, Iri)}
    assert not {t.text for t in fresh} & source_iris


def test_achieved_never_exceeds_requested(zoo, words):
    plan = load_plan(fixture_path("plans/zoo_demo.json"))
    _, manifest = contaminate(zoo, plan, words)
    for h, requested in plan.intensities.items():
        assert manifest.achieved[h] <= requested


def test_plan_json_roundtrip():
    raw = {"seed": 42, "intensities": {"H1": 1, "H9": 2}}
    plan = plan_from_dict(raw)
    assert plan.seed == 42
    assert plan.intensities[HeuristicId.H9] == 2
    assert plan_to_dict(plan)["intensities"] == {"H1": 1, "H9": 2}


def test_plan_rejects_negative_intensity():
    with pytest.raises(ValueError):
        plan_from_dict({"seed": 1, "intensities": {"H3": -1}})


def test_neon_sample_plans_load():
    for name in ("fao_water_areas", "water_economic_zones", "large_marine_ecosystems",
                 "geopolitical_entities", "isscaap_species_classification",
                 "species_taxonomic_classification", "commodities", "vessels"):
        plan = load_plan(fixture_path(f"plans/neon/{name}.json"))
        assert sum(plan.intensities.values()) > 0
