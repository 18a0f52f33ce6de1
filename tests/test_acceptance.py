"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated tolerance and runtime budget."""

import time
from random import Random

from rdfqa import (
    ContaminationPlan,
    HEURISTIC_TARGETS,
    HeuristicId,
    Iri,
    Literal,
    MetricId,
    Triple,
    assess,
    make_dataset,
    parse_dataset,
    replay_manifest,
    serialize_dataset,
    spearman_rho,
)
from rdfqa.contaminate import contaminate
from rdfqa.core.model import OWL_CLASS, RDF_TYPE, XSD_INTEGER, XSD_STRING
from rdfqa.fixtures import fixture_path
from rdfqa.metrics import Dictionary
from rdfqa.reporting import render

from .datagen import DICT_WORDS, make_random_dataset
from .oracle import brute_force_metrics, brute_force_spearman

F = "http://example.org/family#"


def _report(line):
    print(f"\nACCEPTANCE {line}", flush=True)


def test_c1_family_m1_value(family, words):
    start = time.perf_counter()
    report = assess(family, words)
    elapsed = time.perf_counter() - start
    m1 = report.metrics[MetricId.MISSING_VALUES]
    assert (m1.numerator, m1.denominator) == (37, 306)
    assert abs(m1.value - (1 - 37 / 306)) <= 0.0005
    assert f"{m1.value:.2f}" == "0.88"
    assert "M1      0.88" in render(report, "table")
    assert report.counts.classes == 18 and report.counts.properties == 17
    assert elapsed < 1.0
    _report(f"C1 PASS family M1 = {m1.value:.4f} (37/306, displayed 0.88), {elapsed:.3f}s")


def _replace(triples, old, new):
    out = list(triples)
    out[out.index(old)] = new
    return out


def test_c2_worked_example_suite(family, words):
    start = time.perf_counter()
    base = assess(family, words)
    triples = list(family.triples)

    def num(report, mid):
        return report.metrics[mid].numerator

    def variant(new_triples, dataset_id):
        return assess(make_dataset(dataset_id, new_triples), words)

    # out-of-range: a sibling pointing at an instance of Sex, not Person
    v = variant(_replace(
        triples,
        Triple(Iri(F + "Math"), Iri(F + "hasSibling"), Iri(F + "Gemma")),
        Triple(Iri(F + "Math"), Iri(F + "hasSibling"), Iri(F + "MaleSex"))), "m2")
    assert num(v, MetricId.OUT_OF_RANGE) == num(base, MetricId.OUT_OF_RANGE) + 1

    # misspelling: Smith -> Smithp
    v = variant(_replace(
        triples,
        Triple(Iri(F + "Math"), Iri(F + "hasFamilyName"), Literal("Smith")),
        Triple(Iri(F + "Math"), Iri(F + "hasFamilyName"), Literal("Smithp"))), "m3")
    assert num(v, MetricId.MISSPELLED_VALUES) == num(base, MetricId.MISSPELLED_VALUES) + 1

    # undefined class in use
    v = variant(triples + [Triple(Iri(F + "Ali"), RDF_TYPE, Iri(F + "human"))], "m4")
    assert num(v, MetricId.UNDEFINED_TERMS) == num(base, MetricId.UNDEFINED_TERMS) + 1

    # membership of two disjoint classes, counted once per instance
    v = variant(triples + [
        Triple(Iri(F + "Ali"), RDF_TYPE, Iri(F + "Female")),
        Triple(Iri(F + "Ali"), RDF_TYPE, Iri(F + "Male"))], "m5")
    assert num(v, MetricId.DISJOINT_MEMBERSHIP) == num(base, MetricId.DISJOINT_MEMBERSHIP) + 1
    assert v.counts.instances == base.counts.instances

    # literal vs IRI for the same subject+predicate
    v = variant(triples + [
        Triple(Iri(F + "Ali"), Iri(F + "hasSibling"), Literal("Sara"))], "m6")
    assert num(v, MetricId.INCONSISTENT_VALUES) == num(base, MetricId.INCONSISTENT_VALUES) + 1

    # second mother on a functional property
    v = variant(triples + [
        Triple(Iri(F + "Ali"), Iri(F + "hasMother"), Iri(F + "Sara"))], "m7")
    assert num(v, MetricId.FUNCTIONAL_CONFLICTS) == num(base, MetricId.FUNCTIONAL_CONFLICTS) + 1

    # second subject claiming motherhood of the same child (inverse-functional)
    v = variant(triples + [
        Triple(Iri(F + "Sara"), Iri(F + "isMotherOf"), Iri(F + "Ali"))], "m8")
    assert num(v, MetricId.INVERSE_FUNCTIONAL_CONFLICTS) == \
        num(base, MetricId.INVERSE_FUNCTIONAL_CONFLICTS) + 1

    # birth year retagged as a string: tag mismatch, lexical untouched
    v = variant(_replace(
        triples,
        Triple(Iri(F + "Gemma"), Iri(F + "hasBirthYear"), Literal("1996", datatype=XSD_INTEGER)),
        Triple(Iri(F + "Gemma"), Iri(F + "hasBirthYear"), Literal("1996", datatype=XSD_STRING))), "m9")
    assert num(v, MetricId.IMPROPER_DATATYPE) == num(base, MetricId.IMPROPER_DATATYPE) + 1
    assert num(v, MetricId.OUT_OF_RANGE) == num(base, MetricId.OUT_OF_RANGE)

    # a clone class over Person's instance set counts both classes
    v = variant(triples + [
        Triple(Iri(F + "human"), RDF_TYPE, OWL_CLASS),
        Triple(Iri(F + "Math"), RDF_TYPE, Iri(F + "human")),
        Triple(Iri(F + "Peter"), RDF_TYPE, Iri(F + "human"))], "m10")
    m10 = v.metrics[MetricId.SIMILAR_CLASSES]
    assert m10.numerator == 2
    assert m10.denominator == 19
    assert m10.value == 2 / 19

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"C2 PASS all nine single-edit worked examples, {elapsed:.3f}s")


def test_c3_oracle_equivalence():
    start = time.perf_counter()
    words = Dictionary(id="gen", words=DICT_WORDS)
    rng = Random(31415926)
    runs = 240
    for _ in range(runs):
        ds = make_random_dataset(rng, max_triples=30)
        assert len(ds.triples) <= 30
        report = assess(ds, words)
        expected = brute_force_metrics(list(ds.triples), set(DICT_WORDS))
        for mid in MetricId:
            mv = report.metrics[mid]
            assert (mv.numerator, mv.denominator, mv.value, mv.clamped) == expected[mid.value], \
                (mid, ds.id)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(f"C3 PASS {runs} randomized datasets bit-identical to the brute-force oracle, {elapsed:.1f}s")


def test_c4_contamination_monotonicity(zoo, words):
    start = time.perf_counter()
    base = assess(zoo, words)
    for h in HeuristicId:
        plan = ContaminationPlan(intensities={h: 3}, seed=424242, dataset_id=zoo.id)
        dirty, manifest = contaminate(zoo, plan, words)
        target = HEURISTIC_TARGETS[h]
        after = assess(dirty, words)
        assert after.metrics[target].value > base.metrics[target].value, h
        assert manifest.achieved[h] == 3, h
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(f"C4 PASS every heuristic in isolation strictly raises its metric, {elapsed:.2f}s")


def test_c5_determinism_and_replay(zoo, words):
    start = time.perf_counter()
    plan = ContaminationPlan(
        intensities={h: 2 for h in HeuristicId}, seed=77, dataset_id=zoo.id)
    d1, m1 = contaminate(zoo, plan, words)
    d2, _ = contaminate(zoo, plan, words)
    b1, b2 = serialize_dataset(d1), serialize_dataset(d2)
    assert b1 == b2
    replayed = replay_manifest(zoo, m1)
    assert replayed.triples == d1.triples
    assert serialize_dataset(replayed) == b1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(f"C5 PASS hash-equal reruns and exact manifest replay, {elapsed:.2f}s")


def test_c6_statistics():
    start = time.perf_counter()
    assert spearman_rho([0.1, 0.4, 0.5, 0.9], [1, 2, 3, 4]).rho == 1.0
    assert spearman_rho([0.1, 0.4, 0.5, 0.9], [4, 3, 2, 1]).rho == -1.0
    tie = spearman_rho([1, 2, 2, 4], [1, 3, 2, 4])
    assert abs(tie.rho - brute_force_spearman([1, 2, 2, 4], [1, 3, 2, 4])) <= 1e-12
    assert spearman_rho([0, 0, 0, 0], [1, 2, 3, 4]) is None
    m1_column = [0.33, 0.74, 0.56, 0.41, 0.85, 0.38, 0.30, 0.33]
    mean = sum(m1_column) / len(m1_column)
    assert abs(mean - 0.49) <= 0.005
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"C6 PASS rank statistics (mean {mean:.4f} vs 0.49 +-0.005), {elapsed:.3f}s")


def build_scale_document(n_triples=400_000):
    """Deterministic synthetic dataset in the ISSCAAP size class."""
    ex = "http://example.org/scale#"
    rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    rdfs = "http://www.w3.org/2000/01/rdf-schema#"
    owl = "http://www.w3.org/2002/07/owl#"
    xsd = "http://www.w3.org/2001/XMLSchema#"
    lines = []
    classes = [f"{ex}Class{i}" for i in range(22)]
    obj_props = [f"{ex}rel{i}" for i in range(60)]
    dt_props = [f"{ex}attr{i}" for i in range(33)]
    dt_ranges = ["string", "integer", "decimal", "date"]
    for c in classes:
        lines.append(f"<{c}> <{rdf}type> <{owl}Class> .")
    for c in classes[1:]:
        lines.append(f"<{c}> <{rdfs}subClassOf> <{classes[0]}> .")
    lines.append(f"<{classes[1]}> <{owl}disjointWith> <{classes[2]}> .")
    for p in obj_props:
        lines.append(f"<{p}> <{rdf}type> <{owl}ObjectProperty> .")
        lines.append(f"<{p}> <{rdfs}range> <{classes[0]}> .")
    for i, p in enumerate(dt_props):
        lines.append(f"<{p}> <{rdf}type> <{owl}DatatypeProperty> .")
        lines.append(f"<{p}> <{rdfs}range> <{xsd}{dt_ranges[i % 4]}> .")
    lines.append(f"<{obj_props[0]}> <{rdf}type> <{owl}FunctionalProperty> .")
    lines.append(f"<{dt_props[0]}> <{rdf}type> <{owl}InverseFunctionalProperty> .")
    n_inst = 24_000
    insts = [f"{ex}item{i}" for i in range(n_inst)]
    for i, inst in enumerate(insts):
        lines.append(f"<{inst}> <{rdf}type> <{classes[i % 22]}> .")
    words = ["alpha", "beta", "gamma", "delta", "omega", "zzxqy"]
    k = 0
    while len(lines) < n_triples:
        i = k % n_inst
        j = k // n_inst  # distinct (subject, predicate) pair per k
        s = insts[i]
        roll = k % 10
        if roll < 6:
            line = f"<{s}> <{obj_props[j % 60]}> <{insts[(k * 7 + 1) % n_inst]}> ."
        elif roll < 7:
            line = f'<{s}> <{dt_props[(j % 8) * 4]}> "{words[k % 6]} word {k}" .'
        elif roll < 9:
            line = f'<{s}> <{dt_props[(j % 8) * 4 + 1]}> "{k}"^^<{xsd}integer> .'
        else:
            line = f"<{s}> <{ex}undeclared{k % 5}> <{ex}obj{k}> ."
        lines.append(line)
        k += 1
    lines.append("")
    return "\n".join(lines).encode()


def build_wide_document(n_subclasses):
    """Two disjoint classes ``A`` and ``B`` with ``n_subclasses`` direct
    subclasses each (``a1``.. and ``b1``..). Instance ``x`` sits in ``a1`` and
    ``b2``, the one disjoint membership; instance ``y{i}`` sits in ``a{i}``
    and ``a{i+1}`` for the first five ``i``, so those classes share members."""
    ex = "http://example.org/wide#"
    rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    rdfs = "http://www.w3.org/2000/01/rdf-schema#"
    owl = "http://www.w3.org/2002/07/owl#"
    lines = [f"<{ex}A> <{rdf}type> <{owl}Class> .",
             f"<{ex}B> <{rdf}type> <{owl}Class> .",
             f"<{ex}A> <{owl}disjointWith> <{ex}B> ."]
    for i in range(1, n_subclasses + 1):
        lines.append(f"<{ex}a{i}> <{rdfs}subClassOf> <{ex}A> .")
        lines.append(f"<{ex}b{i}> <{rdfs}subClassOf> <{ex}B> .")
    lines.append(f"<{ex}x> <{rdf}type> <{ex}a1> .")
    lines.append(f"<{ex}x> <{rdf}type> <{ex}b2> .")
    for i in range(1, min(5, n_subclasses - 1) + 1):
        lines.append(f"<{ex}y{i}> <{rdf}type> <{ex}a{i}> .")
        lines.append(f"<{ex}y{i}> <{rdf}type> <{ex}a{i + 1}> .")
    lines.append("")
    return "\n".join(lines).encode()


def test_c7_scale_400k_triples(words):
    blob = build_scale_document()
    start = time.perf_counter()
    ds = parse_dataset(blob, "ntriples", "scale")
    report = assess(ds, words)
    elapsed = time.perf_counter() - start
    assert len(ds.triples) == 400_000
    assert len(report.metrics) == 10
    assert all(0.0 <= mv.value <= 1.0 for mv in report.metrics.values())
    assert elapsed < 60.0
    _report(f"C7 PASS 400,000 triples parsed and assessed end-to-end in {elapsed:.1f}s")


def test_c8_reference_comparison_is_optional_and_non_gating():
    # the exact published metric/correlation values for the NeOn datasets are
    # not acceptance targets; an optional script compares against the
    # recorded expectations at +-0.02 when those datasets are available
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "compare_reference.py"
    expected = fixture_path("reference/neon_expected.csv")
    assert expected.exists()
    header = expected.read_text().splitlines()[0]
    assert header == "dataset,M1,M2,M3,M4,M5,M6,M7,M8,M9,M10"
    assert script.exists(), "optional comparison script ships with the repo"
    _report("C8 PASS exact published values excluded; optional comparison script present")
