"""Seeded random dataset generator for the oracle-equivalence checks.

Produces small, messy datasets (<= 30 triples) that exercise every metric
path: partial declarations, subclass chains (including cycles), disjointness
and complements, domain/range axioms over classes, XSD datatypes and unknown
datatypes, blank nodes, duplicate subject/predicate groups, empty literals,
language tags, lexical forms that sit on the edge of validity (dates and
times at each bound of their fields among them), and a blank node declared
as a property.
"""

from random import Random

from rdfqa.core.model import BlankNode, Dataset, Iri, Literal, Triple, make_dataset

EX = "http://example.org/gen#"
OTHER = "http://other.net/x#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"

TYPE = Iri(RDF + "type")

CLASSES = [Iri(EX + f"C{i}") for i in range(6)] + [Iri(OTHER + "K")]
PROPS = [Iri(EX + f"p{i}") for i in range(7)]
INSTANCES = [Iri(EX + f"i{i}") for i in range(8)] + [Iri(OTHER + "z")]
BNODES = [BlankNode("b0"), BlankNode("b1")]

DATATYPES = [
    Iri(XSD + "string"), Iri(XSD + "integer"), Iri(XSD + "decimal"),
    Iri(XSD + "double"), Iri(XSD + "boolean"), Iri(XSD + "date"),
    Iri(XSD + "dateTime"), Iri(XSD + "gYear"), Iri(XSD + "float"),
    Iri(EX + "customDT"),
]

LEXICALS = [
    "alpha", "beta", "zzqx", "john smith", "abc 123", "miszpeled",
    "5", "05", "5_0", " 5", "+7", "-3", "3.14", ".5", "5.", "1e5", "INF",
    "-INF", "NaN", "nan", "true", "false", "TRUE", "1", "0", "1996",
    "0042", "1996-05-07", "1996-13-40", "2001-02-29", "2000-02-29",
    "1996-05-07T10:30:00", "1996-05-07T25:00:00", "not a date", "", "x",
    "Ali", "café",
    # each bound of the date and time checks, on it and past it
    "2023-04-30", "2023-04-31", "2023-12-31", "2023-12-32", "2023-02-28",
    "2024-02-29", "1900-02-29", "2023-00-10", "2023-01-01", "2023-13-01",
    "2023-01-00", "1996-05-07T23:59:59", "1996-05-07T24:00:00",
    "1996-05-07T12:60:00", "1996-05-07T12:00:60", "2024-02-29T00:00:00",
]

LANGS = [None, "en", "en-US", "fr"]

DICT_WORDS = frozenset({
    "alpha", "beta", "john", "smith", "abc", "true", "false", "not",
    "a", "date", "ali", "café", "x", "nan", "inf",
})

DECL_CLASS = [Iri(RDFS + "Class"), Iri(OWL + "Class")]
DECL_PROP = [Iri(RDF + "Property"), Iri(OWL + "ObjectProperty"),
             Iri(OWL + "DatatypeProperty"), Iri(OWL + "FunctionalProperty"),
             Iri(OWL + "InverseFunctionalProperty")]
BUILTIN_CLASSES = [Iri(OWL + "Thing"), Iri(RDFS + "Resource")]


def _literal(rng: Random) -> Literal:
    lex = rng.choice(LEXICALS)
    roll = rng.random()
    if roll < 0.45:
        return Literal(lex, datatype=rng.choice(DATATYPES))
    if roll < 0.6:
        lang = rng.choice(LANGS)
        if lang:
            return Literal(lex, language=lang)
    return Literal(lex)


def _object_term(rng: Random):
    roll = rng.random()
    if roll < 0.45:
        return rng.choice(INSTANCES)
    if roll < 0.5:
        return rng.choice(BNODES)
    if roll < 0.55:
        return rng.choice(CLASSES)
    return _literal(rng)


def _subject_term(rng: Random):
    return rng.choice(BNODES) if rng.random() < 0.12 else rng.choice(INSTANCES)


def make_random_dataset(rng: Random, max_triples: int = 30) -> Dataset:
    triples: list[Triple] = []

    # schema layer
    for _ in range(rng.randrange(0, 9)):
        roll = rng.random()
        if roll < 0.2:
            triples.append(Triple(rng.choice(CLASSES), TYPE, rng.choice(DECL_CLASS)))
        elif roll < 0.45:
            # a blank node declared as a property declares nothing
            triples.append(Triple(rng.choice(PROPS + BNODES[:1]), TYPE, rng.choice(DECL_PROP)))
        elif roll < 0.6:
            triples.append(Triple(rng.choice(CLASSES), Iri(RDFS + "subClassOf"),
                                  rng.choice(CLASSES + BUILTIN_CLASSES)))
        elif roll < 0.72:
            pred = Iri(OWL + "disjointWith") if rng.random() < 0.7 else Iri(OWL + "complementOf")
            triples.append(Triple(rng.choice(CLASSES), pred, rng.choice(CLASSES)))
        elif roll < 0.86:
            triples.append(Triple(rng.choice(PROPS), Iri(RDFS + "domain"),
                                  rng.choice(CLASSES)))
        else:
            target = rng.choice(CLASSES + DATATYPES)
            triples.append(Triple(rng.choice(PROPS), Iri(RDFS + "range"), target))

    # targeted fragments so the sparse metric paths come up often enough
    if rng.random() < 0.35:
        a, b = rng.sample(CLASSES[:6], 2)
        inst = rng.choice(INSTANCES)
        triples += [
            Triple(a, Iri(OWL + "disjointWith"), b),
            Triple(inst, TYPE, a),
            Triple(inst, TYPE, b),
        ]
    if rng.random() < 0.35:
        a, b = rng.sample(CLASSES[:6], 2)
        shared = rng.sample(INSTANCES[:8], rng.randrange(1, 3))
        triples += [Triple(a, TYPE, rng.choice(DECL_CLASS)),
                    Triple(b, TYPE, rng.choice(DECL_CLASS))]
        for inst in shared:
            triples += [Triple(inst, TYPE, a), Triple(inst, TYPE, b)]
        if rng.random() < 0.4:
            triples.append(Triple(a, Iri(RDFS + "subClassOf"), b))
    if rng.random() < 0.4:
        prop = rng.choice(PROPS)
        marker = Iri(OWL + "FunctionalProperty") if rng.random() < 0.5 \
            else Iri(OWL + "InverseFunctionalProperty")
        triples.append(Triple(prop, TYPE, marker))
        if marker.text.endswith("InverseFunctionalProperty"):
            shared_obj = _object_term(rng) if rng.random() < 0.6 \
                else Literal("", datatype=rng.choice([None, Iri(XSD + "string")]))
            for subj in rng.sample(INSTANCES[:8], rng.randrange(2, 4)):
                triples.append(Triple(subj, prop, shared_obj))
        else:
            subj = _subject_term(rng)
            for _ in range(rng.randrange(2, 4)):
                triples.append(Triple(subj, prop, _object_term(rng)))

    # instance layer
    for _ in range(rng.randrange(0, max(1, max_triples - len(triples)) + 1)):
        roll = rng.random()
        if roll < 0.3:
            cls = rng.choice(CLASSES + BUILTIN_CLASSES) if rng.random() < 0.9 \
                else rng.choice(PROPS)
            triples.append(Triple(_subject_term(rng), TYPE, cls))
        else:
            pred = rng.choice(PROPS) if rng.random() < 0.85 \
                else rng.choice([Iri(RDFS + "label"), Iri(EX + "undeclared")])
            subject = _subject_term(rng)
            obj = _object_term(rng)
            triples.append(Triple(subject, pred, obj))
            # sometimes pile more objects onto the same subject+predicate
            while rng.random() < 0.3 and len(triples) < max_triples:
                triples.append(Triple(subject, pred, _object_term(rng)))

    rng.shuffle(triples)
    return make_dataset(f"gen-{rng.randrange(1 << 30)}", triples[:max_triples])
