"""Independent brute-force evaluators used as oracles by the test suite.

Everything here is computed directly off the raw triple list with nested
scans and no prebuilt indices. The code is deliberately slow, flat and
self-contained (its own namespace strings, its own lexical checks, its own
rank arithmetic) so it can serve as a genuinely independent cross-check of
the package under test.
"""

from itertools import permutations

from rdfqa.core.model import BlankNode, Iri, Literal

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"

TYPE = Iri(RDF + "type")
SUBCLASS = Iri(RDFS + "subClassOf")
DOMAIN = Iri(RDFS + "domain")
RANGE = Iri(RDFS + "range")
DISJOINT = Iri(OWL + "disjointWith")
COMPLEMENT = Iri(OWL + "complementOf")

CLASS_DECLS = {Iri(RDFS + "Class"), Iri(OWL + "Class")}
PROP_DECLS = {
    Iri(RDF + "Property"), Iri(OWL + "ObjectProperty"), Iri(OWL + "DatatypeProperty"),
    Iri(OWL + "FunctionalProperty"), Iri(OWL + "InverseFunctionalProperty"),
}


def _builtin(iri):
    return iri.text.startswith((RDF, RDFS, OWL, XSD))


def _declared_classes(triples):
    out = set()
    for t in triples:
        c = None
        if t.predicate == TYPE and t.object in CLASS_DECLS:
            c = t.subject
        elif t.predicate in (SUBCLASS, DISJOINT, COMPLEMENT):
            c = t.subject
        if isinstance(c, Iri) and not _builtin(c):
            out.add(c)
        if t.predicate == DOMAIN and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
            if not _builtin(t.object):
                out.add(t.object)
        if t.predicate == RANGE and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
            if not t.object.text.startswith(XSD) and not _builtin(t.object):
                out.add(t.object)
    return out


def _declared_properties(triples):
    """Map property -> kind ('object' / 'datatype' / 'unknown')."""
    subjects = set()
    typed = {}
    for t in triples:
        if t.predicate == TYPE and isinstance(t.subject, Iri) and t.object in PROP_DECLS:
            subjects.add(t.subject)
            typed.setdefault(t.subject, set()).add(t.object)
        if t.predicate in (DOMAIN, RANGE) and isinstance(t.subject, Iri):
            subjects.add(t.subject)
    classes = _declared_classes(triples)
    kinds = {}
    for p in subjects:
        types = typed.get(p, set())
        ranges = _ranges_of(triples, p)
        if Iri(OWL + "DatatypeProperty") in types:
            kinds[p] = "datatype"
        elif Iri(OWL + "ObjectProperty") in types:
            kinds[p] = "object"
        elif any(r.text.startswith(XSD) for r in ranges):
            kinds[p] = "datatype"
        elif any(r in classes for r in ranges):
            kinds[p] = "object"
        else:
            kinds[p] = "unknown"
    return kinds


def _ranges_of(triples, prop):
    return {t.object for t in triples
            if t.predicate == RANGE and t.subject == prop and isinstance(t.object, Iri)}


def _typed_as(triples, decl):
    return {t.subject for t in triples
            if t.predicate == TYPE and isinstance(t.subject, Iri) and t.object == decl}


def _superclasses(triples, cls):
    """Everything reachable from cls via one or more subClassOf edges."""
    reached = set()
    frontier = [cls]
    while frontier:
        node = frontier.pop()
        for t in triples:
            if t.predicate == SUBCLASS and t.subject == node and isinstance(t.object, Iri):
                if t.object not in reached:
                    reached.add(t.object)
                    frontier.append(t.object)
    return reached


def _disjoint_pairs(triples):
    declared = set()
    for t in triples:
        if t.predicate in (DISJOINT, COMPLEMENT):
            if isinstance(t.subject, Iri) and isinstance(t.object, Iri) and t.subject != t.object:
                declared.add(frozenset((t.subject, t.object)))
    all_classes = set()
    for t in triples:
        if t.predicate == SUBCLASS and isinstance(t.subject, Iri):
            all_classes.add(t.subject)
    closed = set()
    for pair in declared:
        a, b = tuple(pair)
        lefts = {a} | {c for c in all_classes if a in _superclasses(triples, c)}
        rights = {b} | {c for c in all_classes if b in _superclasses(triples, c)}
        for x in lefts:
            for y in rights:
                if x != y:
                    closed.add(frozenset((x, y)))
    return closed


def _instances_with_classes(triples):
    out = {}
    for t in triples:
        if (t.predicate == TYPE and isinstance(t.subject, Iri)
                and isinstance(t.object, Iri) and not _builtin(t.object)):
            out.setdefault(t.subject, set()).add(t.object)
    return out


def _members(triples, cls):
    return {t.subject for t in triples
            if t.predicate == TYPE and t.subject.__class__ is Iri and t.object == cls}


# -- lexical checks (character walks, no regex, no int()/float() shortcuts) --

def _digits(s):
    return len(s) > 0 and all(c in "0123456789" for c in s)


def _valid_integer(s):
    if s[:1] in "+-":
        s = s[1:]
    return _digits(s)


def _valid_decimal(s):
    if s[:1] in "+-":
        s = s[1:]
    if "." in s:
        head, _, tail = s.partition(".")
        if head == "" and tail == "":
            return False
        return (head == "" or _digits(head)) and (tail == "" or _digits(tail)) \
            and (head != "" or tail != "")
    return _digits(s)


def _valid_double(s):
    if s in ("INF", "-INF", "+INF", "NaN"):
        return True
    for e in ("e", "E"):
        if e in s:
            mant, _, expo = s.partition(e)
            if expo[:1] in "+-":
                expo = expo[1:]
            return _valid_decimal(mant) and _digits(expo)
    return _valid_decimal(s)


def _valid_boolean(s):
    return s in ("true", "false", "1", "0")


_DAYS = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]


def _valid_date_core(s):
    if s[:1] == "-":
        s = s[1:]
    parts = s.split("-")
    if len(parts) != 3:
        return False
    y, m, d = parts
    if len(y) < 4 or not _digits(y) or len(m) != 2 or not _digits(m) or len(d) != 2 or not _digits(d):
        return False
    month, day = int(m), int(d)
    if not 1 <= month <= 12:
        return False
    year = int(y)
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    limit = 29 if (month == 2 and leap) else _DAYS[month - 1]
    return 1 <= day <= limit


def _strip_tz(s):
    if s.endswith("Z"):
        return s[:-1]
    if len(s) >= 6 and s[-6] in "+-" and s[-3] == ":":
        hh, mm = s[-5:-3], s[-2:]
        if _digits(hh) and _digits(mm) and int(hh) <= 14 and int(mm) <= 59:
            return s[:-6]
    return s


def _valid_date(s):
    return _valid_date_core(_strip_tz(s))


def _valid_time_core(s):
    if "." in s:
        s, _, frac = s.partition(".")
        if not _digits(frac):
            return False
    parts = s.split(":")
    if len(parts) != 3 or any(len(p) != 2 or not _digits(p) for p in parts):
        return False
    h, m, sec = (int(p) for p in parts)
    return h <= 23 and m <= 59 and sec <= 59


def _valid_datetime(s):
    s = _strip_tz(s)
    if "T" not in s:
        return False
    datepart, _, timepart = s.partition("T")
    return _valid_date_core(datepart) and _valid_time_core(timepart)


def _valid_gyear(s):
    s = _strip_tz(s)
    if s[:1] == "-":
        s = s[1:]
    return len(s) >= 4 and _digits(s)


LEXICAL_CHECKS = {
    Iri(XSD + "integer"): _valid_integer,
    Iri(XSD + "decimal"): _valid_decimal,
    Iri(XSD + "double"): _valid_double,
    Iri(XSD + "boolean"): _valid_boolean,
    Iri(XSD + "date"): _valid_date,
    Iri(XSD + "dateTime"): _valid_datetime,
    Iri(XSD + "gYear"): _valid_gyear,
    Iri(XSD + "string"): lambda s: True,
}


def _checkable_text(term):
    """Literal text eligible for dictionary checking, else None."""
    if not isinstance(term, Literal):
        return None
    if term.datatype is not None and term.datatype != Iri(XSD + "string"):
        return None
    if term.language is not None:
        lang = term.language.lower()
        if lang != "en" and not lang.startswith("en-"):
            return None
    return term.lexical


def _tokens(text):
    runs = []
    current = []
    for ch in text:
        if ch.isalnum() and ch != "_":
            current.append(ch)
        elif current:
            runs.append("".join(current))
            current = []
    if current:
        runs.append("".join(current))
    return runs


def _misspelled(text, words):
    for token in _tokens(text):
        if any(c.isdigit() for c in token):
            continue
        if len(token) >= 2 and token.isalpha() and token.lower() not in words:
            return True
    return False


def _term_type(term):
    if isinstance(term, Iri):
        return ("iri",)
    if isinstance(term, BlankNode):
        return ("bnode",)
    return ("literal", term.datatype.text if term.datatype else None)


# -- the ten metrics ---------------------------------------------------------

def brute_force_metrics(triples, words):
    """Compute all ten metrics; returns {id: (num, den, value, clamped)}."""
    n_trp = len(triples)
    classes = _declared_classes(triples)
    prop_kinds = _declared_properties(triples)
    instances = _instances_with_classes(triples)
    disjoint = _disjoint_pairs(triples)

    out = {}

    def ratio(mid, num, den):
        value = num / den if den > 0 else 0.0
        clamped = False
        if value > 1.0:
            value = 1.0
            clamped = True
        out[mid] = (num, den, value, clamped)

    # M1: declared-but-unused properties, via usage volume over |Cls|*|Prp|
    usage = sum(1 for t in triples if t.predicate in prop_kinds)
    den = len(classes) * len(prop_kinds)
    if den == 0:
        out["M1"] = (usage, den, 0.0, False)
    else:
        value = 1.0 - usage / den
        clamped = value < 0.0
        out["M1"] = (usage, den, 0.0 if clamped else value, clamped)

    # M2: out-of-range values
    num = 0
    for t in triples:
        kind = prop_kinds.get(t.predicate)
        if kind == "object":
            class_ranges = {r for r in _ranges_of(triples, t.predicate) if r in classes}
            if not class_ranges or not isinstance(t.object, Iri):
                continue
            asserted = instances.get(t.object, set())
            if not asserted:
                continue
            ok = any(c == r or r in _superclasses(triples, c)
                     for c in asserted for r in class_ranges)
            if not ok:
                num += 1
        elif kind == "datatype":
            dt_ranges = [r for r in _ranges_of(triples, t.predicate) if r in LEXICAL_CHECKS]
            if not dt_ranges or not isinstance(t.object, Literal):
                continue
            if not any(LEXICAL_CHECKS[r](t.object.lexical) for r in dt_ranges):
                num += 1
    ratio("M2", num, n_trp)

    # M3: misspelled literal values
    num = 0
    for t in triples:
        text = _checkable_text(t.object)
        if text is not None and _misspelled(text, words):
            num += 1
    ratio("M3", num, n_trp)

    # M4: undefined classes / properties in use
    num = 0
    for t in triples:
        if t.predicate == TYPE:
            if isinstance(t.object, Iri) and not _builtin(t.object) and t.object not in classes:
                num += 1
        else:
            if not _builtin(t.predicate) and t.predicate not in prop_kinds:
                num += 1
    ratio("M4", num, n_trp)

    # M5: members of disjoint classes (per instance)
    num = 0
    for inst in instances:
        asserted = sorted(instances[inst], key=lambda c: c.text)
        hit = False
        for i in range(len(asserted)):
            for j in range(i + 1, len(asserted)):
                if frozenset((asserted[i], asserted[j])) in disjoint:
                    hit = True
        if hit:
            num += 1
    ratio("M5", num, len(instances))

    # M6: same subject+predicate, objects of conflicting term types
    groups = {}
    for t in triples:
        if t.predicate != TYPE:
            groups.setdefault((t.subject, t.predicate), []).append(t.object)
    num = 0
    for objs in groups.values():
        participants = 0
        for i, o in enumerate(objs):
            if any(_term_type(o) != _term_type(objs[j])
                   for j in range(len(objs)) if j != i):
                participants += 1
        if participants:
            num += participants - 1
    ratio("M6", num, n_trp)

    # M7: functional properties with several values per subject
    functional = _typed_as(triples, Iri(OWL + "FunctionalProperty"))
    pairs = {}
    for t in triples:
        if t.predicate in functional:
            pairs.setdefault((t.subject, t.predicate), set()).add(t.object)
    num = sum(len(objs) - 1 for objs in pairs.values() if len(objs) > 1)
    ratio("M7", num, n_trp)

    # M8: inverse-functional properties with shared values
    ifp = _typed_as(triples, Iri(OWL + "InverseFunctionalProperty"))
    shares = {}
    for t in triples:
        if t.predicate in ifp:
            o = t.object
            key = "" if isinstance(o, Literal) and o.lexical == "" else o
            shares.setdefault((t.predicate, key), set()).add(t.subject)
    num = sum(len(subs) - 1 for subs in shares.values() if len(subs) > 1)
    ratio("M8", num, n_trp)

    # M9: literal datatype tag differs from the declared range
    num = 0
    for t in triples:
        if prop_kinds.get(t.predicate) != "datatype" or not isinstance(t.object, Literal):
            continue
        dt_ranges = {r for r in _ranges_of(triples, t.predicate) if r.text.startswith(XSD)}
        if not dt_ranges:
            continue
        if t.object.datatype is None:
            if Iri(XSD + "string") not in dt_ranges:
                num += 1
        elif t.object.datatype not in dt_ranges:
            num += 1
    ratio("M9", num, n_trp)

    # M10: distinct class names over identical, non-empty instance sets
    num = 0
    for c in classes:
        mc = _members(triples, c)
        if not mc:
            continue
        for c2 in classes:
            if c2 == c:
                continue
            if c2 in _superclasses(triples, c) or c in _superclasses(triples, c2):
                continue
            if c2 not in classes:
                continue
            if _members(triples, c2) == mc:
                num += 1
                break
    ratio("M10", num, len(classes))

    return out


# -- rank / correlation oracle ----------------------------------------------

def brute_force_ranks(values):
    """Average ranks by counting, 1-based."""
    ranks = []
    for v in values:
        less = sum(1 for w in values if w < v)
        eq = sum(1 for w in values if w == v)
        ranks.append(less + (eq + 1) / 2.0)
    return ranks


def brute_force_spearman(x, y):
    """Spearman rho via explicit Pearson over brute-force ranks."""
    rx = brute_force_ranks(x)
    ry = brute_force_ranks(y)
    n = len(rx)
    mean_x = sum(rx) / n
    mean_y = sum(ry) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    return cov / (var_x ** 0.5 * var_y ** 0.5)


def spearman_exact_p(x, y):
    """Exact two-sided permutation p-value of Spearman's rho: the share of
    the orderings of ``y`` whose |rho| reaches the observed one. It visits
    all n! orderings, so it serves small n only."""
    observed = abs(brute_force_spearman(x, y)) - 1e-12
    orders = list(permutations(y))
    return sum(abs(brute_force_spearman(x, order)) >= observed for order in orders) / len(orders)
