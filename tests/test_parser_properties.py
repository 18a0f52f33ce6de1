"""Property tests for the parsers, generated with Hypothesis.

Every test runs under the derandomized, bounded profile that conftest.py
loads, so every run checks the same examples.
"""

import copy
import json
import re
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, strategies as st

from rdfqa import Dataset, ParseError, assess, load_dataset, parse_dataset, serialize_dataset
from rdfqa.cli import main
from rdfqa.contaminate import contaminate, load_plan, manifest_to_dict
from rdfqa.core.parsing import _TOKEN_RE, parse_ntriples, parse_turtle
from rdfqa.fixtures import fixture_path
from rdfqa.metrics import Dictionary
from rdfqa.reporting import report_to_dict

_SCALARS = st.integers(0x20, 0x10FFFF).filter(lambda c: not 0xD800 <= c <= 0xDFFF)
_UCHAR = st.one_of(_SCALARS.map(lambda c: f"\\u{c:04X}" if c <= 0xFFFF else f"\\U{c:08X}"),
                   _SCALARS.map(lambda c: f"\\U{c:08X}"))
# an escaped backslash, followed by text that reads like an escape: decoded
# once it stays literal text, decoded twice it would turn into a character
_ESCAPED_BACKSLASH = st.one_of(
    st.just("\\u005C"),
    _SCALARS.map(lambda c: f"\\u005Cu{c:04X}" if c <= 0xFFFF else f"\\u005CU{c:08X}"))
_PLAIN = st.text("abcxyz019-_./~", min_size=1, max_size=3)
# raw characters that the W3C grammar excludes from an IRIREF (`, <, {, space,
# CR) or from a "..." string (CR), and a bare backslash
_RAW = st.sampled_from(["`", "<", "{", "\r", "\\", " "])

_FORMATS = st.sampled_from(["ntriples", "turtle"])
# pieces of both syntaxes, of broken ones and of invalid UTF-8, joined at random
_FRAGMENTS = st.sampled_from([
    "<http://e/s>", "<http://e/p>", "<http://e/o", "<", ">", "<rel>", '"', '"x"', '"""',
    "'", "_:b", "_:", "@en", "@", "^^", "^", " ", "\t", "\n", "\r", ".", ";", ",", "#",
    "[", "]", "(", ")", "a", "e:", "@prefix e: <http://e/> .", "@base <http://e/> .",
    "\\", "\\u00", "\\U0001F600", "`", "{", "1", "1.5e3", "true", "é", " ", "﻿",
]).map(lambda s: s.encode("utf-8"))
# Turtle objects nested to any depth: blank-node property lists and
# collections, each holding leaves or further nesting. Each is its text and
# the number of triples it adds: one per predicate of a property list, two
# per collection item, and those of what they hold.
_TURTLE_OBJECTS = st.recursive(
    st.sampled_from(["e:o", "<http://e/o>", "_:b", '"x"', '"y"@en', "1", "true", "[]", "()"]
                    ).map(lambda leaf: (leaf, 0)),
    lambda inner: st.one_of(
        st.lists(st.tuples(st.sampled_from(["e:p", "e:q", "a"]), inner), min_size=1, max_size=3)
        .map(lambda pairs: ("[ " + " ; ".join(f"{p} {o}" for p, (o, _) in pairs) + " ]",
                            sum(1 + n for _, (_, n) in pairs))),
        st.lists(inner, max_size=3).map(lambda items: ("( " + " ".join(o for o, _ in items) + " )",
                                                       sum(2 + n for _, n in items)))),
    max_leaves=12)
_PREFIX = "@prefix e: <http://e/> .\n"
# a nested document cut at any character, for errors met at any depth
_CUT_NESTED_DOCUMENTS = _TURTLE_OBJECTS.map(lambda obj: f"{_PREFIX}e:s e:p {obj[0]} .\n").flatmap(
    lambda doc: st.integers(0, len(doc)).map(lambda k: doc[:k].encode()))
_DOCUMENTS = st.one_of(
    st.binary(max_size=60),
    st.lists(st.one_of(_FRAGMENTS, st.binary(max_size=2)), max_size=25).map(b"".join),
    _CUT_NESTED_DOCUMENTS)


def _body(*extra):
    return st.lists(st.one_of(_PLAIN, _UCHAR, _ESCAPED_BACKSLASH, *extra),
                    min_size=1, max_size=6).map("".join)


def _line(subject, obj):
    return f"{subject} <http://e/p> {obj} .\n"


_IRI = _body().map(lambda body: f"<http://e/{body}>")
_LITERAL = st.tuples(_body(st.sampled_from(["\\n", "\\t", '\\"', "\\\\", " "])),
                     st.sampled_from(["", "@en", "^^<http://e/d>"]),
                     ).map(lambda parts: f'"{parts[0]}"{parts[1]}')
_RAW_IRI = _body(_RAW).map(lambda body: f"<http://e/{body}>")
_RAW_LITERAL = st.tuples(_body(_RAW), st.sampled_from(["", "@en", "^^<http://e/d>"])
                         ).map(lambda parts: f'"{parts[0]}"{parts[1]}')
_RAW_LINES = st.builds(_line, _RAW_IRI, st.one_of(_RAW_IRI, _RAW_LITERAL))


@given(subject=_IRI, obj=st.one_of(_IRI, _LITERAL))
def test_ntriples_line_parses_to_the_same_triple_in_both_parsers(subject, obj):
    line = _line(subject, obj)
    assert parse_turtle(line).triples == parse_ntriples(line).triples


@given(data=_DOCUMENTS, fmt=_FORMATS)
def test_any_bytes_give_a_dataset_or_a_located_parse_error(data, fmt):
    try:
        result = parse_dataset(data, fmt)
    except ParseError as err:
        assert err.line >= 1 and err.column >= 1
    else:
        assert isinstance(result, Dataset)


def _parsed_or_located(data, fmt):
    try:
        return parse_dataset(data, fmt)
    except ParseError as exc:
        return exc.line, exc.column, exc.message


# lines that hold only blanks or a comment, with LF or CRLF ends
_SKIPPED_LINES = st.lists(st.sampled_from(["\n", "\r\n", " \t\n", "#\n", "# <x> \"y ;\r\n"]),
                          min_size=1, max_size=4).map("".join)


@given(data=_DOCUMENTS, lines=_SKIPPED_LINES)
def test_blank_and_comment_lines_before_a_turtle_document_move_only_its_errors(data, lines):
    # a byte order mark is read only at the very start of a document
    assume(not data.startswith("\ufeff".encode()))
    before = _parsed_or_located(data, "turtle")
    after = _parsed_or_located(lines.encode() + data, "turtle")
    if isinstance(before, tuple):
        line, column, message = before
        assert after == (line + lines.count("\n"), column, message)
    else:
        assert after == before


@given(data=st.one_of(_DOCUMENTS, _RAW_LINES.map(str.encode),
                      st.builds(_line, _IRI, st.one_of(_IRI, _LITERAL)).map(str.encode)),
       fmt=_FORMATS)
def test_every_document_that_parses_round_trips(data, fmt):
    try:
        dataset = parse_dataset(data, fmt)
    except ParseError:
        return
    assert parse_dataset(serialize_dataset(dataset)).triples == dataset.triples


@given(obj=_TURTLE_OBJECTS, as_subject=st.booleans())
def test_nested_turtle_gives_its_triples_and_round_trips(obj, as_subject):
    text, nested = obj
    # a literal is no subject
    assume(not (as_subject and text[0] in '"1t'))
    statement = f"{text} e:p e:o ." if as_subject else f"e:s e:p {text} ."
    dataset = parse_dataset(f"{_PREFIX}{statement}\n", "turtle")
    assert len(dataset.triples) + dataset.duplicate_count == 1 + nested
    assert parse_dataset(serialize_dataset(dataset)).triples == dataset.triples


@given(label=st.text("a1_-.", min_size=1, max_size=6), fmt=_FORMATS, as_subject=st.booleans())
# the label grammar ends a label at a label character, never at a dot
@example(label="a.", fmt="ntriples", as_subject=False)
@example(label="a..", fmt="turtle", as_subject=False)
def test_every_dotted_blank_node_label_that_parses_round_trips(label, fmt, as_subject):
    prefix = "" if fmt == "ntriples" else _PREFIX
    line = (f"_:{label} <http://e/p> <http://e/o> .\n" if as_subject
            else f"<http://e/s> <http://e/p> _:{label}.\n")
    try:
        dataset = parse_dataset(f"{prefix}{line}", fmt)
    except ParseError:
        return
    assert parse_dataset(serialize_dataset(dataset)).triples == dataset.triples


@given(line=_RAW_LINES)
def test_raw_excluded_characters_are_read_alike_by_both_parsers(line):
    results = []
    for parse in (parse_ntriples, parse_turtle):
        try:
            results.append(parse(line).triples)
        except ParseError:
            results.append(None)
    assert results[0] == results[1]


@given(line=st.one_of(_RAW_LINES, _DOCUMENTS.map(lambda b: b.decode("utf-8", "replace"))))
def test_no_ntriples_line_is_a_bare_malformed_triple(line):
    try:
        parse_ntriples(line)
    except ParseError as err:
        assert err.message != "malformed triple"


_LINE_PIECES = st.one_of(_RAW_LINES, st.builds(_line, _IRI, st.one_of(_IRI, _LITERAL)),
                         _DOCUMENTS.map(lambda b: b.decode("utf-8", "replace")))


@given(pieces=st.lists(_LINE_PIECES, max_size=6), twice=st.booleans())
def test_a_document_parses_as_its_lines_do_one_by_one(pieces, twice):
    # its triples are those of its lines, less duplicates; its error is the
    # first failing line's, moved down by that line's place in the document
    doc = "".join(pieces * (1 + twice))
    triples, expected = [], None
    for index, line in enumerate(doc.split("\n")):
        try:
            triples += parse_ntriples(line).triples
        except ParseError as err:
            expected = (index + err.line, err.column, err.message)
            break
    try:
        dataset = parse_ntriples(doc)
    except ParseError as err:
        assert (err.line, err.column, err.message) == expected
    else:
        assert expected is None
        assert dataset.triples == tuple(dict.fromkeys(triples))
        assert dataset.duplicate_count == len(triples) - len(dataset.triples)


_PLAN = json.dumps({"seed": 0, "intensities": {f"H{i}": 1 for i in range(1, 15)}})


@given(data=st.one_of(_DOCUMENTS, _RAW_LINES.map(str.encode),
                      st.builds(_line, _IRI, st.one_of(_IRI, _LITERAL)).map(str.encode)),
       command=st.sampled_from(["assess", "contaminate"]),
       suffix=st.sampled_from([".nt", ".ttl"]))
def test_cli_exits_0_or_1_on_any_dataset_bytes_and_writes_nothing_on_1(data, command, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / f"data{suffix}").write_bytes(data)
        (tmp / "plan.json").write_text(_PLAN)
        extra = ["--plan", str(tmp / "plan.json")] if command == "contaminate" else []
        code = main([command, str(tmp / f"data{suffix}"), *extra, "-o", str(tmp / "out")])
        written = sorted(p.name for p in tmp.iterdir())
    inputs = sorted([f"data{suffix}", "plan.json"])
    assert code in (0, 1)
    if code == 1:
        assert written == inputs
    elif command == "contaminate":
        assert written == sorted([*inputs, "out", "out.manifest.json"])
    else:
        assert written == sorted([*inputs, "out"])


# -- the JSON inputs: plans, manifests and reports

_ZOO = str(fixture_path("zoo_clean.nt"))
_ZOO_PLAN = load_plan(fixture_path("plans/zoo_clean.json"))
_WORDS = Dictionary(id="none", words=frozenset())
_VALID = {
    "plan": {"seed": _ZOO_PLAN.seed,
             "intensities": {h.value: n for h, n in _ZOO_PLAN.intensities.items()}},
    "manifest": manifest_to_dict(contaminate(load_dataset(_ZOO), _ZOO_PLAN, _WORDS)[1]),
    "report": report_to_dict(assess(load_dataset(_ZOO), _WORDS)),
}
# the command line for each JSON input, given a valid report and the input
_COMMANDS = {
    "contaminate": ("plan", lambda good, bad: ["contaminate", _ZOO, "--plan", bad]),
    "compare": ("report", lambda good, bad: ["compare", good, bad]),
    "compare --manifest": ("manifest",
                           lambda good, bad: ["compare", good, good, "--manifest", bad]),
    "correlate": ("report", lambda good, bad: ["correlate", good, bad, bad]),
}
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)
_REMOVED = object()


def _paths(doc, at=()):
    """The path, as keys and list indices, of every value inside ``doc``."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield (*at, key)
        yield from _paths(value, (*at, key))


def _mutated(doc):
    """``doc`` with the value at one path replaced by any JSON value, or removed."""
    def mutate(choice):
        path, value = choice
        out = copy.deepcopy(doc)
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        if value is _REMOVED:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return out
    return st.tuples(st.sampled_from(list(_paths(doc))),
                     st.one_of(_JSON, st.just(_REMOVED))).map(mutate)


_JSON_CASES = st.sampled_from(sorted(_COMMANDS)).flatmap(lambda command: st.tuples(
    st.just(command), st.one_of(_JSON, _mutated(_VALID[_COMMANDS[command][0]]))))


@given(case=_JSON_CASES)
# an intensity far past the dataset's size is capped, not run
@example(case=("contaminate", {"seed": 1, "intensities": {"H1": 10**12, "H9": 10**12}}))
def test_cli_exits_0_1_or_2_on_any_json_input_and_writes_nothing_unless_0(case):
    command, value = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        good, bad = tmp / "good.json", tmp / "bad.json"
        good.write_text(json.dumps(_VALID["report"]))
        bad.write_text(json.dumps(value))
        code = main([*_COMMANDS[command][1](str(good), str(bad)), "-o", str(tmp / "out")])
        written = sorted(p.name for p in tmp.iterdir())
    assert code in (0, 1, 2)
    if code:
        assert written == ["bad.json", "good.json"]
    else:
        assert "out" in written


# The string alternatives of the Turtle token pattern as they were before
# they were unrolled: one alternation per character of the body.
_ALTERNATING_STRING_RE = re.compile(r"""
      '''(?:[^'\\]|\\.|'(?!'')|''(?!'))*'''
    | \"\"\"(?:[^"\\]|\\.|"(?!"")|""(?!"))*\"\"\"
    | '(?!'')(?:[^'\\\n\r]|\\.)*'
    | "(?!"")[^"\\\n\r]*(?:\\.[^"\\\n\r]*)*"
    """, re.VERBOSE)

_QUOTE_RUNS = st.sampled_from(["'", '"']).flatmap(
    lambda q: st.integers(1, 3).map(lambda k: q * k))
_STRING_PIECES = st.one_of(
    st.text("ab \t", min_size=1, max_size=3), _QUOTE_RUNS,
    st.sampled_from(["\\n", "\\'", '\\"', "\\\\", "\\u0041", "\\", "\n", "\r", "\\\n", "é"]))


@given(quote=st.sampled_from(["'''", '"""', "'", '"']),
       body=st.lists(_STRING_PIECES, max_size=12).map("".join),
       tail=st.sampled_from(["", "'", '"', "'''", '"""', " .", "'x", '"""x']))
def test_unrolled_strings_match_the_span_of_the_alternating_pattern(quote, body, tail):
    text = quote + body + tail
    old = _ALTERNATING_STRING_RE.match(text)
    new = _TOKEN_RE.match(text)
    assert (new and new.lastgroup, new and new.span()) == (old and "string", old and old.span())
