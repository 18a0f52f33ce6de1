import hashlib
import re
import time
import tracemalloc
from random import Random

import pytest

from rdfqa import (
    BlankNode,
    Iri,
    Literal,
    ParseError,
    Triple,
    load_dataset,
    merge_datasets,
    parse_dataset,
    serialize_dataset,
)
from rdfqa.core.model import RDF_TYPE, XSD_INTEGER, is_declaration_triple, make_dataset
from rdfqa.core.parsing import (
    _IRI_ESCAPED,
    _IRI_ESCAPES,
    _LITERAL_ESCAPED,
    _LITERAL_ESCAPES,
    _NT_PIECES,
    _nt_line_fault,
)
from rdfqa.fixtures import fixture_path

EX = "http://example.org/t#"


def test_single_triple_document():
    ds = parse_dataset(f"<{EX}s> <{EX}p> <{EX}o> .\n", "ntriples", "one")
    assert len(ds.triples) == 1
    assert ds.triples[0] == Triple(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o"))
    assert ds.duplicate_count == 0


def test_duplicate_triples_dropped_and_counted():
    text = f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> <{EX}o> .\n"
    ds = parse_dataset(text, "ntriples", "dup")
    assert len(ds.triples) == 1
    assert ds.duplicate_count == 1


def test_literals_language_and_datatype():
    text = (
        f'<{EX}s> <{EX}p> "plain" .\n'
        f'<{EX}s> <{EX}p> "hello"@en .\n'
        f'<{EX}s> <{EX}p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        f'<{EX}s> <{EX}p> "tab\\there \\"q\\" \\\\" .\n'
        f'_:b1 <{EX}p> _:b2 .\n'
    )
    ds = parse_dataset(text, "ntriples")
    objs = [t.object for t in ds.triples]
    assert objs[0] == Literal("plain")
    assert objs[1] == Literal("hello", language="en")
    assert objs[2] == Literal("5", datatype=XSD_INTEGER)
    assert objs[3] == Literal('tab\there "q" \\')
    assert ds.triples[4].subject == BlankNode("b1")
    assert objs[4] == BlankNode("b2")


def test_comments_and_blank_lines():
    text = f"# header\n\n  \t\n<{EX}s> <{EX}p> <{EX}o> . # trailing\n"
    assert len(parse_dataset(text, "ntriples").triples) == 1


@pytest.mark.parametrize("bad, line", [
    ("<http://a/s> <http://a/p> .\n", 1),
    ("<http://a/s> <http://a/p> <http://a/o>\n", 1),
    ('<http://a/s> <http://a/p> "unterminated .\n', 1),
    ("<http://a/s> <http://a/p> <http://a/o> .\njunk line\n", 2),
    ("<relative> <http://a/p> <http://a/o> .\n", 1),
    ('<http://a/s> <http://a/p> "x"^^<http://a/dt> extra .\n', 1),
])
def test_syntax_errors_carry_line_numbers(bad, line):
    with pytest.raises(ParseError) as err:
        parse_dataset(bad, "ntriples")
    assert err.value.line == line
    assert err.value.column >= 1


def test_unicode_escape_roundtrip():
    ds = parse_dataset(f'<{EX}s> <{EX}p> "\\u00e9\\U0001F600" .\n', "ntriples")
    assert ds.triples[0].object == Literal("é\U0001F600")
    again = parse_dataset(serialize_dataset(ds), "ntriples")
    assert again.triples == ds.triples


def test_serialize_empty_dataset():
    assert serialize_dataset(make_dataset("empty", [])) == b""


def test_roundtrip_and_determinism(family):
    ser = serialize_dataset(family)
    again = parse_dataset(ser, "ntriples", family.id)
    assert again.triples == family.triples
    assert serialize_dataset(family) == ser


def test_turtle_matches_ntriples_fixture(family):
    ttl = load_dataset(fixture_path("family.ttl"))
    assert set(ttl.triples) == set(family.triples)
    assert len(ttl.triples) == len(family.triples)


def test_turtle_features():
    text = """
    @prefix ex: <http://example.org/t#> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    @base <http://example.org/base/> .
    ex:s a ex:C ; ex:p ex:o , "lit"@en-US ; ex:q 5 , 5.5 , 1.0e3 , true .
    <rel> ex:p "typed"^^xsd:string .
    _:named ex:p [ ex:q "inner" ] .
    ex:list ex:items ( ex:a 1 ) .
    # a comment
    ex:long ex:p \"\"\"multi
line\"\"\" .
    """
    ds = parse_dataset(text, "turtle")
    triples = ds.triples
    assert Triple(Iri(EX + "s"), RDF_TYPE, Iri(EX + "C")) in triples
    assert Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("lit", language="en-US")) in triples
    assert Triple(Iri(EX + "s"), Iri(EX + "q"), Literal("5", datatype=XSD_INTEGER)) in triples
    assert any(t.object == Literal("5.5", datatype=Iri("http://www.w3.org/2001/XMLSchema#decimal"))
               for t in triples)
    assert any(t.object == Literal("1.0e3", datatype=Iri("http://www.w3.org/2001/XMLSchema#double"))
               for t in triples)
    assert any(t.object == Literal("true", datatype=Iri("http://www.w3.org/2001/XMLSchema#boolean"))
               for t in triples)
    assert Triple(Iri("http://example.org/base/rel"), Iri(EX + "p"),
                  Literal("typed", datatype=Iri("http://www.w3.org/2001/XMLSchema#string"))) in triples
    assert any(t.subject == BlankNode("named") for t in triples)
    assert any(t.object == Literal("inner") for t in triples)
    first = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#first")
    assert sum(1 for t in triples if t.predicate == first) == 2
    assert any(t.object == Literal("multi\nline") for t in triples)


def test_turtle_parse_is_deterministic():
    text = "@prefix ex: <http://example.org/t#> .\nex:s ex:p [ ex:q [ ex:r 1 ] ] .\n"
    a = parse_dataset(text, "turtle")
    b = parse_dataset(text, "turtle")
    assert a.triples == b.triples


def test_turtle_undefined_prefix_is_error():
    with pytest.raises(ParseError):
        parse_dataset("nope:s nope:p nope:o .", "turtle")


def test_merge_datasets_counts_cross_duplicates(family):
    schema_triples = [t for t in family.triples if is_declaration_triple(t)]
    instance_triples = [t for t in family.triples if not is_declaration_triple(t)]
    schema = make_dataset("schema", schema_triples)
    inst = make_dataset("family", instance_triples + schema_triples[:3])
    merged = merge_datasets(inst, schema)
    assert set(merged.triples) == set(family.triples)
    assert merged.duplicate_count == 3
    assert merged.id == "family"


@pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\U0000DC00", "\\U00110000",
                                    "\\UFFFFFFFF"])
@pytest.mark.parametrize("fmt, template, column", [
    ("ntriples", '<http://a/s> <http://a/p> "ab{}" .\n', 30),
    ("ntriples", "<http://a/s> <http://a/p> <http://a/o{}> .\n", 38),
    ("turtle", '@prefix a: <http://a/> .\na:s a:p "ab{}" .\n', 12),
    ("turtle", "@prefix a: <http://a/> .\na:s a:p <http://a/o{}> .\n", 20),
])
def test_escapes_outside_unicode_scalar_values_are_parse_errors(escape, fmt, template,
                                                                column):
    # a lone surrogate cannot be serialized and chr() rejects code points
    # above U+10FFFF, so both fail at parse time, at the escape
    with pytest.raises(ParseError) as err:
        parse_dataset(template.format(escape), fmt)
    assert (err.value.line, err.value.column) == (template.count("\n"), column)
    assert escape in err.value.message


@pytest.mark.parametrize("line, column", [
    ("<rel> <http://e/p> <http://e/o> .", 1),
    ("<http://e/s> <rel> <http://e/o> .", 14),
    ("<http://e/s> <http://e/p> <rel> .", 27),
    ('<http://e/s> <http://e/p> "x"^^<rel> .', 32),
    ('<http://e/s>  <http://e/p>  "x"^^<r\\u0065l> .', 34),
])
def test_relative_iri_error_points_at_the_iri(line, column):
    with pytest.raises(ParseError) as err:
        parse_dataset(f"<http://e/s> <http://e/p> <http://e/o> .\n{line}\n", "ntriples")
    assert (err.value.line, err.value.column) == (2, column)
    assert err.value.message.startswith("IRI is not absolute: <r")


def test_repeated_escaped_iri_parses_to_one_object():
    ds = parse_dataset("<http://e/\\u0061> <http://e/p> <http://e/\\u0061> .\n"
                       "<http://e/\\u0061> <http://e/q> <http://e/o> .\n", "ntriples")
    first, second = ds.triples
    assert first.subject == Iri("http://e/a")
    assert first.subject is first.object
    assert second.subject is first.subject


def test_escape_error_in_multiline_literal_points_at_its_line():
    text = '@prefix a: <http://a/> .\na:s a:p """one\ntwo \\uD800""" .\n'
    with pytest.raises(ParseError) as err:
        parse_dataset(text, "turtle")
    assert (err.value.line, err.value.column) == (3, 5)


def test_escapes_at_the_edges_of_the_scalar_values_parse():
    ds = parse_dataset(f'<{EX}s> <{EX}p> "\\uD7FF\\uE000\\U0010FFFF" .\n', "ntriples")
    assert ds.triples[0].object == Literal("\uD7FF\uE000\U0010FFFF")
    assert parse_dataset(serialize_dataset(ds), "ntriples").triples == ds.triples


@pytest.mark.parametrize("text, subject", [
    # \u005C escapes a backslash, so \u005Cu0061 decodes to the six characters
    # \u0061 and not, by a second decoding, to "a"
    ("<http://e/\\u005Cu0061> <http://e/p> <http://e/o> .\n", "http://e/\\u0061"),
    ("@prefix e: <http://e/\\u005Cu0062/> .\ne:x <http://e/p> <http://e/o> .\n",
     "http://e/\\u0062/x"),
    ("@base <http://e/> .\n<\\u005Cu0061> <http://e/p> <http://e/o> .\n", "http://e/\\u0061"),
    ("@base <http://e/\\u0061/> .\n<x> <http://e/p> <http://e/o> .\n", "http://e/a/x"),
])
def test_turtle_decodes_each_iri_once(text, subject):
    ds = parse_dataset(text, "turtle")
    assert ds.triples[0].subject == Iri(subject)
    if text.startswith("<"):
        assert parse_dataset(text, "ntriples").triples == ds.triples


@pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
@pytest.mark.parametrize("data, line, column", [
    (b'<http://e/s> <http://e/p> "\xff" .\n', 1, 28),
    # the column counts the characters of the line, not its bytes
    ('<http://e/s> <http://e/p> "\u00e9" .\n<http://e/s> <http://e/p> "\u00e9'.encode()
     + b'\xff" .\n', 2, 29),
])
def test_invalid_utf8_is_a_parse_error_at_the_byte(fmt, data, line, column):
    with pytest.raises(ParseError) as err:
        parse_dataset(data, fmt)
    assert (err.value.line, err.value.column) == (line, column)
    assert err.value.message == "invalid UTF-8 byte 0xFF"


@pytest.mark.parametrize("text, column, message", [
    ("<http://e/a`b> <http://e/p> <http://e/o> .", 12, "invalid character in IRI"),
    ("<http://e/a<b> <http://e/p> <http://e/o> .", 12, "invalid character in IRI"),
    ('<http://e/s> <http://e/p> "a\rb" .', 27, "unterminated string literal"),
    ("<http://e/s> <http://e/p> <http://e/o .", 27, "unterminated IRI"),
    ('<http://e/s> <http://e/p> "x"@1 .', 30, "malformed language tag"),
    # a prefixed name starts with a letter, so neither of these is one
    ("_:-b <http://e/p> <http://e/o> .", 1, "malformed blank node label"),
    ("_x:a <http://e/p> <http://e/o> .", 1, "malformed blank node label"),
])
@pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
def test_both_syntaxes_reject_a_bad_term_at_the_same_place(fmt, text, column, message):
    with pytest.raises(ParseError) as err:
        parse_dataset(text + "\n", fmt)
    assert (err.value.line, err.value.column, err.value.message) == (1, column, message)


@pytest.mark.parametrize("text, column", [
    ("<http://a> <http://b> <http://o>^^<http://c> .", 33),
    ("<http://a> <http://b> <http://o>@en .", 33),
    ("<http://a> <http://b> _:x^^<http://c> .", 26),
    ("<http://a> <http://b> _:x@en .", 26),
])
@pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
def test_a_datatype_or_language_tag_after_a_non_literal_is_rejected(fmt, text, column):
    with pytest.raises(ParseError) as err:
        parse_dataset(text + "\n", fmt)
    assert (err.value.line, err.value.column) == (1, column)
    assert "IRI" not in err.value.message


@pytest.mark.parametrize("text, column, message", [
    ('a:s a:p """abc .', 9, "unterminated string literal"),
    ("a:s a:p 'abc .", 9, "unterminated string literal"),
])
def test_turtle_reports_a_bad_term_at_its_first_character(text, column, message):
    with pytest.raises(ParseError) as err:
        parse_dataset(text + "\n", "turtle")
    assert (err.value.line, err.value.column, err.value.message) == (1, column, message)


# a comment line and a statement whose long string spans three lines, so
# every row's fault stands on line 6 or below and a slip in counting lines
# shows in the row's line number
_TURTLE_PRELUDE = ('@prefix a: <http://a/> .\n# a comment: "no" <string> here\n'
                   'a:s a:p """one\ntwo\nthree""" .\n')


@pytest.mark.parametrize("text, line, column, message", [
    ('  "x" a:p a:o .\n', 6, 3, "expected subject, found '\"x\"'"),
    ('a:s "x" a:o .\n', 6, 5, "expected predicate, found '\"x\"'"),
    ("a:s b:p a:o .\n", 6, 5, "undefined prefix 'b'"),
    ("a:s a:p <rel> .\n", 6, 9, "relative IRI <rel> without a base"),
    ("@base <rel> .\n", 6, 7, "base IRI must be absolute"),
    ("@prefix a <http://b/> .\n", 6, 9, "expected prefix name ending in ':'"),
    ('@prefix b: "x" .\n', 6, 12, "expected IRI in prefix directive"),
    ('a:s a:p "x"^^"y" .\n', 6, 14, "expected datatype IRI"),
    # the end of the file, after a comment and after the last token
    ("a:s a:p ( a:o # open\n", 7, 1, "unterminated collection"),
    ("a:s a:p ( a:o", 6, 14, "unterminated collection"),
    # escapes on the third line of a long string; a backslash can stand last
    # only in an IRI, since the string pattern reads a character after each
    ('a:s a:p """x\ny\nz \\q""" .\n', 8, 3, "unknown escape \\q"),
    ('a:s a:p """x\ny\nz \\u00G1""" .\n', 8, 3, "bad \\u escape"),
    ('a:s a:p """x\ny\nz \\\n""" .\n', 6, 9, "unterminated string literal"),
    ("a:s a:p <http://a/\\> .\n", 6, 19, "dangling backslash"),
])
def test_turtle_errors_are_located_past_comments_and_long_strings(text, line, column,
                                                                  message):
    with pytest.raises(ParseError) as err:
        parse_dataset(_TURTLE_PRELUDE + text, "turtle")
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


def test_crlf_line_endings_still_parse():
    text = "<http://e/s> <http://e/p> \"a\" .\r\n<http://e/s> <http://e/p> <http://e/o> .\r\n"
    assert parse_dataset(text, "ntriples").triples == parse_dataset(text, "turtle").triples
    assert len(parse_dataset(text, "ntriples").triples) == 2


_S, _P, _O = "<http://e/s>", "<http://e/p>", "<http://e/o>"
_SPO = f"{_S} {_P} {_O} .\n".encode()


@pytest.mark.parametrize("data, expected", [
    # line endings: CRLF, a lone final CR, no final newline
    (f'{_S} {_P} "a" .\r\n{_S} {_P} {_O} .\r\n', f'{_S} {_P} "a" .\n'.encode() + _SPO),
    (f"{_S} {_P} {_O} .\r", _SPO),
    (f"{_S} {_P} {_O} .", _SPO),
    (f"{_S} {_P} {_O} .\n\r", _SPO),
    # blank and comment lines that end in CR; only one CR goes with the newline
    (f"\r\n# c\r\n \t\r\n{_S} {_P} {_O} . # c\r\n", _SPO),
    (f"# c\r\r\n{_S} {_P} {_O} .\n", _SPO),
    (f"{_S} {_P} {_O} .\r\r\n", (1, 41, "trailing content after '.'")),
    (f"\r\r\n{_S} {_P} {_O} .\n", (1, 1, "unexpected character '\\r'")),
    (f"{_S} {_P} {_O}\r.\n", (1, 39, "expected '.' at end of triple")),
    # a bad line after CRLF lines is located on its own line
    (f'{_S} {_P} {_O} .\r\n{_S} {_P} "a" .\r\n{_S} {_P} "x .\r\n',
     (3, 27, "unterminated string literal")),
    (f"{_S} {_P} {_O} .\r\n\r\n{_S} <rel> {_O} .\r\n", (3, 14, "IRI is not absolute: <rel>")),
    (f"{_S} {_P} {_O} .\r\n{_S} {_P} <http://e/\\u00ZZ> .\r\n", (2, 37, "bad \\u escape")),
    # a byte order mark, as bytes and as text
    (b"\xef\xbb\xbf" + _SPO, _SPO),
    ("\ufeff" + _SPO.decode(), _SPO),
    # \u005C is a backslash: <http://e/\u005Cu0061> is http://e/\u0061, not http://e/a
    (f"<http://e/\\u005Cu0061> {_P} <http://e/\\u0061> .\n<http://e/a> {_P} <http://e/\\u0061> .\n",
     f"<http://e/\\u005Cu0061> {_P} <http://e/a> .\n<http://e/a> {_P} <http://e/a> .\n".encode()),
    # a line the grammar rejects keeps the grammar's error, though a term
    # before the fault (a relative IRI, a bad escape) fails too
    ("<rel> <http://p> <http://a b> .\n", (1, 27, "invalid character in IRI")),
    ('<http://s> <http://p> "a\\q"^^<http://d x> .\n', (1, 39, "invalid character in IRI")),
    # an IRI left open at the end of a line fails on that line
    ("<http://s> <http://p> <http://o> .\n<http://s\n> <http://p> <http://o> .\n",
     (2, 1, "unterminated IRI")),
    # the first bad line is reported, though a later line fails too
    ("bad line\n<rel> <http://p> <http://o> .\n", (1, 1, "unexpected character 'b'")),
    ("<http://s> <http://p> <http://o> .\rjunk\n", (1, 35, "trailing content after '.'")),
    ("<http://s> <http://p> <http://o> .\nbad", (2, 1, "unexpected character 'b'")),
])
def test_ntriples_lines_parse_or_fail_in_place(data, expected):
    if isinstance(expected, tuple):
        with pytest.raises(ParseError) as err:
            parse_dataset(data, "ntriples")
        assert (err.value.line, err.value.column, err.value.message) == expected
    else:
        assert serialize_dataset(parse_dataset(data, "ntriples")) == expected


@pytest.mark.parametrize("check, table", [(_IRI_ESCAPED, _IRI_ESCAPES),
                                          (_LITERAL_ESCAPED, _LITERAL_ESCAPES)])
def test_escape_checks_find_exactly_the_characters_their_table_escapes(check, table):
    scalars = "".join(chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF)
    assert set(map(ord, check.findall(scalars))) == set(table)


def test_every_escaped_character_round_trips_in_the_bytes_written_before():
    lit = "".join(map(chr, range(0x20))) + '\\"'
    iri_chars = [*map(chr, range(0x21)), *'<>"{}|^`\\']
    p = Iri("http://e/p")
    triples = [Triple(Iri(f"http://e/{c}x"), p, Literal(f"a{c}b")) for c in lit]
    triples += [Triple(Iri("http://e/s"), Iri(f"http://e/p{c}"), Iri(f"http://e/o{c}"))
                for c in iri_chars]
    b = BlankNode("b")
    triples += [Triple(b, p, Literal(lit, datatype=Iri("http://e/dt" + "".join(iri_chars)))),
                Triple(b, p, Literal(lit, language="en-GB")),
                # nothing to escape: written as it is
                Triple(b, p, Literal("\u00e9\u2028\U0010FFFF plain", datatype=XSD_INTEGER))]
    ds = make_dataset("w", triples)
    out = serialize_dataset(ds)
    assert parse_dataset(out, "ntriples", "w") == ds
    # the bytes the writer gave when it escaped every term with str.translate
    assert hashlib.sha256(out).hexdigest() == (
        "875c86b1e0e01db246b1013d3b88a87ffa79eb3f1db24b82aeeeb51f918adc88")


NESTING_DEPTH = 10_000
_NESTED_OPEN = {"bnode": "[ e:p ", "collection": "( ", "mix": "[ e:p ( "}
_NESTED_CLOSE = {"bnode": " ]", "collection": " )", "mix": " ) ]"}


def nested_turtle(shape: str, depth: int) -> str:
    """``e:s e:p`` and an object nested ``depth`` levels deep: blank node
    property lists, collections, or each level one of both."""
    return ("@prefix e: <http://example.org/t#> .\ne:s e:p "
            + _NESTED_OPEN[shape] * depth + "e:o" + _NESTED_CLOSE[shape] * depth + " .\n")


def _nested_triples(shape: str, depth: int) -> list[Triple]:
    """The triples of ``nested_turtle(shape, depth)`` in parse order: a
    blank node is labelled at its ``[``, a collection's node at its ``)``."""
    first, rest, nil = (Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#" + name)
                        for name in ("first", "rest", "nil"))
    p, inner = Iri(EX + "p"), Iri(EX + "o")
    triples, labels = [], iter(range(3 * depth))
    if shape == "mix":
        bnodes = [BlankNode(f"genid{next(labels)}") for _ in range(depth)]
    for level in reversed(range(depth)):
        if shape != "bnode":
            node = BlankNode(f"genid{next(labels)}")
            triples += [Triple(node, first, inner), Triple(node, rest, nil)]
            inner = node
        if shape != "collection":
            node = bnodes[level] if shape == "mix" else BlankNode(f"genid{level}")
            triples.append(Triple(node, p, inner))
            inner = node
    return [*triples, Triple(Iri(EX + "s"), p, inner)]


@pytest.mark.parametrize("shape", sorted(_NESTED_OPEN))
@pytest.mark.parametrize("depth", [1, 3, NESTING_DEPTH])
def test_turtle_nesting_has_no_depth_limit(shape, depth):
    # nested objects are walked with an explicit stack, so 10k levels parse
    # to the same triples and genid labels as shallow nesting does
    ds = parse_dataset(nested_turtle(shape, depth), "turtle")
    assert list(ds.triples) == _nested_triples(shape, depth)


def test_turtle_nested_subjects_and_errors_inside_deep_nesting():
    deep = nested_turtle("mix", NESTING_DEPTH)
    subject = deep.replace("e:s e:p ", "", 1)[:-len(" .\n")] + " e:q e:r .\n"
    assert len(parse_dataset(subject, "turtle").triples) == 3 * NESTING_DEPTH + 1
    # a fault at the bottom is reported where it stands, not as a crash
    with pytest.raises(ParseError, match="expected object, found '.'"):
        parse_dataset(deep.replace("e:o", "."), "turtle")
    with pytest.raises(ParseError, match="unterminated collection"):
        parse_dataset(deep[:deep.index("e:o")], "turtle")


# tracemalloc peak of parse_turtle on a 1 MB literal in each quote form: 1.9
# MB measured for each (the text, its token and the literal), against 228 MB
# for the three forms that took one alternation per character
QUOTE_FORMS = ['"', "'", '"""', "'''"]
LONG_LITERAL_PEAK_MB = 4


@pytest.mark.parametrize("quote", QUOTE_FORMS)
def test_a_long_literal_costs_memory_linear_in_its_size(quote):
    body = "word " * 200_000
    text = f"<{EX}s> <{EX}p> {quote}{body}{quote} .\n"
    tracemalloc.start()
    try:
        ds = parse_dataset(text, "turtle")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.triples[0].object.lexical == body
    assert peak < LONG_LITERAL_PEAK_MB * 2**20


# tracemalloc peak of a parse that fails at an IRI on line 1 of a document
# of 11.3 MB: 1.8 KB for Turtle and 4.9 KB for N-Triples, measured on the
# C7 100k text; 11.3 MB for Turtle while the diagnosis copied the rest of
# the document to find the IRI's closing '>'
BAD_FIRST_LINE_PEAK_KB = 64


@pytest.mark.parametrize("fmt", ["ntriples", "turtle"])
@pytest.mark.parametrize("bad, message", [
    (f"<{EX}a b> <{EX}p> <{EX}o> .\n", "invalid character in IRI"),
    (f"<{EX}a <{EX}p> <{EX}o .\n", "invalid character in IRI"),
    (f"<{EX}a\n", "unterminated IRI"),
])
def test_an_error_on_the_first_line_copies_none_of_the_rest(fmt, bad, message):
    text = bad + f"<{EX}s> <{EX}p> <{EX}o> .\n" * 50_000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_dataset(text, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.line, err.value.message) == (1, message)
    assert peak < BAD_FIRST_LINE_PEAK_KB * 2**10


@pytest.mark.parametrize("quote", ["'", '"'])
def test_an_unterminated_long_string_fails_in_linear_time(quote):
    # each pair of quotes could once be read as one piece or as two, so a
    # body that never closed was retried 2**26 times here
    text = f"<{EX}s> <{EX}p> {quote * 3}" + f"{quote * 2}a" * 26 + "\n"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="unterminated string literal"):
        parse_dataset(text, "turtle")
    assert time.perf_counter() - start < 1.0


def test_a_document_of_unterminated_iris_fails_in_linear_time():
    # an IRI body is scanned up to the next '>', past its own line; a scan
    # that went on to the next line after each failing one would read the
    # rest of this document once per line, about 4 * 10**9 characters
    text = "<http://e/s\n" * 20_000
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_dataset(text, "ntriples")
    assert time.perf_counter() - start < 1.0
    assert (err.value.line, err.value.column, err.value.message) == (1, 1, "unterminated IRI")


@pytest.mark.parametrize("blanks, line, column", [
    (" " * 100_000, 1, 100_001),
    ("# a comment\n" * 10_000, 10_001, 1),
    # a comment that could give back the end of its line would try every
    # way to split this run of '#' into comments, 2**9_999 of them
    ("#" * 10_000 + "\n", 2, 1),
], ids=["spaces", "comment-lines", "hashes"])
def test_blanks_and_comments_before_a_bad_character_are_skipped_in_linear_time(blanks, line,
                                                                               column):
    # no token starts with '`', so the token pattern's leading skip of
    # blanks and comments is retried at most once per skipped character
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_dataset(blanks + "`", "turtle")
    assert time.perf_counter() - start < 1.0
    assert (err.value.line, err.value.column, err.value.message) == (
        line, column, "unexpected character '`'")


# the pieces joined into one pattern, which backtracks across them where the
# walk does not; the walk alone decides whether a line is good
_JOINED_LINE_RE = re.compile("".join(piece.pattern for piece, _, _ in _NT_PIECES))
_GOOD_TERMS = ["<http://e/s>", "<http://e/p>", "<http://e/o>", "_:b1", '"x"', '""', '"a\\"b"']
_BAD_TERMS = ["<http://e/a b>", "<>", "<http://e/o", "<rel>", "_:", "_:b.", '"x', '"\\q"', "e:s",
              "a", ".", "\\", "@", "^^"]
_LINE_BLANKS = [" ", " ", "\t", " \t ", ""]
_LINE_TAILS = ["@en", "@en-US", "@", "@1", "^^<http://e/d>", "^^", "^^e:d", "<http://e/o>"]
_LINE_ENDS = [".", ".", " .", ". # c", ".#c", "", "..", ". x", "#c", " . \t"]


def test_the_walk_of_the_pieces_accepts_the_lines_their_joined_pattern_does():
    rng = Random(19)
    good = 0
    for _ in range(30_000):
        parts = [rng.choice(_LINE_BLANKS)]
        for _ in range(rng.choice([3, 3, 3, 2, 4])):
            terms = _GOOD_TERMS if rng.random() < 0.85 else _BAD_TERMS
            parts += [rng.choice(terms), rng.choice(_LINE_BLANKS)]
        if rng.random() < 0.3:
            parts[-2] += rng.choice(_LINE_TAILS)
        parts += [rng.choice(_LINE_ENDS), rng.choice(_LINE_BLANKS)]
        line = "".join(parts)
        accepted = _JOINED_LINE_RE.match(line) is not None
        assert (_nt_line_fault(line, 0) is None) == accepted, line
        good += accepted
    assert 500 <= good <= 29_000  # both kinds of line are met
