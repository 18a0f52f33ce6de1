"""Property tests for the parsers, generated with Hypothesis.

Settings are derandomized and bounded, so every run checks the same examples.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from rdfqa.core.parsing import parse_ntriples, parse_turtle

_SCALARS = st.integers(0x20, 0x10FFFF).filter(lambda c: not 0xD800 <= c <= 0xDFFF)
_UCHAR = st.one_of(_SCALARS.map(lambda c: f"\\u{c:04X}" if c <= 0xFFFF else f"\\U{c:08X}"),
                   _SCALARS.map(lambda c: f"\\U{c:08X}"))
# an escaped backslash, followed by text that reads like an escape: decoded
# once it stays literal text, decoded twice it would turn into a character
_ESCAPED_BACKSLASH = st.one_of(
    st.just("\\u005C"),
    _SCALARS.map(lambda c: f"\\u005Cu{c:04X}" if c <= 0xFFFF else f"\\u005CU{c:08X}"))
_PLAIN = st.text("abcxyz019-_./~", min_size=1, max_size=3)


def _body(*extra):
    return st.lists(st.one_of(_PLAIN, _UCHAR, _ESCAPED_BACKSLASH, *extra),
                    min_size=1, max_size=6).map("".join)


_IRI = _body().map(lambda body: f"<http://e/{body}>")
_LITERAL = st.tuples(_body(st.sampled_from(["\\n", "\\t", '\\"', "\\\\", " "])),
                     st.sampled_from(["", "@en", "^^<http://e/d>"]),
                     ).map(lambda parts: f'"{parts[0]}"{parts[1]}')


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(subject=_IRI, obj=st.one_of(_IRI, _LITERAL))
def test_ntriples_line_parses_to_the_same_triple_in_both_parsers(subject, obj):
    line = f"{subject} <http://e/p> {obj} .\n"
    assert parse_turtle(line).triples == parse_ntriples(line).triples
