"""Parsing and serialization of RDF documents.

Two input syntaxes are supported: N-Triples (the canonical interchange and
output format, one triple per line) and a practical Turtle subset (prefixes,
base, predicate/object lists, blank nodes, collections, numeric and boolean
shorthand). Output is always canonical N-Triples: document order, one triple
per line, a fixed escaping policy, so that equal datasets produce identical
bytes and ``parse(serialize(d)) == d``.

A fault is found as an offset into the decoded text: the Turtle lexer and
parser, the N-Triples line diagnosis, the term checks and the escape
decoder raise ``_Fault(offset, message)`` and count no lines.
``_Fault.located`` alone turns an offset into a line and a column, on the
error path only, where ``parse_ntriples``, ``parse_turtle`` and ``_decode``
raise the public ``ParseError``.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
from typing import Iterator
from urllib.parse import urljoin

from .model import (
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    BlankNode,
    Dataset,
    Iri,
    Literal,
    Term,
    Triple,
    make_dataset,
)

FORMAT_NTRIPLES = "ntriples"
FORMAT_TURTLE = "turtle"


class ParseError(Exception):
    """Syntax error in an input document, with 1-based line/column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class _Fault(Exception):
    """A fault in the text being parsed, raised as ``_Fault(offset, message)``."""

    def located(self, text: str) -> ParseError:
        """This fault as a ParseError at its 1-based line and column in
        ``text``. A line ends at LF, so a CR before it is the line's last
        character; a column counts characters, not bytes."""
        offset, message = self.args
        return ParseError(text.count("\n", 0, offset) + 1,
                          offset - text.rfind("\n", 0, offset), message)


_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# The lexical grammar that both syntaxes share (RDF 1.1 N-Triples and Turtle).
# Characters an IRIREF may not hold besides controls and space; the writer
# escapes each of them. Backslash is admitted so \u escapes can be decoded.
_IRI_EXCLUDED = '<>"{}|^`'
_IRI_BODY = rf"[^\x00-\x20{re.escape(_IRI_EXCLUDED)}]*"


def _dotted(first: str, rest: str) -> str:
    """A name of one ``first`` then ``rest`` characters, which may hold dots
    inside but cannot end with one: a run of dots stands only before another
    ``rest`` character, and gives back no dot. ``rest`` may be an
    alternation; left ungrouped, it is one more branch of the loop."""
    return rf"{first}(?:{rest}|\.++(?={rest}))*"


# PN_CHARS, the ASCII part: the characters that may follow a name's first.
_PN_CHARS = r"[A-Za-z0-9_\-]"
_BNODE_LABEL = "_:" + _dotted("[A-Za-z0-9_]", _PN_CHARS)
_LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
# The bodies of the four string forms, unrolled (Friedl, Mastering Regular
# Expressions, ch. 6): a run of plain characters, then escapes each followed
# by such a run. A raw CR or LF ends the line, so neither may occur in a
# short string; in a long string a quote stands unless two more follow it.
# Every loop is possessive and gives back no character, so a body that
# never closes fails in linear time.
_STRING_BODY = r'[^"\\\n\r]*+(?:\\.[^"\\\n\r]*+)*+'
_SINGLE_BODY = r"[^'\\\n\r]*+(?:\\.[^'\\\n\r]*+)*+"
_LONG_DOUBLE_BODY = r'[^"\\]*+(?:(?:\\.|"(?!""))[^"\\]*+)*+'
_LONG_SINGLE_BODY = r"[^'\\]*+(?:(?:\\.|'(?!''))[^'\\]*+)*+"
_IRI_BODY_RE = re.compile(_IRI_BODY)

#: what is wrong when no term matches at a character that may start one
_LEXICAL_ERRORS = {
    "<": "unterminated IRI",
    '"': "unterminated string literal",
    "'": "unterminated string literal",
    "_": "malformed blank node label",
    "@": "malformed language tag",
}


def _line_end(text: str, pos: int) -> int:
    """The offset of the newline that ends the line holding ``text[pos]``,
    or the length of ``text``."""
    end = text.find("\n", pos)
    return len(text) if end < 0 else end


def _lexical_error(text: str, pos: int, starts: str) -> tuple[int, str]:
    """Why no term matches at ``text[pos]``, where a term whose first
    character is in ``starts`` may stand: the offset of the fault and a
    message. A ``^`` in ``starts`` admits ``^^`` and a datatype IRI."""
    if "^" in starts and text.startswith("^^", pos):
        pos, starts = pos + 2, "<"
        if not text.startswith("<", pos):
            return pos, "expected datatype IRI after ^^"
    if pos >= len(text):
        return pos, "unexpected end of line"
    c = text[pos]
    if c not in starts or c not in _LEXICAL_ERRORS:
        return pos, f"unexpected character {c!r}"
    if c == "<" and text.find(">", pos, _line_end(text, pos)) >= 0:
        return _IRI_BODY_RE.match(text, pos + 1).end(), "invalid character in IRI"
    return pos, _LEXICAL_ERRORS[c]


# An N-Triples line as the pieces that _nt_line_fault walks, the one
# definition of a good line; _NT_DOCUMENT_RE joins all but the last. Each
# piece carries the lead characters of the terms it admits, for
# _lexical_error, or the message for a line on which it fails. A datatype or
# a language tag stands only after the closing quote of a literal: the
# suffix piece is bound to that quote, so no backtracking can read a suffix
# after an IRI or a blank node object. It carries both, and its lead
# characters diagnose it only after a closing quote.
_IRIREF = rf"<({_IRI_BODY})>"
_NT_PIECES = [(re.compile(piece), starts, message) for piece, starts, message in [
    (r"[ \t]*", "", None),
    (rf"(?:{_IRIREF}|({_BNODE_LABEL}))", "<_", None),
    (r"[ \t]+", "", "expected whitespace"),
    (_IRIREF, "<", None),
    (r"[ \t]+", "", "expected whitespace"),
    (rf'(?:{_IRIREF}|({_BNODE_LABEL})|"({_STRING_BODY})")', '<_"', None),
    (rf'(?:(?!@|\^\^)|(?<=")(?:\^\^{_IRIREF}|@({_LANGTAG})))', "@^",
     "a datatype or language tag may follow only a literal"),
    (r"[ \t]*", "", None),
    (r"\.", "", "expected '.' at end of triple"),
    (r"[ \t]*", "", None),
    (r"(?:#.*)?$", "", "trailing content after '.'"),
]]

# A whole N-Triples document as one pattern, one match per line: a triple
# (the pieces up to the comment), a blank line, or a comment, then one CR
# before the newline. A line that is none of these matches the last
# alternative, an empty group, at its start: so every line is met in its
# turn, and the scan stops at the first bad one instead of searching on for
# the next line that matches. An IRIREF body is scanned as [^>]*, which sre
# runs as a loop over one character, much faster than the strict class;
# _TermCache.iri checks each body against the strict class once per written
# text. Such a body can run past its newline into later lines, but never
# passes that check.
_NT_DOCUMENT_RE = re.compile(r"(?m)^(?:(?:{}|[ \t]*)(?:#.*)?\r?$|())".format(
    "".join(piece.pattern for piece, _, _ in _NT_PIECES[:-1]).replace(_IRI_BODY, "[^>]*")))

_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


#: one escape: a valid \u or \U escape, or else the one character after the
#: backslash, none when the backslash ends the text
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.?)", re.DOTALL)


def _unescape(raw: str, at: int, allow_echar: bool) -> str:
    """Decode \\uXXXX / \\UXXXXXXXX and (for literals) ECHAR escapes.

    ``raw`` stands at offset ``at`` of the document, so a fault is raised
    at the offending escape's own offset.
    """
    def decode(m: re.Match) -> str:
        e = m[1]
        if len(e) > 1:
            code = int(e[1:], 16)
            # a lone surrogate cannot be encoded as UTF-8 and chr() refuses
            # anything past U+10FFFF
            if not (0xD800 <= code <= 0xDFFF or code > 0x10FFFF):
                return chr(code)
            message = f"\\{e} is not a Unicode scalar value"
        elif allow_echar and e in _STRING_ESCAPES:
            return _STRING_ESCAPES[e]
        elif not e:
            message = "dangling backslash"
        elif e in "uU":
            message = f"bad \\{e} escape"
        else:
            message = f"unknown escape \\{e}"
        raise _Fault(at + m.start(), message)

    return _ESCAPE_RE.sub(decode, raw)


class _TermCache:
    """Interns terms so repeated IRIs/literals share one object per parse."""

    def __init__(self):
        self.iris: dict[str, Iri] = {}
        #: each IRI body as written, escapes and all, once it has been decoded
        #: and checked; kept apart from ``iris``, where <http://e/\u005Cu0061>
        #: and <http://e/\u0061> would meet under the key http://e/\u0061
        self.written: dict[str, Iri] = {}
        self.bnodes: dict[str, BlankNode] = {}

    def iri(self, raw: str, at: int) -> Iri:
        """The IRI written as ``<raw>``, with ``raw`` at offset ``at``:
        checked against the IRIREF grammar, its escapes decoded, then
        interned. A body found in ``written`` has passed all three."""
        node = self.written.get(raw)
        if node is None:
            bad = _IRI_BODY_RE.match(raw).end()
            if bad < len(raw):
                raise _Fault(at + bad, "invalid character in IRI")
            text = _unescape(raw, at, allow_echar=False) if "\\" in raw else raw
            node = self.written[raw] = self.intern(text, at - 1)
        return node

    def intern(self, text: str, at: int) -> Iri:
        """The IRI whose text, already decoded, is ``text``, written at
        offset ``at``; checked once per text."""
        node = self.iris.get(text)
        if node is None:
            if not _SCHEME_RE.match(text):
                raise _Fault(at, f"IRI is not absolute: <{text}>")
            node = self.iris[text] = Iri(text)
        return node

    def bnode(self, label: str) -> BlankNode:
        node = self.bnodes.get(label)
        if node is None:
            node = self.bnodes[label] = BlankNode(label)
        return node


def parse_ntriples(text: str, dataset_id: str = "") -> Dataset:
    """Parse an N-Triples document. Duplicate triples are dropped and counted.

    One ``finditer`` scan of ``_NT_DOCUMENT_RE`` reads the whole document,
    one match per line, so no line is sliced out of ``text``. An IRI body is
    checked against the IRIREF grammar, decoded and interned once per text
    as written; a body written before is found by that text alone. Each
    literal and triple is built by ``tuple.__new__``, past the checks of the
    classes' own constructors: the line grammar admits no literal with both
    a datatype and a language tag. Each triple keys an insertion-ordered
    dict as it is built, which drops the duplicates in document order.

    Errors are located only on failure, with the same priority as a walk
    line by line: the first line that is no triple, blank line or comment
    is diagnosed from its own text. A term that fails (a bad IRI, a relative
    one, a bad escape) gives way to the fault of its line when the line
    grammar rejects the line, and stands otherwise.
    """
    cache = _TermCache()
    written, iri, bnode = cache.written, cache.iri, cache.bnode
    new = tuple.__new__
    kept: dict[Triple, None] = {}
    lines = blank = 0
    for lines, m in enumerate(_NT_DOCUMENT_RE.finditer(text), 1):
        s_iri, s_bnode, p_iri, o_iri, o_bnode, o_lex, o_dt, o_lang, rejected = m.groups()
        if p_iri is None:
            if rejected is not None:
                raise _nt_line_fault(text, m.start()).located(text)
            blank += 1
            continue
        # each group of a term's text is passed with its own offset, which
        # is read only when the term is new or holds an escape
        try:
            subject = (written.get(s_iri) or iri(s_iri, m.start(1))
                       if s_iri is not None else bnode(s_bnode[2:]))
            predicate = written.get(p_iri) or iri(p_iri, m.start(3))
            if o_iri is not None:
                obj: Term = written.get(o_iri) or iri(o_iri, m.start(4))
            elif o_bnode is not None:
                obj = bnode(o_bnode[2:])
            else:
                lex = (_unescape(o_lex, m.start(6), allow_echar=True)
                       if "\\" in o_lex else o_lex)
                dt = (written.get(o_dt) or iri(o_dt, m.start(7))
                      if o_dt is not None else None)
                obj = new(Literal, (2, lex, dt, o_lang))
        except _Fault as fault:
            raise (_nt_line_fault(text, m.start()) or fault).located(text) from None
        kept[new(Triple, (subject, predicate, obj))] = None
    return Dataset(dataset_id, tuple(kept), lines - blank - len(kept))


def _nt_line_fault(text: str, start: int) -> _Fault | None:
    """The fault of the line that starts at ``text[start]``, less one CR
    before its newline, at the first piece that fails; None if every piece
    matches."""
    end = _line_end(text, start)
    if end > start and text[end - 1] == "\r":
        end -= 1
    line = text[start:end]
    pos = 0
    for piece, starts, message in _NT_PIECES:
        m = piece.match(line, pos)
        if m is None:
            if starts and (message is None or line[pos - 1] == '"'):
                pos, message = _lexical_error(line, pos, starts)
            return _Fault(start + pos, message)
        pos = m.end()
    return None


# ---------------------------------------------------------------------------
# Canonical N-Triples serialization


_LITERAL_ESCAPES = {i: "\\u%04X" % i for i in range(0x20)} | {
    ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n",
    ord("\r"): "\\r", ord("\t"): "\\t",
}
# every character an IRIREF body excludes, and the backslash that starts an escape
_IRI_ESCAPES = {i: "\\u%04X" % i for i in [*range(0x21), *map(ord, _IRI_EXCLUDED + "\\")]}


def _escaped_chars(table: dict[int, str]) -> re.Pattern:
    """One character class of the characters ``table`` maps. Few texts hold
    any of them, and a search for one is much cheaper than ``str.translate``."""
    return re.compile("[" + "".join(re.escape(chr(c)) for c in table) + "]")


_LITERAL_ESCAPED = _escaped_chars(_LITERAL_ESCAPES)
_IRI_ESCAPED = _escaped_chars(_IRI_ESCAPES)


def _iri_ntriples(text: str) -> str:
    return "<" + (text.translate(_IRI_ESCAPES) if _IRI_ESCAPED.search(text) else text) + ">"


def term_to_ntriples(term: Term) -> str:
    if isinstance(term, Iri):
        return _iri_ntriples(term.text)
    if isinstance(term, BlankNode):
        return "_:" + term.label
    lex = term.lexical
    if _LITERAL_ESCAPED.search(lex):
        lex = lex.translate(_LITERAL_ESCAPES)
    if term.datatype is not None:
        return f'"{lex}"^^{_iri_ntriples(term.datatype.text)}'
    if term.language is not None:
        return f'"{lex}"@{term.language}'
    return f'"{lex}"'


def triple_to_ntriples(t: Triple) -> str:
    return f"{term_to_ntriples(t.subject)} {term_to_ntriples(t.predicate)} {term_to_ntriples(t.object)} ."


class _NodeTexts(dict):
    """The N-Triples text of each IRI or blank node asked for, kept once made."""

    def __missing__(self, term):
        text = self[term] = term_to_ntriples(term)
        return text


# Triples per block of serialized output: a writer holds one block's text
# and bytes at a time, never the whole document's.
SERIALIZE_BLOCK_TRIPLES = 4096


def serialize_blocks(dataset: Dataset) -> Iterator[bytes]:
    """Canonical N-Triples (the only output syntax), as UTF-8 blocks of
    ``SERIALIZE_BLOCK_TRIPLES`` lines, each line ending in a newline.

    A term is escaped only where the check of its table finds a character to
    escape; all other text is written as it is. Each IRI and blank node is
    formatted once per block, through a memo as short-lived as the block;
    a literal is formatted where it stands, as ``triple_to_ntriples`` does.
    """
    triples = dataset.triples
    for start in range(0, len(triples), SERIALIZE_BLOCK_TRIPLES):
        block = triples[start:start + SERIALIZE_BLOCK_TRIPLES]
        nodes = _NodeTexts()
        yield "".join([f"{nodes[s]} {nodes[p]} "
                       f"{term_to_ntriples(o) if o[0] == 2 else nodes[o]} .\n"
                       for s, p, o in block]).encode("utf-8")


def serialize_dataset(dataset: Dataset) -> bytes:
    """The whole canonical N-Triples document: the blocks of
    ``serialize_blocks``, joined."""
    return b"".join(serialize_blocks(dataset))


# ---------------------------------------------------------------------------
# Turtle


# PN_PREFIX and PN_LOCAL of the W3C grammar, the ASCII part. PLX is a
# percent-encoded byte or a backslash escape (PN_LOCAL_ESC).
_PLX = r"%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?\#@%]"
_PN_PREFIX = _dotted("[A-Za-z]", _PN_CHARS)
_PN_LOCAL = _dotted(f"(?:[A-Za-z0-9_:]|{_PLX})", f"[A-Za-z0-9_:\\-]|{_PLX}")
# A keyword ends where no name character follows. It is tried after a
# prefixed name, so ``a:b``, ``a.b:`` and ``true:`` are names.
_KEYWORD_END = f"(?!{_PN_CHARS})"
# The SPARQL forms PREFIX and BASE are tried before a prefixed name, so they
# end only where no name could go on: before no name character, no ':' and
# no dots that a name character follows. ``PREFIX:`` and ``base.x:`` are names.
_SPARQL_KEYWORD_END = rf"(?!{_PN_CHARS}|:|\.++{_PN_CHARS})"

# Whitespace and comments, skipped before each token, unrolled like the
# string bodies and as possessive. No token starts with a blank or '#', so
# a skip is never retried and never reads a token inside a comment.
_SKIP = r"[ \t\r\n]*+(?:\#[^\n]*+[ \t\r\n]*+)*+"
_SKIP_RE = re.compile(_SKIP)

_TOKEN_RE = re.compile(
    rf"""{_SKIP}(?:
      (?P<iriref><{_IRI_BODY}>)
    | (?P<string>'''{_LONG_SINGLE_BODY}'''
        |\"\"\"{_LONG_DOUBLE_BODY}\"\"\"
        |'(?!''){_SINGLE_BODY}'
        |"(?!""){_STRING_BODY}")
    | (?P<prefix_kw>@prefix(?![A-Za-z0-9_\-])|@base(?![A-Za-z0-9_\-])
        |[Pp][Rr][Ee][Ff][Ii][Xx]{_SPARQL_KEYWORD_END}
        |[Bb][Aa][Ss][Ee]{_SPARQL_KEYWORD_END})
    | (?P<langtag>@{_LANGTAG})
    | (?P<blank>{_BNODE_LABEL})
    | (?P<double>[+-]?(?:[0-9]+\.[0-9]*|\.?[0-9]+)[eE][+-]?[0-9]+)
    | (?P<decimal>[+-]?[0-9]*\.[0-9]+)
    | (?P<integer>[+-]?[0-9]+)
    | (?P<dtype>\^\^)
    | (?P<punct>[.;,\[\]()])
    | (?P<pname>(?:{_PN_PREFIX})?:(?:{_PN_LOCAL})?)
    | (?P<boolean>(?:true|false){_KEYWORD_END})
    | (?P<kw_a>a{_KEYWORD_END})
    )""",
    re.VERBOSE,
)


#: the datatype of each numeric or boolean shorthand token kind
_SHORTHAND_DATATYPES = {
    "integer": XSD_INTEGER, "decimal": XSD_DECIMAL, "double": XSD_DOUBLE,
    "boolean": XSD_BOOLEAN,
}


def _tokenize_turtle(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` as ``(kind, value, offset)``, then an ``eof``
    token at the end of the text. A fault stands at the first character
    after the blanks that starts no token."""
    tokens = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos = 0
    while m := match(text, pos):
        kind = m.lastgroup
        append((kind, m[kind], m.start(kind)))
        pos = m.end()
    pos = _SKIP_RE.match(text, pos).end()
    if pos < len(text):
        raise _Fault(*_lexical_error(text, pos, '<"\'_@'))
    append(("eof", "", pos))
    return tokens


class _OpenList:
    """A predicate-object list being parsed: its subject, the predicate of
    the objects being read, and the punctuation that closes it (``"]"``, or
    ``None`` for a statement's list, which the statement's ``.`` ends)."""

    __slots__ = ("subject", "predicate", "closer")

    def __init__(self, subject: Term, predicate: Iri, closer: str | None):
        self.subject = subject
        self.predicate = predicate
        self.closer = closer


class _TurtleParser:
    """Descent parser over the token stream; nested objects are walked with
    an explicit stack (``walk``), so nesting depth is bounded by memory only.
    A fault is raised at the offset of the token where it is found.

    Blank node labels written in the document are preserved; anonymous nodes
    get deterministic ``genidN`` labels (collision-checked against the
    document's own labels), so a given byte sequence always parses to the
    same dataset.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize_turtle(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.base: str | None = None
        self.cache = _TermCache()
        self.triples: list[Triple] = []
        self.used_labels = {value[2:] for kind, value, _ in self.tokens if kind == "blank"}
        self.anon_counter = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def kind(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def at(self, chars: str) -> bool:
        """Whether the next token is one of the punctuation characters ``chars``."""
        kind, value, _ = self.tokens[self.pos]
        return kind == "punct" and value in chars

    def expect_punct(self, ch: str):
        if not self.at(ch):
            _, value, at = self.peek()
            raise _Fault(at, f"expected {ch!r}, found {value!r}")
        self.next()

    def iriref_text(self, value: str, at: int) -> str:
        """The text of the IRIREF token ``value`` with its escapes decoded, once."""
        raw = value[1:-1]
        return _unescape(raw, at + 1, allow_echar=False) if "\\" in raw else raw

    def resolve_iri(self, value: str, at: int) -> Iri:
        raw = self.iriref_text(value, at)
        if not _SCHEME_RE.match(raw):
            if self.base is None:
                raise _Fault(at, f"relative IRI <{raw}> without a base")
            raw = urljoin(self.base, raw)
        try:
            return self.cache.intern(raw, at)
        except _Fault:
            raise _Fault(at, f"cannot resolve <{raw}> to an absolute IRI") from None

    def iri(self, tok: tuple[str, str, int]) -> Iri | None:
        """The IRI an IRIREF or prefixed-name token names; None for other tokens."""
        kind, value, at = tok
        if kind == "iriref":
            return self.resolve_iri(value, at)
        if kind != "pname":
            return None
        prefix, _, local = value.partition(":")
        ns = self.prefixes.get(prefix)
        if ns is None:
            raise _Fault(at, f"undefined prefix {prefix!r}")
        if "\\" in local:
            local = re.sub(r"\\(.)", r"\1", local)
        return self.cache.intern(ns + local, at)

    def fresh_bnode(self) -> BlankNode:
        while True:
            label = f"genid{self.anon_counter}"
            self.anon_counter += 1
            if label not in self.used_labels:
                self.used_labels.add(label)
                return self.cache.bnode(label)

    def parse(self) -> list[Triple]:
        while self.kind() != "eof":
            if self.kind() == "prefix_kw":
                self.directive()
            else:
                self.statement()
        return self.triples

    def directive(self):
        _, written, _ = self.next()
        keyword = written.lower().lstrip("@")
        if keyword == "prefix":
            kind, name, at = self.next()
            if kind != "pname" or not name.endswith(":"):
                raise _Fault(at, "expected prefix name ending in ':'")
        kind, value, at = self.next()
        if kind != "iriref":
            raise _Fault(at, f"expected IRI in {keyword} directive")
        if keyword == "prefix":
            self.prefixes[name[:-1]] = self.resolve_iri(value, at).text
        else:
            raw = self.iriref_text(value, at)
            self.base = urljoin(self.base, raw) if self.base else raw
            if not _SCHEME_RE.match(self.base):
                raise _Fault(at, "base IRI must be absolute")
        # the SPARQL forms PREFIX and BASE take no '.'
        if written.startswith("@"):
            self.expect_punct(".")

    def statement(self):
        if self.at("["):
            subject = self.object_term()
            if not self.at("."):
                self.predicate_object_list(subject)
        else:
            subject = self.object_term() if self.at("(") else self.subject()
            self.predicate_object_list(subject)
        self.expect_punct(".")

    def subject(self):
        tok = self.next()
        kind, value, at = tok
        if kind == "blank":
            return self.cache.bnode(value[2:])
        node = self.iri(tok)
        if node is None:
            raise _Fault(at, f"expected subject, found {value!r}")
        return node

    def verb(self) -> Iri:
        tok = self.next()
        kind, value, at = tok
        if kind == "kw_a":
            return RDF_TYPE
        node = self.iri(tok)
        if node is None:
            raise _Fault(at, f"expected predicate, found {value!r}")
        return node

    def predicate_object_list(self, subject):
        self.walk([_OpenList(subject, self.verb(), None)])

    def object_term(self) -> Term:
        return self.walk([])

    def walk(self, stack: list) -> Term:
        """Parse objects until no list is left open on ``stack``.

        A blank node property list or a collection opens a list, and its
        objects are parsed before the object it makes is handed to the list
        below it. The open lists live on ``stack`` rather than on the call
        stack, so nesting has no depth limit. Each open list is an
        ``_OpenList`` (a predicate-object list) or a ``list`` of collection
        items. Returns the object made last: the one object parsed when
        ``stack`` starts empty.
        """
        while True:
            if self.at("["):
                self.next()
                node = self.fresh_bnode()
                if not self.at("]"):
                    stack.append(_OpenList(node, self.verb(), "]"))
                    continue
                self.next()
                value: Term = node
            elif self.at("("):
                self.next()
                if not self.at(")"):
                    self.check_collection_open()
                    stack.append([])
                    continue
                self.next()
                value = RDF_NIL
            else:
                value = self.simple_object()
            # hand the finished object to the list open below it, and close
            # every list that it ends
            while stack:
                top = stack[-1]
                if isinstance(top, list):
                    top.append(value)
                    if not self.at(")"):
                        self.check_collection_open()
                        break
                    self.next()
                    stack.pop()
                    value = self.collection_nodes(top)
                    continue
                self.triples.append(Triple(top.subject, top.predicate, value))
                if self.at(","):
                    self.next()
                    break
                if self.at(";"):
                    while self.at(";"):
                        self.next()
                    if not self.at(".])") and self.kind() != "eof":
                        top.predicate = self.verb()
                        break
                stack.pop()
                if top.closer is not None:
                    self.expect_punct(top.closer)
                value = top.subject
            else:
                return value

    def simple_object(self) -> Term:
        tok = self.next()
        kind, value, at = tok
        if kind == "blank":
            return self.cache.bnode(value[2:])
        if kind == "string":
            return self.finish_literal(value, at)
        if kind in _SHORTHAND_DATATYPES:
            return Literal(value, datatype=_SHORTHAND_DATATYPES[kind])
        node = self.iri(tok)
        if node is None:
            raise _Fault(at, f"expected object, found {value!r}")
        return node

    def finish_literal(self, value: str, at: int) -> Literal:
        quote = 3 if value.startswith(("'''", '"""')) else 1
        body = value[quote:-quote]
        lex = _unescape(body, at + quote, allow_echar=True) if "\\" in body else body
        kind, tag, _ = self.peek()
        if kind == "langtag":
            self.next()
            return Literal(lex, language=tag[1:])
        if kind == "dtype":
            self.next()
            tok = self.next()
            dt = self.iri(tok)
            if dt is None:
                raise _Fault(tok[2], "expected datatype IRI")
            return Literal(lex, datatype=dt)
        return Literal(lex)

    def check_collection_open(self):
        kind, _, at = self.peek()
        if kind == "eof":
            raise _Fault(at, "unterminated collection")

    def collection_nodes(self, items: list[Term]) -> BlankNode:
        """The first node of the rdf:first/rdf:rest chain over ``items``;
        the nodes are labelled after every item has been parsed."""
        nodes = [self.fresh_bnode() for _ in items]
        for i, (node, item) in enumerate(zip(nodes, items)):
            self.triples.append(Triple(node, RDF_FIRST, item))
            rest: Term = nodes[i + 1] if i + 1 < len(nodes) else RDF_NIL
            self.triples.append(Triple(node, RDF_REST, rest))
        return nodes[0]


def parse_turtle(text: str, dataset_id: str = "") -> Dataset:
    """Parse a Turtle document into a dataset (document statement order)."""
    try:
        triples = _TurtleParser(text).parse()
    except _Fault as fault:
        raise fault.located(text) from None
    return make_dataset(dataset_id, triples)


# ---------------------------------------------------------------------------
# Front door


def _decode(data: bytes | str) -> str:
    """The text of a document: ``data`` decoded as UTF-8, less a leading byte
    order mark. A byte that does not decode is a ParseError at its place."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes, and its end is the byte's place
        before = data[:exc.start].decode("utf-8-sig")
        fault = _Fault(len(before), f"invalid UTF-8 byte 0x{data[exc.start]:02X}")
        raise fault.located(before) from None
    return text[1:] if text.startswith("\ufeff") else text


def _parse_text(text: str, fmt: str, dataset_id: str) -> Dataset:
    if fmt == FORMAT_NTRIPLES:
        return parse_ntriples(text, dataset_id)
    if fmt == FORMAT_TURTLE:
        return parse_turtle(text, dataset_id)
    raise ValueError(f"unknown format: {fmt!r}")


def parse_dataset(data: bytes | str, fmt: str = FORMAT_NTRIPLES,
                  dataset_id: str = "") -> Dataset:
    """Parse ``data`` in the given format ("ntriples" or "turtle")."""
    return _parse_text(_decode(data), fmt, dataset_id)


def guess_format(path: Path) -> str:
    return FORMAT_TURTLE if path.suffix.lower() in (".ttl", ".turtle") else FORMAT_NTRIPLES


def load_dataset(path: str | Path) -> Dataset:
    """Parse the file at ``path`` in the format its suffix names; its id is the file stem.

    The file's bytes are an argument of the decode step alone, so they are
    freed when it returns, before the parse builds its first triple.
    """
    path = Path(path)
    return _parse_text(_decode(path.read_bytes()), guess_format(path), path.stem)


def merge_datasets(primary: Dataset, extra: Dataset) -> Dataset:
    """Concatenate two datasets (e.g. instance file + schema file), dedup'd."""
    merged = make_dataset(primary.id, primary.triples + extra.triples)
    return replace(merged, duplicate_count=merged.duplicate_count
                   + primary.duplicate_count + extra.duplicate_count)
