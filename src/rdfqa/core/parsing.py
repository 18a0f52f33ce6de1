"""Parsing and serialization of RDF documents.

Two input syntaxes are supported: N-Triples (the canonical interchange and
output format, one triple per line) and a practical Turtle subset (prefixes,
base, predicate/object lists, blank nodes, collections, numeric and boolean
shorthand). Output is always canonical N-Triples: document order, one triple
per line, a fixed escaping policy, so that equal datasets produce identical
bytes and ``parse(serialize(d)) == d``.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
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


_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

# IRIREF body: '>' terminates; control characters, space and IRI-forbidden
# punctuation are rejected; backslash is admitted so \u escapes can be decoded.
_IRI_BODY = r'[^\x00-\x20<>"{}|^]*'
# Label may contain inner dots but cannot end with one.
_BNODE_LABEL = r"_:[A-Za-z0-9_](?:[A-Za-z0-9_\-]|\.(?=[A-Za-z0-9_.\-]))*"
_LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"

_NT_LINE_RE = re.compile(
    rf"^[ \t]*"
    rf"(?:<({_IRI_BODY})>|({_BNODE_LABEL}))[ \t]+"
    rf"<({_IRI_BODY})>[ \t]+"
    rf'(?:<({_IRI_BODY})>|({_BNODE_LABEL})|"((?:[^"\\]|\\.)*)"'
    rf"(?:\^\^<({_IRI_BODY})>|@({_LANGTAG}))?)"
    rf"[ \t]*\.[ \t]*(?:#.*)?$"
)

_BLANK_OR_COMMENT_RE = re.compile(r"^[ \t]*(?:#.*)?$")

_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape(raw: str, line: int, allow_echar: bool, col: int = 1) -> str:
    """Decode \\uXXXX / \\UXXXXXXXX and (for literals) ECHAR escapes.

    ``line`` and ``col`` locate ``raw[0]`` in the document, so an error
    points at the offending escape, also inside a multi-line literal.
    """

    def fail(i: int, message: str):
        nl = raw.rfind("\n", 0, i)
        if nl < 0:
            raise ParseError(line, col + i, message)
        raise ParseError(line + raw.count("\n", 0, i), i - nl, message)

    out = []
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= n:
            fail(i, "dangling backslash")
        e = raw[i + 1]
        if e == "u" or e == "U":
            width = 4 if e == "u" else 8
            hexpart = raw[i + 2:i + 2 + width]
            if len(hexpart) != width or any(h not in "0123456789abcdefABCDEF" for h in hexpart):
                fail(i, f"bad \\{e} escape")
            code = int(hexpart, 16)
            # a lone surrogate cannot be encoded as UTF-8 and chr() refuses
            # anything past U+10FFFF
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                fail(i, f"\\{e}{hexpart} is not a Unicode scalar value")
            out.append(chr(code))
            i += 2 + width
        elif allow_echar and e in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[e])
            i += 2
        else:
            fail(i, f"unknown escape \\{e}")
    return "".join(out)


class _TermCache:
    """Interns terms so repeated IRIs/literals share one object per parse."""

    def __init__(self):
        self.iris: dict[str, Iri] = {}
        self.bnodes: dict[str, BlankNode] = {}

    def iri(self, raw: str, line: int) -> Iri:
        """The IRI written as ``<raw>``: its escapes decoded, then interned."""
        if "\\" in raw:
            raw = _unescape(raw, line, allow_echar=False)
        node = self.iris.get(raw)  # most IRIs repeat, so look up before calling intern
        return node if node is not None else self.intern(raw, line)

    def intern(self, text: str, line: int) -> Iri:
        """The IRI whose text, already decoded, is ``text``; checked once per text."""
        node = self.iris.get(text)
        if node is None:
            if not _SCHEME_RE.match(text):
                raise ParseError(line, 1, f"IRI is not absolute: <{text}>")
            node = self.iris[text] = Iri(text)
        return node

    def bnode(self, label: str) -> BlankNode:
        node = self.bnodes.get(label)
        if node is None:
            node = BlankNode(label)
            self.bnodes[label] = node
        return node


def parse_ntriples(text: str, dataset_id: str = "") -> Dataset:
    """Parse an N-Triples document. Duplicate triples are dropped and counted."""
    cache = _TermCache()
    triples = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if _BLANK_OR_COMMENT_RE.match(line):
            continue
        m = _NT_LINE_RE.match(line)
        if m is None:
            _diagnose_nt_line(line, lineno)
            raise ParseError(lineno, 1, "malformed triple")
        s_iri, s_bnode, p_iri, o_iri, o_bnode, o_lex, o_dt, o_lang = m.groups()
        try:
            subject = cache.iri(s_iri, lineno) if s_iri is not None else cache.bnode(s_bnode[2:])
            predicate = cache.iri(p_iri, lineno)
            if o_iri is not None:
                obj: Term = cache.iri(o_iri, lineno)
            elif o_bnode is not None:
                obj = cache.bnode(o_bnode[2:])
            else:
                lex = _unescape(o_lex, lineno, allow_echar=True) if "\\" in o_lex else o_lex
                dt = cache.iri(o_dt, lineno) if o_dt is not None else None
                obj = Literal(lex, datatype=dt, language=o_lang)
        except ParseError:
            _diagnose_nt_terms(m, lineno)
            raise
        triples.append(Triple(subject, predicate, obj))
    return make_dataset(dataset_id, triples)


def _diagnose_nt_terms(m: re.Match, lineno: int):
    """Re-decode a matched line's terms in parse order to report the column
    of a bad escape, or of the '<' of an IRI that is not absolute."""
    for group in (1, 3, 4, 6, 7):
        raw = m.group(group)
        if raw is not None and "\\" in raw:
            raw = _unescape(raw, lineno, allow_echar=group == 6, col=m.start(group) + 1)
        if raw is not None and group != 6 and not _SCHEME_RE.match(raw):
            raise ParseError(lineno, m.start(group), f"IRI is not absolute: <{raw}>")


def _diagnose_nt_line(line: str, lineno: int):
    """Walk a rejected line to report a useful column for the syntax error."""
    pos = 0
    n = len(line)

    def skip_ws(required: bool):
        nonlocal pos
        start = pos
        while pos < n and line[pos] in " \t":
            pos += 1
        if required and pos == start:
            raise ParseError(lineno, pos + 1, "expected whitespace")

    def term(kinds: str):
        nonlocal pos
        if pos >= n:
            raise ParseError(lineno, pos + 1, "unexpected end of line")
        c = line[pos]
        if c == "<":
            end = line.find(">", pos)
            if end < 0:
                raise ParseError(lineno, pos + 1, "unterminated IRI")
            body = line[pos + 1:end]
            bad = re.search(r'[\x00-\x20"{}|^]', body)
            if bad:
                raise ParseError(lineno, pos + 2 + bad.start(), "invalid character in IRI")
            pos = end + 1
            return
        if c == "_" and "b" in kinds:
            m = re.match(_BNODE_LABEL, line[pos:])
            if not m:
                raise ParseError(lineno, pos + 1, "malformed blank node label")
            pos += m.end()
            return
        if c == '"' and "l" in kinds:
            m = re.match(r'"(?:[^"\\]|\\.)*"', line[pos:])
            if not m:
                raise ParseError(lineno, pos + 1, "unterminated string literal")
            pos += m.end()
            if pos < n and line[pos] == "@":
                m2 = re.match("@" + _LANGTAG, line[pos:])
                if not m2:
                    raise ParseError(lineno, pos + 1, "malformed language tag")
                pos += m2.end()
            elif line[pos:pos + 2] == "^^":
                pos += 2
                if pos >= n or line[pos] != "<":
                    raise ParseError(lineno, pos + 1, "expected datatype IRI after ^^")
                term("i")
            return
        raise ParseError(lineno, pos + 1, f"unexpected character {c!r}")

    skip_ws(False)
    term("ib")
    skip_ws(True)
    term("i")
    skip_ws(True)
    term("ibl")
    skip_ws(False)
    if pos >= n or line[pos] != ".":
        raise ParseError(lineno, pos + 1, "expected '.' at end of triple")
    pos += 1
    skip_ws(False)
    if pos < n and line[pos] != "#":
        raise ParseError(lineno, pos + 1, "trailing content after '.'")


# ---------------------------------------------------------------------------
# Canonical N-Triples serialization


def _control_escapes() -> dict[int, str]:
    return {i: "\\u%04X" % i for i in range(0x20)}


_LITERAL_ESCAPES = _control_escapes()
_LITERAL_ESCAPES.update({
    ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n",
    ord("\r"): "\\r", ord("\t"): "\\t",
})
_IRI_ESCAPES = _control_escapes()
_IRI_ESCAPES.update({ord(c): "\\u%04X" % ord(c) for c in '<>"{}|^`\\ '})


def term_to_ntriples(term: Term) -> str:
    if isinstance(term, Iri):
        return "<" + term.text.translate(_IRI_ESCAPES) + ">"
    if isinstance(term, BlankNode):
        return "_:" + term.label
    lex = term.lexical.translate(_LITERAL_ESCAPES)
    if term.datatype is not None:
        return f'"{lex}"^^<{term.datatype.text.translate(_IRI_ESCAPES)}>'
    if term.language is not None:
        return f'"{lex}"@{term.language}'
    return f'"{lex}"'


def triple_to_ntriples(t: Triple) -> str:
    return f"{term_to_ntriples(t.subject)} {term_to_ntriples(t.predicate)} {term_to_ntriples(t.object)} ."


def serialize_dataset(dataset: Dataset) -> bytes:
    """Serialize to canonical N-Triples (the only output syntax)."""
    if not dataset.triples:
        return b""
    lines = [triple_to_ntriples(t) for t in dataset.triples]
    lines.append("")
    return "\n".join(lines).encode("utf-8")


# ---------------------------------------------------------------------------
# Turtle


_PN_LOCAL = r"(?:[A-Za-z0-9_:%\-]|\.(?=[A-Za-z0-9_:%\-.\\])|\\[_~.\-!$&'()*+,;=/?\#@%])*"

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<iriref><[^<>"{}|^`\x00-\x20]*>)
    | (?P<string>'''(?:[^'\\]|\\.|'(?!'')|''(?!'))*'''
        |\"\"\"(?:[^"\\]|\\.|"(?!"")|""(?!"))*\"\"\"
        |'(?:[^'\\\n\r]|\\.)*'
        |"(?:[^"\\\n\r]|\\.)*")
    | (?P<prefix_kw>@prefix(?![A-Za-z0-9_\-])|@base(?![A-Za-z0-9_\-])
        |[Pp][Rr][Ee][Ff][Ii][Xx](?![A-Za-z0-9_:\-])
        |[Bb][Aa][Ss][Ee](?![A-Za-z0-9_:\-]))
    | (?P<langtag>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
    | (?P<blank>_:[A-Za-z0-9_](?:[A-Za-z0-9_\-]|\.(?=[A-Za-z0-9_.\-]))*)
    | (?P<double>[+-]?(?:[0-9]+\.[0-9]*|\.?[0-9]+)[eE][+-]?[0-9]+)
    | (?P<decimal>[+-]?[0-9]*\.[0-9]+)
    | (?P<integer>[+-]?[0-9]+)
    | (?P<dtype>\^\^)
    | (?P<punct>[.;,\[\]()])
    | (?P<boolean>(?:true|false)(?![A-Za-z0-9_:\-]))
    | (?P<kw_a>a(?![A-Za-z0-9_:\-]))
    | (?P<pname>(?:[A-Za-z_][A-Za-z0-9_\-.]*)?:PN_LOCAL)
    """.replace("PN_LOCAL", _PN_LOCAL),
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize_turtle(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, pos - line_start + 1,
                             f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        value = m.group()
        col = pos - line_start + 1
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _TurtleParser:
    """Recursive-descent parser over the token stream.

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
        self.used_labels = {t.value[2:] for t in self.tokens if t.kind == "blank"}
        self.anon_counter = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str):
        tok = self.next()
        if tok.kind != "punct" or tok.value != ch:
            raise ParseError(tok.line, tok.col, f"expected {ch!r}, found {tok.value!r}")

    def error(self, tok: _Token, msg: str):
        raise ParseError(tok.line, tok.col, msg)

    def iriref_text(self, tok: _Token) -> str:
        """The text of an IRIREF token with its escapes decoded, once."""
        raw = tok.value[1:-1]
        return _unescape(raw, tok.line, allow_echar=False, col=tok.col + 1) if "\\" in raw else raw

    def resolve_iri(self, tok: _Token) -> Iri:
        raw = self.iriref_text(tok)
        if not _SCHEME_RE.match(raw):
            if self.base is None:
                self.error(tok, f"relative IRI <{raw}> without a base")
            raw = urljoin(self.base, raw)
        try:
            return self.cache.intern(raw, tok.line)
        except ParseError:
            self.error(tok, f"cannot resolve <{raw}> to an absolute IRI")

    def expand_pname(self, raw: str, tok: _Token) -> Iri:
        prefix, _, local = raw.partition(":")
        ns = self.prefixes.get(prefix)
        if ns is None:
            self.error(tok, f"undefined prefix {prefix!r}")
        if "\\" in local:
            local = re.sub(r"\\(.)", r"\1", local)
        return self.cache.intern(ns + local, tok.line)

    def fresh_bnode(self) -> BlankNode:
        while True:
            label = f"genid{self.anon_counter}"
            self.anon_counter += 1
            if label not in self.used_labels:
                self.used_labels.add(label)
                return self.cache.bnode(label)

    def parse(self) -> list[Triple]:
        while self.peek().kind != "eof":
            if self.peek().kind == "prefix_kw":
                self.directive()
            else:
                self.statement()
        return self.triples

    def directive(self):
        tok = self.next()
        keyword = tok.value.lower().lstrip("@")
        sparql_style = not tok.value.startswith("@")
        if keyword == "prefix":
            name_tok = self.next()
            if name_tok.kind != "pname" or not name_tok.value.endswith(":"):
                self.error(name_tok, "expected prefix name ending in ':'")
            iri_tok = self.next()
            if iri_tok.kind != "iriref":
                self.error(iri_tok, "expected IRI in prefix directive")
            ns = self.resolve_iri(iri_tok)
            self.prefixes[name_tok.value[:-1]] = ns.text
        else:
            iri_tok = self.next()
            if iri_tok.kind != "iriref":
                self.error(iri_tok, "expected IRI in base directive")
            raw = self.iriref_text(iri_tok)
            self.base = urljoin(self.base, raw) if self.base else raw
            if not _SCHEME_RE.match(self.base):
                self.error(iri_tok, "base IRI must be absolute")
        if not sparql_style:
            self.expect_punct(".")

    def statement(self):
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "[":
            subject = self.bnode_property_list()
            if not (self.peek().kind == "punct" and self.peek().value == "."):
                self.predicate_object_list(subject)
        elif tok.kind == "punct" and tok.value == "(":
            subject = self.collection()
            self.predicate_object_list(subject)
        else:
            subject = self.subject()
            self.predicate_object_list(subject)
        self.expect_punct(".")

    def subject(self):
        tok = self.next()
        if tok.kind == "iriref":
            return self.resolve_iri(tok)
        if tok.kind == "pname":
            return self.expand_pname(tok.value, tok)
        if tok.kind == "blank":
            return self.cache.bnode(tok.value[2:])
        self.error(tok, f"expected subject, found {tok.value!r}")

    def verb(self) -> Iri:
        tok = self.next()
        if tok.kind == "kw_a":
            return RDF_TYPE
        if tok.kind == "iriref":
            return self.resolve_iri(tok)
        if tok.kind == "pname":
            return self.expand_pname(tok.value, tok)
        self.error(tok, f"expected predicate, found {tok.value!r}")

    def predicate_object_list(self, subject):
        while True:
            predicate = self.verb()
            while True:
                obj = self.object_term()
                self.triples.append(Triple(subject, predicate, obj))
                if self.peek().kind == "punct" and self.peek().value == ",":
                    self.next()
                    continue
                break
            if self.peek().kind == "punct" and self.peek().value == ";":
                while self.peek().kind == "punct" and self.peek().value == ";":
                    self.next()
                tok = self.peek()
                if (tok.kind == "punct" and tok.value in ".])") or tok.kind == "eof":
                    return
                continue
            return

    def object_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "[":
            return self.bnode_property_list()
        if tok.kind == "punct" and tok.value == "(":
            return self.collection()
        tok = self.next()
        if tok.kind == "iriref":
            return self.resolve_iri(tok)
        if tok.kind == "pname":
            return self.expand_pname(tok.value, tok)
        if tok.kind == "blank":
            return self.cache.bnode(tok.value[2:])
        if tok.kind == "string":
            return self.finish_literal(tok)
        if tok.kind == "integer":
            return Literal(tok.value, datatype=XSD_INTEGER)
        if tok.kind == "decimal":
            return Literal(tok.value, datatype=XSD_DECIMAL)
        if tok.kind == "double":
            return Literal(tok.value, datatype=XSD_DOUBLE)
        if tok.kind == "boolean":
            return Literal(tok.value, datatype=XSD_BOOLEAN)
        self.error(tok, f"expected object, found {tok.value!r}")

    def finish_literal(self, tok: _Token) -> Literal:
        raw = tok.value
        quote = 3 if raw.startswith(("'''", '"""')) else 1
        body = raw[quote:-quote]
        lex = (_unescape(body, tok.line, allow_echar=True, col=tok.col + quote)
               if "\\" in body else body)
        nxt = self.peek()
        if nxt.kind == "langtag":
            self.next()
            return Literal(lex, language=nxt.value[1:])
        if nxt.kind == "dtype":
            self.next()
            dtok = self.next()
            if dtok.kind == "iriref":
                dt = self.resolve_iri(dtok)
            elif dtok.kind == "pname":
                dt = self.expand_pname(dtok.value, dtok)
            else:
                self.error(dtok, "expected datatype IRI")
            return Literal(lex, datatype=dt)
        return Literal(lex)

    def bnode_property_list(self) -> BlankNode:
        self.expect_punct("[")
        node = self.fresh_bnode()
        if not (self.peek().kind == "punct" and self.peek().value == "]"):
            self.predicate_object_list(node)
        self.expect_punct("]")
        return node

    def collection(self) -> Term:
        self.expect_punct("(")
        items = []
        while not (self.peek().kind == "punct" and self.peek().value == ")"):
            if self.peek().kind == "eof":
                self.error(self.peek(), "unterminated collection")
            items.append(self.object_term())
        self.next()
        if not items:
            return RDF_NIL
        nodes = [self.fresh_bnode() for _ in items]
        for i, (node, item) in enumerate(zip(nodes, items)):
            self.triples.append(Triple(node, RDF_FIRST, item))
            rest: Term = nodes[i + 1] if i + 1 < len(nodes) else RDF_NIL
            self.triples.append(Triple(node, RDF_REST, rest))
        return nodes[0]


def parse_turtle(text: str, dataset_id: str = "") -> Dataset:
    """Parse a Turtle document into a dataset (document statement order)."""
    triples = _TurtleParser(text).parse()
    return make_dataset(dataset_id, triples)


# ---------------------------------------------------------------------------
# Front door


def parse_dataset(data: bytes | str, fmt: str = FORMAT_NTRIPLES,
                  dataset_id: str = "") -> Dataset:
    """Parse ``data`` in the given format ("ntriples" or "turtle")."""
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
    if text.startswith("﻿"):
        text = text[1:]
    if fmt == FORMAT_NTRIPLES:
        return parse_ntriples(text, dataset_id)
    if fmt == FORMAT_TURTLE:
        return parse_turtle(text, dataset_id)
    raise ValueError(f"unknown format: {fmt!r}")


def guess_format(path: Path) -> str:
    return FORMAT_TURTLE if path.suffix.lower() in (".ttl", ".turtle") else FORMAT_NTRIPLES


def load_dataset(path: str | Path, fmt: str | None = None,
                 dataset_id: str | None = None) -> Dataset:
    path = Path(path)
    if fmt is None:
        fmt = guess_format(path)
    if dataset_id is None:
        dataset_id = path.stem
    return parse_dataset(path.read_bytes(), fmt, dataset_id)


def merge_datasets(primary: Dataset, extra: Dataset) -> Dataset:
    """Concatenate two datasets (e.g. instance file + schema file), dedup'd."""
    merged = make_dataset(primary.id, primary.triples + extra.triples)
    return replace(merged, duplicate_count=merged.duplicate_count
                   + primary.duplicate_count + extra.duplicate_count)
