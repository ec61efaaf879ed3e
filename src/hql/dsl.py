"""Text format for signatures, terms, algebras, monoids, theories and proofs.

One small prefix grammar covers every object kind.  UTF-8 text, `#` starts
a line comment.  Variables are written x0, x1, ... or as user names, which
are canonicalised to the lowest free indices in first-occurrence order
within one statement; mixing a user name with an explicit index it already
claimed is an error rather than a silent merge.

Block forms:

    signature NAME { op/arity; ... }
    hypersub NAME over SIG { f(x0, x1) -> term; c -> term; ... }
    monoid NAME over SIG { elements a, b; }
    monoid NAME over SIG { generators a, b; cap 64; }
    monoid NAME over SIG { preset trivial; }          # also: fundamental,
                                                      # depth(d),
                                                      # zero_meet(d, zero, meet),
                                                      # zero_meet_fundamental(zero, meet)
    algebra NAME over SIG { elements e1 e2; f = [[...], [...]]; c = e1; }
    theory NAME over SIG { quasi; quasi; ... }
    quasi NAME over SIG { quasi }
    proof NAME over SIG in MHQ(MONOID) from THEORY
    1: <quasi> by <justification>
    ...

Separators are optional: a `;` after a block item and a `,` between list
items may be left out (`elements a b c;`).  A block gives each operation one
table or image, a monoid takes at most one `preset` and one `cap`, and
`subst` binds each variable once.  Every parse error reads
`file:line:col: message`; a block the model refuses (an empty signature, a
missing image, a monoid without the identity) is reported at its keyword.
A name that refers to nothing or is defined twice is a ResolveError at
that name; only a name given to a `Workspace` lookup has no position.

Identities are `t = s`; quasi-equations `t1 = s1, ..., tk = sk => t = s`
(`=> t = s` and bare `t = s` are both allowed).  Binary algebra tables are
row-major by first argument; a constant is assigned a single element.
Justifications: `hyp k`, `E1(p)`, `E2(p,q)`, `E3(p,q,r)`,
`E4(f; t1,...,tn; s1,...,sn)`, `ge4(p; t1,...,tn; s1,...,sn)`,
`subst m {x0 -> t, ...}`, `cut m k`, `ext m <identity>`,
`hypsub m SIGMA_NAME`, `mp m k` (line references are 1-based).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import fields
from typing import Iterator, NamedTuple, Sequence

from .algebras import AlgebraError, FiniteAlgebra
from .hypersubs import GENERATED_CAP, PRESETS, HyperSub, Monoid, MonoidError
from .proofs import (
    LINE_REFS,
    Compat,
    Cut,
    Ext,
    Hyp,
    HypSub,
    Justification,
    Logic,
    Mp,
    Proof,
    Refl,
    Subst,
    Sym,
    TermCompat,
    Trans,
    line_refs,
)
from .semantics import Theory
from .terms import (
    App,
    Equation,
    QuasiEquation,
    Signature,
    Substitution,
    Term,
    TermError,
    Var,
    format_term,
    variables,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, filename: str = "<input>"):
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(f"{filename}:{line}:{col}: {message}")


class ResolveError(LookupError):
    def __init__(self, kind: str, name: str, problem: str = "unknown", where: str = ""):
        """`where` is the `file:line:col: ` of a name read from text."""
        self.kind = kind
        self.name = name
        super().__init__(f"{where}{problem} {kind} {name!r}")


class Token(NamedTuple):
    kind: str  # ident | number | punct | arrow | implies | eof
    text: str
    line: int
    col: int


# One match per token: leading whitespace and comments, then exactly one
# group.  `bad` is any other character; `eof` matches only at the end.
_TOKEN_RE = re.compile(
    r"\s*(?:\#[^\n]*\s*)*"
    r"(?:(?P<arrow>->)"
    r"|(?P<implies>=>)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>\d+)"
    r"|(?P<punct>[{}()\[\],;:/=])"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))"
)

_VAR_RE = re.compile(r"x(\d+)$")

_PRESET_ALIASES = {"MF": "fundamental"}

# Monoid clause -> the one member list it belongs to; a block takes one.
_MONOID_CLAUSES = {"elements": "elements", "generators": "generators", "cap": "generators", "preset": "preset"}

# Justification class -> its `.hql` word; the docstring gives each form.
_RULE_WORDS: dict[type, str] = {
    Hyp: "hyp",
    Refl: "E1",
    Sym: "E2",
    Trans: "E3",
    Compat: "E4",
    TermCompat: "ge4",
    Subst: "subst",
    Cut: "cut",
    Ext: "ext",
    HypSub: "hypsub",
    Mp: "mp",
}
_RULE_CLASSES = {word: cls for cls, word in _RULE_WORDS.items()}


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """The tokens of `text`, ending with one `eof` token.  Lines count from 1
    and only `\\n` ends one; columns count characters from 1."""
    newlines = [-1, *(m.start() for m in re.finditer("\n", text))]  # line 1 starts after -1
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        line = bisect_right(newlines, start)
        col = start - newlines[line - 1]
        if kind == "bad":
            raise ParseError(f"unexpected character {text[start]!r}", line, col, filename)
        tokens.append(Token(kind, m.group(kind), line, col))
        if kind == "eof":  # an empty match may follow a token that ends there
            break
    return tokens


class _Reader:
    """A cursor over a token list that ends in `eof`; it never moves past
    that token, so `tokens[pos]` is always in range."""

    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.tokens[self.pos]
        return ParseError(message, tok.line, tok.col, self.filename)

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        self.pos += 1  # `text` is never the empty text of `eof`
        return tok

    def expect_kind(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise self.error(f"expected {kind}, found {tok.text or 'end of input'!r}", tok)
        self.pos += 1  # `kind` is never `eof`
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def until(self, close: str, sep: str) -> Iterator[None]:
        """One pass of the caller's loop body per list item, as in
        `for _ in reader.until("}", ";"): <read one item>`: an item may be
        followed by one `sep`, and the list ends at `close`, which is read."""
        while not self.at(close):
            yield
            if self.at(sep):
                self.next()
        self.expect(close)


class _TermScope:
    """Variable canonicalisation for one statement."""

    def __init__(self, reserved: frozenset[str] = frozenset()):
        self.aliases: dict[str, int] = {}
        self.used: set[int] = set()
        self.reserved = reserved

    def explicit(self, index: int, reader: _Reader, tok: Token) -> int:
        for alias, i in self.aliases.items():
            if i == index:
                raise reader.error(
                    f"variable x{index} collides with the alias {alias!r}", tok
                )
        self.used.add(index)
        return index

    def parameter(self, index: int, reader: _Reader, tok: Token, op_tok: Token) -> None:
        """Bind the pattern parameter `tok` of `op_tok` to position `index`:
        x<index> itself, or a name not bound yet."""
        m = _VAR_RE.match(tok.text)
        if m and int(m.group(1)) != index:
            raise reader.error(f"positional parameter {tok.text!r} must be x{index}", op_tok)
        if tok.text in self.aliases:
            raise reader.error(f"repeated parameter {tok.text!r}", tok)
        if not m:
            self.aliases[tok.text] = index
        self.used.add(index)

    def alias(self, name: str) -> int:
        if name in self.aliases:
            return self.aliases[name]
        idx = 0
        while idx in self.used:
            idx += 1
        self.aliases[name] = idx
        self.used.add(idx)
        return idx


def _parse_term(reader: _Reader, sig: Signature, scope: _TermScope) -> Term:
    tokens = reader.tokens
    tok = tokens[reader.pos]
    name = tok.text
    if tok.kind != "ident":
        raise reader.error(f"expected a term, found {name or 'end of input'!r}", tok)
    reader.pos += 1
    if name in scope.reserved:
        raise reader.error(f"unexpected keyword {name!r}", tok)
    arity = sig._arity.get(name)
    if arity is None:
        var_match = _VAR_RE.match(name)
        if var_match:
            return Var(scope.explicit(int(var_match.group(1)), reader, tok))
        if tokens[reader.pos].text == "(":
            raise reader.error(f"unknown operation symbol {name!r}", tok)
        return Var(scope.alias(name))
    if arity == 0:
        if tokens[reader.pos].text == "(":
            reader.pos += 1
            reader.expect(")")
        return App(name)
    reader.expect("(")
    args = [_parse_term(reader, sig, scope)]
    while tokens[reader.pos].text == ",":
        reader.pos += 1
        args.append(_parse_term(reader, sig, scope))
    close = reader.expect(")")
    if len(args) != arity:
        raise reader.error(
            f"operation {name!r} expects {arity} argument(s), got {len(args)}", close
        )
    return App(name, tuple(args))


def _parse_equation(reader: _Reader, sig: Signature, scope: _TermScope) -> Equation:
    lhs = _parse_term(reader, sig, scope)
    reader.expect("=")
    rhs = _parse_term(reader, sig, scope)
    return Equation(lhs, rhs)


def _parse_quasi(reader: _Reader, sig: Signature, scope: _TermScope) -> QuasiEquation:
    if reader.at("=>"):
        reader.next()
        return QuasiEquation((), _parse_equation(reader, sig, scope))
    eqs = [_parse_equation(reader, sig, scope)]
    while reader.at(","):
        reader.next()
        eqs.append(_parse_equation(reader, sig, scope))
    if reader.at("=>"):
        reader.next()
        conclusion = _parse_equation(reader, sig, scope)
        return QuasiEquation(tuple(eqs), conclusion)
    if len(eqs) != 1:
        raise reader.error("premise list without a '=>' conclusion")
    return QuasiEquation((), eqs[0])


def parse_term(text: str, sig: Signature) -> Term:
    reader = _Reader(tokenize(text), "<term>")
    term = _parse_term(reader, sig, _TermScope())
    if reader.peek().kind != "eof":
        raise reader.error("trailing input after term")
    return term


def parse_quasi(text: str, sig: Signature) -> QuasiEquation:
    reader = _Reader(tokenize(text), "<quasi>")
    quasi = _parse_quasi(reader, sig, _TermScope())
    if reader.peek().kind != "eof":
        raise reader.error("trailing input after quasi-equation")
    return quasi


# -- workspace ----------------------------------------------------------------


def _read_text(path: str) -> str:
    """The file as text mode reads it (`\\r\\n` and a lone `\\r` become
    `\\n`); bytes that are not UTF-8 are a ParseError at the first of them."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text, bad = data.decode("utf-8"), False
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), True
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    if bad:
        raise ParseError("not UTF-8 text", text.count("\n") + 1, len(text) - text.rfind("\n"), path)
    return text


class Workspace:
    """Named registry of every parsed object; names are unique per kind and
    later definitions may reference earlier ones across files."""

    def __init__(self) -> None:
        self.signatures: dict[str, Signature] = {}
        self.hypersubs: dict[str, tuple[Signature, HyperSub]] = {}
        self.monoids: dict[str, Monoid] = {}
        self.algebras: dict[str, FiniteAlgebra] = {}
        self.theories: dict[str, Theory] = {}
        self.quasis: dict[str, tuple[Signature, QuasiEquation]] = {}
        self.proofs: dict[str, Proof] = {}
        self._anon_proofs = 0

    @classmethod
    def load(cls, paths: Sequence[str]) -> "Workspace":
        ws = cls()
        for path in paths:
            ws.load_text(_read_text(str(path)), filename=str(path))
        return ws

    def load_text(self, text: str, filename: str = "<input>") -> "Workspace":
        _BlockParser(self, tokenize(text, filename), filename).run()
        return self

    def signature(self, name: str) -> Signature:
        return self._lookup(self.signatures, "signature", name)

    def hypersub(self, name: str) -> tuple[Signature, HyperSub]:
        return self._lookup(self.hypersubs, "hypersub", name)

    def monoid(self, name: str) -> Monoid:
        return self._lookup(self.monoids, "monoid", name)

    def algebra(self, name: str) -> FiniteAlgebra:
        return self._lookup(self.algebras, "algebra", name)

    def theory(self, name: str) -> Theory:
        return self._lookup(self.theories, "theory", name)

    def quasi(self, name: str) -> tuple[Signature, QuasiEquation]:
        return self._lookup(self.quasis, "quasi", name)

    def proof(self, name: str) -> Proof:
        return self._lookup(self.proofs, "proof", name)

    @staticmethod
    def _lookup(registry: dict, kind: str, name: str):
        if name not in registry:
            raise ResolveError(kind, name)
        return registry[name]


class _BlockParser(_Reader):
    def __init__(self, ws: Workspace, tokens: list[Token], filename: str):
        super().__init__(tokens, filename)
        self.ws = ws

    def run(self) -> None:
        handlers = {
            "signature": self._signature,
            "hypersub": self._hypersub,
            "monoid": self._monoid,
            "algebra": self._algebra,
            "theory": self._theory,
            "quasi": self._quasi,
            "proof": self._proof,
        }
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.text not in handlers:
                raise self.error(f"expected a definition keyword, found {tok.text!r}", tok)
            try:
                handlers[tok.text]()
            except (TermError, MonoidError, AlgebraError) as exc:  # a block the model refuses
                raise self.error(str(exc), tok) from exc

    def _header(self) -> tuple[Token, Signature]:
        """`NAME over SIG {`: the block's name token and signature."""
        name = self.expect_kind("ident")
        sig = self._over()
        self.expect("{")
        return name, sig

    def _where(self, tok: Token) -> str:
        return f"{self.filename}:{tok.line}:{tok.col}: "

    def _define(self, registry: dict, kind: str, name: Token, value) -> None:
        """Register `value` under the text of the token `name`, where a
        duplicate is reported."""
        if name.text in registry:
            raise ResolveError(kind, name.text, "duplicate", self._where(name))
        registry[name.text] = value

    def _ref(self, registry: dict, kind: str) -> tuple[Token, object]:
        """The next token, a name, and what it names in `registry`."""
        tok = self.expect_kind("ident")
        if tok.text not in registry:
            raise ResolveError(kind, tok.text, where=self._where(tok))
        return tok, registry[tok.text]

    def _sigma(self, sig: Signature, context: str) -> HyperSub:
        """The hypersubstitution named by the next token, over `sig`."""
        tok, (sigma_sig, sigma) = self._ref(self.ws.hypersubs, "hypersub")
        if sigma_sig != sig:
            raise self.error(f"hypersub signature differs from the {context} signature", tok)
        return sigma

    def _over(self) -> Signature:
        """`over IDENT`: the signature named IDENT."""
        self.expect("over")
        return self._ref(self.ws.signatures, "signature")[1]

    def _signature(self) -> None:
        name = self.expect_kind("ident")
        self.expect("{")
        ops: dict[str, int] = {}
        for _ in self.until("}", ";"):
            op = self.expect_kind("ident")
            if _VAR_RE.match(op.text):
                raise self.error(f"operation name {op.text!r} clashes with variable syntax", op)
            if op.text in ops:
                raise self.error(f"duplicate operation symbol {op.text!r}", op)
            self.expect("/")
            ops[op.text] = int(self.expect_kind("number").text)
        sig = Signature(tuple(ops.items()), name=name.text)
        self._define(self.ws.signatures, "signature", name, sig)

    def _hypersub(self) -> None:
        name, sig = self._header()
        images: dict[str, Term] = {}
        for _ in self.until("}", ";"):
            op_tok = self.expect_kind("ident")
            if not sig.has(op_tok.text):
                raise self.error(f"unknown operation symbol {op_tok.text!r}", op_tok)
            arity = sig.arity(op_tok.text)
            scope = _TermScope()
            if self.at("("):
                self.next()
                params = [self.expect_kind("ident") for _ in self.until(")", ",")]
                if len(params) != arity:
                    raise self.error(
                        f"pattern for {op_tok.text!r} needs {arity} parameter(s)", op_tok
                    )
                for i, p in enumerate(params):
                    scope.parameter(i, self, p, op_tok)
            elif arity != 0:
                raise self.error(f"pattern for {op_tok.text!r} needs parameters", op_tok)
            self.expect("->")
            img_tok = self.peek()
            img = _parse_term(self, sig, scope)
            if any(v >= arity for v in variables(img)):
                raise self.error(f"image of {op_tok.text!r} uses variables beyond its arity {arity}", img_tok)
            if op_tok.text in images:
                raise self.error(f"two images for {op_tok.text!r}", op_tok)
            images[op_tok.text] = img
        sigma = HyperSub.of(sig, images)
        self._define(self.ws.hypersubs, "hypersub", name, (sig, sigma))

    def _monoid(self) -> None:
        name, sig = self._header()
        sigmas: list[HyperSub] = []  # the elements or the generators
        cap: int | None = None
        preset: tuple[str, tuple] | None = None
        first: Token | None = None  # the clause that fixed the member list
        for _ in self.until("}", ";"):
            word = self.expect_kind("ident")
            member_list = _MONOID_CLAUSES.get(word.text)
            if member_list is None:
                raise self.error(f"unknown monoid clause {word.text!r}", word)
            if first is not None and _MONOID_CLAUSES[first.text] != member_list:
                raise self.error(f"{word.text!r} cannot follow {first.text!r}: a monoid takes one member list", word)
            first = first or word
            if (word.text == "cap" and cap is not None) or (word.text == "preset" and preset is not None):
                raise self.error(f"two {word.text!r} clauses", word)
            if word.text == "cap":
                cap = int(self.expect_kind("number").text)
            elif word.text == "preset":
                preset = self._preset()
            else:
                while self.peek().kind == "ident":
                    sigmas.append(self._sigma(sig, "monoid"))
                    if self.at(","):
                        self.next()
        if preset is not None:
            word, params = preset
            monoid = Monoid.preset(sig, word, *params, name=name.text)
        elif sigmas:
            if member_list == "elements":
                monoid = Monoid.explicit(sig, sigmas, name=name.text)
            else:
                monoid = Monoid.generated(sig, sigmas, cap=GENERATED_CAP if cap is None else cap, name=name.text)
        else:
            raise self.error("monoid needs elements, generators or a preset")
        self._define(self.ws.monoids, "monoid", name, monoid)

    def _preset(self) -> tuple[str, tuple]:
        """A preset word and its parameters, read by the PRESETS types."""
        tok = self.expect_kind("ident")
        word = _PRESET_ALIASES.get(tok.text, tok.text)
        if word not in PRESETS:
            raise self.error(f"unknown preset {tok.text!r}", tok)
        params: list = []
        for i, ptype in enumerate(PRESETS[word].params):
            self.expect("," if i else "(")
            if ptype == "depth":
                params.append(int(self.expect_kind("number").text))
            else:
                params.append(self.expect_kind("ident").text)
        if params:
            self.expect(")")
        return word, tuple(params)

    def _label(self) -> Token:
        tok = self.next()
        if tok.kind not in ("ident", "number"):
            raise self.error(f"expected an element label, found {tok.text!r}", tok)
        return tok

    def _algebra(self) -> None:
        name, sig = self._header()
        self.expect("elements")
        index: dict[str, int] = {}  # label -> element
        for _ in self.until(";", ","):
            label = self._label()
            if label.text in index:
                raise self.error("duplicate element labels", label)
            index[label.text] = len(index)
        if not index:
            raise self.error("algebra needs at least one element")
        universe = tuple(index)
        tables: dict[str, tuple[int, ...]] = {}

        def flatten(op_tok: Token, value, arity: int) -> list[int]:
            if arity == 0:
                if isinstance(value, list):
                    op_arity = sig.arity(op_tok.text)
                    raise self.error(
                        f"table for {op_tok.text!r} nests deeper than its arity {op_arity}" if op_arity
                        else f"constant {op_tok.text!r} takes a single element",
                        op_tok,
                    )
                if value not in index:
                    raise self.error(
                        f"unknown element label {value!r} in table for {op_tok.text!r}",
                        op_tok,
                    )
                return [index[value]]
            if not isinstance(value, list) or len(value) != len(universe):
                raise self.error(
                    f"table for {op_tok.text!r} must have {len(universe)} row(s) per level",
                    op_tok,
                )
            out: list[int] = []
            for cell in value:
                out.extend(flatten(op_tok, cell, arity - 1))
            return out

        for _ in self.until("}", ";"):
            op_tok = self.expect_kind("ident")
            if not sig.has(op_tok.text):
                raise self.error(f"unknown operation symbol {op_tok.text!r}", op_tok)
            if op_tok.text in tables:
                raise self.error(f"two tables for {op_tok.text!r}", op_tok)
            self.expect("=")
            value = self._table_value()
            tables[op_tok.text] = tuple(
                flatten(op_tok, value, sig.arity(op_tok.text))
            )
        missing = [op for op, _ in sig.ops if op not in tables]
        if missing:
            raise self.error(f"missing table(s) for {missing}")
        algebra = FiniteAlgebra.of(sig, universe, tables, name=name.text)
        self._define(self.ws.algebras, "algebra", name, algebra)

    def _table_value(self):
        if self.at("["):
            self.next()
            return [self._table_value() for _ in self.until("]", ",")]
        return self._label().text

    def _theory(self) -> None:
        name, sig = self._header()
        items = tuple(_parse_quasi(self, sig, _TermScope()) for _ in self.until("}", ";"))
        self._define(self.ws.theories, "theory", name, Theory(sig, items, name=name.text))

    def _quasi(self) -> None:
        name, sig = self._header()
        quasi = _parse_quasi(self, sig, _TermScope())
        if self.at(";"):
            self.next()
        self.expect("}")
        self._define(self.ws.quasis, "quasi", name, (sig, quasi))

    def _proof(self) -> None:
        if self.at("over"):  # an anonymous proof is named at its `over`
            self.ws._anon_proofs += 1
            name = self.peek()._replace(text=f"proof{self.ws._anon_proofs}")
        else:
            name = self.expect_kind("ident")
        sig = self._over()
        self.expect("in")
        logic_tok = self.expect_kind("ident")
        if logic_tok.text == "Q":
            logic = Logic.q()
        elif logic_tok.text == "HQ":
            logic = Logic.hq()
        elif logic_tok.text == "MHQ":
            self.expect("(")
            monoid_tok, monoid = self._ref(self.ws.monoids, "monoid")
            if monoid.sig != sig:
                raise self.error("monoid signature differs from the proof signature", monoid_tok)
            logic = Logic.mhq(monoid)
            self.expect(")")
        else:
            raise self.error(f"unknown logic {logic_tok.text!r}", logic_tok)
        self.expect("from")
        th_tok, theory = self._ref(self.ws.theories, "theory")
        if theory.sig != sig:
            raise self.error("theory signature differs from the proof signature", th_tok)

        lines: list[tuple[QuasiEquation, Justification]] = []
        while self.peek().kind == "number" and self.peek(1).text == ":":
            num_tok = self.next()
            if int(num_tok.text) != len(lines) + 1:
                raise self.error(
                    f"line numbers must be sequential (expected {len(lines) + 1})", num_tok
                )
            self.expect(":")
            scope = _TermScope(reserved=frozenset({"by"}))
            quasi = _parse_quasi(self, sig, scope)
            self.expect("by")
            just = self._justification(sig, scope, len(lines))
            lines.append((quasi, just))
        proof = Proof(theory, logic, tuple(lines), name=name.text)
        self._define(self.ws.proofs, "proof", name, proof)

    def _line_ref(self, current: int) -> int:
        tok = self.expect_kind("number")
        ref = int(tok.text)
        if not 1 <= ref <= current:
            raise self.error(f"line reference {ref} is not an earlier line", tok)
        return ref - 1

    def _term_list(self, sig: Signature, scope: _TermScope) -> tuple[Term, ...]:
        out: list[Term] = []
        while not self.at(";") and not self.at(")"):
            out.append(_parse_term(self, sig, scope))
            if self.at(","):
                self.next()
        return tuple(out)

    def _justification(self, sig: Signature, scope: _TermScope, current: int) -> Justification:
        tok = self.expect_kind("ident")
        cls = _RULE_CLASSES.get(tok.text)
        if cls is None:
            raise self.error(f"unknown justification {tok.text!r}", tok)
        if cls is Hyp:
            return Hyp(int(self.expect_kind("number").text))
        if cls in (Refl, Sym, Trans):
            self.expect("(")
            terms = []
            for i in range(len(fields(cls))):
                if i:
                    self.expect(",")
                terms.append(_parse_term(self, sig, scope))
            self.expect(")")
            return cls(*terms)
        if cls in (Compat, TermCompat):
            self.expect("(")
            head = self.expect_kind("ident").text if cls is Compat else _parse_term(self, sig, scope)
            self.expect(";")
            lhs = self._term_list(sig, scope)
            self.expect(";")
            rhs = self._term_list(sig, scope)
            self.expect(")")
            return cls(head, lhs, rhs)
        refs = [self._line_ref(current) for _ in LINE_REFS[cls]]
        if cls is Subst:
            self.expect("{")
            bindings: dict[int, Term] = {}
            for _ in self.until("}", ","):
                var_tok = self.expect_kind("ident")
                m = _VAR_RE.match(var_tok.text)
                if not m:
                    raise self.error("substitution keys must be explicit x<digits>", var_tok)
                if int(m.group(1)) in bindings:
                    raise self.error(f"two bindings for {var_tok.text!r}", var_tok)
                self.expect("->")
                bindings[int(m.group(1))] = _parse_term(self, sig, scope)
            return Subst(*refs, Substitution.of(bindings))
        if cls is Ext:
            return Ext(*refs, _parse_equation(self, sig, scope))
        if cls is HypSub:
            return HypSub(*refs, self._sigma(sig, "proof"))
        return cls(*refs)  # cut, mp


# -- rendering ----------------------------------------------------------------


def format_signature(sig: Signature) -> str:
    body = " ".join(f"{op}/{n};" for op, n in sig.ops)
    return f"signature {sig.name or 'S'} {{ {body} }}"


def format_hypersub(name: str, sigma: HyperSub, sig: Signature) -> str:
    parts = []
    for op, arity in sig.ops:
        img = sigma.image(op)
        head = op if arity == 0 else f"{op}({', '.join(f'x{i}' for i in range(arity))})"
        parts.append(f"  {head} -> {format_term(img)};")
    body = "\n".join(parts)
    return f"hypersub {name} over {sig.name or 'S'} {{\n{body}\n}}"


class SigmaNamer:
    """Stable names for hypersubstitutions appearing in rendered files."""

    def __init__(self) -> None:
        self.names: dict[HyperSub, str] = {}

    def get(self, sigma: HyperSub) -> str:
        if sigma not in self.names:
            self.names[sigma] = f"sigma{len(self.names) + 1}"
        return self.names[sigma]


def format_monoid(monoid: Monoid, namer: SigmaNamer | None = None) -> str:
    name = monoid.name or "M"
    signame = monoid.sig.name or "S"
    namer = namer or SigmaNamer()
    if monoid.kind == "explicit":
        names = ", ".join(namer.get(s) for s in monoid.elements())
        clause = f"elements {names};"
    elif monoid.kind == "generated":
        names = ", ".join(namer.get(s) for s in monoid.members)
        clause = f"generators {names}; cap {monoid.cap};"
    else:
        args = f"({', '.join(map(str, monoid.params))})" if monoid.params else ""
        clause = f"preset {monoid.kind}{args};"
    return f"monoid {name} over {signame} {{ {clause} }}"


def _format_table(algebra: FiniteAlgebra, op: str, arity: int) -> str:
    labels = algebra.universe
    table = algebra.table(op)

    def nest(flat: Sequence[int], depth: int) -> str:
        if depth == 0:
            return labels[flat[0]]
        size = len(labels)
        stride = len(flat) // size
        cells = [
            nest(flat[i * stride : (i + 1) * stride], depth - 1) for i in range(size)
        ]
        return "[" + ", ".join(cells) + "]"

    return nest(table, arity)


def format_algebra(algebra: FiniteAlgebra) -> str:
    parts = [f"  elements {' '.join(algebra.universe)};"]
    for op, arity in algebra.sig.ops:
        parts.append(f"  {op} = {_format_table(algebra, op, arity)};")
    body = "\n".join(parts)
    name = algebra.name or "A"
    return f"algebra {name} over {algebra.sig.name or 'S'} {{\n{body}\n}}"


def format_theory(theory: Theory) -> str:
    parts = [f"  {item};" for item in theory.items]
    body = "\n".join(parts) if parts else ""
    name = theory.name or "T"
    head = f"theory {name} over {theory.sig.name or 'S'} {{"
    return head + ("\n" + body + "\n}" if parts else " }")


def format_justification(j: Justification, namer: SigmaNamer) -> str:
    if type(j) not in _RULE_WORDS:
        raise TypeError(f"unknown justification {type(j).__name__}")
    word = _RULE_WORDS[type(j)]
    if isinstance(j, Hyp):
        return f"{word} {j.index}"
    if isinstance(j, (Refl, Sym, Trans)):
        return f"{word}({', '.join(format_term(getattr(j, f.name)) for f in fields(j))})"
    if isinstance(j, (Compat, TermCompat)):
        head = j.op if isinstance(j, Compat) else format_term(j.pattern)
        lhs = ", ".join(format_term(t) for t in j.lhs_args)
        rhs = ", ".join(format_term(t) for t in j.rhs_args)
        return f"{word}({head}; {lhs}; {rhs})"
    head = " ".join([word, *(str(k + 1) for k in line_refs(j))])
    if isinstance(j, Subst):
        pairs = ", ".join(f"x{i} -> {format_term(t)}" for i, t in j.delta.bindings)
        return f"{head} {{{pairs}}}"
    if isinstance(j, Ext):
        return f"{head} {j.added}"
    if isinstance(j, HypSub):
        return f"{head} {namer.get(j.sigma)}"
    return head  # cut, mp


def format_proof(proof: Proof, namer: SigmaNamer, monoid_name: str = "M") -> str:
    if proof.logic.kind == "MHQ":
        logic = f"MHQ({(proof.logic.monoid.name if proof.logic.monoid else '') or monoid_name})"
    else:
        logic = proof.logic.kind
    head = (
        f"proof {proof.name or 'p'} over {proof.sig.name or 'S'} "
        f"in {logic} from {proof.theory.name or 'T'}"
    )
    lines = [head]
    for i, (quasi, j) in enumerate(proof.lines):
        lines.append(f"{i + 1}: {quasi} by {format_justification(j, namer)}")
    return "\n".join(lines)


def render_algebra_file(algebra: FiniteAlgebra) -> str:
    return format_signature(algebra.sig) + "\n\n" + format_algebra(algebra) + "\n"


def render_theory_file(theory: Theory) -> str:
    return format_signature(theory.sig) + "\n\n" + format_theory(theory) + "\n"


def render_proof_file(proof: Proof) -> str:
    """Self-contained proof file: signature, theory, every referenced
    hypersubstitution, the monoid when one is fixed, then the proof."""
    namer = SigmaNamer()
    monoid = proof.logic.monoid
    # Naming order: the proof's sigmas by line, then the monoid's members.
    body = format_proof(proof, namer, monoid_name=(monoid.name if monoid else "M") or "M")
    monoid_text = [format_monoid(monoid, namer)] if monoid is not None else []
    chunks = [format_signature(proof.sig), format_theory(proof.theory)]
    chunks += [format_hypersub(name, s, proof.sig) for s, name in namer.names.items()]
    chunks += monoid_text + [body]
    return "\n\n".join(chunks) + "\n"
