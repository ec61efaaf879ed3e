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
from dataclasses import dataclass, fields
from typing import Sequence

from .algebras import FiniteAlgebra
from .hypersubs import PRESETS, HyperSub, Monoid
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
    Var,
    format_term,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, filename: str = "<input>"):
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(f"{filename}:{line}:{col}: {message}")


class ResolveError(LookupError):
    def __init__(self, kind: str, name: str, problem: str = "unknown"):
        self.kind = kind
        self.name = name
        super().__init__(f"{problem} {kind} {name!r}")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | punct | arrow | implies | eof
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>\#[^\n]*)"
    r"|(?P<arrow>->)"
    r"|(?P<implies>=>)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>\d+)"
    r"|(?P<punct>[{}()\[\],;:/=])"
)

_VAR_RE = re.compile(r"x(\d+)$")

_PRESET_ALIASES = {"MF": "fundamental"}

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
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col, filename)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Reader:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col, self.filename)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def expect_kind(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise self.error(f"expected {kind}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text


class _TermScope:
    """Variable canonicalisation for one statement."""

    def __init__(self, reserved: frozenset[str] = frozenset()):
        self.aliases: dict[str, int] = {}
        self.alias_indices: set[int] = set()
        self.used: set[int] = set()
        self.reserved = reserved

    def explicit(self, index: int, reader: _Reader, tok: Token) -> int:
        if index in self.alias_indices:
            alias = next(a for a, i in self.aliases.items() if i == index)
            raise reader.error(
                f"variable x{index} collides with the alias {alias!r}", tok
            )
        self.used.add(index)
        return index

    def alias(self, name: str) -> int:
        if name in self.aliases:
            return self.aliases[name]
        idx = 0
        while idx in self.used:
            idx += 1
        self.aliases[name] = idx
        self.alias_indices.add(idx)
        self.used.add(idx)
        return idx


def _parse_term(reader: _Reader, sig: Signature, scope: _TermScope) -> Term:
    tok = reader.next()
    if tok.kind != "ident":
        raise reader.error(f"expected a term, found {tok.text or 'end of input'!r}", tok)
    if tok.text in scope.reserved:
        raise reader.error(f"unexpected keyword {tok.text!r}", tok)
    var_match = _VAR_RE.match(tok.text)
    if var_match and not sig.has(tok.text):
        return Var(scope.explicit(int(var_match.group(1)), reader, tok))
    if sig.has(tok.text):
        arity = sig.arity(tok.text)
        if arity == 0:
            if reader.at("("):
                reader.next()
                reader.expect(")")
            return App(tok.text)
        reader.expect("(")
        args = [_parse_term(reader, sig, scope)]
        while reader.at(","):
            reader.next()
            args.append(_parse_term(reader, sig, scope))
        close = reader.expect(")")
        if len(args) != arity:
            raise reader.error(
                f"operation {tok.text!r} expects {arity} argument(s), got {len(args)}",
                close,
            )
        return App(tok.text, tuple(args))
    if reader.at("("):
        raise reader.error(f"unknown operation symbol {tok.text!r}", tok)
    return Var(scope.alias(tok.text))


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
            with open(path, encoding="utf-8") as handle:
                ws.load_text(handle.read(), filename=str(path))
        return ws

    def load_text(self, text: str, filename: str = "<input>") -> "Workspace":
        _BlockParser(self, tokenize(text, filename), filename).run()
        return self

    def _define(self, registry: dict, kind: str, name: str, value) -> None:
        if name in registry:
            raise ResolveError(kind, name, problem="duplicate")
        registry[name] = value

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
        while self.peek().kind != "eof":
            tok = self.peek()
            handler = {
                "signature": self._signature,
                "hypersub": self._hypersub,
                "monoid": self._monoid,
                "algebra": self._algebra,
                "theory": self._theory,
                "quasi": self._quasi,
                "proof": self._proof,
            }.get(tok.text)
            if handler is None:
                raise self.error(f"expected a definition keyword, found {tok.text!r}", tok)
            self.next()
            handler()

    def _named_sig(self) -> tuple[str, Signature]:
        name = self.expect_kind("ident").text
        self.expect("over")
        sig_tok = self.expect_kind("ident")
        if sig_tok.text not in self.ws.signatures:
            raise self.error(f"unknown signature {sig_tok.text!r}", sig_tok)
        return name, self.ws.signatures[sig_tok.text]

    def _signature(self) -> None:
        name = self.expect_kind("ident").text
        self.expect("{")
        ops: list[tuple[str, int]] = []
        while not self.at("}"):
            op = self.expect_kind("ident").text
            if _VAR_RE.match(op):
                raise self.error(f"operation name {op!r} clashes with variable syntax")
            self.expect("/")
            arity = int(self.expect_kind("number").text)
            ops.append((op, arity))
            if self.at(";"):
                self.next()
        self.expect("}")
        self.ws._define(
            self.ws.signatures, "signature", name, Signature(tuple(ops), name=name)
        )

    def _hypersub(self) -> None:
        name, sig = self._named_sig()
        self.expect("{")
        images: dict[str, Term] = {}
        while not self.at("}"):
            op_tok = self.expect_kind("ident")
            if not sig.has(op_tok.text):
                raise self.error(f"unknown operation symbol {op_tok.text!r}", op_tok)
            arity = sig.arity(op_tok.text)
            scope = _TermScope()
            if self.at("("):
                self.next()
                params: list[str] = []
                while not self.at(")"):
                    params.append(self.expect_kind("ident").text)
                    if self.at(","):
                        self.next()
                self.expect(")")
                if len(params) != arity:
                    raise self.error(
                        f"pattern for {op_tok.text!r} needs {arity} parameter(s)", op_tok
                    )
                for i, p in enumerate(params):
                    m = _VAR_RE.match(p)
                    if m and int(m.group(1)) != i:
                        raise self.error(
                            f"positional parameter {p!r} must be x{i}", op_tok
                        )
                    scope.aliases[p] = i
                    scope.used.add(i)
            elif arity != 0:
                raise self.error(f"pattern for {op_tok.text!r} needs parameters", op_tok)
            self.expect("->")
            img = _parse_term(self, sig, scope)
            if op_tok.text in images:
                raise self.error(f"two images for {op_tok.text!r}", op_tok)
            images[op_tok.text] = img
            if self.at(";"):
                self.next()
        self.expect("}")
        sigma = HyperSub.of(sig, images)
        self.ws._define(self.ws.hypersubs, "hypersub", name, (sig, sigma))

    def _monoid(self) -> None:
        name, sig = self._named_sig()
        self.expect("{")
        element_names: list[str] = []
        generator_names: list[str] = []
        cap: int | None = None
        preset: tuple[str, tuple] | None = None
        while not self.at("}"):
            word = self.expect_kind("ident")
            if word.text in ("elements", "generators"):
                target = element_names if word.text == "elements" else generator_names
                while self.peek().kind == "ident":
                    target.append(self.expect_kind("ident").text)
                    if self.at(","):
                        self.next()
            elif word.text == "cap":
                cap = int(self.expect_kind("number").text)
            elif word.text == "preset":
                preset = self._preset()
            else:
                raise self.error(f"unknown monoid clause {word.text!r}", word)
            if self.at(";"):
                self.next()
        self.expect("}")
        if preset is not None and (element_names or generator_names):
            raise self.error("a preset monoid cannot also list members")
        if preset is not None:
            word, params = preset
            monoid = Monoid.preset(sig, word, *params, name=name)
        elif element_names:
            sigmas = [self._sigma_by_name(n, sig) for n in element_names]
            monoid = Monoid.explicit(sig, sigmas, name=name)
        elif generator_names:
            sigmas = [self._sigma_by_name(n, sig) for n in generator_names]
            monoid = Monoid.generated(sig, sigmas, cap=cap or 64, name=name)
        else:
            raise self.error("monoid needs elements, generators or a preset")
        self.ws._define(self.ws.monoids, "monoid", name, monoid)

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

    def _sigma_by_name(self, name: str, sig: Signature) -> HyperSub:
        if name not in self.ws.hypersubs:
            raise ResolveError("hypersub", name)
        sigma_sig, sigma = self.ws.hypersubs[name]
        if sigma_sig != sig:
            raise ResolveError("hypersub", f"{name} (wrong signature)")
        return sigma

    def _label(self) -> str:
        tok = self.next()
        if tok.kind not in ("ident", "number"):
            raise self.error(f"expected an element label, found {tok.text!r}", tok)
        return tok.text

    def _algebra(self) -> None:
        name, sig = self._named_sig()
        self.expect("{")
        self.expect("elements")
        labels: list[str] = []
        while not self.at(";"):
            labels.append(self._label())
            if self.at(","):
                self.next()
        self.expect(";")
        universe = tuple(labels)
        if not universe:
            raise self.error("algebra needs at least one element")
        index = {lab: i for i, lab in enumerate(universe)}
        tables: dict[str, tuple[int, ...]] = {}

        def flatten(op_tok: Token, value, arity: int) -> list[int]:
            if arity == 0:
                if isinstance(value, list):
                    raise self.error(
                        f"constant {op_tok.text!r} takes a single element", op_tok
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

        while not self.at("}"):
            op_tok = self.expect_kind("ident")
            if not sig.has(op_tok.text):
                raise self.error(f"unknown operation symbol {op_tok.text!r}", op_tok)
            self.expect("=")
            value = self._table_value()
            tables[op_tok.text] = tuple(
                flatten(op_tok, value, sig.arity(op_tok.text))
            )
            if self.at(";"):
                self.next()
        self.expect("}")
        missing = [op for op, _ in sig.ops if op not in tables]
        if missing:
            raise self.error(f"missing table(s) for {missing}")
        algebra = FiniteAlgebra.of(sig, universe, tables, name=name)
        self.ws._define(self.ws.algebras, "algebra", name, algebra)

    def _table_value(self):
        if self.at("["):
            self.next()
            out = []
            while not self.at("]"):
                out.append(self._table_value())
                if self.at(","):
                    self.next()
            self.expect("]")
            return out
        return self._label()

    def _theory(self) -> None:
        name, sig = self._named_sig()
        self.expect("{")
        items: list[QuasiEquation] = []
        while not self.at("}"):
            items.append(_parse_quasi(self, sig, _TermScope()))
            if self.at(";"):
                self.next()
        self.expect("}")
        self.ws._define(
            self.ws.theories, "theory", name, Theory(sig, tuple(items), name=name)
        )

    def _quasi(self) -> None:
        name, sig = self._named_sig()
        self.expect("{")
        quasi = _parse_quasi(self, sig, _TermScope())
        if self.at(";"):
            self.next()
        self.expect("}")
        self.ws._define(self.ws.quasis, "quasi", name, (sig, quasi))

    def _proof(self) -> None:
        if self.at("over"):
            self.ws._anon_proofs += 1
            name = f"proof{self.ws._anon_proofs}"
        else:
            name = self.expect_kind("ident").text
        self.expect("over")
        sig_tok = self.expect_kind("ident")
        if sig_tok.text not in self.ws.signatures:
            raise self.error(f"unknown signature {sig_tok.text!r}", sig_tok)
        sig = self.ws.signatures[sig_tok.text]
        self.expect("in")
        logic_tok = self.expect_kind("ident")
        if logic_tok.text == "Q":
            logic = Logic.q()
        elif logic_tok.text == "HQ":
            logic = Logic.hq()
        elif logic_tok.text == "MHQ":
            self.expect("(")
            mon_tok = self.expect_kind("ident")
            if mon_tok.text not in self.ws.monoids:
                raise ResolveError("monoid", mon_tok.text)
            logic = Logic.mhq(self.ws.monoids[mon_tok.text])
            self.expect(")")
        else:
            raise self.error(f"unknown logic {logic_tok.text!r}", logic_tok)
        self.expect("from")
        th_tok = self.expect_kind("ident")
        if th_tok.text not in self.ws.theories:
            raise ResolveError("theory", th_tok.text)
        theory = self.ws.theories[th_tok.text]
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
        proof = Proof(theory, logic, tuple(lines), name=name)
        self.ws._define(self.ws.proofs, "proof", name, proof)

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
            while not self.at("}"):
                var_tok = self.expect_kind("ident")
                m = _VAR_RE.match(var_tok.text)
                if not m:
                    raise self.error("substitution keys must be explicit x<digits>", var_tok)
                self.expect("->")
                bindings[int(m.group(1))] = _parse_term(self, sig, scope)
                if self.at(","):
                    self.next()
            self.expect("}")
            return Subst(*refs, Substitution.of(bindings))
        if cls is Ext:
            return Ext(*refs, _parse_equation(self, sig, scope))
        if cls is HypSub:
            sigma_tok = self.expect_kind("ident")
            if sigma_tok.text not in self.ws.hypersubs:
                raise ResolveError("hypersub", sigma_tok.text)
            return HypSub(*refs, self.ws.hypersubs[sigma_tok.text][1])
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
        clause = f"generators {names}; cap {monoid.cap or 64};"
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
