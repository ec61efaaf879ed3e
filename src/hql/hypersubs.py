"""Hypersubstitutions and finitely enumerable monoids of them.

A hypersubstitution assigns to every operation symbol of a signature an
image term of the same arity (over variables x0..x_{arity-1}); variables
are always fixed.  It acts on arbitrary terms inductively: the image of an
application is the image term of its head with the recursively mapped
arguments substituted for x0, x1, ...

Monoids of hypersubstitutions are described by a finite recipe and
enumerated in a canonical order.  Infinite monoids (all hypersubstitutions,
or all zero/meet-preserving ones) are represented by depth-bounded slices;
results quantified over such a monoid are only exhaustive up to the stated
image depth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .terms import (
    App,
    QuasiEquation,
    Signature,
    Term,
    TermError,
    Var,
    iter_terms,
    subst_vars,
    term_key,
    variables,
)


class MonoidError(ValueError):
    """Raised for invalid monoid descriptions or failed enumerations."""


# Preset monoids are enumerated in full and held in memory; a larger one is
# refused rather than exhausting it.  Far above the 40,804 members of
# depth(2) over a signature with two binary symbols.
MAX_PRESET_MEMBERS = 1_000_000
# Sizes computed before enumeration stop growing here, so an absurd depth
# costs neither time nor an unprintable number.
_COUNT_CEILING = 10**30
# The most members a generated monoid may have when its text names no cap.
GENERATED_CAP = 64


@dataclass(frozen=True)
class HyperSub:
    """Total map from operation symbols to image terms of matching arity."""

    images: tuple[tuple[str, Term], ...]

    @classmethod
    def of(cls, sig: Signature, images: Mapping[str, Term]) -> "HyperSub":
        """Validate and canonicalise (signature order) an image assignment."""
        out = []
        for op, arity in sig.ops:
            if op not in images:
                raise TermError(f"no image for operation symbol {op!r}")
            img = images[op]
            sig.validate(img)
            if any(v >= arity for v in variables(img)):
                raise TermError(
                    f"image of {op!r} uses variables beyond its arity {arity}"
                )
            out.append((op, img))
        if len(images) != len(sig.ops):
            extra = set(images) - set(sig.op_names)
            raise TermError(f"images given for unknown symbols {sorted(extra)}")
        return cls(tuple(out))

    @classmethod
    def identity(cls, sig: Signature) -> "HyperSub":
        return cls(tuple((op, _identity_image(op, n)) for op, n in sig.ops))

    def image(self, op: str) -> Term:
        for o, t in self.images:
            if o == op:
                return t
        raise TermError(f"no image for operation symbol {op!r}")

    def apply(self, term: Term) -> Term:
        """Inductive action on terms; variables are fixed."""
        if isinstance(term, Var):
            return term
        mapped = {i: self.apply(a) for i, a in enumerate(term.args)}
        return subst_vars(self.image(term.op), mapped)

    def apply_quasi(self, q: QuasiEquation) -> QuasiEquation:
        return q.map_terms(self.apply)

    def compose(self, other: "HyperSub") -> "HyperSub":
        """`self` after `other`: result.apply(t) == self.apply(other.apply(t))."""
        return HyperSub(
            tuple((op, self.apply(img)) for op, img in other.images)
        )

    def is_identity(self) -> bool:
        return all(
            img == App(op, tuple(Var(i) for i in range(len(img.args))))
            if isinstance(img, App)
            else False
            for op, img in self.images
        )

    def is_symbol_renaming(self) -> bool:
        """True iff every image is a symbol over a permutation of x0..x_{n-1}."""
        for _, img in self.images:
            if not isinstance(img, App):
                return False
            idxs = [a.index for a in img.args if isinstance(a, Var)]
            if len(idxs) != len(img.args):
                return False
            if sorted(idxs) != list(range(len(img.args))):
                return False
        return True

    def sort_key(self):
        return tuple(term_key(img) for _, img in self.images)


def _identity_image(op: str, arity: int) -> Term:
    return App(op, tuple(Var(i) for i in range(arity)))


def _fundamental_images(sig: Signature, op: str, arity: int, params: tuple) -> list[Term]:
    return [
        App(g, tuple(Var(i) for i in tup))
        for g, n in sig.ops
        if n == arity
        for tup in itertools.product(range(arity), repeat=arity)
    ]


def _fundamental_count(sig: Signature, op: str, arity: int, params: tuple) -> int:
    return sum(n**n for _, n in sig.ops if n == arity)


def _term_counts(sig: Signature, n_vars: int, depth: int):
    """len(iter_terms(sig, n_vars, d)) for d = 0, 1, ..., depth, without
    building a term."""
    atoms = n_vars + sum(n == 0 for _, n in sig.ops)
    return itertools.accumulate(range(depth), lambda count, _: atoms + sum(count**n for _, n in sig.ops if n), initial=atoms)


def _capped(layer_counts) -> int:
    """The last of growing layer counts, or _COUNT_CEILING as soon as one
    reaches it (the later layers are never computed)."""
    for count in layer_counts:
        if count >= _COUNT_CEILING:
            return _COUNT_CEILING
    return count


def _depth_count(sig: Signature, op: str, arity: int, params: tuple) -> int:
    return _capped(_term_counts(sig, arity, params[0]))


def _zero_meet_images(sig: Signature, op: str, arity: int, params: tuple) -> list[Term]:
    depth, zero, meet = params
    if op in (zero, meet):
        return [_identity_image(op, arity)]
    needed = set(range(arity))
    return [
        t
        for t in iter_terms(sig, arity, depth)
        if isinstance(t, App) and variables(t) >= needed
    ]


def _zero_meet_count(sig: Signature, op: str, arity: int, params: tuple) -> int:
    depth, zero, meet = params
    if op in (zero, meet):
        return 1
    # terms in which every variable of the arity occurs, by inclusion-
    # exclusion over the variable subsets, less the lone variable x0
    layers = zip(*(_term_counts(sig, k, depth) for k in range(arity + 1)))
    return _capped(
        sum((-1) ** (arity - k) * math.comb(arity, k) * c for k, c in enumerate(counts)) - (arity == 1)
        for counts in layers
    )


def _zero_meet_fundamental_count(sig: Signature, op: str, arity: int, params: tuple) -> int:
    if op in params:
        return 1
    return sum(math.factorial(n) for _, n in sig.ops if n == arity)


def _zero_meet_fundamental_images(sig: Signature, op: str, arity: int, params: tuple) -> list[Term]:
    if op in params:
        return [_identity_image(op, arity)]
    return [
        App(g, tuple(Var(i) for i in perm))
        for g, n in sig.ops
        if n == arity
        for perm in itertools.permutations(range(arity))
    ]


@dataclass(frozen=True)
class Preset:
    """One preset monoid family: the product, over the operation symbols, of
    each symbol's admissible images.

    `params` names the parameter types in `.hql` order: "depth" is a
    number, "constant" and "binary operation" name a symbol of arity 0 and
    2.  A preset that is not `exhaustive` is a depth-bounded slice of an
    infinite monoid, and its first parameter is the image depth bound.
    `count` is the length of `images` (up to _COUNT_CEILING) without
    building them, so an oversized preset is refused before any image is.
    """

    params: tuple[str, ...]
    exhaustive: bool
    images: Callable[[Signature, str, int, tuple], list[Term]]
    count: Callable[[Signature, str, int, tuple], int]


_SYMBOL_ARITY = {"constant": 0, "binary operation": 2}

# Keyed by the `.hql` preset word; the Monoid docstring says what each is.
PRESETS: dict[str, Preset] = {
    "trivial": Preset((), True, lambda sig, op, arity, params: [_identity_image(op, arity)], lambda *_: 1),
    "fundamental": Preset((), True, _fundamental_images, _fundamental_count),
    "depth": Preset(("depth",), False, lambda sig, op, arity, params: iter_terms(sig, arity, params[0]), _depth_count),
    "zero_meet": Preset(("depth", "constant", "binary operation"), False, _zero_meet_images, _zero_meet_count),
    "zero_meet_fundamental": Preset(("constant", "binary operation"), True, _zero_meet_fundamental_images, _zero_meet_fundamental_count),
}


@dataclass(frozen=True)
class Monoid:
    """A finitely enumerable submonoid (or bounded slice) of hypersubstitutions.

    kind is one of:
      explicit   -- members given outright; must contain the identity and be
                    closed under composition (checked on construction)
      generated  -- closure of the generators, aborting past `cap` elements
    or a PRESETS word, the family instantiated with `params`:
      trivial    -- just the identity
      fundamental-- every sigma whose images are all non-variable fundamental
                    terms (one symbol over variables, repetition allowed)
      depth(d)   -- every sigma with image depth <= d; a bounded slice of
                    the monoid of all hypersubstitutions
      zero_meet(d, zero, meet) -- sigma fixing the zero constant and the
                    meet operation, all other images non-variable terms of
                    depth <= d in which every variable of the arity occurs
                    (dropping a variable would let a derived operation
                    ignore an argument, so zero plugged there would no
                    longer absorb)
      zero_meet_fundamental(zero, meet) -- sigma fixing zero and meet whose
                    other images rename the head symbol over a permutation
                    of variables
    """

    sig: Signature
    kind: str
    members: tuple[HyperSub, ...] = ()
    params: tuple = ()
    cap: int | None = None
    name: str = field(default="", compare=False)

    @classmethod
    def explicit(cls, sig: Signature, sigmas: Iterable[HyperSub], name: str = "") -> "Monoid":
        elems = tuple(sorted(set(sigmas), key=HyperSub.sort_key))
        ident = HyperSub.identity(sig)
        if ident not in elems:
            raise MonoidError("explicit monoid must contain the identity")
        for a in elems:
            for b in elems:
                if a.compose(b) not in elems:
                    raise MonoidError(
                        "explicit monoid is not closed under composition"
                    )
        return cls(sig, "explicit", members=elems, name=name)

    @classmethod
    def generated(cls, sig: Signature, generators: Iterable[HyperSub], cap: int = GENERATED_CAP, name: str = "") -> "Monoid":
        return cls(sig, "generated", members=tuple(generators), cap=cap, name=name)

    @classmethod
    def preset(cls, sig: Signature, word: str, *params, name: str = "") -> "Monoid":
        """The PRESETS family `word` over `sig`; symbol parameters must name
        operations of the stated arity."""
        if word not in PRESETS:
            raise MonoidError(f"unknown preset {word!r}")
        types = PRESETS[word].params
        if len(params) != len(types):
            raise MonoidError(f"preset {word!r} takes {len(types)} parameter(s)")
        for ptype, value in zip(types, params):
            arity = _SYMBOL_ARITY.get(ptype)
            if arity is not None and not (sig.has(value) and sig.arity(value) == arity):
                raise MonoidError(f"signature has no {ptype} {value!r}")
        return cls(sig, word, params=params, name=name)

    @classmethod
    def trivial(cls, sig: Signature, name: str = "") -> "Monoid":
        return cls.preset(sig, "trivial", name=name)

    @classmethod
    def fundamental(cls, sig: Signature, name: str = "") -> "Monoid":
        return cls.preset(sig, "fundamental", name=name)

    @classmethod
    def depth_slice(cls, sig: Signature, image_depth: int, name: str = "") -> "Monoid":
        return cls.preset(sig, "depth", image_depth, name=name)

    @classmethod
    def zero_meet(cls, sig: Signature, image_depth: int, zero: str, meet: str, name: str = "") -> "Monoid":
        return cls.preset(sig, "zero_meet", image_depth, zero, meet, name=name)

    @classmethod
    def zero_meet_fundamental(cls, sig: Signature, zero: str, meet: str, name: str = "") -> "Monoid":
        return cls.preset(sig, "zero_meet_fundamental", zero, meet, name=name)

    def elements(self) -> tuple[HyperSub, ...]:
        """Members in canonical order: compared image by image in signature
        order by `term_key` (a variable before an application, variables by
        index, applications by symbol name, then argument by argument)."""
        return _elements(self)

    def contains(self, sigma: HyperSub) -> bool:
        return sigma in _element_set(self)

    @property
    def is_exhaustive(self) -> bool:
        """False for depth-bounded slices of infinite monoids."""
        spec = PRESETS.get(self.kind)
        return spec is None or spec.exhaustive

    @property
    def image_depth(self) -> int | None:
        """The image depth bound of a depth-bounded slice, else None."""
        return None if self.is_exhaustive else self.params[0]

    def coverage_note(self) -> str:
        n = len(self.elements())
        if self.is_exhaustive:
            return f"exhaustive over {n} element(s)"
        return f"verified up to image depth {self.image_depth} ({n} element(s))"


@lru_cache(maxsize=None)
def _elements(m: Monoid) -> tuple[HyperSub, ...]:
    if m.kind == "explicit":
        return m.members  # validated and sorted at construction
    if m.kind == "generated":
        ident = HyperSub.identity(m.sig)
        closure = {ident, *m.members}
        frontier = [ident, *m.members]
        while frontier:
            nxt = []
            for a in frontier:
                if len(closure) > m.cap:  # the identity and generators count too
                    raise MonoidError(f"generated closure exceeds cap {m.cap}")
                for b in list(closure):
                    for c in (a.compose(b), b.compose(a)):
                        if c not in closure:
                            closure.add(c)
                            nxt.append(c)
            frontier = nxt
        return tuple(sorted(closure, key=HyperSub.sort_key))
    spec = PRESETS.get(m.kind)
    if spec is None:
        raise MonoidError(f"unknown monoid kind {m.kind!r}")
    count = math.prod(spec.count(m.sig, op, n, m.params) for op, n in m.sig.ops)
    if count > MAX_PRESET_MEMBERS:
        size = f"{count:,}" if count < _COUNT_CEILING else f"at least {_COUNT_CEILING:,}"
        raise MonoidError(
            f"preset {m.kind} over {m.sig.name or 'an unnamed signature'} has {size} "
            f"members, more than the {MAX_PRESET_MEMBERS:,} that can be enumerated"
        )
    choices = []
    for op, arity in m.sig.ops:
        imgs = spec.images(m.sig, op, arity, m.params)
        if not imgs:
            raise MonoidError(f"no admissible image for {op!r}")
        choices.append([(op, t) for t in sorted(imgs, key=term_key)])
    # Already in sort_key order: each list holds distinct images sorted by
    # the injective term_key, and product varies the last factor fastest.
    return tuple(HyperSub(c) for c in itertools.product(*choices))


@lru_cache(maxsize=None)
def _element_set(m: Monoid) -> frozenset[HyperSub]:
    return frozenset(_elements(m))
