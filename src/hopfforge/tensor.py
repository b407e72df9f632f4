"""Exact arithmetic in tensor powers of a presented algebra.

Tensor legs always store basis monomials, never nested elements: every
map application immediately re-expands into the sparse basis form, so
equality stays structural.  Arity is plain data, which keeps iterated
coproducts of unbounded depth uniform.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Callable, Mapping

from .algebra import (Element, Monomial, Presentation,
                      PresentationMismatchError, as_fraction, format_linear,
                      format_monomial)
from .linalg import (Scaled, accumulate_legs, add_term, combine,
                     extend_scaled, rescale, scaled_equal, split)

TensorKey = tuple  # tuple of Monomials, length = arity


class TensorElement(Scaled):
    """Sparse exact-rational combination of monomial tuples of fixed arity,
    in scaled form like ``Element`` (see ``linalg.Scaled``)."""

    __slots__ = ("algebra", "arity")

    def __init__(self, algebra: Presentation, arity: int,
                 terms: dict[TensorKey, Fraction]):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.algebra = algebra
        self.arity = arity
        self._terms = terms
        self.scaled = split(terms)

    @classmethod
    def from_scaled(cls, algebra: Presentation, arity: int,
                    nums: dict[TensorKey, int], den: int) -> "TensorElement":
        """The tensor nums / den (int numerators, none zero, den > 0)."""
        t = cls.__new__(cls)
        t.algebra = algebra
        t.arity = arity
        t._terms = None
        t.scaled = (nums, den)
        return t

    def _like(self, nums, den) -> "TensorElement":
        return TensorElement.from_scaled(self.algebra, self.arity, nums, den)

    @classmethod
    def zero(cls, algebra: Presentation, arity: int) -> "TensorElement":
        return cls(algebra, arity, {})

    @classmethod
    def unit(cls, algebra: Presentation, arity: int) -> "TensorElement":
        one = algebra.identity_monomial()
        return cls(algebra, arity, {(one,) * arity: Fraction(1)})

    @classmethod
    def from_terms(cls, algebra: Presentation, arity: int, terms: Mapping) -> "TensorElement":
        out: dict[TensorKey, Fraction] = {}
        for key, coeff in dict(terms).items():
            key = tuple(tuple(int(e) for e in mono) for mono in key)
            if len(key) != arity:
                raise ValueError(f"key {key} does not have arity {arity}")
            add_term(out, key, as_fraction(coeff))
        return cls(algebra, arity, out)

    # -- linear structure ---------------------------------------------------

    def _coerce(self, other) -> "TensorElement":
        if not isinstance(other, TensorElement):
            raise TypeError(f"cannot combine a tensor with {other!r}")
        if other.algebra is not self.algebra:
            raise PresentationMismatchError("tensors over different presentations")
        if other.arity != self.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        return other

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return tensor_multiply(self, other)
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.algebra is other.algebra and self.arity == other.arity
                and scaled_equal(self.scaled, other.scaled))

    # -- structural maps -----------------------------------------------------

    def apply_to_leg(self, leg: int, f: Callable[[Element], object]) -> "TensorElement":
        """Linear extension of f applied at position ``leg`` (1-based).

        f maps Element -> Element or Element -> TensorElement; in the
        tensor-valued case the result arity grows accordingly.  All other
        legs are untouched.  f is called once per distinct monomial in
        that leg, and each image term is spliced into that group of keys.
        """
        if not 1 <= leg <= self.arity:
            raise ValueError(f"leg {leg} out of range for arity {self.arity}")
        pos = leg - 1
        groups: dict[Monomial, list] = {}  # leg monomial -> [(before, after, n)]
        nums, den = self.scaled
        for key, n in nums.items():
            groups.setdefault(key[pos], []).append((key[:pos], key[pos + 1:], n))
        images: list = []
        grown = None
        for mono, group in groups.items():
            image = f(Element.from_scaled(self.algebra, {mono: 1}, 1))
            if isinstance(image, Element):
                pieces, d = image.scaled
                pieces, arity = {(m,): c for m, c in pieces.items()}, 1
            elif isinstance(image, TensorElement):
                (pieces, d), arity = image.scaled, image.arity
            else:
                raise TypeError("leg map must return Element or TensorElement")
            if grown is None:
                grown = arity - 1
            elif grown != arity - 1:
                raise ValueError("leg map returned inconsistent arities")
            images += [(c, ({before + mid + after: n
                             for before, after, n in group}, d))
                       for mid, c in pieces.items()]
        if grown is None:
            # zero tensor: probe f on zero to learn the target arity
            probe = f(self.algebra.zero())
            grown = probe.arity - 1 if isinstance(probe, TensorElement) else 0
        return TensorElement.from_scaled(self.algebra, self.arity + grown,
                                         *combine(images, den))

    def leg_cofactors(self, leg: int) -> list[tuple[Monomial, Element]]:
        """Group terms by the monomial in position ``leg`` (1-based).

        Only meaningful for arity 2: returns pairs (monomial, cofactor on
        the other leg), canonically ordered.
        """
        if self.arity != 2:
            raise ValueError("leg_cofactors needs arity 2")
        if leg not in (1, 2):
            raise ValueError("leg must be 1 or 2")
        grouped: dict[Monomial, dict[Monomial, Fraction]] = {}
        for (m1, m2), c in self.terms.items():
            anchor, other = (m1, m2) if leg == 1 else (m2, m1)
            grouped.setdefault(anchor, {})[other] = c
        key = self.algebra.monomial_key
        return [(m, Element(self.algebra, grouped[m]))
                for m in sorted(grouped, key=key)]

    def __repr__(self):
        return f"<tensor {self}>"

    def __str__(self):
        mw = self.algebra.monomial_key
        return format_linear(
            (self.terms[key],
             "@".join(format_monomial(self.algebra, m) for m in key))
            for key in sorted(self.terms, key=lambda k: tuple(mw(m) for m in k)))


def tensor_product(*factors: Element) -> TensorElement:
    """The pure tensor e_1 (x) e_2 (x) ... expanded into basis form."""
    if not factors:
        raise ValueError("need at least one factor")
    algebra = factors[0].algebra
    terms: dict[TensorKey, Fraction] = {(): Fraction(1)}
    for e in factors:
        if e.algebra is not algebra:
            raise PresentationMismatchError("factors over different presentations")
        # distinct (key, m) give distinct keys, and nonzero times nonzero
        terms = {key + (m,): c * cm
                 for key, c in terms.items() for m, cm in e.terms.items()}
    return TensorElement(algebra, len(factors), terms)


def tensor_multiply(s: TensorElement, t: TensorElement) -> TensorElement:
    """Componentwise product: (a1@...@ak) * (b1@...@bk) = a1*b1 @ ... @ ak*bk,
    one product lookup per leg and pair of distinct leg monomials, summed
    on int keys: the output leg ids in mixed radix (radix: id counts)."""
    s._coerce(t)
    product = s.algebra.product_terms
    (a, da), (b, db) = s.scaled, t.scaled
    (ids_a, groups_a), (ids_b, groups_b) = _legs(a, s.arity), _legs(b, s.arity)
    tables, outputs, dens = [], [], []
    radix = 1
    for lefts, rights in zip(ids_a, ids_b):
        products = [[product(m1, m2) for m2 in rights] for m1 in lefts]
        den = lcm(*{d for row in products for _, d in row})
        ids: dict[Monomial, int] = {}  # output monomial -> its id
        tables.append([[[(ids.setdefault(m, len(ids)) * radix, n * (den // d))
                         for m, n in nums.items()] for nums, d in row]
                       for row in products])
        outputs.append(list(ids))
        dens.append(den)
        radix *= len(ids)
    nums, den = rescale(accumulate_legs(groups_a, groups_b, tables),
                        da * db * prod(dens))
    out = {}
    for p, n in nums.items():
        key = []
        for monos in outputs:
            p, r = divmod(p, len(monos))
            key.append(monos[r])
        out[tuple(key)] = n
    return TensorElement.from_scaled(s.algebra, s.arity, out, den)


def _legs(terms: dict, arity: int) -> tuple[list, dict]:
    """Per leg {monomial: id} of the keys' monomials there, and the terms
    (numerator, last leg id) grouped by their ids in the other legs."""
    ids: list[dict] = [{} for _ in range(arity)]
    groups: dict[tuple, list] = {}
    for key, c in terms.items():
        legs = [leg.setdefault(m, len(leg)) for leg, m in zip(ids, key)]
        groups.setdefault(tuple(legs[:-1]), []).append((c, legs[-1]))
    return ids, groups


def contract(t: TensorElement) -> Element:
    """Multiply the two legs of an arity-2 tensor into a single element."""
    if t.arity != 2:
        raise ValueError("contract needs arity 2")
    product = t.algebra.product_terms
    return Element.from_scaled(t.algebra, *extend_scaled(
        *t.scaled, lambda key: product(*key)))
