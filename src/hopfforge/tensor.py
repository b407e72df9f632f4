"""Exact arithmetic in tensor powers of a presented algebra.

Tensor legs always store basis monomials, never nested elements: every
map application immediately re-expands into the sparse basis form, so
equality stays structural.  Arity is plain data, which keeps iterated
coproducts of unbounded depth uniform.

The scaled form and hopf's tensor-valued memo tables key a term by one
packed int: leg k (from 0) holds its monomial's ``Presentation.mono_id``
in bits [LEG_BITS*k, LEG_BITS*(k+1)).  Only this module reads that
layout; ``terms``, ``leg_cofactors``, ``__str__`` and ``from_terms`` show
a key as a tuple of monomials.  Each leg's product in ``tensor_multiply``
and ``contract``, like an ``Element`` product, reads the presentation's
one product memo on mono ids, ``id_products``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .algebra import (MONO_ID_BITS, Element, Monomial, Presentation,
                      PresentationMismatchError, as_fraction, format_linear,
                      format_monomial)
from .linalg import (Scaled, add_term, combine, extend_scaled, join,
                     multiply_legs, scaled_equal, split)

TensorKey = tuple  # tuple of Monomials, length = arity: the public key
LEG_BITS = MONO_ID_BITS  # bits of one leg of a packed key
LEG_MASK = (1 << LEG_BITS) - 1


def pack(algebra: Presentation, key: TensorKey) -> int:
    """The packed int key of a tuple of monomials."""
    packed = 0
    for m in reversed(key):
        packed = packed << LEG_BITS | algebra.mono_id(m)
    return packed


def unpack(algebra: Presentation, arity: int, key: int) -> TensorKey:
    """The tuple of monomials of a packed key."""
    return tuple([algebra.monos[key >> shift & LEG_MASK]
                  for shift in range(0, LEG_BITS * arity, LEG_BITS)])


class TensorElement(Scaled):
    """Sparse exact-rational combination of monomial tuples of fixed arity,
    in scaled form on packed keys (see ``linalg.Scaled``)."""

    __slots__ = ("algebra", "arity")

    def __init__(self, algebra: Presentation, arity: int,
                 terms: dict[TensorKey, Fraction]):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.algebra = algebra
        self.arity = arity
        self._terms = terms
        self.scaled = split({pack(algebra, key): c for key, c in terms.items()})

    @classmethod
    def from_scaled(cls, algebra: Presentation, arity: int,
                    nums: dict[int, int], den: int) -> "TensorElement":
        """The tensor nums / den (packed keys, int numerators, none zero)."""
        t = cls.__new__(cls)
        t.algebra = algebra
        t.arity = arity
        t._terms = None
        t.scaled = (nums, den)
        return t

    def _like(self, nums, den) -> "TensorElement":
        return TensorElement.from_scaled(self.algebra, self.arity, nums, den)

    @property
    def terms(self) -> dict[TensorKey, Fraction]:
        if self._terms is None:
            self._terms = {unpack(self.algebra, self.arity, key): c
                           for key, c in join(*self.scaled).items()}
        return self._terms

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
            key = tuple(map(algebra.as_monomial, key))
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
        algebra = self.algebra
        shift = LEG_BITS * (leg - 1)
        low = (1 << shift) - 1
        groups: dict[int, list] = {}  # leg id -> [(legs before, after, n)]
        nums, den = self.scaled
        for key, n in nums.items():
            groups.setdefault(key >> shift & LEG_MASK, []).append(
                (key & low, key >> shift + LEG_BITS, n))
        images: list = []
        grown = None
        for i, group in groups.items():
            image = f(Element.from_scaled(algebra, {algebra.monos[i]: 1}, 1))
            if isinstance(image, Element):
                (pieces, d), arity = image.scaled, 1
                pieces = {algebra.mono_id(m): c for m, c in pieces.items()}
            elif isinstance(image, TensorElement):
                (pieces, d), arity = image.scaled, image.arity
            else:
                raise TypeError("leg map must return Element or TensorElement")
            if grown is None:
                grown = arity - 1
            elif grown != arity - 1:
                raise ValueError("leg map returned inconsistent arities")
            after = shift + LEG_BITS * arity
            rest = [(before | tail << after, n) for before, tail, n in group]
            # distinct (image term, key) give distinct keys
            images.append((1, ({mid << shift | r: c * n
                                for mid, c in pieces.items()
                                for r, n in rest}, d)))
        if grown is None:
            # zero tensor: probe f on zero to learn the target arity
            probe = f(algebra.zero())
            grown = probe.arity - 1 if isinstance(probe, TensorElement) else 0
        return TensorElement.from_scaled(algebra, self.arity + grown,
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

    def evaluate_leg(self, leg: int,
                     value: Callable[[Monomial], Fraction]) -> Element:
        """The sum of c * value(m_leg) * m_other over the terms
        c * m_1@m_2 of an arity-2 tensor: the linear functional given by
        value on monomials, applied at position ``leg`` (1-based)."""
        if self.arity != 2:
            raise ValueError("evaluate_leg needs arity 2")
        if leg not in (1, 2):
            raise ValueError("leg must be 1 or 2")
        at = LEG_BITS * (leg - 1)  # shift of the evaluated leg
        other, monos, (nums, den) = LEG_BITS - at, self.algebra.monos, self.scaled
        # value is called once per distinct monomial in that leg
        values, d = split({i: value(monos[i])
                           for i in {key >> at & LEG_MASK for key in nums}})
        return Element.from_scaled(self.algebra, *combine(
            [(n * values[key >> at & LEG_MASK],
              ({monos[key >> other & LEG_MASK]: 1}, 1))
             for key, n in nums.items()], den * d))

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
    summed per pair of terms on packed keys (a product's key is the sum of
    its legs' shifted ids); ``product_ids`` fills a memo entry once."""
    s._coerce(t)
    algebra = s.algebra
    (a, da), (b, db) = s.scaled, t.scaled
    last = LEG_BITS * (s.arity - 1)
    return TensorElement.from_scaled(algebra, s.arity, *multiply_legs(
        _legs(a, last, LEG_BITS), _legs(b, last, 0), algebra.id_products.get,
        algebra.product_ids, da * db, LEG_BITS, last))


def _legs(terms: dict, last: int, up: int) -> dict:
    """The terms (numerator, last leg's id shifted up by ``up`` bits)
    grouped by their other legs, for the last leg at shift ``last``."""
    low = (1 << last) - 1
    groups: dict[int, list] = {}
    for key, n in terms.items():
        groups.setdefault(key & low, []).append((n, key >> last << up))
    return groups


def contract(t: TensorElement) -> Element:
    """Multiply the two legs of an arity-2 tensor into a single element."""
    if t.arity != 2:
        raise ValueError("contract needs arity 2")
    algebra = t.algebra
    get, fill = algebra.id_products.get, algebra.product_ids
    def product(key):  # the memo key of the legs' ids, in product order
        key = (key & LEG_MASK) << LEG_BITS | key >> LEG_BITS
        return get(key) or fill(key)
    nums, den = extend_scaled(*t.scaled, product)
    return Element.from_scaled(
        algebra, {algebra.monos[i]: n for i, n in nums.items()}, den)
