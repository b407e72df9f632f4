"""Exact arithmetic in tensor powers of a presented algebra.

Tensor legs always store basis monomials, never nested elements: every
map application immediately re-expands into the sparse basis form, so
equality stays structural.  Arity is plain data, which keeps iterated
coproducts of unbounded depth uniform.

The scaled form and hopf's tensor-valued memo tables key a term by one
packed int: leg k (from 0) holds its monomial's ``Presentation.mono_id``
in bits [LEG_BITS*k, LEG_BITS*(k+1)); an ``Element`` is its arity-1 case.
Only this module reads that layout; ``terms``, ``leg_cofactors``,
``__str__`` and ``from_terms`` show a key as a tuple of monomials, and
``leg_ids`` as its legs' ids (a winding reads a leg only through
``leg_cofactors``).  Each leg's product in ``tensor_multiply`` and
``contract``, like an ``Element`` product, reads the presentation's one
product memo on mono ids, ``id_products``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .algebra import (MONO_ID_BITS, Element, Monomial, Presentation,
                      PresentationMismatchError, as_fraction, format_linear,
                      format_monomial)
from .linalg import (Scaled, add_term, extend_scaled, multiply_legs, rescale,
                     scaled_equal, split, widen)

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


def leg_ids(t: "TensorElement") -> dict[int, tuple[int, int]]:
    """{packed key: (leg 1's mono id, leg 2's)} of an arity-2 tensor."""
    return {key: (key & LEG_MASK, key >> LEG_BITS) for key in t.scaled[0]}


class TensorElement(Scaled):
    """Sparse exact-rational combination of monomial tuples of fixed arity,
    in scaled form on packed keys (see ``linalg.Scaled``)."""

    __slots__ = ("algebra", "arity")

    def __init__(self, algebra: Presentation, arity: int,
                 terms: dict[TensorKey, Fraction]):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.algebra, self.arity, self._terms = algebra, arity, None
        self.scaled = split({pack(algebra, key): c for key, c in terms.items()})

    @classmethod
    def from_scaled(cls, algebra: Presentation, arity: int,
                    nums: dict[int, int], den: int) -> "TensorElement":
        """The tensor nums / den (packed keys, int numerators, none zero)."""
        t = cls.__new__(cls)
        t.algebra, t.arity = algebra, arity
        t._terms, t.scaled = None, (nums, den)
        return t

    def _like(self, nums, den) -> "TensorElement":
        return TensorElement.from_scaled(self.algebra, self.arity, nums, den)

    def _view(self):
        return lambda key: unpack(self.algebra, self.arity, key)

    @classmethod
    def unit(cls, algebra: Presentation, arity: int) -> "TensorElement":
        return tensor_product(*[algebra.one()] * arity)

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
        that leg, and each image term is spliced into that group of keys,
        summed in one output over the images' running lcm (``widen``).
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
        out, common, grown = {}, 1, None
        acc = out.get
        for i, group in groups.items():
            image = f(Element.from_scaled(algebra, {i: 1}, 1))
            if not isinstance(image, Scaled):  # an Element has arity 1
                raise TypeError("leg map must return Element or TensorElement")
            if grown not in (None, image.arity - 1):
                raise ValueError("leg map returned inconsistent arities")
            grown, (pieces, d) = image.arity - 1, image.scaled
            if common % d:
                out, common = widen(out, common, d)
                acc = out.get
            after, up = shift + LEG_BITS * image.arity, common // d
            rest = [(before | tail << after, n * up) for before, tail, n in group]
            for mid, c in pieces.items():
                mid <<= shift
                for r, n in rest:
                    k = mid | r
                    out[k] = acc(k, 0) + c * n
        if grown is None:
            # zero tensor: probe f on zero to learn the target arity
            grown = f(algebra.zero()).arity - 1
        return TensorElement.from_scaled(algebra, self.arity + grown,
                                         *rescale(out, den * common))

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
        return [(m, Element(self.algebra, grouped[m]))
                for m in sorted(grouped, key=self.algebra.monomial_key)]

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
    nums, den = {0: 1}, 1
    for leg, e in enumerate(factors):
        if e.algebra is not algebra:
            raise PresentationMismatchError("factors over different presentations")
        # distinct (key, id) give distinct keys, and nonzero times nonzero
        (b, db), shift = e.scaled, LEG_BITS * leg
        nums = {key | i << shift: c * n
                for key, c in nums.items() for i, n in b.items()}
        den *= db
    return TensorElement.from_scaled(algebra, len(factors), *rescale(nums, den))


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
    return Element.from_scaled(algebra, *extend_scaled(*t.scaled, product))
