"""Normal-form arithmetic for algebras with ordered weighted generators.

A presentation lists generators x_0 < x_1 < ... with positive integer
weights and a commutator table giving [x_j, x_i] = x_j*x_i - x_i*x_j for
j > i.  Words are rewritten toward ascending index,

    x_j * x_i  ->  x_i * x_j + [x_j, x_i]      (j > i),

so the ordered monomials x_0^a0 * x_1^a1 * ... form the working basis.
Rewriting terminates whenever every table entry has weight strictly below
the weight of the pair it replaces (check_termination_weights).  Ordered
monomials then form an actual basis iff the overlaps x_k*x_j*x_i resolve,
that is, iff the normal-form product is associative on them (Bergman's
diamond lemma, Adv. Math. 29, 1978): check_confluence, which checks
termination first, compares (x_k*x_j)*x_i with x_k*(x_j*x_i).  No other
module runs the two checks: Presentation.certify() keeps their report
once it passes, as pure memoization like the one product memo
``id_products``, so a guard tests its presence.  Values are otherwise
immutable and every operation is pure.

An ``Element`` keys its terms by ``mono_id`` as a tensor leg does
(``terms`` is the tuple view; a read numbers no monomial).  Every map
given by its values on generators -- coproduct, antipode and its
inverse, subalgebra embedding, generator automorphism, host winding,
character (a map into k, presented with no generators) -- is a
GeneratorMap: it extends the images by peeling one factor, memoizes the
monomial images in scaled form on mono ids, and lists the relation
defects that certify it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence

from .linalg import (ONE, ZERO, Scaled, add_term, as_fraction, extend_scaled,
                     multiply_legs, scaled_equal, split)
from .report import Report

Monomial = tuple  # exponent vector over the presentation's generators

MONO_ID_BITS = 32  # a monomial id fits one leg of a packed tensor key


class _MonomialIds(dict):
    """{monomial: id}, numbering a new monomial into monos and weights."""

    def __missing__(self, mono: Monomial) -> int:
        if len(self) >> MONO_ID_BITS:
            raise OverflowError(f"more than 2^{MONO_ID_BITS} monomials")
        self.monos.append(mono)
        self.weights.append(self.weight(mono))
        self[mono] = i = len(self)
        return i


class PresentationMismatchError(ValueError):
    """Raised when elements of different presentations are combined."""


class Presentation:
    """Ordered generators with weights plus the commutator rewrite table."""

    def __init__(self, generators: Sequence[tuple[str, int]],
                 commutators: Mapping | None = None):
        names = [str(n) for n, _ in generators]
        weights = [int(w) for _, w in generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        if any(w <= 0 for w in weights):
            raise ValueError("generator weights must be positive")
        self.names: tuple[str, ...] = tuple(names)
        self.weights: tuple[int, ...] = tuple(weights)
        self._index = {n: i for i, n in enumerate(names)}
        # table[(j, i)] = {monomial: coeff} meaning [x_j, x_i], stored for j > i
        table: dict[tuple[int, int], dict[Monomial, Fraction]] = {}
        for (j, i), value in self.indexed(commutators or {}).items():
            if j <= i:
                fault = ("names one generator twice" if j == i
                         else "must list the later generator first")
                raise ValueError(
                    f"commutator [{self.names[j]},{self.names[i]}] {fault}")
            table[(j, i)] = self._clean_terms(value)
        self.table = table
        self._words = {pair: [(self.word_of(m), c) for m, c in terms.items()]
                       for pair, terms in table.items()}  # for reduce_word
        self.certificate: Report | None = None  # set by certify() once it passes
        # the one product memo, filled by product_ids; _prod_cache is the
        # name under which the benchmark's traced runs read its size
        self.id_products = self._prod_cache = {}
        self._monomial_cache: dict[int, tuple[Monomial, ...]] = {}
        ids = _MonomialIds()  # monomial -> id; find_id numbers nothing
        ids.monos, ids.weights, ids.weight = [], [], self.monomial_weight
        self.monos, self.id_weights = ids.monos, ids.weights  # by id
        self.mono_id, self.find_id = ids.__getitem__, ids.get

    # -- basic queries -------------------------------------------------

    def _resolve(self, g) -> int:
        if isinstance(g, int):
            if not 0 <= g < len(self.names):
                raise ValueError(f"generator index {g} out of range")
            return g
        try:
            return self._index[g]
        except KeyError:
            raise ValueError(f"unknown generator {g!r}") from None

    def _clean_terms(self, value) -> dict[Monomial, Fraction]:
        if isinstance(value, Element):
            if value.algebra is not self:
                raise PresentationMismatchError("table entry from another presentation")
            return dict(value.terms)
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in dict(value).items():
            add_term(out, self.as_monomial(mono), as_fraction(coeff))
        return out

    def as_monomial(self, mono) -> Monomial:
        """mono as a tuple of int exponents; ValueError unless it has one
        entry per generator and none negative."""
        mono = tuple(int(e) for e in mono)
        if len(mono) != self.ngens or any(e < 0 for e in mono):
            raise ValueError(f"bad monomial {mono}")
        return mono

    @property
    def ngens(self) -> int:
        return len(self.names)

    index = _resolve  # a generator name's index, or a range-checked int

    def indexed(self, mapping: Mapping) -> dict:
        """{index: value} of a {generator: value} mapping, or {(j, i):
        value} of one keyed by generator pairs; a second key for one
        generator (or pair) raises ValueError naming it."""
        out: dict = {}
        for key, value in mapping.items():
            pair = isinstance(key, tuple)
            index = tuple(map(self._resolve, key)) if pair else self._resolve(key)
            if index in out:
                raise ValueError("generator " + ",".join(
                    self.names[i] for i in (index if pair else (index,)))
                    + " is given twice")
            out[index] = value
        return out

    def commutator_entry(self, j, i) -> "Element":
        """The table entry [x_j, x_i] as an element (zero if the pair commutes)."""
        j, i = self._resolve(j), self._resolve(i)
        elt = Element(self, dict(self.table.get((max(j, i), min(j, i)), {})))
        return -elt if j < i else elt

    def monomial_weight(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.weights))

    def identity_monomial(self) -> Monomial:
        return (0,) * self.ngens

    def monomial_key(self, mono: Monomial) -> tuple:
        """Canonical (weight, lex) sort key."""
        return (self.monomial_weight(mono), mono)

    def monomials_of_weight(self, w: int) -> tuple[Monomial, ...]:
        """All monomials of exact weight w, canonically ordered."""
        if w not in self._monomial_cache:
            found = []
            def rec(pos, remaining, acc):
                if pos == self.ngens:
                    if remaining == 0:
                        found.append(tuple(acc))
                    return
                wt = self.weights[pos]
                for e in range(remaining // wt + 1):
                    rec(pos + 1, remaining - e * wt, acc + [e])
            rec(0, w, [])
            self._monomial_cache[w] = tuple(sorted(found, key=self.monomial_key))
        return self._monomial_cache[w]

    # -- element factories ----------------------------------------------

    def zero(self) -> "Element":
        return Element.from_scaled(self, {}, 1)

    def one(self) -> "Element":
        return Element.from_scaled(self, {self.mono_id(self.identity_monomial()): 1}, 1)

    def scalar(self, c) -> "Element":
        c = as_fraction(c)
        nums = {self.mono_id(self.identity_monomial()): c.numerator} if c else {}
        return Element.from_scaled(self, nums, c.denominator)

    def gen(self, g) -> "Element":
        i = self._resolve(g)
        mono = tuple(1 if k == i else 0 for k in range(self.ngens))
        return Element.from_scaled(self, {self.mono_id(mono): 1}, 1)

    def monomial(self, mono: Monomial) -> "Element":
        return Element.from_scaled(self, {self.mono_id(self.as_monomial(mono)): 1}, 1)

    def element(self, terms: Mapping) -> "Element":
        return Element(self, self._clean_terms(terms))

    # -- rewriting -------------------------------------------------------

    def word_of(self, mono: Monomial) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(mono) for _ in range(e))

    def _mono_of_sorted_word(self, word) -> Monomial:
        mono = [0] * self.ngens
        for i in word:
            mono[i] += 1
        return tuple(mono)

    def reduce_word(self, word: Iterable[int], rng=None) -> dict[Monomial, Fraction]:
        """Normal form of x_{w0} x_{w1} ... as a terms dict.

        With rng given, the rewrite position among the misordered adjacent
        pairs is chosen at random at every step (used by the confluence
        oracle); the result must not depend on that choice once the
        presentation is confluent.
        """
        result: dict[Monomial, Fraction] = {}
        stack: list[tuple[tuple[int, ...], Fraction]] = [(tuple(word), ONE)]
        while stack:
            w, c = stack.pop()
            positions = [p for p in range(len(w) - 1) if w[p] > w[p + 1]]
            if not positions:
                add_term(result, self._mono_of_sorted_word(w), c)
                continue
            p = positions[0] if rng is None else rng.choice(positions)
            j, i = w[p], w[p + 1]
            stack.append((w[:p] + (i, j) + w[p + 2:], c))
            for word, pc in self._words.get((j, i), ()):
                stack.append((w[:p] + word + w[p + 2:], c * pc))
        return result

    def product_terms(self, m1: Monomial, m2: Monomial) -> tuple[dict, int]:
        """The normal form of m1 * m2, scaled and not memoized: the words
        are rewritten only if a generator of m2 precedes the last one of m1
        (and the table is nonempty); otherwise it is the exponent sum."""
        last = max((g for g, e in enumerate(m1) if e), default=0)
        if self.table and any(m2[:last]):
            return split(self.reduce_word(self.word_of(m1) + self.word_of(m2)))
        return {tuple(a + b for a, b in zip(m1, m2)): 1}, 1

    def product_ids(self, key: int) -> tuple[dict, int]:
        """product_terms of ids i, j (key = i << MONO_ID_BITS | j) on ids,
        kept in id_products: every product of two monomials reads it."""
        i, j = divmod(key, 1 << MONO_ID_BITS)
        nums, den = self.product_terms(self.monos[i], self.monos[j])
        value = self.id_products[key] = (
            {self.mono_id(m): n for m, n in nums.items()}, den)
        return value

    def certify(self) -> Report:
        """check_confluence, kept as ``certificate`` once it passes."""
        if self.certificate is None:
            report = check_confluence(self)
            if not report.passed:
                return report
            self.certificate = report
        return self.certificate

    def __repr__(self):
        gens = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"Presentation({gens})"


class Element(Scaled):
    """Exact-rational combination of ordered monomials of one presentation.

    Every ring operation reads and returns the scaled form (see
    ``linalg.Scaled``) on mono ids, the layout of an arity-1 tensor;
    ``terms`` is the public {monomial: Fraction} view.  Instances are
    immutable in intent, and no stored coefficient is zero.
    """

    __slots__ = ("algebra",)
    arity = 1

    def __init__(self, algebra: Presentation, terms: dict[Monomial, Fraction]):
        self.algebra, self._terms = algebra, None
        self.scaled = split({algebra.mono_id(m): c for m, c in terms.items()})

    @classmethod
    def from_scaled(cls, algebra: Presentation, nums: dict[int, int],
                    den: int) -> "Element":
        """nums / den (mono ids, int numerators, none zero, den > 0)."""
        x = cls.__new__(cls)
        x.algebra, x._terms, x.scaled = algebra, None, (nums, den)
        return x

    def _like(self, nums, den) -> "Element":
        return Element.from_scaled(self.algebra, nums, den)

    def _view(self):
        return self.algebra.monos.__getitem__

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            if other.algebra is not self.algebra:
                raise PresentationMismatchError(
                    "elements belong to different presentations")
            return other
        return self.algebra.scalar(other)

    __radd__ = Scaled.__add__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        # the arity-1 tensor product: per pair of terms on mono ids
        pres, other = self.algebra, self._coerce(other)
        (a, da), (b, db) = self.scaled, other.scaled
        return self._like(*multiply_legs(
            {0: [(n, i << MONO_ID_BITS) for i, n in a.items()]},
            {0: [(n, j) for j, n in b.items()]}, pres.id_products.get,
            pres.product_ids, da * db, MONO_ID_BITS, 0))

    def __rmul__(self, other):
        # scalars commute; Element * Element never reaches here
        return self * other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Element):
            return (self.algebra is other.algebra
                    and scaled_equal(self.scaled, other.scaled))
        if isinstance(other, (int, Fraction)):
            # a multiple of 1: one term, or none for 0
            return len(self.scaled[0]) == bool(other) and self.constant_term() == other
        return NotImplemented

    # -- structure ---------------------------------------------------------

    @property
    def weight(self):
        """Max monomial weight; None for the zero element."""
        return max(map(self.algebra.id_weights.__getitem__, self.scaled[0]),
                   default=None)

    def constant_term(self) -> Fraction:
        return self.coefficient(self.algebra.identity_monomial())

    def coefficient(self, mono: Monomial) -> Fraction:
        nums, den = self.scaled
        n = nums.get(self.algebra.find_id(tuple(mono)))
        return ZERO if n is None else Fraction(n, den)

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        # leading (heaviest) term first, in (weight, lex) order
        terms = self.terms
        return format_linear((terms[m], format_monomial(self.algebra, m))
                             for m in sorted(terms, reverse=True,
                                             key=self.algebra.monomial_key))


def format_linear(pairs) -> str:
    """The signed sum of (coefficient, body) pairs, in the order given: a
    coefficient of +-1 is elided, a body "1" prints as the bare
    coefficient, and no pairs print as 0."""
    parts = []
    for coeff, body in pairs:
        size = abs(coeff)
        piece = (str(size) if body == "1" else body if size == 1
                 else f"{size}*{body}")
        if parts:
            parts.append(f"{'+' if coeff > 0 else '-'} {piece}")
        else:
            parts.append(piece if coeff > 0 else f"-{piece}")
    return " ".join(parts) or "0"


def format_monomial(algebra: Presentation, mono: Monomial) -> str:
    factors = []
    for name, e in zip(algebra.names, mono):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors) if factors else "1"


class GeneratorMap:
    """The algebra map (anti-map, if anti is set) on source fixed by its
    generator images {index: value}; they and unit, the image of 1, are all
    ``Element``s or all ``TensorElement``s.  A monomial's image peels its
    first generator, f(g_k m') = f(g_k) f(m'), or for an anti-map its last,
    f(m' g_k) = f(g_k) f(m'); ``of_id`` returns it as the scaled pair kept
    in ``memo`` on the monomial's id, filled by a loop, not by recursion,
    so no exponent is limited by the recursion depth.  It takes only
    elements of source (PresentationMismatchError otherwise).  The map is
    well defined iff every relation defect is zero.
    """

    def __init__(self, source: Presentation, images: dict, unit, anti: bool):
        self.source = source
        self.images = images
        self.unit = unit
        self.anti = anti
        self.memo: dict = {}

    def of_id(self, i: int) -> tuple[dict, int]:
        memo = self.memo
        cached = memo.get(i)
        if cached is not None:
            return cached
        monos, ids, chain = self.source.monos, self.source.mono_id, []
        while i not in memo:
            mono = monos[i]
            if not any(mono):
                memo[i] = self.unit.scaled
                break
            occurring = [g for g, e in enumerate(mono) if e]
            k = occurring[-1] if self.anti else occurring[0]
            chain.append((i, k))
            i = ids(tuple(e - 1 if g == k else e for g, e in enumerate(mono)))
        value, images, like = memo[i], self.images, self.unit._like
        for m, k in reversed(chain):
            value = memo[m] = (images[k] * like(*value)).scaled
        return value

    def __call__(self, x: Element):
        if x.algebra is not self.source:
            raise PresentationMismatchError(
                "map applied to an element of another presentation")
        return self.unit._like(*extend_scaled(*x.scaled, self.of_id))

    def relation_defect(self, j: int, i: int):
        """f(a)f(b) - f(b)f(a) - f([x_j, x_i]), with (a, b) = (x_j, x_i),
        swapped for an anti-map."""
        a, b = self.images[j], self.images[i]
        if self.anti:
            a, b = b, a
        return a * b - b * a - self(self.source.commutator_entry(j, i))

    def relation_defects(self):
        """(j, i, relation_defect(j, i)) per table entry in sorted order."""
        for j, i in sorted(self.source.table):
            yield j, i, self.relation_defect(j, i)


def commutator(a: Element, b: Element) -> Element:
    """[a, b] = a*b - b*a."""
    return a * b - b * a


def check_termination_weights(pres: Presentation) -> Report:
    """Verify weight([x_j, x_i]) < w_i + w_j for every table entry."""
    report = Report("termination-weights")
    for (j, i), terms in sorted(pres.table.items()):
        bound = pres.weights[i] + pres.weights[j]
        w = max((pres.monomial_weight(m) for m in terms), default=None)
        ok = w is None or w < bound
        report.add(
            f"[{pres.names[j]},{pres.names[i]}]", ok,
            "zero entry" if w is None else
            f"weight {w} {'<' if ok else '>='} {bound}")
    if not pres.table:
        report.add("no relations", True, "free commutative table")
    return report


def check_confluence(pres: Presentation) -> Report:
    """Termination checks, then, once they pass (so rewriting stops), the
    associativity of the normal-form product on each overlap x_k x_j x_i
    (k>j>i): by Bergman's diamond lemma (Adv. Math. 29, 1978) the ordered
    monomials form a basis iff every delta (x_k*x_j)*x_i - x_k*(x_j*x_i)
    is zero.

    A failing triple means the ordered monomials do not form a basis and
    every downstream computation over this presentation is unsound.  A
    triple whose pairs all commute exactly resolves by swaps alone, both
    ways reaching x_i x_j x_k.
    """
    report = Report("confluence")
    report.extend(check_termination_weights(pres))
    if not report.passed:
        return report
    gens, table = [pres.gen(g) for g in range(pres.ngens)], pres.table
    for k, j, i in itertools.combinations(range(pres.ngens - 1, -1, -1), 3):
        name = f"overlap ({pres.names[k]},{pres.names[j]},{pres.names[i]})"
        if not (table.get((k, j)) or table.get((j, i)) or table.get((k, i))):
            report.add(name, True)
            continue
        x_k, x_j, x_i = gens[k], gens[j], gens[i]
        delta = (x_k * x_j) * x_i - x_k * (x_j * x_i)
        report.add(name, not delta,
                   f"normal forms differ by {delta}" if delta else "")
    if pres.ngens < 3:
        report.add("no overlaps", True, "fewer than three generators")
    return report
