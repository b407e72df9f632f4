"""Sparse exact-rational accumulation, and exact linear algebra over the
rationals.

Every coefficient dict in the package -- ``Element`` and ``TensorElement``
terms, solver vectors, memo tables -- stores no zero coefficient, and
only ``add_term``, ``vec_add_scaled`` and the integer seam add into one.

Scaled form (FLINT's fmpq_poly layout): ``Element``, ``TensorElement``
and the structure maps' memo tables keep ``(nums, den)``, int numerators
with no zero over one positive denominator in lowest terms, keyed by
monomial id or by tensor's packed key of ids, and add ints only:
``combine``, the one multiply-add loop, first brings its values to the
lcm of their denominators; ``multiply_legs`` sums a tensor product (an
``Element`` product is its arity-1 case) per pair of terms over a running
lcm (``widen``), each leg's product read from the one memo on ids.
``Scaled`` owns the linear structure of both classes; public
coefficients (``terms``, solver results) are Fractions.  Rewriting
(``Presentation._rewrite``) keeps int numerators too, and ``combine``
sums its leaves.

Vectors are sparse dicts {column index: Fraction}.  ``LinearSolver`` is
the one exact elimination: ``rref`` reads its rows, and ``kernel_basis``
reads ``rref``.  Reduced forms and kernel bases are bit-for-bit
reproducible because the reduced row echelon form of a matrix is unique,
whatever the order of elimination.

``rank`` alone has a fast path, the rank modulo a prime, sound by the
argument in its docstring; ``rref``, ``kernel_basis`` and
``LinearSolver`` are always exact.

``kernel`` owns the matrix layout of every kernel in the package: it
takes a map as its columns {basis key: image vector}, transposes them
into the rows ``kernel_basis`` reads, and keys the cleared kernel vectors
by basis key again.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = dict  # {key: Fraction}, no explicit zeros


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:  # a text such as "1/0"
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def add_term(target: dict, key, value: Fraction) -> None:
    """target[key] += value in place, dropping the entry if it cancels."""
    acc = target.get(key)
    if acc is None:
        if value:
            target[key] = value
    else:
        acc += value
        if acc:
            target[key] = acc
        else:
            del target[key]


def vec_add_scaled(target: dict, source: dict, factor: Fraction) -> None:
    """target += factor * source in place, dropping entries that cancel.

    A zero factor is a no-op.  Keys may be any hashable:
    column indices, monomials or tensor keys.  Like every sparse vector,
    source holds no zero, so a key new to target is stored without an add.
    """
    if not factor:
        return
    for k, v in source.items():
        acc = target.get(k)
        if acc is None:
            target[k] = factor * v
        else:
            acc += factor * v
            if acc:
                target[k] = acc
            else:
                del target[k]


def split(terms: dict) -> tuple[dict, int]:
    """Int numerators over the lcm of the denominators, zero terms dropped:
    terms = nums / den."""
    den = lcm(*{v.denominator for v in terms.values()})
    if den == 1:
        return {k: v.numerator for k, v in terms.items() if v}, 1
    return {k: v.numerator * (den // v.denominator)
            for k, v in terms.items() if v}, den


def combine(images: list, den: int) -> tuple[dict, int]:
    """Scaled form of (sum of n * nums / d over images (n, (nums, d))) / den,
    every nums brought to the lcm of the d first (a single image is only
    scaled, and kept as it is when n is 1)."""
    if len(images) == 1:
        n, (nums, d) = images[0]
        return rescale(nums if n == 1 else {k: n * v for k, v in nums.items()},
                       den * d)
    common = lcm(*{d for _, (_, d) in images})
    out: dict = {}
    get = out.get
    for n, (nums, d) in images:
        if d != common:
            n *= common // d
        for k, v in nums.items():
            out[k] = get(k, 0) + n * v
    return rescale(out, den * common)


def multiply_legs(groups_a: dict, groups_b: dict, get, fill, den: int,
                  width: int, last: int) -> tuple[dict, int]:
    """Scaled form over den of a product of two sides' terms (numerator,
    last leg's id), grouped by their other legs, on int keys of one id per
    ``width`` bits, the last leg at shift ``last``: ids i of a (shifted up
    by ``width``) and j of b multiply to get(i << width | j) or, where get
    returns None, fill(...); the denominators go to their running lcm."""
    mask, heads = (1 << width) - 1, range(0, last, width)
    out: dict = {}
    acc, common = out.get, 1
    for ga, group_a in groups_a.items():
        for gb, group_b in groups_b.items():
            partial, dh = {0: 1}, 1  # the product on all legs but the last
            for shift in heads:
                x = (ga >> shift & mask) << width | gb >> shift & mask
                nums, d = get(x) or fill(x)
                partial = nums if not shift else {
                    p | i << shift: g * n
                    for p, g in partial.items() for i, n in nums.items()}
                dh *= d
            for p, g in partial.items():
                for ca, i in group_a:
                    ca *= g
                    for cb, j in group_b:
                        nums, d = get(i | j) or fill(i | j)
                        d, c = d * dh, ca * cb
                        if d != common:
                            out, common = widen(out, common, d)
                            acc = out.get
                            c *= common // d
                        for m, n in nums.items():
                            k = p | m << last
                            out[k] = acc(k, 0) + c * n
    return rescale(out, den * common)


def widen(out: dict, common: int, d: int) -> tuple[dict, int]:
    """The sums out over common, brought to lcm(common, d) as new sums."""
    f = lcm(common, d) // common
    return ({k: v * f for k, v in out.items()} if f > 1 else out), common * f


class Scaled:
    """Base of ``Element`` and ``TensorElement``: the linear structure on
    scaled form.

    ``scaled`` is the one stored form, split once when an instance is
    built from a terms dict (``from_scaled`` stores it as given); ``terms``
    is its Fraction view on the public keys of ``_view()``, joined on first
    read and cached, never the caller's dict, which the caller may change.
    A subclass supplies ``_view``, its product, ``_coerce`` (an operand of
    the same kind, or an error) and ``_like(nums, den)``.
    """

    __slots__ = ("_terms", "scaled")

    @property
    def terms(self) -> dict:
        if self._terms is None:
            view = self._view()
            self._terms = {view(k): c for k, c in join(*self.scaled).items()}
        return self._terms

    def __bool__(self):
        return bool(self.scaled[0])

    def __add__(self, other):
        return self._like(*combine(
            [(1, self.scaled), (1, self._coerce(other).scaled)], 1))

    def __sub__(self, other):
        return self._like(*combine(
            [(1, self.scaled), (-1, self._coerce(other).scaled)], 1))

    def __neg__(self):
        return self._like(*combine([(-1, self.scaled)], 1))

    def scale(self, c):
        """c * self for an exact rational c."""
        c = as_fraction(c)
        return self._like(*combine([(c.numerator, self.scaled)], c.denominator))


def rescale(sums: dict, den: int) -> tuple[dict, int]:
    """Scaled form of the int sums / den: zeros dropped, common factors
    cancelled; sums is not modified, and kept when nothing changes."""
    nums = sums if all(sums.values()) else {k: v for k, v in sums.items() if v}
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: v // g for k, v in nums.items()}
            den //= g
    return nums, den


def join(nums: dict, den: int) -> dict:
    """Fraction coefficients nums / den, one per nonzero output term."""
    if den == 1:
        return {k: Fraction(n) for k, n in nums.items() if n}
    return {k: Fraction(n, den) for k, n in nums.items() if n}


def extend_scaled(nums: dict, den: int, mono_map) -> tuple[dict, int]:
    """Linear extension on scaled form: sum of n * mono_map(key) / den,
    mono_map returning scaled pairs (memo entries), one key over 1/1 its own."""
    if den == 1 and len(nums) == 1 and 1 in nums.values():
        return mono_map(*nums)
    return combine([(n, mono_map(key)) for key, n in nums.items()], den)


def scaled_equal(a: tuple[dict, int], b: tuple[dict, int]) -> bool:
    """Exact equality of two scaled forms, with no Fraction built."""
    (na, da), (nb, db) = a, b
    if da == db:
        return na == nb
    return na.keys() == nb.keys() and all(
        n * db == nb[k] * da for k, n in na.items())


def rref(rows: Sequence[Vector], ncols: int) -> tuple[list[Vector], dict[int, int]]:
    """Reduced row echelon form of the rows restricted to columns
    0..ncols-1: the rows of a ``LinearSolver`` spanned by them.

    Returns (reduced nonzero rows, {pivot column: row position}),
    with rows listed in ascending pivot-column order and pivot entries 1.
    """
    solver = LinearSolver([{j: v for j, v in row.items() if 0 <= j < ncols}
                           for row in rows])
    order = sorted(solver._pivots)
    return ([solver._rows[solver._pivots[c]][0] for c in order],
            {c: i for i, c in enumerate(order)})


RANK_PRIME = (1 << 61) - 1


def rank(rows: Sequence[Vector], ncols: int) -> int:
    """Exact rank over Q of the rows restricted to columns 0..ncols-1.

    Always equal to ``len(rref(rows, ncols)[0])``.  The rank mod
    RANK_PRIME is returned only when it equals the bound
    min(#nonzero rows, #nonzero columns): reduction mod p is a ring map
    on the rationals whose denominators p does not divide, so rank mod p
    <= rank over Q <= bound, and the three are then equal.  When it falls short, or p
    divides a denominator, the exact rref decides.
    """
    support: set = set()
    nonzero_rows = 0
    for row in rows:
        if row:
            nonzero_rows += 1
            support.update(row)
    if not support:
        return 0
    # explicit zeros only raise the bound, which keeps the test one-sided
    bound = min(nonzero_rows, len(support))
    if min(support) >= 0 and max(support) < ncols \
            and _rank_mod_p(rows, bound) == bound:
        return bound
    return len(rref(rows, ncols)[0])


def _rank_mod_p(rows: Sequence[Vector], bound: int) -> int | None:
    """Rank mod RANK_PRIME by sparse row echelon, stopping at bound.

    None when RANK_PRIME divides a denominator.
    """
    p = RANK_PRIME
    inverses = {1: 1}  # denominator -> its inverse mod p
    pivots: dict[int, dict[int, int]] = {}  # leading column -> monic row
    for row in rows:
        vec = {}
        for j, v in row.items():
            d = v.denominator
            inv = inverses.get(d)
            if inv is None:
                if not d % p:
                    return None
                inv = inverses[d] = pow(d, -1, p)
            x = v.numerator * inv % p
            if x:
                vec[j] = x
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(vec[lead], -1, p)
                pivots[lead] = {j: x * inv % p for j, x in vec.items()}
                if len(pivots) == bound:
                    return bound
                break
            f = vec[lead]
            for j, x in pivot.items():
                y = (vec.get(j, 0) - f * x) % p
                if y:
                    vec[j] = y
                else:
                    del vec[j]
    return len(pivots)


def kernel_basis(rows: Sequence[Vector], ncols: int) -> list[Vector]:
    """Basis of {x : A x = 0} where the given rows are the equations.

    One basis vector per free column f (ascending), normalized to x_f = 1.
    """
    reduced, pivots = rref(rows, ncols)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec: Vector = {free: ONE}
        for col, i in pivots.items():
            v = reduced[i].get(free)
            if v:
                vec[col] = -v
        basis.append(vec)
    return basis


class LinearSolver:
    """Repeated exact solves against a fixed set of spanning vectors.

    Rows are the given vectors augmented with bookkeeping coordinates;
    elimination pivots only on the vector part, so reducing a target
    vector to zero simultaneously yields its coefficients.
    """

    def __init__(self, columns: Sequence[Vector]):
        self.nvecs = 0
        self._rows: list[tuple[Vector, Vector]] = []  # (vector part, coeff part)
        self._pivots: dict[object, int] = {}
        self.independent = True
        for col in columns:
            self.add(col)

    def add(self, vector: Vector) -> bool:
        """Adjoin a spanning vector; returns False iff it was dependent."""
        idx = self.nvecs
        self.nvecs += 1
        main, coeffs = self._reduce(vector)
        if not main:
            self.independent = False
            return False
        pivot = min(main)
        inv = ONE / main[pivot]
        main = {j: v * inv for j, v in main.items()}
        coeffs = {j: v * inv for j, v in coeffs.items()}
        coeffs[idx] = -inv  # _reduce only touches earlier vectors
        for m, c in self._rows:
            v = m.get(pivot)
            if v:
                vec_add_scaled(m, main, -v)
                vec_add_scaled(c, coeffs, -v)
        self._pivots[pivot] = len(self._rows)
        self._rows.append((main, coeffs))
        return True

    def _reduce(self, vector: Vector) -> tuple[Vector, Vector]:
        main = {j: v for j, v in vector.items() if v}
        coeffs: Vector = {}
        for pivot in sorted(self._pivots):
            v = main.get(pivot)
            if v:
                row_main, row_coeffs = self._rows[self._pivots[pivot]]
                vec_add_scaled(main, row_main, -v)
                vec_add_scaled(coeffs, row_coeffs, -v)
        return main, coeffs

    def contains(self, vector: Vector) -> bool:
        main, _ = self._reduce(vector)
        return not main

    def solve(self, vector: Vector) -> list[Fraction] | None:
        """Coefficients over the added vectors, or None if not in the span.

        Invariant maintained by add/_reduce: vector = main + sum of
        coeffs[i] * vectors[i], so a zero main part means the coeffs are
        the answer.
        """
        main, coeffs = self._reduce(vector)
        if main:
            return None
        return [coeffs.get(i, ZERO) for i in range(self.nvecs)]


def clear_denominators(vec: Vector) -> Vector:
    """Scale to integer entries with positive leading coefficient, content 1."""
    if not vec:
        return {}
    nums, _ = split(vec)
    g = gcd(*nums.values())
    if nums[min(nums)] < 0:
        g = -g
    return {j: Fraction(n // g) for j, n in nums.items()}


def kernel(columns: dict) -> list[dict]:
    """Kernel of the map given by its columns {basis key: image vector},
    listed in basis order: the ``kernel_basis`` of the transposed matrix,
    each vector cleared of denominators while still indexed by column (its
    sign follows the lowest column index, not the smallest key) and then
    keyed by basis key."""
    keys = list(columns)
    rows: dict = {}
    for col, image in enumerate(columns.values()):
        for k, c in image.items():
            rows.setdefault(k, {})[col] = c
    return [{keys[j]: c for j, c in clear_denominators(vec).items()}
            for vec in kernel_basis(list(rows.values()), len(keys))]
