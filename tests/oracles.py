"""Slow reference definitions that the tests check fast paths against."""

from fractions import Fraction
from math import lcm

from hopfforge import linalg
from hopfforge.algebra import ONE, Element
from hopfforge.coideal import register_subalgebra
from hopfforge.grading import _leading_terms
from hopfforge.hopf import HopfAlgebraError
from hopfforge.lantern import lantern
from hopfforge.linalg import add_term, rescale, vec_add_scaled
from hopfforge.report import Report
from hopfforge.tensor import LEG_BITS, LEG_MASK, TensorElement, contract


def monomials_up_to(pres, max_weight: int, include_identity: bool = True
                    ) -> list[tuple]:
    """The ordered monomials of pres of weight <= max_weight (and >= 1
    without include_identity), in (weight, lex) order."""
    return [m for w in range(0 if include_identity else 1, max_weight + 1)
            for m in pres.monomials_of_weight(w)]


def primitive_basis(H) -> list[Element]:
    """Basis of the primitives of a certified host: the weight-1
    generators.  They are primitive (_validate_coproduct leaves no other
    term in weight 1), and the filtration certificate puts every primitive
    in weight 1."""
    H._require_filtration()
    pres = H.presentation
    return [pres.monomial(m) for m in pres.monomials_of_weight(1)]


def truncated_filtration_check(H, truncation: int) -> bool:
    """Truncated kernel-rank check of the filtration, by exact elimination.

    For every n <= truncation the n-fold reduced coproduct must vanish on
    the non-identity monomials of weight <= n, and its kernel on those of
    weight <= truncation must have exactly their number as dimension.  This
    is the definition grading.certify_filtration replaces by an exact check
    on the associated graded; H needs its confluence certificate.
    """
    pres = H.presentation
    monomials = monomials_up_to(pres, truncation, include_identity=False)
    ncols = len(monomials)
    weights = [pres.monomial_weight(m) for m in monomials]
    for n in range(1, truncation + 1):
        expected = 0
        rows: dict = {}
        for col, mono in enumerate(monomials):
            terms = H.iterated_reduced_coproduct(pres.monomial(mono), n).terms
            if weights[col] <= n:
                expected += 1
                if terms:
                    return False
            for key, c in terms.items():
                rows.setdefault(key, {})[col] = c
        # exact rref, not linalg.rank: the oracle avoids the modular fast path
        if ncols - len(linalg.rref(list(rows.values()), ncols)[0]) != expected:
            return False
    return True


def coradical_degree_by_iteration(H, x) -> int:
    """Smallest n with the n-fold reduced coproduct of x - counit(x) zero.

    The iterative definition that PresentedHopfAlgebra.coradical_degree
    replaces by the weight on certified hosts; the degree suites use it so
    they do not check the library against itself.
    """
    if not x:
        raise ValueError("coradical degree of 0 is undefined")
    y = x - H.scalar(H.counit(x))
    if not y:
        return 0
    for n in range(1, y.weight + 1):
        if not H.iterated_reduced_coproduct(y, n):
            return n
    raise AssertionError("reduced coproduct fails to vanish within the "
                         "weight bound")


def convolution_defects(H, g) -> tuple[Element, Element]:
    """m(S@id)Delta(g) and m(id@S)Delta(g) on a generator g (counit 0):
    both convolution identities, contracted explicitly.  The library
    checks only the left one (hopf._antipode_recursion) and has the right
    one by proof."""
    t = H.coproduct(H.gen(g))
    return tuple(contract(t.apply_to_leg(leg, H.antipode)) for leg in (1, 2))


def counit_leg(H, t: TensorElement, leg: int) -> Element:
    """The counit applied to one leg (1 or 2) of an arity-2 tensor, term
    by term.  verify_bialgebra has the counit axioms on generators by
    proof (hopf._validate_coproduct) and computes none of them."""
    one = H.presentation.identity_monomial()
    out: dict = {}
    for key, c in t.terms.items():
        if key[leg - 1] == one:
            add_term(out, key[2 - leg], c)
    return Element(H.presentation, out)


def bialgebra_lines_by_computation(H) -> list[tuple[str, bool, str]]:
    """(name, passed, details) of every verify_bialgebra line, each one
    computed: every relation defect of the coproduct, coassociativity on
    every generator and the counit axioms term by term.  verify_bialgebra
    has coassociativity below weight 3, the coproduct lines of weight-1
    pairs and the counit axioms by proof."""
    pres = H.presentation
    lines = []
    for j, i, defect in H._coproduct.relation_defects():
        rel = f"[{pres.names[j]},{pres.names[i]}]"
        lines.append((f"coproduct respects {rel}", not defect, ""))
        lines.append((f"counit respects {rel}",
                      H.counit(pres.commutator_entry(j, i)) == 0, ""))
    for g in pres.names:
        t = H.coproduct(pres.gen(g))
        lines.append((f"coassociativity on {g}", t.apply_to_leg(
            1, H.coproduct) == t.apply_to_leg(2, H.coproduct), ""))
        lines.append((f"counit axiom on {g}", counit_leg(H, t, 1)
                      == counit_leg(H, t, 2) == H.gen(g), ""))
    return lines


def hopf_lines_by_computation(H) -> list[tuple[str, bool, str]]:
    """(name, passed, details) of every verify_hopf line, each one
    computed: the bialgebra lines above, every relation defect of the
    antipode (which verify_hopf has by proof once the bialgebra and
    convolution reports pass) and the left convolution identity."""
    pres = H.presentation
    lines = bialgebra_lines_by_computation(H)
    for j, i, defect in H._antipode.relation_defects():
        lines.append((f"antipode respects [{pres.names[j]},{pres.names[i]}]",
                      not defect, ""))
    for g in pres.names:
        lines.append((f"antipode axiom on {g}",
                      not convolution_defects(H, g)[0], ""))
    return lines


def primitive_basis_by_kernel(H, weight_cutoff: int) -> list[Element]:
    """Basis of the kernel of the reduced coproduct on the non-identity
    monomials up to weight_cutoff: the definition that primitive_basis
    above replaces by the weight-1 generators on certified hosts."""
    pres = H.presentation
    monomials = monomials_up_to(pres, weight_cutoff, include_identity=False)
    return [Element(pres, vec) for vec in linalg.kernel(
        {m: H.reduced_coproduct(pres.monomial(m)).terms for m in monomials})]


def membership_by_cutoff(spec, cutoff: int):
    """represent(h) for elements h lighter than cutoff, solved over the
    images of every ordered T-monomial up to cutoff: the per-weight solver
    (and, by its independence, the rank test) that registration's symbol
    certificate replaces.  Exact only below the cutoff; asserts that the
    images it spans are independent."""
    monomials = monomials_up_to(spec.presentation, cutoff)
    solver = linalg.LinearSolver(
        [dict(spec.monomial_image(m).terms) for m in monomials])
    assert solver.independent, f"{spec.name}: monomial images are dependent"

    def represent(h):
        assert (h.weight or 0) < cutoff, "element not lighter than the cutoff"
        coeffs = solver.solve(dict(h.terms))
        if coeffs is None:
            return None
        return Element(spec.presentation,
                       {m: c for m, c in zip(monomials, coeffs) if c})
    return represent


# Fraction-arithmetic structure maps: the loops the integer kernels of
# algebra, tensor and hopf replace.  Products come straight from the
# rewriting (reduce_word), not from the memoized product table.

def _product_terms(pres, m1, m2) -> dict:
    return pres.reduce_word(pres.word_of(m1) + pres.word_of(m2))


def product_by_fractions(a: Element, b: Element) -> Element:
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            vec_add_scaled(out, _product_terms(a.algebra, m1, m2), c1 * c2)
    return Element(a.algebra, out)


def tensor_multiply_by_fractions(s: TensorElement, t: TensorElement
                                 ) -> TensorElement:
    out: dict = {}
    for key1, c1 in s.terms.items():
        for key2, c2 in t.terms.items():
            partial = {(): c1 * c2}
            for m1, m2 in zip(key1, key2):
                prod = _product_terms(s.algebra, m1, m2)
                partial = {key + (m,): c * pc
                           for key, c in partial.items() for m, pc in prod.items()}
            vec_add_scaled(out, partial, ONE)
    return TensorElement(s.algebra, s.arity, out)


def tensor_multiply_by_tables(s: TensorElement, t: TensorElement
                              ) -> TensorElement:
    """The product by per-call leg tables, on packed keys: each leg's
    distinct monomials on both sides, one product_terms lookup per distinct
    (leg, m, n), and the terms summed group by group, a group being the
    terms that share all legs but the last.  This is the algorithm that
    tensor_multiply replaces by sums per pair of terms from the
    presentation's product memo on mono ids."""
    algebra = s.algebra
    product, monos, mono_id = algebra.product_terms, algebra.monos, algebra.mono_id
    (a, da), (b, db) = s.scaled, t.scaled
    shifts = range(0, LEG_BITS * s.arity, LEG_BITS)
    tables = []  # leg -> i -> j -> (d, [(shifted id, numerator)])
    for shift in shifts:
        rights = {k >> shift & LEG_MASK for k in b}
        tables.append({i: {j: (d, [(mono_id(m) << shift, n)
                                   for m, n in nums.items()])
                           for j in rights
                           for nums, d in [product(monos[i], monos[j])]}
                       for i in {k >> shift & LEG_MASK for k in a}})
    *heads, last_table = tables
    last = shifts[-1]
    groups_a, groups_b = {}, {}
    for terms, groups in ((a, groups_a), (b, groups_b)):
        for key, n in terms.items():
            groups.setdefault(key & (1 << last) - 1, []).append(
                (n, key >> last))
    common = lcm(*{d for table in tables for row in table.values()
                   for d, _ in row.values()})
    out: dict = {}
    for ga, group_a in groups_a.items():
        for gb, group_b in groups_b.items():
            partial = [(0, 1)]
            for shift, table in zip(shifts, heads):
                d, entries = table[ga >> shift & LEG_MASK][gb >> shift & LEG_MASK]
                partial = [(p + o, g * (common // d) * n) for p, g in partial
                           for o, n in entries]
            for base, g in partial:
                for c1, i in group_a:
                    for c2, j in group_b:
                        d, entries = last_table[i][j]
                        c = g * c1 * c2 * (common // d)
                        for o, n in entries:
                            add_term(out, base + o, c * n)
    return TensorElement.from_scaled(algebra, s.arity, *rescale(
        out, da * db * common ** len(tables)))


def contract_by_fractions(t: TensorElement) -> Element:
    out: dict = {}
    for (m1, m2), c in t.terms.items():
        vec_add_scaled(out, _product_terms(t.algebra, m1, m2), c)
    return Element(t.algebra, out)


def coproduct_by_fractions(H, x: Element) -> TensorElement:
    """Delta(x) from the generator coproducts, one word letter at a time."""
    pres = H.presentation
    out: dict = {}
    for mono, c in x.terms.items():
        image = TensorElement.unit(pres, 2)
        for i in pres.word_of(mono):
            image = tensor_multiply_by_fractions(
                image, H._coproduct.images[i])
        vec_add_scaled(out, image.terms, c)
    return TensorElement(pres, 2, out)


def antipode_by_fractions(H, x: Element) -> Element:
    """S(x) from the generator antipodes, S(g_1...g_k) = S(g_k)...S(g_1)."""
    pres = H.presentation
    out: dict = {}
    for mono, c in x.terms.items():
        image = pres.one()
        for i in pres.word_of(mono):
            image = product_by_fractions(H._antipode.images[i], image)
        vec_add_scaled(out, image.terms, c)
    return Element(pres, out)


def apply_to_leg_by_fractions(t: TensorElement, leg: int, f) -> TensorElement:
    pos = leg - 1
    out: dict = {}
    arity = t.arity
    for key, coeff in t.terms.items():
        image = f(t.algebra.monomial(key[pos]))
        if isinstance(image, Element):
            pieces = {(m,): c for m, c in image.terms.items()}
        else:
            pieces = image.terms
            arity = t.arity + image.arity - 1
        for mid, c in pieces.items():
            add_term(out, key[:pos] + mid + key[pos + 1:], coeff * c)
    return TensorElement(t.algebra, arity, out)


def antipode_inverse_by_solving(H, x: Element) -> Element:
    """The y with S(y) = x, solved on the Fraction antipode images of the
    monomials up to the weight of x (nonzero): the solve that
    PresentedHopfAlgebra.antipode_inverse replaces by the recursion that
    defines the antipode of H^cop."""
    pres = H.presentation
    monomials = monomials_up_to(pres, x.weight)
    index = {m: i for i, m in enumerate(monomials)}
    columns = [{index[mm]: c for mm, c in
                antipode_by_fractions(H, pres.monomial(m)).terms.items()}
               for m in monomials]
    coeffs = linalg.LinearSolver(columns).solve(
        {index[m]: c for m, c in x.terms.items()})
    assert coeffs is not None, "antipode images do not span x"
    return Element(pres, {m: c for m, c in zip(monomials, coeffs) if c})


# Characters, windings and generator automorphisms term by term: the
# loops that nakayama's memoized monomial maps replace.

def character_by_powers(chi, x: Element):
    """chi(x) with every monomial's value taken as a product of powers."""
    total = Fraction(0)
    for mono, c in x.terms.items():
        term = c
        for i, e in enumerate(mono):
            if e:
                term *= chi.values.get(i, Fraction(0)) ** e
        total += term
    return total


def winding_by_powers(chi, x: Element, side: str) -> Element:
    """Winding on a host: chi evaluated on the first (left) or second
    (right) leg of the coproduct, by powers of the generator values."""
    out: dict = {}
    for (m1, m2), c in chi.target.coproduct(x).terms.items():
        anchor, evaluated = (m2, m1) if side == "left" else (m1, m2)
        scale = c
        for i, e in enumerate(evaluated):
            if e:
                scale *= chi.values.get(i, Fraction(0)) ** e
        add_term(out, anchor, scale)
    return Element(x.algebra, out)


def automorphism_by_products(phi, x: Element) -> Element:
    """phi(x) with every monomial's image multiplied out factor by factor."""
    pres = x.algebra
    out: dict = {}
    for mono, c in x.terms.items():
        term = pres.one()
        for i, e in enumerate(mono):
            for _ in range(e):
                term = product_by_fractions(term, phi.images[i])
        vec_add_scaled(out, term.terms, c)
    return Element(pres, out)


def overlap_checks_by_resolution(pres) -> list[tuple[str, bool, str]]:
    """(name, passed, details) of every overlap x_k x_j x_i (k > j > i),
    each resolved both ways by rewriting: the check_confluence lines with
    no shortcut for triples whose pairs commute."""
    import itertools
    out = []
    for k, j, i in itertools.combinations(range(pres.ngens - 1, -1, -1), 3):
        via_left = pres.reduce_word((j, k, i))
        for mono, c in pres.table.get((k, j), {}).items():
            vec_add_scaled(
                via_left, pres.reduce_word(pres.word_of(mono) + (i,)), c)
        via_right = pres.reduce_word((k, i, j))
        for mono, c in pres.table.get((j, i), {}).items():
            vec_add_scaled(
                via_right, pres.reduce_word((k,) + pres.word_of(mono)), c)
        ok = via_left == via_right
        delta = Element(pres, via_left) - Element(pres, via_right)
        out.append((f"overlap ({pres.names[k]},{pres.names[j]},{pres.names[i]})",
                    ok, "" if ok else f"normal forms differ by {delta}"))
    return out


def _pivot_size(value: Fraction) -> int:
    return abs(value.numerator).bit_length() + value.denominator.bit_length()


def rref_by_pivot_size(rows, ncols: int) -> tuple[list[dict], dict[int, int]]:
    """Reduced row echelon form by an elimination of its own, independent
    of linalg.LinearSolver: columns in ascending order, and among candidate
    rows the one whose pivot entry has the smallest numerator+denominator
    bit-length, ties by row index.  Entries outside columns 0..ncols-1
    are carried along in the rows but never pivoted on.

    Returns (reduced nonzero rows, {pivot column: row position}),
    with rows listed in ascending pivot-column order and pivot entries 1.
    """
    work = [{j: v for j, v in r.items() if v} for r in rows]
    reduced: list[dict] = []
    pivots: dict[int, int] = {}
    for col in range(ncols):
        best = None
        for idx, row in enumerate(work):
            v = row.get(col)
            if v:
                size = _pivot_size(v)
                if best is None or (size, idx) < best[0]:
                    best = ((size, idx), idx)
        if best is None:
            continue
        idx = best[1]
        pivot_row = work.pop(idx)
        inv = 1 / pivot_row[col]
        pivot_row = {j: v * inv for j, v in pivot_row.items()}
        for row in work:
            v = row.get(col)
            if v:
                vec_add_scaled(row, pivot_row, -v)
        for row in reduced:
            v = row.get(col)
            if v:
                vec_add_scaled(row, pivot_row, -v)
        pivots[col] = len(reduced)
        reduced.append(pivot_row)
        work = [r for r in work if r]
    order = sorted(pivots)
    rows_sorted = [reduced[pivots[c]] for c in order]
    return rows_sorted, {c: i for i, c in enumerate(order)}


# Theorem checks and helpers that only tests call: certification has each
# of these facts by proof, or no command needs them.

def antipode_eigenbasis(H, max_weight: int) -> list[tuple[Element, int]]:
    """Graded basis on which the antipode acts as +/-1 modulo lower degree.

    For each weight n <= max_weight the antipode induces an involution on
    the degree-n layer; its eigenvectors lift to elements b with
    S(b) = sign*b + r and coradical_degree(r) < n.  The lifted basis is
    returned as (element, sign) pairs and every drop is verified; the
    eigenspaces fill each layer (checked) exactly when it is an involution.
    """
    H._require_antipode()
    H._require_filtration()
    pres = H.presentation
    out: list[tuple[Element, int]] = []
    for n in range(1, max_weight + 1):
        monomials = pres.monomials_of_weight(n)
        # matrix of the induced map on the degree-n layer
        cols = {m: {mm: c for mm, c in
                    H.antipode(pres.monomial(m)).terms.items()
                    if pres.monomial_weight(mm) == n} for m in monomials}
        start = len(out)
        for sign in (1, -1):
            shifted = {m: dict(col) for m, col in cols.items()}
            for m, col in shifted.items():
                linalg.add_term(col, m, -sign * ONE)
            for vec in linalg.kernel(shifted):
                b = Element(pres, vec)
                r = H.antipode(b) - b * sign
                if r and H.coradical_degree(r) >= n:
                    raise HopfAlgebraError(
                        "eigenvector lift fails the degree drop; filtration "
                        "certificate violated")
                out.append((b, sign))
        if len(out) - start != len(monomials):
            raise HopfAlgebraError(
                f"eigenspaces of the induced antipode do not fill the "
                f"weight-{n} layer")
    return out


def graded_coproduct_leading(H, gen) -> TensorElement:
    """Weight-homogeneous top part of a generator coproduct.

    Keeps the terms m@m' with weight(m) + weight(m') equal to the
    generator weight; this is the coproduct induced on the generator's
    symbol in the associated graded algebra.
    """
    H._require_filtration()
    pres = H.presentation
    i = pres.index(gen)
    t = H.coproduct(pres.gen(i))
    return TensorElement(pres, 2, _leading_terms(pres, t.terms, pres.weights[i]))


def cocommutativity_test(H) -> tuple[bool, Report]:
    """True iff all generator weights are one, with cross-checked evidence.

    When true, every generator must be primitive and the extracted Lie
    algebra must be abelian (the leading coproducts of weight-one
    generators carry no generator@generator terms).
    """
    H._require_filtration()
    pres = H.presentation
    verdict = all(w == 1 for w in pres.weights)
    evidence = Report(f"{H.name}: cocommutativity evidence")
    evidence.add("all generator weights are 1", verdict,
                 f"weights {list(pres.weights)}")
    if verdict:
        for g in pres.names:
            prim = not H.reduced_coproduct(pres.gen(g))
            evidence.add(f"{g} primitive", prim)
        evidence.add("dual lie algebra abelian", not lantern(H).brackets)
    return verdict, evidence


def coinvariants(H, spec, weight_cutoff: int) -> list[Element]:
    """Basis of the coinvariants of the quotient by the right ideal of the
    subalgebra's augmentation part, up to the weight cutoff.

    With pi the projection of H onto H modulo (T+ * H), solves
    sum h_1 (x) pi(h_2) = h (x) pi(1) by exact linear algebra.  For a
    certified left coideal subalgebra the solution space is the
    subalgebra itself (the quotient correspondence round-trips).
    """
    spec._require_registered()
    H._require_filtration()
    pres = H.presentation
    monomials = monomials_up_to(pres, weight_cutoff)
    # span of T+ H up to the cutoff: generator images times all monomials
    products = []
    for i in range(spec.presentation.ngens):
        img = spec.embedding[i]
        w = img.weight
        for m in monomials_up_to(pres, weight_cutoff - w):
            products.append(dict((img * pres.monomial(m)).terms))
    ideal = linalg.LinearSolver(products)
    pi = {m: ideal._reduce({m: ONE})[0] for m in monomials}
    # unknown h = sum x_m m; one equation per (first-leg monomial, quotient coord)
    columns: dict = {}
    for m in monomials:
        image = columns[m] = {}
        for mono, cofactor in H.coproduct(pres.monomial(m)).leg_cofactors(1):
            acc: dict = {}
            for v_mono, c in cofactor.terms.items():
                linalg.vec_add_scaled(acc, pi[v_mono], c)
            for q, c in acc.items():
                linalg.add_term(image, (mono, q), c)
        for q, c in pi[pres.identity_monomial()].items():
            linalg.add_term(image, (m, q), -c)
    return [Element(pres, vec) for vec in linalg.kernel(columns)]


def normal_element_check(b: Element, tau) -> bool:
    """True iff tau(t)*b = b*t for every generator t of tau's target."""
    pres = tau.source
    if b.algebra is not pres:
        raise ValueError("normal-element candidate must live in the target")
    return all(tau.images[i] * b == b * pres.gen(i) for i in range(pres.ngens))


def verify_lie(L) -> Report:
    """Jacobi on all basis triples plus grading additivity: the graded Lie
    axioms that lantern._extract_lantern has by proof."""
    report = Report("graded lie axioms")
    graded_ok = True
    for (a, b), table in sorted(L.brackets.items()):
        for e in table:
            if L.degrees[e] != L.degrees[a] + L.degrees[b]:
                graded_ok = False
                report.add(
                    f"grading of [u_{L.labels[a]},u_{L.labels[b]}]", False,
                    f"hits degree {L.degrees[e]} != "
                    f"{L.degrees[a]}+{L.degrees[b]}")
    if graded_ok:
        report.add("grading additivity", True)
    n = len(L.labels)
    jacobi_ok = True
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                acc: dict[int, Fraction] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    # [u_x, [u_y, u_z]]
                    for e, coeff in L.bracket(y, z).items():
                        linalg.vec_add_scaled(acc, L.bracket(x, e), coeff)
                if acc:
                    jacobi_ok = False
                    report.add(
                        f"jacobi ({L.labels[a]},{L.labels[b]},{L.labels[c]})",
                        False, "cyclic sum nonzero")
    if jacobi_ok:
        report.add("jacobi identity", True)
    return report


def antipode_image_by_registration(spec):
    """S(T) registered from scratch: the T^op presentation and the images
    S(u_i) of coideal.antipode_image, sent through register_subalgebra,
    which certifies anew what antipode_image has by proof from T's
    certificates."""
    spec._require_registered()
    host = spec.host
    host._require_antipode()
    pres = spec.presentation
    last = pres.ngens - 1
    table = {(last - i, last - j): {mono[::-1]: c for mono, c in terms.items()}
             for (j, i), terms in pres.table.items()}
    return register_subalgebra(
        host, f"S({spec.name})",
        [(pres.names[k], pres.weights[k]) for k in reversed(range(pres.ngens))],
        table,
        {last - i: host.antipode(spec.embedding[i]) for i in range(pres.ngens)},
        {"left": "right", "right": "left", "hopf": "hopf"}[spec.side])
