"""Slow reference definitions that the tests check fast paths against."""

from hopfforge import linalg


def truncated_filtration_check(H, truncation: int) -> bool:
    """Truncated kernel-rank check of the filtration, by exact elimination.

    For every n <= truncation the n-fold reduced coproduct must vanish on
    the non-identity monomials of weight <= n, and its kernel on those of
    weight <= truncation must have exactly their number as dimension.  This
    is the definition grading.certify_filtration replaces by an exact check
    on the associated graded; H needs its confluence certificate.
    """
    pres = H.presentation
    monomials = pres.monomials_up_to(truncation, include_identity=False)
    ncols = len(monomials)
    weights = [pres.monomial_weight(m) for m in monomials]
    for n in range(1, truncation + 1):
        expected = 0
        rows: dict = {}
        for col, mono in enumerate(monomials):
            terms = H._reduced_iterate_monomial(mono, n)
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
