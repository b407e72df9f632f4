import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hopfforge import linalg
from hopfforge.linalg import (RANK_PRIME, LinearSolver, add_term,
                              clear_denominators, kernel_basis, rank, rref,
                              vec_add_scaled)
from oracles import rref_by_pivot_size

F = Fraction
P = RANK_PRIME


def test_rref_identity():
    rows = [{0: F(2)}, {1: F(3)}]
    reduced, pivots = rref(rows, 2)
    assert pivots == {0: 0, 1: 1}
    assert reduced == [{0: F(1)}, {1: F(1)}]


def test_kernel_of_single_equation():
    # x0 + 2 x1 - x2 = 0
    basis = kernel_basis([{0: F(1), 1: F(2), 2: F(-1)}], 3)
    assert len(basis) == 2
    for vec in basis:
        assert vec.get(0, F(0)) + 2 * vec.get(1, F(0)) - vec.get(2, F(0)) == 0


def test_solver_membership_and_coefficients():
    cols = [{0: F(1), 1: F(1)}, {1: F(1), 2: F(1)}]
    s = LinearSolver(cols)
    assert s.independent
    assert len(s._rows) == len(rref_by_pivot_size(cols, 3)[0]) == 2
    target = {0: F(2), 1: F(5), 2: F(3)}
    coeffs = s.solve(target)
    assert coeffs == [F(2), F(3)]
    assert s.contains(target)
    assert not s.contains({0: F(1)})
    assert s.solve({0: F(1)}) is None


def test_solver_detects_dependence():
    vectors = [{0: F(1)}, {0: F(2)}]
    s = LinearSolver(vectors)
    assert not s.independent
    assert len(s._rows) == len(rref_by_pivot_size(vectors, 1)[0]) == 1


def test_solver_residual_is_linear_and_canonical():
    s = LinearSolver([{0: F(1), 1: F(1)}])
    r1, _ = s._reduce({0: F(1)})
    r2, _ = s._reduce({1: F(-1)})
    assert r1 == r2  # both reduce to the same representative mod the span


def test_random_solve_round_trip():
    rng = random.Random(42)
    for _ in range(30):
        n, k = 6, 4
        cols = []
        for _ in range(k):
            cols.append({i: F(rng.randint(-3, 3)) for i in range(n)
                         if rng.random() < 0.7})
        s = LinearSolver(cols)
        want = [F(rng.randint(-2, 2)) for _ in range(k)]
        target = {}
        for c, vec in zip(want, cols):
            for i, v in vec.items():
                target[i] = target.get(i, F(0)) + c * v
        target = {i: v for i, v in target.items() if v}
        got = s.solve(target)
        assert got is not None
        rebuilt = {}
        for c, vec in zip(got, cols):
            for i, v in vec.items():
                rebuilt[i] = rebuilt.get(i, F(0)) + c * v
        assert {i: v for i, v in rebuilt.items() if v} == target


def test_rank_and_clear_denominators():
    assert rank([{0: F(1)}, {0: F(2)}, {1: F(1, 3)}], 2) == 2
    cleared = clear_denominators({0: F(-2, 3), 2: F(4, 9)})
    assert cleared == {0: F(3), 2: F(-2)}


def _sparse_rows(rng, nrows, ncols, density):
    rows = []
    for _ in range(nrows):
        row = {j: F(rng.randint(-5, 5), rng.randint(1, 4))
               for j in range(ncols) if rng.random() < density}
        rows.append({j: v for j, v in row.items() if v})
    return rows


def _combine(rng, rows, count):
    """count rational combinations of the given rows."""
    out = []
    for _ in range(count):
        vec: dict = {}
        for row in rows:
            vec_add_scaled(vec, row, F(rng.randint(-3, 3), rng.randint(1, 3)))
        out.append(vec)
    return out


def _counting_rref(monkeypatch):
    calls = []
    exact = linalg.rref

    def counted(rows, ncols):
        calls.append(ncols)
        return exact(rows, ncols)
    monkeypatch.setattr(linalg, "rref", counted)
    return calls


def _full(rng):
    return _sparse_rows(rng, 6, 6, 0.6) + [{j: F(1)} for j in range(6)]


def _deficient(rng):
    base = _sparse_rows(rng, 4, 7, 0.6)
    return base + _combine(rng, base, 5)


def _wide(rng):
    return _sparse_rows(rng, 4, 12, 0.5)


def _tall(rng):
    return _sparse_rows(rng, 30, 5, 0.3)


def _with_empty_rows(rng):
    rows = _sparse_rows(rng, 8, 6, 0.4)
    return rows[:3] + [{}, {}] + rows[3:] + [{}]


@pytest.mark.parametrize("build, shape_ok", [
    (_full, lambda r: r == 6),
    (_deficient, lambda r: r <= 4),
    (_wide, lambda r: r <= 4),
    (_tall, lambda r: r <= 5),
    (_with_empty_rows, lambda r: r <= 6),
])
def test_rank_matches_rref_on_seeded_sparse_matrices(build, shape_ok,
                                                     monkeypatch):
    rng = random.Random(build.__name__)
    for _ in range(20):
        rows = build(rng)
        ncols = 1 + max((j for r in rows for j in r), default=0)
        exact = len(rref(rows, ncols)[0])
        assert shape_ok(exact)
        calls = _counting_rref(monkeypatch)
        assert rank(rows, ncols) == exact
        monkeypatch.undo()
        nonzero_cols = len({j for r in rows for j in r})
        bound = min(sum(1 for r in rows if r), nonzero_cols)
        # the modular answer is used exactly when it reaches the bound
        assert bool(calls) == (exact < bound)


@pytest.mark.parametrize("rows, ncols, expected", [
    ([{0: F(P)}], 1, 1),                            # zero mod p
    ([{0: F(1, P)}], 1, 1),                         # denominator p
    ([{0: F(P), 1: F(2)}, {1: F(1, P)}, {0: F(3), 1: F(1)}], 2, 2),
    ([{0: F(2 * P, 3)}, {1: F(5)}, {0: F(P), 1: F(1)}], 2, 2),
    ([{0: F(1)}, {2: F(1)}], 2, 1),                 # column 2 is outside
])
def test_rank_falls_back_to_rref(rows, ncols, expected, monkeypatch):
    calls = _counting_rref(monkeypatch)
    assert rank(rows, ncols) == expected == len(rref(rows, ncols)[0])
    assert calls, "the exact rref must decide"


_entries = st.one_of(
    st.builds(F, st.integers(1, 6), st.integers(-3, 3).filter(bool)),
    st.sampled_from([F(P), F(1, P), F(-P, 7), F(3, 2 * P)]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.dictionaries(st.integers(0, ncols - 1), _entries,
                             max_size=ncols), max_size=9))))
def test_rank_equals_rref_rank_property(case):
    ncols, rows = case
    assert rank(rows, ncols) == len(rref(rows, ncols)[0])


def _assert_rref_matches_the_reference(rows, ncols):
    """rref and kernel_basis against rref_by_pivot_size: equal pivots and
    kernels; equal rows when every entry lies in columns 0..ncols-1 (the
    reference keeps entries outside them, rref drops them)."""
    reduced, pivots = rref(rows, ncols)
    ref_rows, ref_pivots = rref_by_pivot_size(rows, ncols)
    assert pivots == ref_pivots and len(reduced) == len(ref_rows)
    if all(0 <= j < ncols for row in rows for j in row):
        assert reduced == ref_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rref", rref_by_pivot_size)
        ref_kernel = kernel_basis(rows, ncols)
    assert kernel_basis(rows, ncols) == ref_kernel


def _outside_columns(rng):
    rows = _sparse_rows(rng, 6, 8, 0.5)
    return rows + [{9: F(1)}, {-1: F(2), 0: F(1, P)}]


@pytest.mark.parametrize("build", [_full, _deficient, _wide, _tall,
                                   _with_empty_rows, _outside_columns])
def test_rref_matches_the_pivot_size_reference(build):
    rng = random.Random(build.__name__)
    for _ in range(20):
        rows = build(rng)
        rows.append({0: F(3, P), 1: F(P)})  # denominator, zero mod p
        for ncols in (2, 1 + max(j for r in rows for j in r)):
            _assert_rref_matches_the_reference(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.dictionaries(st.integers(-1, ncols + 1), _entries,
                             max_size=ncols), max_size=9))))
def test_rref_matches_the_pivot_size_reference_property(case):
    ncols, rows = case
    _assert_rref_matches_the_reference(rows, ncols)


def test_kernel_deterministic():
    rows = [{0: F(1), 1: F(7), 2: F(1, 2)}, {1: F(2), 2: F(4)}]
    assert kernel_basis(rows, 3) == kernel_basis(rows, 3)
    assert LinearSolver([{0: F(2)}]).solve({0: F(3)}) == [F(3, 2)]


def test_add_term_drops_cancelled_key():
    vec = {0: F(1), 1: F(2)}
    add_term(vec, 0, F(-1))
    add_term(vec, 2, F(1, 3))
    assert vec == {1: F(2), 2: F(1, 3)}
    add_term(vec, 5, F(0))
    assert vec == {1: F(2), 2: F(1, 3)}


def test_vec_add_scaled_cancellation_removes_key():
    vec = {0: F(1), 1: F(1)}
    vec_add_scaled(vec, {0: F(1, 2), 2: F(1)}, F(-2))
    assert vec == {1: F(1), 2: F(-2)}


def test_vec_add_scaled_none_adds_unscaled():
    vec = {0: F(1)}
    vec_add_scaled(vec, {0: F(-1), 1: F(3, 4)}, F(1))
    assert vec == {1: F(3, 4)}


def test_vec_add_scaled_zero_factor_is_noop():
    vec = {0: F(1)}
    vec_add_scaled(vec, {0: F(-1), 1: F(5)}, F(0))
    assert vec == {0: F(1)}


def test_vec_add_scaled_tensor_keys():
    one, x = (0, 0), (1, 0)
    vec = {(one, x): F(1), (x, one): F(1)}
    vec_add_scaled(vec, {(x, one): F(1), (x, x): F(1, 2)}, F(-1))
    assert vec == {(one, x): F(1), (x, x): F(-1, 2)}


# The hand-written accumulate idiom: get a coefficient with a zero default
# (Fraction or integer numerator) and add to it, or pop a key that cancelled.
_ACCUMULATE = re.compile(
    r"\.get\([^()]*,\s*(ZERO|Fraction\(0\)|0)\)\s*[-+]|\.pop\([^()]*,\s*None\)")


def test_accumulate_guard_flags_integer_numerators():
    assert _ACCUMULATE.search("out[k] = out.get(k, 0) + c * v")
    assert _ACCUMULATE.search("acc = acc.get(key, ZERO) - v")
    assert not _ACCUMULATE.search("cached = self._prod_cache.get(key)")


def test_sparse_accumulate_lives_only_in_linalg():
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _ACCUMULATE.search(line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, \
        "use linalg.add_term / vec_add_scaled / accumulate:\n" + \
        "\n".join(offenders)


# -- the kernel seam ----------------------------------------------------------


def _transposed(columns: dict) -> list[dict]:
    """Rows of the matrix with the given columns, in sorted row order."""
    keys = list(columns)
    row_keys = sorted({r for image in columns.values() for r in image}, key=repr)
    return [{j: columns[k][r] for j, k in enumerate(keys) if r in columns[k]}
            for r in row_keys]


def _kernel_reference(columns: dict) -> list[dict]:
    """clear_denominators of kernel_basis on the transposed matrix, then
    keyed by basis key."""
    keys = list(columns)
    return [{keys[j]: c for j, c in clear_denominators(vec).items()}
            for vec in kernel_basis(_transposed(columns), len(keys))]


def _random_columns(rng: random.Random) -> dict:
    """Sparse rational columns keyed by tuples listed out of sorted order,
    with zero and repeated columns mixed in."""
    keys = [(rng.randint(0, 9), i) for i in range(rng.randint(1, 7))]
    rng.shuffle(keys)
    columns: dict = {}
    for key in keys:
        roll = rng.random()
        if roll < 0.15:
            columns[key] = {}
        elif roll < 0.3 and columns:
            columns[key] = dict(rng.choice(list(columns.values())))
        else:
            image: dict = {}
            for _ in range(rng.randint(1, 4)):
                add_term(image, ("row", rng.randint(0, 4)),
                         F(rng.randint(-4, 4), rng.randint(1, 3)))
            columns[key] = image
    return columns


@pytest.mark.parametrize("seed", range(40))
def test_kernel_is_the_transposed_kernel_basis(seed):
    columns = _random_columns(random.Random(seed))
    basis = linalg.kernel(columns)
    assert basis == _kernel_reference(columns)
    for vec in basis:
        image: dict = {}
        for key, c in vec.items():
            vec_add_scaled(image, columns[key], c)
        assert image == {}
    assert len(basis) == len(columns) - rank(_transposed(columns),
                                             len(columns))


def test_kernel_cases():
    # zero columns and repeated columns
    assert linalg.kernel({"z": {}}) == [{"z": F(1)}]
    assert linalg.kernel({}) == []
    assert linalg.kernel({"a": {0: F(2)}, "b": {0: F(2)}}) \
        == [{"a": F(1), "b": F(-1)}]
    # the sign follows the first basis key, not the smallest one
    assert linalg.kernel({"b": {0: F(1)}, "a": {0: F(1)}}) \
        == [{"b": F(1), "a": F(-1)}]
    assert linalg.kernel({"b": {0: F(1, 2)}, "a": {0: F(-1, 3)}}) \
        == [{"b": F(2), "a": F(3)}]
    assert linalg.kernel({"x": {0: F(1)}, "y": {1: F(1)}}) == []


_KERNEL_LAYOUT = re.compile(
    r"\b(kernel_basis|clear_denominators|scaled_sum)\(|rows\.setdefault\(")


def test_kernel_guard_flags_hand_rolled_layouts():
    assert _KERNEL_LAYOUT.search("basis = linalg.kernel_basis(rows, n)")
    assert _KERNEL_LAYOUT.search("rows.setdefault(key, {})[col] = c")
    assert _KERNEL_LAYOUT.search("vec = clear_denominators(vec)")
    assert not _KERNEL_LAYOUT.search("for vec in linalg.kernel(columns):")


def test_kernel_layout_lives_only_in_linalg():
    src = Path(__file__).parent.parent / "src" / "hopfforge"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _KERNEL_LAYOUT.search(line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, \
        "use linalg.kernel for kernels and Scaled for sums:\n" + \
        "\n".join(offenders)
