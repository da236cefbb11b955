"""Exact sparse map arithmetic, rank and kernel routines."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from susygraph.graph import DirectedGraph
from susygraph.linalg import (
    LinearMap,
    SpaceMismatch,
    StateVector,
    anticommutator,
    aux_space,
    commutator,
    edge_space,
    exact_kernel_basis,
    exact_rank,
    serialize_triplets,
    stack_columns,
    vertex_space,
)
from susygraph.operators import build_incidence


@st.composite
def small_maps(draw, max_dim=5, complex_entries=True):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    count = draw(st.integers(0, rows * cols))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, rows - 1),
                st.integers(0, cols - 1),
                st.integers(-4, 4),
                st.integers(-4, 4) if complex_entries else st.just(0),
            ),
            min_size=count,
            max_size=count,
        )
    )
    return LinearMap.from_entries(aux_space(cols), aux_space(rows), entries)


@st.composite
def composable_pairs(draw, max_dim=5):
    a = draw(st.integers(1, max_dim))
    b = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    def entries(rows, cols):
        return st.lists(
            st.tuples(
                st.integers(0, rows - 1),
                st.integers(0, cols - 1),
                st.integers(-3, 3),
                st.integers(-3, 3),
            ),
            max_size=rows * cols,
        )
    m1 = LinearMap.from_entries(aux_space(b), aux_space(a), draw(entries(a, b)))
    m2 = LinearMap.from_entries(aux_space(c), aux_space(b), draw(entries(b, c)))
    return m1, m2


def test_from_entries_accumulates_and_prunes():
    s = aux_space(2)
    m = LinearMap.from_entries(s, s, [(0, 0, 1, 0), (0, 0, -1, 0), (0, 1, 2, 1)])
    assert m.entries() == [(0, 1, 2, 1)]
    assert m.nnz == 1


def test_from_entries_rejects_out_of_range():
    s = aux_space(2)
    with pytest.raises(SpaceMismatch):
        LinearMap.from_entries(s, s, [(2, 0, 1, 0)])


def test_entries_sorted_and_triplet_format():
    s = aux_space(3)
    m = LinearMap.from_entries(s, s, [(2, 0, 1, 0), (0, 1, 0, -2), (1, 1, 3, 0)])
    assert m.entries() == [(0, 1, 0, -2), (1, 1, 3, 0), (2, 0, 1, 0)]
    assert serialize_triplets(m) == ["(0, 1, 0, -2)", "(1, 1, 3, 0)", "(2, 0, 1, 0)"]


def test_shape_mismatch_raises():
    a = LinearMap.zero(aux_space(2), aux_space(3))
    b = LinearMap.zero(aux_space(3), aux_space(3))
    with pytest.raises(SpaceMismatch):
        _ = a + b
    with pytest.raises(SpaceMismatch):
        _ = a @ b  # inner dims: a expects domain-2 input, b produces dim-3
    # composition the valid way round works
    assert (b @ a).codomain.dim == 3


def test_space_kinds_distinguished():
    a = LinearMap.zero(vertex_space(2), edge_space(2))
    b = LinearMap.zero(edge_space(2), edge_space(2))
    with pytest.raises(SpaceMismatch):
        _ = a + b


@given(small_maps())
def test_dense_round_trip(m):
    dense = m.to_dense()
    rebuilt = LinearMap.from_entries(
        m.domain,
        m.codomain,
        [
            (r, c, int(dense[r, c].real), int(dense[r, c].imag))
            for r in range(m.codomain.dim)
            for c in range(m.domain.dim)
        ],
    )
    assert rebuilt == m


@st.composite
def same_shape_pairs(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entry = st.tuples(
        st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(-4, 4), st.integers(-4, 4)
    )
    dom, cod = aux_space(cols), aux_space(rows)
    m1 = LinearMap.from_entries(dom, cod, draw(st.lists(entry, max_size=rows * cols)))
    m2 = LinearMap.from_entries(dom, cod, draw(st.lists(entry, max_size=rows * cols)))
    return m1, m2


@given(same_shape_pairs())
def test_add_matches_dense(pair):
    m1, m2 = pair
    assert np.array_equal((m1 + m2).to_dense(), m1.to_dense() + m2.to_dense())
    assert np.array_equal((m1 - m2).to_dense(), m1.to_dense() - m2.to_dense())
    assert (m1 + m2) - m2 == m1
    assert -m1 == LinearMap.zero(m1.domain, m1.codomain) - m1


@given(composable_pairs())
def test_matmul_matches_dense(pair):
    m1, m2 = pair
    assert np.array_equal((m1 @ m2).to_dense(), m1.to_dense() @ m2.to_dense())


@given(small_maps())
def test_adjoint_involution(m):
    assert m.adjoint().adjoint() == m
    assert np.array_equal(m.adjoint().to_dense(), m.to_dense().conj().T)


@given(composable_pairs())
def test_adjoint_antihomomorphism(pair):
    m1, m2 = pair
    assert (m1 @ m2).adjoint() == m2.adjoint() @ m1.adjoint()


@given(small_maps(), st.integers(-3, 3), st.integers(-3, 3))
def test_scale_matches_dense(m, cr, ci):
    assert np.allclose(m.scale((cr, ci)).to_dense(), (cr + 1j * ci) * m.to_dense())


def test_halved_requires_even_entries():
    s = aux_space(1)
    even = LinearMap.from_entries(s, s, [(0, 0, 4, -2)])
    assert even.halved().entries() == [(0, 0, 2, -1)]
    odd = LinearMap.from_entries(s, s, [(0, 0, 3, 0)])
    with pytest.raises(ValueError):
        odd.halved()
    odd_im = LinearMap.from_entries(s, s, [(0, 0, 2, 1)])
    with pytest.raises(ValueError):
        odd_im.halved()


def test_commutator_anticommutator():
    s = aux_space(2)
    a = LinearMap.from_entries(s, s, [(0, 1, 1, 0)])
    b = LinearMap.from_entries(s, s, [(1, 0, 1, 0)])
    assert commutator(a, a).is_zero()
    assert commutator(a, b).entries() == [(0, 0, 1, 0), (1, 1, -1, 0)]
    assert anticommutator(a, b) == LinearMap.identity(s)


def test_identity_and_apply():
    s = aux_space(3)
    ident = LinearMap.identity(s)
    v = StateVector.from_values(s, [1, 2j, -3])
    assert np.array_equal(ident.apply(v).coefficients, v.coefficients)
    with pytest.raises(SpaceMismatch):
        ident.apply(StateVector.from_values(aux_space(2), [1, 2]))


@given(small_maps())
def test_apply_matches_dense(m):
    rng = np.random.default_rng(0)
    v = StateVector(m.domain, rng.normal(size=m.domain.dim) + 1j * rng.normal(size=m.domain.dim))
    assert np.allclose(m.apply(v).coefficients, m.to_dense() @ v.coefficients)


def test_max_abs_and_is_zero():
    s = aux_space(2)
    m = LinearMap.from_entries(s, s, [(0, 0, -7, 3)])
    assert m.max_abs() == 7
    assert not m.is_zero()
    assert (m - m).is_zero()
    assert (m - m).max_abs() == 0


def test_exact_rank_known_cases():
    v2, e1 = vertex_space(2), edge_space(1)
    d_k2 = LinearMap.from_entries(v2, e1, [(0, 0, -1, 0), (0, 1, 1, 0)])
    assert exact_rank(d_k2) == 1
    assert exact_rank(LinearMap.zero(v2, e1)) == 0
    gaussian = LinearMap.from_entries(
        aux_space(2), aux_space(2), [(0, 0, 0, 1), (1, 1, 1, 1), (0, 1, 0, 0)]
    )
    assert exact_rank(gaussian) == 2


@given(small_maps(max_dim=5, complex_entries=False))
def test_exact_rank_matches_floating_oracle(m):
    dense = m.to_dense_real()
    assert exact_rank(m) == np.linalg.matrix_rank(dense, tol=1e-9)


@given(small_maps(max_dim=5, complex_entries=True))
def test_exact_rank_matches_floating_oracle_complex(m):
    assert exact_rank(m) == np.linalg.matrix_rank(m.to_dense(), tol=1e-9)


@given(small_maps(max_dim=6, complex_entries=False))
def test_exact_kernel_basis_spans_kernel(m):
    basis = exact_kernel_basis(m)
    rank = exact_rank(m)
    assert len(basis) == m.domain.dim - rank
    dense = m.to_dense_real()
    for vec in basis:
        x = np.zeros(m.domain.dim)
        for c, v in vec.items():
            x[c] = v
        assert np.array_equal(dense @ x, np.zeros(m.codomain.dim))
    if basis:
        stacked = stack_columns(basis, m.domain)
        assert exact_rank(stacked) == len(basis)


def test_exact_kernel_basis_rejects_complex():
    s = aux_space(1)
    m = LinearMap.from_entries(s, s, [(0, 0, 0, 1)])
    with pytest.raises(ValueError):
        exact_kernel_basis(m)


def test_kernel_vectors_are_content_free():
    # row [2, 4] has kernel spanned by (2, -1) after clearing the fraction 1/2
    m = LinearMap.from_entries(aux_space(2), aux_space(1), [(0, 0, 2, 0), (0, 1, 4, 0)])
    assert exact_kernel_basis(m) == [{1: 1, 0: -2}]


# -- exactness past int64 ------------------------------------------------------
#
# Entries are exact Gaussian integers of any size.  The expected values are
# written out by hand, so a backend that wrapped in fixed-width arithmetic
# would fail here instead of returning a plausible wrong number.

INT64_MAX = 2**63 - 1


def _all_python_ints(m):
    return all(type(x) is int for entry in m.entries() for x in entry)


def test_from_entries_accepts_values_past_int64():
    s = aux_space(2)
    m = LinearMap.from_entries(s, s, [(0, 0, 2**64, -(2**70)), (1, 1, -(2**63), 0)])
    assert m.entries() == [(0, 0, 2**64, -(2**70)), (1, 1, -(2**63), 0)]
    assert m.max_abs() == 2**70
    assert _all_python_ints(m)
    # duplicates that each fit int64 but sum past it
    dup = LinearMap.from_entries(s, s, [(0, 1, INT64_MAX, 0), (0, 1, INT64_MAX, 1)])
    assert dup.entries() == [(0, 1, 2 * INT64_MAX, 1)]
    small_dup = LinearMap.from_entries(s, s, [(1, 0, 2**61, -(2**61))] * 4)
    assert small_dup.entries() == [(1, 0, 2**63, -(2**63))]


def test_product_past_int64_is_exact():
    s = aux_space(8)
    # one row of eight 2**30 entries against a column of eight 2**30 (1 + i):
    # each term is 2**60 and fits int64, their sum 2**63 does not.
    row = LinearMap.from_entries(s, aux_space(1), [(0, k, 2**30, 0) for k in range(8)])
    col = LinearMap.from_entries(aux_space(1), s, [(k, 0, 2**30, 2**30) for k in range(8)])
    assert (row @ col).entries() == [(0, 0, 2**63, 2**63)]
    # a single term past int64, with the i * i sign
    big = LinearMap.from_entries(aux_space(1), aux_space(1), [(0, 0, 2**40, 2**40)])
    assert (big @ big).entries() == [(0, 0, 0, 2**81)]
    assert _all_python_ints(big @ big)
    # terms past int64 that cancel leave an exact zero
    plus_minus = LinearMap.from_entries(s, aux_space(1), [(0, 0, 2**62, 0), (0, 1, -(2**62), 0)])
    ones = LinearMap.from_entries(aux_space(1), s, [(0, 0, 4, 0), (1, 0, 4, 0)])
    assert (plus_minus @ ones).is_zero()


def test_sum_past_int64_is_exact():
    s = aux_space(1)
    a = LinearMap.from_entries(s, s, [(0, 0, 2**62, -(2**62))])
    assert (a + a).entries() == [(0, 0, 2**63, -(2**63))]
    assert (a - a.scale(-1)).entries() == [(0, 0, 2**63, -(2**63))]
    top = LinearMap.from_entries(s, s, [(0, 0, INT64_MAX, 0)])
    one = LinearMap.identity(s)
    assert (top + one).entries() == [(0, 0, 2**63, 0)]
    assert _all_python_ints(top + one)
    assert ((top + one) - one) == top
    # each sum fits int64, the sum of sums does not
    near = LinearMap.from_entries(s, s, [(0, 0, 2**62 - 1, 0)])
    assert ((near + near) + (near + near)).entries() == [(0, 0, 2**64 - 4, 0)]
    assert ((near + near) - (near + near).scale(-1)).entries() == [(0, 0, 2**64 - 4, 0)]


def test_scale_past_int64_is_exact():
    s = aux_space(1)
    m = LinearMap.from_entries(s, s, [(0, 0, 2**61, 2**60)])
    # (2**61 + 2**60 i)(7 + i) = (7 * 2**61 - 2**60) + (2**61 + 7 * 2**60) i
    assert m.scale((7, 1)).entries() == [(0, 0, 13 * 2**60, 9 * 2**60)]
    assert m.scale(2**70).entries() == [(0, 0, 2**131, 2**130)]
    assert m.scale(-8).entries() == [(0, 0, -(2**64), -(2**63))]
    assert _all_python_ints(m.scale((7, 1)))
    assert m.scale(4).halved() == m.scale(2)


def test_huge_sparse_spaces_stay_exact():
    # 2**31 x 2**31 coordinates: nothing may scale with the dimension.
    s = aux_space(2**31)
    last = 2**31 - 1
    m = LinearMap.from_entries(s, s, [(last, 0, 1, 0), (0, last, 0, 1), (last, last, 2, 0)])
    # on the coordinates {0, last}, m is [[0, i], [1, 2]]
    assert (m @ m).entries() == [(0, 0, 0, 1), (0, last, 0, 2), (last, 0, 2, 0), (last, last, 4, 1)]
    assert (m + m.adjoint()).entries() == [(0, last, 1, 1), (last, 0, 1, -1), (last, last, 4, 0)]
    # past 2**63 coordinates the int64 sort keys would wrap, so construction refuses
    with pytest.raises(ValueError):
        LinearMap.from_entries(aux_space(2**32), aux_space(2**32), [(0, 0, 1, 0)])


# -- canonical form ------------------------------------------------------------
#
# RelationCheck decides "holds" by is_zero(), so a cancelled entry must leave
# the map, never linger as a stored zero.

wide_ints = st.one_of(st.integers(-4, 4), st.integers(-(2**70), 2**70))


@st.composite
def wide_pairs(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entry = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), wide_ints, wide_ints)
    dom, cod = aux_space(cols), aux_space(rows)
    m1 = LinearMap.from_entries(dom, cod, draw(st.lists(entry, max_size=rows * cols)))
    m2 = LinearMap.from_entries(dom, cod, draw(st.lists(entry, max_size=rows * cols)))
    return m1, m2


def _is_canonical(m):
    entries = m.entries()
    coords = [(r, c) for r, c, _, _ in entries]
    return (
        coords == sorted(set(coords))
        and all(re or im for _, _, re, im in entries)
        and m.nnz == len(entries)
        and m.is_zero() == (not entries)
    )


@given(wide_pairs())
def test_canonical_form_survives_cancellation(pair):
    a, b = pair
    assert (a + b) - b == a
    assert (a - a).is_zero()
    assert (a - a).nnz == 0 and (a - a).entries() == []
    assert (a + a.scale(-1)).is_zero()
    for m in (a, a + b, a - b, (a + b) - b, a.scale((2, -1)), a @ b.adjoint(), b.adjoint() @ a):
        assert _is_canonical(m)


@given(wide_pairs())
def test_wide_sums_and_products_match_python_ints(pair):
    # reference arithmetic on {coordinate: (re, im)} dicts of Python ints
    a, b = pair

    def gaussian(m):
        return {(r, c): (re, im) for r, c, re, im in m.entries()}

    ga, gb = gaussian(a), gaussian(b)
    total = dict(ga)
    for k, (re, im) in gb.items():
        r0, i0 = total.get(k, (0, 0))
        total[k] = (r0 + re, i0 + im)
    assert gaussian(a + b) == {k: v for k, v in total.items() if v != (0, 0)}
    product: dict = {}
    for (r, k), (ar, ai) in ga.items():
        for (k2, c), (br, bi) in gaussian(b.adjoint()).items():
            if k == k2:
                pr, pi = product.get((r, c), (0, 0))
                product[(r, c)] = (pr + ar * br - ai * bi, pi + ar * bi + ai * br)
    assert gaussian(a @ b.adjoint()) == {k: v for k, v in product.items() if v != (0, 0)}


# -- kernel basis against a Fraction reference ---------------------------------


def fraction_kernel_basis(m):
    """Reduced row echelon form over Fraction: the reference for exact_kernel_basis.

    Rows in row order, pivot = smallest live column, back-substitution into
    earlier rows; the vector for free column f is -(column f of the RREF)
    at the pivots and 1 at f, denominators cleared and content stripped.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    for r, c, re, _ in m.entries():
        rows.setdefault(r, {})[c] = Fraction(re)
    echelon: list[tuple[int, dict[int, Fraction]]] = []
    for row in rows.values():
        for pc, prow in echelon:
            coef = row.get(pc)
            if not coef:
                continue
            for c, pv in prow.items():
                nv = row.get(c, Fraction(0)) - coef * pv
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        if not row:
            continue
        pc_new = min(row)
        inv = row[pc_new]
        row = {c: v / inv for c, v in row.items()}
        for _, erow in echelon:
            coef = erow.get(pc_new)
            if not coef:
                continue
            for c, pv in row.items():
                nv = erow.get(c, Fraction(0)) - coef * pv
                if nv:
                    erow[c] = nv
                else:
                    erow.pop(c, None)
        echelon.append((pc_new, row))
    pivots = {pc for pc, _ in echelon}
    basis = []
    for f in range(m.domain.dim):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for pc, prow in echelon:
            coef = prow.get(f)
            if coef:
                vec[pc] = -coef
        denom = 1
        for v in vec.values():
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ints = {c: int(v * denom) for c, v in vec.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        basis.append({c: v // g for c, v in ints.items()})
    return basis


@st.composite
def rank_deficient_maps(draw, max_dim=6):
    """k independent-looking rows up to 2**70, the rest integer combinations of them, shuffled."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    k = draw(st.integers(0, min(rows, cols)))
    entry = st.one_of(st.just(0), wide_ints)
    base = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(k)]
    dense = list(base)
    for _ in range(rows - k):
        coefs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        dense.append([sum(a * b[j] for a, b in zip(coefs, base)) for j in range(cols)])
    order = draw(st.permutations(range(rows)))
    entries = [
        (i, j, v, 0) for i, r in enumerate(order) for j, v in enumerate(dense[r]) if v
    ]
    return LinearMap.from_entries(aux_space(cols), aux_space(rows), entries)


@given(rank_deficient_maps())
def test_exact_kernel_basis_matches_fraction_reference(m):
    basis = exact_kernel_basis(m)
    reference = fraction_kernel_basis(m)
    assert basis == reference
    assert [list(vec) for vec in basis] == [list(vec) for vec in reference]


def test_incidence_kernels_are_components_and_unit_cycles():
    # isolated vertices 3 and 8; component {0, 1, 5} with the reciprocal pair 0 <-> 1;
    # component {2, 4, 6, 7} with the 4-cycle 2-4-6-7 and the chord 4 -> 7
    edges = ((0, 1), (1, 0), (1, 5), (2, 4), (4, 6), (6, 7), (7, 2), (4, 7))
    inc = build_incidence(DirectedGraph(9, edges))
    assert exact_kernel_basis(inc.diff) == [
        {3: 1},
        {5: 1, 0: 1, 1: 1},
        {7: 1, 2: 1, 4: 1, 6: 1},
        {8: 1},
    ]
    cycles = exact_kernel_basis(inc.diff_adj)
    assert len(cycles) == len(edges) - 9 + 4
    for vec in cycles:
        free = next(iter(vec))
        assert vec[free] == 1
        assert set(vec.values()) <= {-1, 1}
