"""Exact sparse map arithmetic, rank and kernel routines."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susygraph import linalg
from susygraph.cli import main
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
    stack_columns,
    vertex_space,
)
from susygraph.operators import build_incidence
from susygraph.rand import random_graph


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
def composable_pairs(draw, max_dim=5, values=st.integers(-3, 3)):
    a = draw(st.integers(1, max_dim))
    b = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    def entries(rows, cols):
        return st.lists(
            st.tuples(
                st.integers(0, rows - 1),
                st.integers(0, cols - 1),
                values,
                values,
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


@pytest.mark.parametrize(
    "entry",
    [
        (0, 0, 1.5, 0),
        (0, 0, 2.0, 0),
        (0.9, 0, 1, 0),
        (0, np.float64(1), 1, 0),
        (0, 0, "3", 0),
        (0, 0, 1, 1j),
    ],
)
@pytest.mark.parametrize("beside", [None, (1, 1, 2**63, 0), (1, 1, 2**70, 0)])
def test_from_entries_rejects_non_integers(entry, beside):
    s = aux_space(2)
    data = [entry] if beside is None else [beside, entry]
    with pytest.raises(TypeError, match=re.escape(repr(entry))):
        LinearMap.from_entries(s, s, data)


@pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 2**70])
def test_from_entries_keeps_integers_past_int64_exact(big):
    s = aux_space(2)
    m = LinearMap.from_entries(s, s, [(0, 0, big, 0), (1, 0, np.int64(3), -1)])
    assert m.entries() == [(0, 0, big, 0), (1, 0, 3, -1)]
    assert m.value.dtype == object and _all_python_ints(m)


def test_entries_sorted_and_triplet_format():
    s = aux_space(3)
    m = LinearMap.from_entries(s, s, [(2, 0, 1, 0), (0, 1, 0, -2), (1, 1, 3, 0)])
    assert m.entries() == [(0, 1, 0, -2), (1, 1, 3, 0), (2, 0, 1, 0)]


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
    assert exact_rank(m) == 2
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


# -- products and sums that skip work -----------------------------------------
#
# A product finds the rows of its right factor through row pointers when the
# inner dimension is at most the operands' total nnz, and by binary search
# past it; terms that arrive in coordinate order, as a diagonal factor's or a
# sum of non-interleaving maps' do, are kept without a sort.


def _python_product(a, b):
    """a @ b on {coordinate: (re, im)} dicts of Python ints, zeros dropped."""
    rows_b: dict = {}
    for k, c, re, im in b.entries():
        rows_b.setdefault(k, []).append((c, re, im))
    product: dict = {}
    for r, k, ar, ai in a.entries():
        for c, br, bi in rows_b.get(k, []):
            pr, pi = product.get((r, c), (0, 0))
            product[(r, c)] = (pr + ar * br - ai * bi, pi + ar * bi + ai * br)
    return {k: v for k, v in product.items() if v != (0, 0)}


def _shifted(m, domain, codomain, row_off, col_off):
    """m with every entry moved by (row_off, col_off) into larger spaces."""
    moved = [(r + row_off, c + col_off, re, im) for r, c, re, im in m.entries()]
    return LinearMap.from_entries(domain, codomain, moved)


@given(composable_pairs(values=wide_ints), st.integers(0, 3), st.integers(0, 3))
def test_row_pointers_and_row_search_agree(pair, row_off, col_off):
    a, b = pair
    # in their own spaces the inner dimension is at most the nnz sum: row pointers
    assume(a.domain.dim <= a.nnz + b.nnz)
    pad = a.nnz + b.nnz
    inner = aux_space(a.domain.dim + pad)
    rows, cols = aux_space(a.codomain.dim + row_off), aux_space(b.domain.dim + col_off)
    # embedded past an inner dimension larger than the nnz sum: binary search
    far = _shifted(a, inner, rows, row_off, pad) @ _shifted(b, cols, inner, pad, col_off)
    near = a @ b
    assert far == _shifted(near, cols, rows, row_off, col_off)
    assert {(r, c): (re, im) for r, c, re, im in near.entries()} == _python_product(a, b)
    assert _is_canonical(near) and _is_canonical(far)


nonzero_gaussians = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)


@given(small_maps(), st.sampled_from(["full", "partial", "gaussian"]), st.data())
def test_diagonal_factors_match_dense(m, kind, data):
    def diagonal(space):
        index = range(space.dim)
        if kind != "full":
            index = sorted(data.draw(st.sets(st.sampled_from(index))))
        if kind == "gaussian":
            entries = [(i, i, *data.draw(nonzero_gaussians)) for i in index]
        else:
            entries = [(i, i, data.draw(st.sampled_from([-2, -1, 1, 3])), 0) for i in index]
        return LinearMap.from_entries(space, space, entries)

    left, right = diagonal(m.codomain), diagonal(m.domain)
    for product, dense in (
        (left @ m, left.to_dense() @ m.to_dense()),
        (m @ right, m.to_dense() @ right.to_dense()),
    ):
        assert np.array_equal(product.to_dense(), dense)
        assert _is_canonical(product)


def test_in_order_entries_drop_explicit_zeros():
    s = aux_space(3)
    m = LinearMap.from_entries(s, s, [(0, 0, 1, 0), (0, 2, 0, 0), (1, 1, 2, -3), (2, 0, 0, 0)])
    assert m.entries() == [(0, 0, 1, 0), (1, 1, 2, -3)]
    assert _is_canonical(m)
    assert LinearMap.from_entries(s, s, [(0, 1, 0, 0), (2, 2, 0, 0)]).is_zero()
    wide = LinearMap.from_entries(s, s, [(0, 0, 0, 0), (1, 2, 2**70, 0)])
    assert wide.entries() == [(1, 2, 2**70, 0)]
    assert _is_canonical(wide) and _all_python_ints(wide)


@given(wide_pairs(), wide_ints.filter(bool), st.data())
def test_non_interleaving_sums_are_canonical(pair, factor, data):
    m = pair[0]
    entries = m.entries()
    cut = data.draw(st.integers(0, len(entries)))
    head = LinearMap.from_entries(m.domain, m.codomain, entries[:cut])
    # every coordinate of tail follows every coordinate of head
    tail = LinearMap.from_entries(m.domain, m.codomain, entries[cut:]).scale(factor)
    for x, y in ((head, tail), (tail, head)):
        for total, ref in ((x + y, x.entries() + y.entries()), (x - y, x.entries() + (-y).entries())):
            assert _is_canonical(total)
            assert total.entries() == sorted(ref)


# -- products expanded in blocks of rows -------------------------------------
#
# A product expands at most _BLOCK_TERMS terms at once, in blocks of whole
# left rows.  With the constant patched down to a few terms, small maps take
# many blocks and must give the one-block result bit for bit.


def _one_block(a, b):
    with mock.patch.object(linalg, "_BLOCK_TERMS", 1 << 62):
        return a @ b


def _assert_same_arrays(m, ref):
    assert m == ref
    for name in ("row", "col", "value"):
        assert getattr(m, name).dtype == getattr(ref, name).dtype


near_int64_limit = st.one_of(
    st.integers(-3, 3), st.integers(2**61 - 4, 2**62 + 4), st.integers(-(2**62) - 4, -(2**61) + 4)
)


@given(
    st.sampled_from(["real", "complex", "wide"]),
    st.integers(1, 5),
    st.data(),
)
def test_blocked_products_match_one_block_and_python_ints(kind, block, data):
    values = {"real": st.integers(-3, 3), "complex": st.integers(-3, 3), "wide": near_int64_limit}
    a, b = data.draw(composable_pairs(max_dim=4, values=values[kind]))
    if kind == "real":
        a, b = (
            LinearMap.from_entries(m.domain, m.codomain, [(r, c, re, 0) for r, c, re, _ in m.entries()])
            for m in (a, b)
        )
    with mock.patch.object(linalg, "_BLOCK_TERMS", block):
        product = a @ b
    _assert_same_arrays(product, _one_block(a, b))
    assert {(r, c): (re, im) for r, c, re, im in product.entries()} == _python_product(a, b)
    assert _is_canonical(product)


@given(composable_pairs(max_dim=6), st.integers(1, 6))
def test_row_blocks_cut_whole_rows_within_the_bound(pair, block):
    a, b = pair
    assume(a.nnz and b.nnz)
    count = np.array([int(np.count_nonzero(b.row == k)) for k in a.col.tolist()], dtype=np.int64)
    ends = np.cumsum(count)
    assume(ends[-1])
    with mock.patch.object(linalg, "_BLOCK_TERMS", block):
        blocks = linalg._row_blocks(a.row, ends)
    assert blocks[0][0] == 0 and blocks[-1][1] == a.nnz
    for (lo, hi), (nxt, _) in zip(blocks, blocks[1:] + [(a.nnz, None)]):
        assert lo < hi == nxt
        assert lo == 0 or a.row[lo] != a.row[lo - 1]
        rows = set(a.row[lo:hi].tolist())
        assert int(count[lo:hi].sum()) <= block or len(rows) == 1


def test_blocked_product_edge_cases():
    s4, s3 = aux_space(4), aux_space(3)
    # Row 0 expands 4 terms, past a block of 2: a block of its own, which must sum
    # its two terms at (0, 0).  Row 1's two terms cancel and row 2 meets no right
    # row: a block that sums to zero.
    left = LinearMap.from_entries(
        s4, s4, [(0, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (1, 2, 1, 0), (2, 3, 5, 0), (3, 1, 2, -1)]
    )
    right = LinearMap.from_entries(
        s3, s4, [(0, 0, 1, 0), (0, 1, 2, 0), (0, 2, 3, 0), (1, 0, 1, 1), (2, 0, -1, -1)]
    )
    with mock.patch.object(linalg, "_BLOCK_TERMS", 2):
        counts = [3, 1, 1, 1, 0, 1]
        assert linalg._row_blocks(left.row, np.cumsum(counts)) == [(0, 2), (2, 5), (5, 6)]
        product = left @ right
        # every block cancels or meets nothing: the zero map
        vanishing = LinearMap.from_entries(s4, s4, [(1, 1, 1, 0), (1, 2, 1, 0), (2, 3, 5, 0)])
        assert (vanishing @ right).is_zero()
    assert product.entries() == [(0, 0, 2, 1), (0, 1, 2, 0), (0, 2, 3, 0), (3, 0, 3, 1)]
    _assert_same_arrays(product, _one_block(left, right))


def test_blocked_product_bounds_check_memory(tmp_path):
    """check on a 1000-leaf star stays below 230 MB; expanding whole products took 273 MB."""
    star = tmp_path / "star.txt"
    star.write_text("n=1001\n" + "".join(f"0 {leaf}\n" for leaf in range(1, 1001)), encoding="utf-8")
    # A child's ru_maxrss includes the peak of the process it was forked from, so a
    # small launcher forks the command and reports the command's own peak.
    launch = (
        "import os, sys\n"
        "pid = os.fork()\n"
        "if not pid:\n"
        "    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])\n"
        "_, status, usage = os.wait4(pid, 0)\n"
        "print(usage.ru_maxrss, file=sys.stderr)\n"
        "sys.exit(os.waitstatus_to_exitcode(status))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launch, "-m", "susygraph.cli", "check", str(star)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stderr.split()[-1]) / 1024
    assert peak_mb < 230, peak_mb


# -- products with a diagonal factor -------------------------------------------
#
# A product whose left or right factor has every entry on the diagonal keeps the
# other factor's entries in place and multiplies them, expanding no terms.  It
# must give the general path's map bit for bit, dtypes included.


def _general_product(a, b):
    with mock.patch.object(LinearMap, "_is_diagonal", lambda self, inner: False):
        return a @ b


@st.composite
def diagonal_maps(draw, rows, cols, values):
    """A rows x cols map with entries on the diagonal only: full, partial or empty support."""
    index = range(min(rows, cols))
    support = draw(st.sampled_from(["full", "partial", "empty"]))
    if support == "partial":
        index = sorted(draw(st.sets(st.sampled_from(index))))
    elif support == "empty":
        index = []
    entries = [(i, i, *draw(st.tuples(values, values).filter(any))) for i in index]
    return LinearMap.from_entries(aux_space(cols), aux_space(rows), entries)


@st.composite
def sparse_maps(draw, rows, cols, values):
    entry = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), values, values)
    return LinearMap.from_entries(aux_space(cols), aux_space(rows), draw(st.lists(entry, max_size=8)))


@settings(max_examples=200)
@given(
    st.sampled_from(["left", "right", "both"]),
    st.sampled_from(["real", "gaussian", "wide"]),
    st.data(),
)
def test_diagonal_products_match_the_general_path(side, kind, data):
    values = {"real": st.integers(-3, 3), "gaussian": st.integers(-3, 3), "wide": near_int64_limit}[kind]
    # Dimensions up to 12 against at most 8 entries a factor reach both the slot
    # array and the binary search for the diagonal's entries.
    a, b, c = (data.draw(st.integers(1, 12)) for _ in range(3))
    left = data.draw(diagonal_maps(a, b, values) if side != "right" else sparse_maps(a, b, values))
    right = data.draw(diagonal_maps(b, c, values) if side != "left" else sparse_maps(b, c, values))
    if kind == "real":
        left, right = (
            LinearMap.from_entries(m.domain, m.codomain, [(r, col, re, 0) for r, col, re, _ in m.entries()])
            for m in (left, right)
        )
    product = left @ right
    _assert_same_arrays(product, _general_product(left, right))
    assert {(r, col): (re, im) for r, col, re, im in product.entries()} == _python_product(left, right)
    assert _is_canonical(product)
    if not product.is_zero():
        bound = left.max_abs() * right.max_abs() * min(left.nnz, b) * 2
        assert product.value.dtype == linalg._dtype(bound)


def test_diagonal_product_edge_cases():
    s = aux_space(3)
    # first and last entries on the diagonal, the middle one off it
    m = LinearMap.from_entries(s, s, [(0, 0, 2, 0), (1, 2, 3, 1), (2, 2, -1, 0)])
    x = LinearMap.from_entries(s, s, [(0, 1, 1, 0), (2, 0, 1, 1), (2, 2, 4, 0)])
    assert not m._is_diagonal(3)
    for product, (a, b) in ((m @ x, (m, x)), (x @ m, (x, m))):
        assert {(r, c): (re, im) for r, c, re, im in product.entries()} == _python_product(a, b)
    # more entries than the inner dimension: rejected before any entry is read
    assert not LinearMap.identity(aux_space(4))._is_diagonal(3)
    # disjoint supports past int64: the zero map, with the general path's int64 arrays
    wide = LinearMap.from_entries(s, s, [(1, 1, 2**62, 0)])
    off = LinearMap.from_entries(s, s, [(0, 2, 1, 0), (2, 0, 3, 1)])
    for a, b in ((wide, off), (off, wide)):
        assert (a @ b).is_zero()
        _assert_same_arrays(a @ b, _general_product(a, b))


def test_check_expands_no_product_with_a_diagonal_factor(monkeypatch, capsys):
    expanded = []
    product_rows = LinearMap._product_rows

    def counting(self, other, *args):
        expanded.append((self, other))
        return product_rows(self, other, *args)

    monkeypatch.setattr(LinearMap, "_product_rows", counting)
    graph = os.path.join(os.path.dirname(__file__), "..", "graphs", "c3.txt")
    assert main(["check", graph]) == 0
    capsys.readouterr()
    assert expanded
    assert not [pair for pair in expanded if any(np.array_equal(m.row, m.col) for m in pair)]


# -- kernel basis against a Fraction reference ---------------------------------


def fraction_kernel_basis(m):
    """Reduced row echelon form over Fraction: the reference for exact_kernel_basis.

    Rows in row order, pivot = smallest live column, back-substitution into
    earlier rows; the vector for free column f is 1 at f, then -(column f
    of the RREF) at the pivots in increasing order, denominators cleared
    and content stripped.
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
    echelon.sort(key=lambda entry: entry[0])
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


# -- rank against a Gaussian-integer reference ---------------------------------


def markowitz_rank(m):
    """Rank by fraction-free Gaussian-integer elimination with Markowitz pivots.

    The reference for exact_rank, which ranks a complex map through its
    integer block form instead.  Rows are combined as p*row - q*pivot_row in
    Gaussian integers, with each updated row's integer content divided out;
    the pivot row has the fewest entries, the pivot column the fewest rows.
    """

    def gmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    merged: dict[int, dict[int, tuple[int, int]]] = {}
    for r, c, re, im in m.entries():
        merged.setdefault(r, {})[c] = (re, im)
    rows = list(merged.values())
    col_index: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            col_index.setdefault(c, set()).add(i)
    active = set(range(len(rows)))
    rank = 0
    while active:
        pr = min(active, key=lambda i: (len(rows[i]), i))
        prow = rows[pr]
        pc = min(prow, key=lambda c: (len(col_index[c]), c))
        for i in col_index[pc] - {pr}:
            target = rows[i]
            q = target.pop(pc)
            new = {c: gmul(prow[pc], v) for c, v in target.items()}
            for c, v in prow.items():
                if c != pc:
                    tr, ti = gmul(q, v)
                    nr, ni = new.get(c, (0, 0))
                    new[c] = (nr - tr, ni - ti)
            new = {c: v for c, v in new.items() if v != (0, 0)}
            g = 0
            for re, im in new.values():
                g = gcd(g, re, im)
            rows[i] = {c: (re // g, im // g) for c, (re, im) in new.items()}
            for c in set(target) | set(prow):
                col_index.get(c, set()).discard(i)
            for c in rows[i]:
                col_index[c].add(i)
            if not rows[i]:
                active.discard(i)
        for c in prow:
            col_index[c].discard(pr)
        active.discard(pr)
        rank += 1
    return rank


@st.composite
def wide_gaussian_maps(draw, max_dim=6):
    """Maps with Gaussian entries up to 2**70, some rows integer combinations of others."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entry = st.one_of(st.just((0, 0)), st.tuples(wide_ints, wide_ints))
    dense = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            a, b = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
            dense[i] = [
                (a * x[0] - b * x[1], a * x[1] + b * x[0]) for x in dense[draw(st.integers(0, i - 1))]
            ]
    entries = [
        (i, j, re, im) for i, row in enumerate(dense) for j, (re, im) in enumerate(row) if re or im
    ]
    return LinearMap.from_entries(aux_space(cols), aux_space(rows), entries)


@given(wide_gaussian_maps())
def test_exact_rank_matches_gaussian_reference(m):
    assert exact_rank(m) == markowitz_rank(m)
    assert exact_rank(m.adjoint()) == exact_rank(m)


def _rows_permuted(m, order):
    """m with row r moved to row order[r]."""
    return LinearMap.from_entries(
        m.domain, m.codomain, [(order[r], c, re, im) for r, c, re, im in m.entries()]
    )


@st.composite
def incidence_maps(draw):
    """d or d* of a seeded random graph on up to 12 vertices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = random_graph(rng, draw(st.integers(1, 12)), draw(st.sampled_from([0.1, 0.3, 0.6])))
    inc = build_incidence(graph)
    return inc.diff if draw(st.booleans()) else inc.diff_adj


@settings(max_examples=200)
@given(st.one_of(rank_deficient_maps(), incidence_maps()), st.data())
def test_rank_and_kernel_basis_ignore_row_order(m, data):
    order = data.draw(st.permutations(range(m.codomain.dim)))
    permuted = _rows_permuted(m, order)
    assert exact_rank(permuted) == exact_rank(m)
    basis, permuted_basis = exact_kernel_basis(m), exact_kernel_basis(permuted)
    assert permuted_basis == basis
    assert [list(vec) for vec in permuted_basis] == [list(vec) for vec in basis]


@given(rank_deficient_maps())
def test_exact_rank_matches_fraction_kernel_dimension(m):
    assert exact_rank(m) == m.domain.dim - len(fraction_kernel_basis(m))
