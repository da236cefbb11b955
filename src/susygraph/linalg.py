"""Exact sparse linear algebra over Gaussian integers.

Every operator in this package has Gaussian-integer entries, so operator
construction and algebra verification are done with exact integer
arithmetic; floating point only enters when a map is densified for an
eigensolver.

A map stores its nonzero entries in canonical coordinate (COO) form:
numpy arrays of rows, columns and (real, imaginary) parts, sorted by
(row, col), with each coordinate once and no zero entry.  Canonical form
makes equality an array comparison and "is zero" an emptiness test.
Sums concatenate and products expand term by term; both then sort, add
up repeated coordinates and drop zeros.  Terms that already arrive in
strictly increasing coordinate order skip the sort and the sums and only
drop zeros, as a sum of two maps whose coordinates do not interleave does.
A product finds each row of its right factor through row pointers (a count
per row, then a running sum) when the inner dimension is at most the total
nnz of its operands, and by binary search over the sorted rows past that,
so no work scales with the dimension alone.

A product with a diagonal factor, one whose entries all have row == col
(the grading and its projectors, partial or rectangular ones too),
expands no terms: it keeps each entry of the other factor whose row (for
a diagonal on the left) or column (on the right) lies in the diagonal's
support, in its own order, and multiplies it by the diagonal entry there.
Gaussian integers have no zero divisors, so the result is canonical as it
stands and matches the general path bit for bit, dtype included.  The
diagonal entry is found through a slot array over the inner dimension
while that is at most the operands' total nnz, else by binary search.  A
map that is not diagonal is rejected by O(1) tests (more entries than the
inner dimension, or a first or last entry off the diagonal) before the
O(nnz) comparison.  On the largest graph of a criterion-1 pass (n = 49,
m = 1054), chi H went from 2.2 to 0.7 ms and H chi from 4.7 to 0.7 ms.

Otherwise a product expands its terms in blocks of the left factor's rows,
never all at once: each block holds at most _BLOCK_TERMS terms (a single
row with more is a block of its own) and is canonicalized on its own.  The
blocks cover disjoint row ranges in increasing order, so their canonical
arrays, laid end to end, are the canonical product, bit for bit.  A product
of at most _BLOCK_TERMS terms is one block and is not copied; a cut one
concatenates its blocks.  The peak then follows the blocks and the result
rather than the term count: `check` on a 2000-leaf star peaks at 559 MB,
against 923 MB with whole products expanded (609 MB with products by a
diagonal factor expanded in blocks).  Joining still holds every block and
the joined copy at once: `inc.diff @ inc.diff_adj` there (122 MiB) takes a
fresh process from 34 to 281 MB.  Joining the rows, columns and values in
turn, dropping each kind's blocks, leaves that peak at 280 MB, since the
allocator keeps the freed block memory.
_BLOCK_TERMS = 2**15 comes from measurement on a 2-vCPU machine
(Python 3.11, numpy 2.4).  Timing every product of a criterion-1 pass at
2**13 to 2**17, the sizes up to 2**16 tied and ran about a tenth faster
than whole expansion, and minor page faults per pass fell from 13 to 18
thousand to at most 2 thousand at 2**15 and below.  In paired benchmark
runs 2**16 lengthened the 73rd-percentile `check` from 28.2 to 31.4 ms,
where 2**15 did not.

Overflow rule: before any arithmetic, an operation bounds the magnitude of
every component it can produce (for a product, max|A| * max|B| * 2 times
the number of terms in one sum, at most min(nnz(A), inner dimension)).
Below 2**62 the work runs in int64; at or above it the same code runs on
object arrays of Python ints.  No result wraps.
The exact rank and kernel basis share one fraction-free forward echelon
over Python-int row dicts built once from these arrays, sparsest row
first: each row's smallest column is cleared in place with the pivot row
found for it earlier, and every combined row has its gcd divided out, so
no rational number is ever formed.  The rank is the number of pivots; the
kernel basis adds one bottom-up back-substitution that brings the echelon
to its reduced form.  The pivots are the leading columns of the row space
and the reduced form is unique, so neither result depends on the order
the rows are taken in; the order only decides how much the rows fill in.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd, lcm
from typing import Iterable

import numpy as np

VERTEX = "vertex"
EDGE = "edge"
SUPER = "super"
AUX = "aux"


class SpaceMismatch(ValueError):
    """Operands live on incompatible spaces."""


@dataclass(frozen=True)
class Space:
    """A tagged coefficient space (vertex functions, edge functions, or their sum)."""

    kind: str
    dim: int


def vertex_space(n: int) -> Space:
    return Space(VERTEX, n)


def edge_space(m: int) -> Space:
    return Space(EDGE, m)


def super_space(n: int, m: int) -> Space:
    """The direct sum space, vertex block first then edge block."""
    return Space(SUPER, n + m)


def aux_space(k: int) -> Space:
    """An untagged index space, used when stacking vectors into a map."""
    return Space(AUX, k)


# An int64 component array holds only values below this in magnitude, so
# negating it, or adding two such arrays, cannot wrap.
_INT64_SAFE = 1 << 62


def _dtype(bound: int):
    """int64 when every intermediate stays below _INT64_SAFE, else Python ints."""
    return np.int64 if bound < _INT64_SAFE else object


# The most terms one block of a product expands at once; chosen by measurement
# (see the module docstring).
_BLOCK_TERMS = 1 << 15


def _row_blocks(row: np.ndarray, ends: np.ndarray) -> list[tuple[int, int]]:
    """(first, past last) entry of each block of whole rows of a product's left factor.

    ends[e] is the number of terms expanded through entry e of the left
    factor, whose entries run row by row.  Each block holds at most
    _BLOCK_TERMS terms, except a single row with more, which is a block of
    its own.
    """
    # A block may end only where a row starts, or at the end.
    cuts = np.append(np.flatnonzero(row[1:] != row[:-1]) + 1, row.size)
    # before[i]: the terms ahead of cut i.
    before = ends[cuts - 1]
    bounds, i = [0], -1
    while bounds[-1] < row.size:
        done = before[i] if i >= 0 else 0
        i = max(int(np.searchsorted(before, done + _BLOCK_TERMS, "right")) - 1, i + 1)
        bounds.append(int(cuts[i]))
    return list(zip(bounds, bounds[1:]))


def _live_parts(value: np.ndarray) -> list[int]:
    """Which of the real (0) and imaginary (1) parts hold a nonzero component."""
    return [p for p in (0, 1) if np.count_nonzero(value[p])]


def _canonical_terms(
    domain: Space, codomain: Space, row: np.ndarray, col: np.ndarray, value: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort (row, col, value) terms, sum repeated coordinates, drop zeros.

    Terms whose keys already increase strictly skip the sort and the sums.
    """
    if not row.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros((2, 0), dtype=np.int64)
    if codomain.dim * domain.dim > 1 << 63:
        raise ValueError(f"{codomain.dim}x{domain.dim} is too many coordinates for int64 keys")
    key = row * domain.dim + col
    if (key[1:] > key[:-1]).all():
        # Already in order without repeats: only zeros can be out of place.
        keep = (value != 0).any(axis=0)
        if not keep.all():
            row, col, value = row[keep], col[keep], value.compress(keep, axis=1)
        return row, col, value
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    summed = np.zeros((2, first.size), dtype=value.dtype)
    for p in _live_parts(value):
        summed[p] = np.add.reduceat(value[p].take(order), first)
    keep = (summed != 0).any(axis=0)
    row, col = np.divmod(key[first[keep]], domain.dim)
    return row, col, summed.compress(keep, axis=1)


def _gaussian_product(x: np.ndarray, a: np.ndarray, y: np.ndarray, b: np.ndarray | None, parts) -> np.ndarray:
    """The Gaussian-integer products x[:, a] * y[:, b], entry by entry, as (2, a.size) in x's dtype.

    b = None takes y's entries as they stand; parts holds the live parts
    (0 real, 1 imaginary) of x and of y, and a part missing there is zero.
    """
    value = np.zeros((2, a.size), dtype=x.dtype)
    # x[p] * y[q] adds to part p + q, except that i * i = -1 subtracts from part 0.
    for p in parts[0]:
        xa = x[p].take(a)
        for q in parts[1]:
            yb = y[q] if b is None else y[q].take(b)
            if p and q:
                value[0] -= xa * yb
            else:
                value[p + q] += xa * yb
    return value


def _times_diagonal(diag: "LinearMap", m: "LinearMap", dtype, left: bool) -> "LinearMap":
    """diag @ m if left, else m @ diag, for a diagonal map diag: no terms are expanded.

    Each entry of m whose row (if left, else column) lies in diag's support
    is kept, in m's order, times diag's entry there.  Gaussian integers have
    no zero divisors and m no coordinate repeats, so the result is canonical
    as it stands.  diag's entry for an index of the inner dimension is found
    by a slot array over that dimension when it is at most nnz(diag) + nnz(m),
    else by binary search over diag's rows; a full diagonal holds index k at
    position k.
    """
    if left:
        key, inner, domain, codomain = m.row, m.codomain.dim, m.domain, diag.codomain
    else:
        key, inner, domain, codomain = m.col, m.domain.dim, diag.domain, m.codomain
    row, col, v = m.row, m.col, m.value.astype(dtype, copy=False)
    if diag.nnz < inner:
        if inner <= diag.nnz + m.nnz:
            slot = np.full(inner, -1, dtype=np.int64)
            slot[diag.row] = np.arange(diag.nnz)
            key = slot[key]
            keep = key >= 0
        else:
            found = np.searchsorted(diag.row, key)
            keep = diag.row.take(found, mode="clip") == key
            key = found
        if not keep.all():
            if not keep.any():
                return LinearMap.zero(domain, codomain)
            row, col, key, v = row[keep], col[keep], key[keep], v.compress(keep, axis=1)
    d = diag.value.astype(dtype, copy=False)
    value = _gaussian_product(d, key, v, None, (_live_parts(d), _live_parts(v)))
    return LinearMap(domain, codomain, row, col, value)


class LinearMap:
    """A sparse linear map between tagged spaces, entries a + b*i with integer a, b.

    Stored in canonical coordinate form: ``row`` and ``col`` are int64
    arrays sorted by (row, col) without repeats, and ``value`` is the
    matching (2, nnz) array whose rows are the real and the imaginary parts,
    with no entry whose parts are both zero.  ``value`` is int64 while every
    component is below 2**62 in magnitude and an object array of Python ints
    otherwise; each operation bounds its result before computing it and
    picks the dtype from that bound, so int64 arithmetic never wraps.

    A product with a diagonal factor multiplies the other factor's entries
    in place and expands no terms.  Any other product indexes the rows of
    its right factor by row pointers when the inner dimension is at most
    nnz(self) + nnz(other), else by binary search.  It expands at most
    _BLOCK_TERMS terms at once, in blocks of whole rows of self, and
    concatenates the blocks' canonical arrays; a product of at most
    _BLOCK_TERMS terms is one block and is not copied.  Terms that arrive
    strictly increasing in (row, col), as from a sum of non-interleaving
    maps, are kept in place without a sort, with only their zeros dropped.

    Instances are immutable: the arrays are read-only, and every operation
    returns a fresh map.  Equality is exact and entrywise.
    """

    __slots__ = ("domain", "codomain", "row", "col", "value")

    def __init__(
        self, domain: Space, codomain: Space, row: np.ndarray, col: np.ndarray, value: np.ndarray
    ):
        """Wrap arrays that are already canonical; use from_entries for anything else."""
        self.domain = domain
        self.codomain = codomain
        self.row = row
        self.col = col
        self.value = value
        for a in (row, col, value):
            a.flags.writeable = False

    # -- construction --

    @classmethod
    def _canonical(
        cls, domain: Space, codomain: Space, row: np.ndarray, col: np.ndarray, value: np.ndarray
    ) -> "LinearMap":
        """The map of (row, col, value) terms in any order, repeats summed, zeros dropped."""
        return cls(domain, codomain, *_canonical_terms(domain, codomain, row, col, value))

    @classmethod
    def from_entries(
        cls, domain: Space, codomain: Space, entries: Iterable[tuple[int, int, int, int]]
    ) -> "LinearMap":
        """Build from (row, col, re, im) integer tuples; duplicate coordinates accumulate.

        Raises TypeError on an entry with a component that is not an integer.
        """
        data = list(entries)
        if not data:
            return cls.zero(domain, codomain)
        table = np.array(data)
        if table.dtype.kind != "i":
            # A float, a string, or an integer past int64 (inferred as uint64, float64 or object).
            for entry in data:
                if not all(isinstance(x, (int, np.integer)) for x in entry):
                    raise TypeError(f"entry {tuple(entry)!r} has a non-integer component")
            table = np.array([[int(x) for x in entry] for entry in data], dtype=object)
        row, col, parts = table[:, 0], table[:, 1], table[:, 2:]
        outside = (row < 0) | (row >= codomain.dim) | (col < 0) | (col >= domain.dim)
        if outside.any():
            r, c = data[int(np.argmax(outside))][:2]
            raise SpaceMismatch(f"entry ({r}, {c}) outside {codomain.dim}x{domain.dim}")
        # Repeated coordinates sum to at most len(data) times the largest part.
        biggest = max(int(parts.max()), -int(parts.min()))
        value = parts.T.astype(_dtype(biggest * len(data)), order="C")
        row, col = row.astype(np.int64), col.astype(np.int64)
        return cls._canonical(domain, codomain, row, col, value)

    @classmethod
    def zero(cls, domain: Space, codomain: Space) -> "LinearMap":
        empty = np.zeros(0, dtype=np.int64)
        return cls(domain, codomain, empty, empty, np.zeros((2, 0), dtype=np.int64))

    @classmethod
    def identity(cls, space: Space) -> "LinearMap":
        diag = np.arange(space.dim, dtype=np.int64)
        value = np.zeros((2, space.dim), dtype=np.int64)
        value[0] = 1
        return cls(space, space, diag, diag, value)

    # -- inspection --

    def entries(self) -> list[tuple[int, int, int, int]]:
        """All nonzero entries as (row, col, re, im) Python ints, sorted by (row, col)."""
        re, im = self.value.tolist()
        return list(zip(self.row.tolist(), self.col.tolist(), re, im))

    @property
    def nnz(self) -> int:
        return self.row.size

    def is_zero(self) -> bool:
        return not self.row.size

    def max_abs(self) -> int:
        """Largest |component| over all entries; an exact integer residual norm."""
        return int(np.abs(self.value).max()) if self.row.size else 0

    def has_imag(self) -> bool:
        return np.count_nonzero(self.value[1]) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and np.array_equal(self.row, other.row)
            and np.array_equal(self.col, other.col)
            and np.array_equal(self.value, other.value)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"LinearMap({self.codomain.dim}x{self.domain.dim}, "
            f"{self.codomain.kind}<-{self.domain.kind}, nnz={self.nnz})"
        )

    # -- algebra --

    def _require_same_shape(self, other: "LinearMap") -> None:
        if self.domain != other.domain or self.codomain != other.codomain:
            raise SpaceMismatch(f"cannot combine {self!r} with {other!r}")

    def _combined(self, other: "LinearMap", sign: int) -> "LinearMap":
        self._require_same_shape(other)
        dtype = _dtype(self.max_abs() + other.max_abs())
        a, b = self.value.astype(dtype, copy=False), sign * other.value.astype(dtype, copy=False)
        operands = [(self.row, self.col, a), (other.row, other.col, b)]
        # Operands that do not interleave go in coordinate order, so no sort is needed.
        if self.nnz and other.nnz and (other.row[-1], other.col[-1]) < (self.row[0], self.col[0]):
            operands.reverse()
        row, col, value = (np.concatenate(arrays, axis=-1) for arrays in zip(*operands))
        return LinearMap._canonical(self.domain, self.codomain, row, col, value)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return self._combined(other, 1)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self._combined(other, -1)

    def __neg__(self) -> "LinearMap":
        return self.scale(-1)

    def scale(self, c: int | tuple[int, int]) -> "LinearMap":
        """Multiply by an exact Gaussian integer, given as int or (re, im)."""
        cr, ci = (c, 0) if isinstance(c, int) else c
        if not (cr or ci) or self.is_zero():
            return LinearMap.zero(self.domain, self.codomain)
        # Gaussian integers have no zero divisors, so no entry cancels.
        v = self.value.astype(_dtype((abs(cr) + abs(ci)) * self.max_abs()), copy=False)
        value = np.stack((cr * v[0] - ci * v[1], ci * v[0] + cr * v[1]))
        return LinearMap(self.domain, self.codomain, self.row, self.col, value)

    def halved(self) -> "LinearMap":
        """Exact division by 2; raises ValueError if any component is odd."""
        odd = np.argwhere(self.value % 2 != 0)
        if odd.size:
            part, i = odd[0]
            v, r, c = self.value[part, i], self.row[i], self.col[i]
            raise ValueError(f"odd entry {v} at ({r}, {c}) cannot be halved exactly")
        return LinearMap(self.domain, self.codomain, self.row, self.col, self.value // 2)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        if other.codomain != self.domain:
            raise SpaceMismatch(f"cannot compose {self!r} after {other!r}")
        if self.is_zero() or other.is_zero():
            return LinearMap.zero(other.domain, self.codomain)
        # Each output entry sums at most min(nnz, inner dimension) products,
        # a bound on the largest row nnz of self, each with two terms per part.
        terms = min(self.nnz, self.domain.dim)
        dtype = _dtype(self.max_abs() * other.max_abs() * terms * 2)
        inner = self.domain.dim
        if self._is_diagonal(inner):
            return _times_diagonal(self, other, dtype, left=True)
        if other._is_diagonal(inner):
            return _times_diagonal(other, self, dtype, left=False)
        # Pair every entry (i, k) of self with each entry (k, j) of other's row k,
        # the count entries from start.  Row pointers cost O(inner dimension), so
        # past the operands' size a binary search over other.row finds the rows.
        if inner <= self.nnz + other.nnz:
            per_row = np.bincount(other.row, minlength=inner)
            start = (np.cumsum(per_row) - per_row)[self.col]
            count = per_row[self.col]
        else:
            start = np.searchsorted(other.row, self.col)
            count = np.searchsorted(other.row, self.col, "right") - start
        ends = np.cumsum(count)
        x = self.value.astype(dtype, copy=False)
        y = other.value.astype(dtype, copy=False)
        parts = (_live_parts(x), _live_parts(y))
        if ends[-1] <= _BLOCK_TERMS:
            terms = self._product_rows(other, x, y, parts, start, count, ends, 0)
            return LinearMap(other.domain, self.codomain, *terms)
        # The blocks hold disjoint row ranges in increasing order, so their canonical
        # arrays laid end to end are the canonical product.
        blocks = (
            self._product_rows(
                other, x, y, parts, start[lo:hi], count[lo:hi], ends[lo:hi] - ends[lo] + count[lo], lo
            )
            for lo, hi in _row_blocks(self.row, ends)
        )
        rows, cols, values = zip(*blocks)
        row, col, value = np.concatenate(rows), np.concatenate(cols), np.concatenate(values, axis=1)
        return LinearMap(other.domain, self.codomain, row, col, value)

    def _is_diagonal(self, inner: int) -> bool:
        """Whether every entry of this nonzero map has row == col.

        O(1) tests reject most maps before the O(nnz) comparison: a diagonal
        map has at most one entry per index of the inner dimension, and its
        first and last entries lie on the diagonal.
        """
        return bool(
            self.nnz <= inner
            and self.row[0] == self.col[0]
            and self.row[-1] == self.col[-1]
            and np.array_equal(self.row, self.col)
        )

    def _product_rows(self, other, x, y, parts, start, count, ends, lo: int):
        """The canonical (row, col, value) arrays of self's entries from lo, whole rows, times other.

        count[e] terms pair self's entry lo + e with other's entries from
        start[e]; ends is the running sum of count.  x and y are the two
        value arrays in the product's dtype, parts their live parts.
        """
        a = np.repeat(np.arange(lo, lo + count.size), count)
        b = np.arange(ends[-1]) + np.repeat(start - (ends - count), count)
        value = _gaussian_product(x, a, y, b, parts)
        return _canonical_terms(other.domain, self.codomain, self.row[a], other.col[b], value)

    def adjoint(self) -> "LinearMap":
        """Conjugate transpose."""
        order = np.lexsort((self.row, self.col))
        value = self.value.take(order, axis=1)
        value[1] *= -1
        return LinearMap(self.codomain, self.domain, self.col[order], self.row[order], value)

    def is_self_adjoint(self) -> bool:
        return self.domain == self.codomain and self == self.adjoint()

    # -- application and densification --

    def apply(self, vec: "StateVector") -> "StateVector":
        if vec.space != self.domain:
            raise SpaceMismatch(f"cannot apply {self!r} to a vector on {vec.space}")
        re, im = self.value.astype(np.float64)
        terms = (re + 1j * im) * vec.coefficients[self.col]
        out = np.zeros(self.codomain.dim, dtype=np.complex128)
        np.add.at(out, self.row, terms)
        return StateVector(self.codomain, out)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.codomain.dim, self.domain.dim), dtype=np.complex128)
        re, im = self.value.astype(np.float64)
        out.real[self.row, self.col] = re
        out.imag[self.row, self.col] = im
        return out

    def to_dense_real(self) -> np.ndarray:
        if self.has_imag():
            raise ValueError("map has imaginary entries")
        out = np.zeros((self.codomain.dim, self.domain.dim), dtype=np.float64)
        out[self.row, self.col] = self.value[0].astype(np.float64)
        return out


def commutator(a: LinearMap, b: LinearMap) -> LinearMap:
    return (a @ b) - (b @ a)


def anticommutator(a: LinearMap, b: LinearMap) -> LinearMap:
    return (a @ b) + (b @ a)


@dataclass(frozen=True)
class StateVector:
    """A dense complex coefficient vector over a tagged space."""

    space: Space
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.shape != (self.space.dim,):
            raise SpaceMismatch(
                f"coefficient vector of shape {coeffs.shape} on a space of dim {self.space.dim}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def basis(cls, space: Space, index: int) -> "StateVector":
        coeffs = np.zeros(space.dim, dtype=np.complex128)
        coeffs[index] = 1.0
        return cls(space, coeffs)

    @classmethod
    def from_values(cls, space: Space, values) -> "StateVector":
        return cls(space, np.asarray(values, dtype=np.complex128))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


# -- exact elimination --------------------------------------------------------


def _int_rows(m: LinearMap) -> list[dict[int, int]]:
    """The nonzero rows of m, each as {col: int}, sparsest first.

    A map with imaginary entries a + bi gives the rows of its integer block
    form [[a, -b], [b, a]], row r as rows 2r and 2r + 1, whose rank is
    exactly twice the rank of m over the Gaussian rationals.

    Rows come in increasing number of entries; ties go to the larger
    smallest column, then to the larger largest column, then to the lower
    row.  The order is read off the canonical arrays by one lexsort: each
    row is a run of the sorted row array, and its first and last entries
    hold its smallest and largest column.
    """
    row, col, value = m.row, m.col, m.value[0]
    if m.has_imag():
        row, col, value = _real_block(m)
    if not row.size:
        return []
    # Each nonzero row is a run of the sorted row array; no work scales with the dimension.
    starts = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
    ends = np.append(starts[1:], row.size)
    counts = ends - starts
    order = np.lexsort((-col[ends - 1], -col[starts], counts))
    # Entry positions row by row in that order, so each dict takes the next run.
    size = counts[order]
    take = np.arange(row.size) + np.repeat(starts[order] - (np.cumsum(size) - size), size)
    entries = zip(col[take].tolist(), value[take].tolist())
    return [dict(islice(entries, k)) for k in size.tolist()]


def _real_block(m: LinearMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (row, col, value) of the integer block form of a complex map.

    Entry a + bi at (r, c) gives a at (2r, c) and (2r + 1, c + w) and -b
    at (2r, c + w), b at (2r + 1, c), for w = m.domain.dim; zeros are left out.
    """
    w = m.domain.dim
    re, im = m.value
    row = np.concatenate((2 * m.row, 2 * m.row + 1, 2 * m.row, 2 * m.row + 1))
    col = np.concatenate((m.col, m.col + w, m.col + w, m.col))
    value = np.concatenate((re, re, -im, im))
    keep = value != 0
    row, col, value = row[keep], col[keep], value[keep]
    order = np.lexsort((col, row))
    return row[order], col[order], value[order]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """row divided in place by the gcd of its entries, so its content is 1."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    for c in row:
        row[c] //= g
    return row


def _clear(
    row: dict[int, int], prow: dict[int, int], pc: int, heap: list[int] | None = None
) -> None:
    """Clear row at pc in place: row becomes (p//g)*row - (row[pc]//g)*prow.

    p = prow[pc] > 0 and g = gcd(p, row[pc]), so the result is a positive
    multiple of the rational row - (row[pc]/p)*prow.  Columns that prow
    adds to row are pushed onto heap when one is given.
    """
    q, p = row[pc], prow[pc]
    if p != 1:
        g = gcd(p, q)
        q //= g
        if p != g:
            for c in row:
                row[c] *= p // g
    for c, v in prow.items():
        if c in row:
            nv = row[c] - q * v
            if nv:
                row[c] = nv
            else:
                del row[c]
        else:
            row[c] = -q * v
            if heap is not None:
                heappush(heap, c)


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fraction-free forward elimination: {pivot column: echelon row}.

    Rows are taken in the order given, which _int_rows makes sparsest
    first.  While a row's smallest column already has a pivot row, that
    column is cleared with it in place and the row made primitive again;
    otherwise the smallest column becomes the row's pivot.  A heap of the
    row's columns yields the smallest one: columns a step adds are pushed
    and columns it clears are skipped when they surface, so a step costs
    the size of its pivot row, not of the row.  A hub row with k pivot
    columns takes O(k log k), not k scans of k entries.
    When one step leads straight to the next because the pivot row just
    used holds the next pivot column, that pivot row is cleared of it too
    and kept, so later rows skip the step (a chain's rows would otherwise
    walk one step per earlier link, as on a wheel's spokes).
    Every echelon row is primitive with a positive pivot and no entry left
    of it; a row that clears to nothing is dropped, so the number of pivots
    is the rank.
    """
    echelon: dict[int, dict[int, int]] = {}
    for row in rows:
        heap = list(row)
        heapify(heap)
        prev = None
        while heap:
            pc = heap[0]
            if pc not in row:
                heappop(heap)
                continue
            prow = echelon.get(pc)
            if prow is None:
                if row[pc] < 0:
                    for c in row:
                        row[c] = -row[c]
                echelon[pc] = _primitive(row)
                break
            heappop(heap)
            if prev is not None and pc in echelon[prev]:
                _clear(echelon[prev], prow, pc)
                _primitive(echelon[prev])
            _clear(row, prow, pc, heap)
            _primitive(row)
            prev = pc
    return echelon


def exact_rank(m: LinearMap) -> int:
    """Rank over the rationals (Gaussian rationals for complex entries).

    The number of pivots of the forward echelon of m's columns, taken as
    the rows of m's adjoint.  The difference operator d has a row per edge
    and a column per vertex, so on a graph with more edges than vertices
    its columns are fewer rows to clear: on 40 dense random graphs (n 20
    to 60) this takes half the time of eliminating d's rows, 35 against
    73 ms on a 2-vCPU machine with Python 3.11.  A complex map is
    ranked through its integer block form [[a, -b], [b, a]] for entries
    a + bi, which has exactly twice its rank, so every intermediate is a
    Python int and no floating point is used.
    """
    pivots = len(_echelon(_int_rows(m.adjoint())))
    return pivots // 2 if m.has_imag() else pivots


def exact_kernel_basis(m: LinearMap) -> list[dict[int, int]]:
    """An integer basis of the rational kernel of a real integer map.

    The forward echelon of m's rows is reduced bottom-up: in decreasing
    pivot order, each row has the later pivot columns cleared from it by
    rows already reduced.  Every row is then its reduced row echelon row
    scaled to the smallest integer vector, primitive with a positive pivot
    and zeros at the other pivot columns.  On an incidence matrix, which
    is totally unimodular, every pivot is 1 and every entry 0 or ±1.  The
    vector for free column f puts the lcm L of the pivots of the rows
    touching f at f and -a*(L//p) at each such pivot, then drops its
    content.  As the reduced echelon form is unique, this is the unique
    primitive integer kernel vector supported on f and the pivot columns
    with a positive entry at f.  Vectors follow the free columns; each has
    key f first, then its pivot columns in increasing order, so neither
    the vectors nor their key order depend on the order of m's rows.
    """
    if m.has_imag():
        raise ValueError("kernel basis is only implemented for real integer maps")
    echelon = _echelon(_int_rows(m))
    pivots = sorted(echelon)
    for pc in reversed(pivots):
        row = echelon[pc]
        for c in [c for c in row if c != pc and c in echelon]:
            _clear(row, echelon[c], c)
        _primitive(row)
    touching: dict[int, list[int]] = {}
    for pc in pivots:
        for c in echelon[pc]:
            touching.setdefault(c, []).append(pc)
    basis: list[dict[int, int]] = []
    for f in range(m.domain.dim):
        if f in echelon:
            continue
        pcs = touching.get(f, [])
        scale = lcm(*(echelon[pc][pc] for pc in pcs))
        vec = {f: scale}
        for pc in pcs:
            vec[pc] = -echelon[pc][f] * (scale // echelon[pc][pc])
        basis.append(_primitive(vec))
    return basis


def stack_columns(vectors: list[dict[int, int]], codomain: Space) -> LinearMap:
    """Assemble sparse integer vectors as the columns of a map from an index space."""
    entries = []
    for j, vec in enumerate(vectors):
        for r, v in vec.items():
            entries.append((r, j, v, 0))
    return LinearMap.from_entries(aux_space(len(vectors)), codomain, entries)
