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
up repeated coordinates and drop zeros.

Overflow rule: before any arithmetic, an operation bounds the magnitude of
every component it can produce (for a product, max|A| * max|B| * 2 times
the number of terms in one sum, at most min(nnz(A), inner dimension)).
Below 2**62 the work runs in int64; at or above it the same code runs on
object arrays of Python ints.  No result wraps.
The exact elimination routines (rank, kernel basis) are fraction-free: they
combine Python-int row dicts built once from these arrays and divide out
each row's gcd, so no rational number is ever formed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
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


def _live_parts(value: np.ndarray) -> list[int]:
    """Which of the real (0) and imaginary (1) parts hold a nonzero component."""
    return [p for p in (0, 1) if np.count_nonzero(value[p])]


class LinearMap:
    """A sparse linear map between tagged spaces, entries a + b*i with integer a, b.

    Stored in canonical coordinate form: ``row`` and ``col`` are int64
    arrays sorted by (row, col) without repeats, and ``value`` is the
    matching (2, nnz) array whose rows are the real and the imaginary parts,
    with no entry whose parts are both zero.  ``value`` is int64 while every
    component is below 2**62 in magnitude and an object array of Python ints
    otherwise; each operation bounds its result before computing it and
    picks the dtype from that bound, so int64 arithmetic never wraps.

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
        """Sort (row, col, value) terms, sum repeated coordinates, drop zeros."""
        if not row.size:
            return cls.zero(domain, codomain)
        if codomain.dim * domain.dim > 1 << 63:
            raise ValueError(f"{codomain.dim}x{domain.dim} is too many coordinates for int64 keys")
        key = row * domain.dim + col
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        summed = np.zeros((2, first.size), dtype=value.dtype)
        for p in _live_parts(value):
            summed[p] = np.add.reduceat(value[p].take(order), first)
        keep = (summed != 0).any(axis=0)
        row, col = np.divmod(key[first[keep]], domain.dim)
        return cls(domain, codomain, row, col, summed.compress(keep, axis=1))

    @classmethod
    def from_entries(
        cls, domain: Space, codomain: Space, entries: Iterable[tuple[int, int, int, int]]
    ) -> "LinearMap":
        """Build from (row, col, re, im) tuples; duplicate coordinates accumulate."""
        data = list(entries)
        if not data:
            return cls.zero(domain, codomain)
        try:
            table = np.array(data, dtype=np.int64)
        except OverflowError:
            table = np.array(data, dtype=object)
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

    def entry(self, r: int, c: int) -> tuple[int, int]:
        hit = np.flatnonzero((self.row == r) & (self.col == c))
        return tuple(self.value[:, hit[0]].tolist()) if hit.size else (0, 0)

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
        a, b = self.value.astype(dtype, copy=False), other.value.astype(dtype, copy=False)
        return LinearMap._canonical(
            self.domain,
            self.codomain,
            np.concatenate((self.row, other.row)),
            np.concatenate((self.col, other.col)),
            np.concatenate((a, sign * b), axis=1),
        )

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
        # Pair every entry (i, k) of self with each entry (k, j) of other's row k.
        start = np.searchsorted(other.row, self.col)
        count = np.searchsorted(other.row, self.col, "right") - start
        ends = np.cumsum(count)
        a = np.repeat(np.arange(self.row.size), count)
        b = np.arange(ends[-1]) + np.repeat(start - (ends - count), count)
        x = self.value.astype(dtype, copy=False)
        y = other.value.astype(dtype, copy=False)
        value = np.zeros((2, a.size), dtype=dtype)
        # x[p] * y[q] adds to part p + q, except that i * i = -1 subtracts from part 0.
        for p in _live_parts(x):
            xa = x[p].take(a)
            for q in _live_parts(y):
                if p and q:
                    value[0] -= xa * y[q].take(b)
                else:
                    value[p + q] += xa * y[q].take(b)
        return LinearMap._canonical(other.domain, self.codomain, self.row[a], other.col[b], value)

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


def serialize_triplets(m: LinearMap) -> list[str]:
    """Coordinate-triplet lines '(row, col, re, im)' sorted by (row, col)."""
    return [f"({r}, {c}, {re}, {im})" for r, c, re, im in m.entries()]


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


def _gmul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    ar, ai = a
    br, bi = b
    return (ar * br - ai * bi, ar * bi + ai * br)


def _merged_gaussian_rows(m: LinearMap) -> list[dict[int, tuple[int, int]]]:
    """The nonzero rows of m in row order, each as {col: (re, im)}."""
    rows: dict[int, dict[int, tuple[int, int]]] = {}
    for r, c, re, im in m.entries():
        rows.setdefault(r, {})[c] = (re, im)
    return list(rows.values())


def _strip_content(row: dict[int, tuple[int, int]]) -> None:
    g = 0
    for re, im in row.values():
        g = gcd(g, re)
        g = gcd(g, im)
        if g == 1:
            return
    if g > 1:
        for c, (re, im) in row.items():
            row[c] = (re // g, im // g)


def exact_rank(m: LinearMap) -> int:
    """Rank over the rationals (Gaussian rationals for complex entries).

    Fraction-free sparse elimination: rows are combined as p*row - q*pivot_row
    so every intermediate stays a Gaussian integer, with the integer content
    of each updated row divided out to keep entries small.  Pivots are chosen
    by least row fill, then least column fill, so the computation is
    deterministic and never consults floating point.
    """
    rows = _merged_gaussian_rows(m)
    col_index: dict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        for c in row:
            col_index[c].add(i)
    active = set(range(len(rows)))
    rank = 0
    while active:
        pr = min(active, key=lambda i: (len(rows[i]), i))
        prow = rows[pr]
        pc = min(prow, key=lambda c: (len(col_index[c]), c))
        piv = prow[pc]
        for i in list(col_index[pc]):
            if i == pr:
                continue
            target = rows[i]
            q = target.pop(pc)
            col_index[pc].discard(i)
            new: dict[int, tuple[int, int]] = {}
            for c, v in target.items():
                new[c] = _gmul(piv, v)
            for c, v in prow.items():
                if c == pc:
                    continue
                tr, ti = _gmul(q, v)
                if c in new:
                    nr, ni = new[c]
                    nr -= tr
                    ni -= ti
                    if nr or ni:
                        new[c] = (nr, ni)
                    else:
                        del new[c]
                        col_index[c].discard(i)
                else:
                    new[c] = (-tr, -ti)
                    col_index[c].add(i)
            _strip_content(new)
            rows[i] = new
            if not new:
                active.discard(i)
        for c in prow:
            col_index[c].discard(pr)
        active.discard(pr)
        rank += 1
    return rank


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """row divided by the gcd of its entries, so its content is 1."""
    g = gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _cleared(row: dict[int, int], prow: dict[int, int], pc: int) -> dict[int, int]:
    """p*row - q*prow with p = prow[pc] > 0 and q = row[pc], made primitive.

    The result has no entry at pc and is a positive multiple of the rational
    row - (q/p)*prow.
    """
    p, q = prow[pc], row[pc]
    new = {c: p * v for c, v in row.items()} if p != 1 else dict(row)
    for c, v in prow.items():
        nv = new.get(c, 0) - q * v
        if nv:
            new[c] = nv
        else:
            del new[c]
    return _primitive(new) if new else new


def exact_kernel_basis(m: LinearMap) -> list[dict[int, int]]:
    """An integer basis of the rational kernel of a real integer map.

    Fraction-free Gauss-Jordan over Python ints.  Rows are taken in row
    order; a row's pivot is its smallest live column, and each new pivot is
    cleared from the earlier rows.  Every echelon row is kept primitive
    (its gcd divided out after each combination) with a positive pivot and
    zeros at the other pivot columns: it is its reduced row echelon row
    scaled to the smallest integer vector.  On an incidence matrix, which
    is totally unimodular, every pivot is 1 and every entry 0 or ±1.  The
    vector for free column f puts the lcm L of the pivots of the rows
    touching f at f and -a*(L//p) at each such pivot, then drops its
    content.  As the reduced echelon form is unique, this is the unique
    primitive integer kernel vector supported on f and the pivot columns
    with a positive entry at f.  Vectors follow the free columns; each has
    key f first, then its pivots in echelon order.
    """
    if m.has_imag():
        raise ValueError("kernel basis is only implemented for real integer maps")
    echelon: list[tuple[int, dict[int, int]]] = []
    for gaussian_row in _merged_gaussian_rows(m):
        row = {c: re for c, (re, _) in gaussian_row.items()}
        for pc, prow in echelon:
            if pc in row:
                row = _cleared(row, prow, pc)
        if not row:
            continue
        pc_new = min(row)
        g = gcd(*row.values())
        if row[pc_new] < 0:
            g = -g
        row = {c: v // g for c, v in row.items()}
        for k, (pc, erow) in enumerate(echelon):
            if pc_new in erow:
                echelon[k] = (pc, _cleared(erow, row, pc_new))
        echelon.append((pc_new, row))
    pivots = {pc for pc, _ in echelon}
    basis: list[dict[int, int]] = []
    for f in range(m.domain.dim):
        if f in pivots:
            continue
        touching = [(pc, prow) for pc, prow in echelon if f in prow]
        scale = lcm(*(prow[pc] for pc, prow in touching))
        vec = {f: scale}
        for pc, prow in touching:
            vec[pc] = -prow[f] * (scale // prow[pc])
        basis.append(_primitive(vec))
    return basis


def stack_columns(vectors: list[dict[int, int]], codomain: Space) -> LinearMap:
    """Assemble sparse integer vectors as the columns of a map from an index space."""
    entries = []
    for j, vec in enumerate(vectors):
        for r, v in vec.items():
            entries.append((r, j, v, 0))
    return LinearMap.from_entries(aux_space(len(vectors)), codomain, entries)
