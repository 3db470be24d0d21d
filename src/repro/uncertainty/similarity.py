"""Similarity primitives over vectors and term bags.

These are the low-level metrics the matching engines build on.  All of
them return values in [0, 1] where 1 means identical, so scores can
later be calibrated to probabilities.

Dot products go through :func:`dot_kernel` / :func:`batch_dot_kernel`
(``np.einsum``), never BLAS: ``M @ v`` is *not* bitwise-identical to its
per-row dot products (BLAS picks different accumulation kernels for gemv
and dot), while einsum computes each output element with one fixed
reduction regardless of batch size.  That property is what lets the
batched matchers guarantee *exact* float parity with the pairwise path.
Text bags follow the same rule with their own kernel: :class:`TermColumns`
accumulates each row's dot product sequentially in sorted term order,
exactly as :func:`bag_cosine` does.
"""

from __future__ import annotations

import functools
from typing import Dict, Mapping, NamedTuple, Sequence

import numpy as np


def dot_kernel(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two 1-D vectors, bitwise-stable under batching.

    ``dot_kernel(M[i], v) == batch_dot_kernel(M, v)[i]`` exactly, which
    BLAS (``np.dot``/``@``) does not guarantee.
    """
    return float(np.einsum("j,j->", a, b))


def batch_dot_kernel(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Row-wise dot products of ``matrix`` against ``vector``.

    Each row's result is bitwise-identical to ``dot_kernel(row, vector)``.
    """
    if matrix.shape[0] == 0:
        return np.zeros(0)
    return np.einsum("ij,j->i", matrix, vector)


def nonnegative_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine for non-negative vectors (already in [0, 1])."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.clip(dot_kernel(a, b) / (na * nb), 0.0, 1.0))


def batch_nonnegative_cosine(
    matrix: np.ndarray,
    row_norms: np.ndarray,
    vector: np.ndarray,
    vector_norm: float,
) -> np.ndarray:
    """Vectorized :func:`nonnegative_cosine` of each matrix row vs ``vector``.

    ``row_norms`` must hold ``np.linalg.norm(row)`` per row and
    ``vector_norm`` must be ``np.linalg.norm(vector)`` — they are taken as
    arguments so callers can cache them.  Result element ``i`` is bitwise
    equal to ``nonnegative_cosine(matrix[i], vector)``.
    """
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0)
    if vector_norm == 0:
        return np.zeros(n)
    dots = batch_dot_kernel(matrix, vector)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = np.clip(dots / (row_norms * vector_norm), 0.0, 1.0)
    return np.where(row_norms == 0, 0.0, cosines)


@functools.lru_cache(maxsize=4096, typed=True)
def _tf_weight(count: int) -> float:
    """``1 + log(count)``, memoised: bags repeat a few small counts.

    ``typed`` keeps ``3`` and ``np.float32(3)`` apart, whose logs differ.
    """
    return 1.0 + float(np.log(count))


def sublinear_tf(terms: Mapping[str, int]) -> Dict[str, float]:
    """Sublinear (1 + log) term-frequency weighting."""
    return {term: _tf_weight(count) for term, count in terms.items() if count > 0}


def bag_cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Cosine similarity of two sparse weighted bags, in [0, 1].

    The dot product accumulates over the shared keys in *sorted* order,
    one addition at a time, starting from 0.0.  Set iteration order
    follows per-process string-hash randomization and float addition is
    not associative, so an unsorted reduction can differ in the last ulp
    between two processes; a canonical order makes the score a pure
    function of the bags in every process.  The
    loop is explicit because ``sum()`` of floats is compensated
    (Neumaier) from Python 3.12 on, which would no longer be the
    sequential reduction :class:`TermColumns` performs.
    """
    if not a or not b:
        return 0.0
    dot = 0.0
    for key in sorted(set(a) & set(b)):
        dot += a[key] * b[key]
    norm_a = bag_norm(a)
    norm_b = bag_norm(b)
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return float(np.clip(dot / (norm_a * norm_b), 0.0, 1.0))


def bag_norm(bag: Mapping[str, float]) -> float:
    """Euclidean norm of a sparse weighted bag (cacheable per item)."""
    return float(np.sqrt(sum(v * v for v in bag.values())))


class CompactBag(NamedTuple):
    """A weighted term bag as two parallel arrays plus its norm.

    ``ids`` are interned term ids (see :class:`TermIds`) listed in
    *sorted term-string* order, ``weights`` the aligned float64 weights.
    ``norm`` is :func:`bag_norm` of the original mapping, in the
    mapping's own order, so it is the very float :func:`bag_cosine`
    computes.  A bag of 40 terms takes ~0.8 KB here against ~1.9 KB as a
    dict of boxed floats.
    """

    ids: np.ndarray
    weights: np.ndarray
    norm: float


class TermIds:
    """Interns term strings as dense int ids for :class:`CompactBag`.

    Ids only name terms; no score depends on their values, because every
    reduction runs in sorted term-*string* order.  Ids are comparable
    only between bags compacted by the same table.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}

    def compact(self, bag: Mapping[str, float]) -> CompactBag:
        """``bag`` as a :class:`CompactBag` (terms sorted by string)."""
        terms = sorted(bag)
        ids = self._ids
        return CompactBag(
            ids=np.fromiter(
                (ids.setdefault(term, len(ids)) for term in terms),
                dtype=np.int32,
                count=len(terms),
            ),
            weights=np.fromiter(
                (bag[term] for term in terms), dtype=np.float64, count=len(terms)
            ),
            norm=bag_norm(bag),
        )


def compact_cosine(a: CompactBag, b: CompactBag) -> float:
    """:func:`bag_cosine` of two compact bags from one :class:`TermIds`.

    The per-pair reference: walks ``a``'s terms in sorted order and
    accumulates the shared ones sequentially, as :func:`bag_cosine` does.
    """
    if a.norm == 0 or b.norm == 0:
        return 0.0
    other = dict(zip(b.ids.tolist(), b.weights.tolist()))
    dot = 0.0
    for term, weight in zip(a.ids.tolist(), a.weights.tolist()):
        shared = other.get(term)
        if shared is not None:
            dot += weight * shared
    return float(np.clip(dot / (a.norm * b.norm), 0.0, 1.0))


class TermColumns:
    """Column layout of many compact bags, for whole-batch text cosine.

    Row ``r`` is bag ``r``.  For every term id present, ``rows[indptr[c]:
    indptr[c + 1]]`` lists the rows holding term ``term_ids[c]`` and
    ``weights`` the aligned weights.  The layout is
    built with numpy sorts over the concatenated bag arrays, never from
    per-entry Python lists.

    :meth:`cosine` is bitwise :func:`bag_cosine` per row: it makes one
    numpy pass per query term, in the query's sorted term-string order,
    adding ``q_t * w_t`` into every row holding the term.  Each row thus
    sees the sequential sum over its shared terms in sorted order, the
    reduction :func:`bag_cosine` defines.  ``reduceat`` and BLAS would
    pick their own association and are not used.
    """

    __slots__ = ("term_ids", "indptr", "rows", "weights", "norms")

    def __init__(self, bags: Sequence[CompactBag]):
        n = len(bags)
        self.norms = np.array([bag.norm for bag in bags], dtype=np.float64)
        if n == 0:
            ids = np.zeros(0, dtype=np.int32)
            weights = np.zeros(0)
            lengths = np.zeros(0, dtype=np.intp)
        else:
            ids = np.concatenate([bag.ids for bag in bags])
            weights = np.concatenate([bag.weights for bag in bags])
            lengths = np.array([bag.ids.size for bag in bags], dtype=np.intp)
        rows = np.repeat(np.arange(n, dtype=np.int32), lengths)
        # Row order inside a column is free: a row holds a term once, so
        # each row's additions still follow the query's term order.
        order = np.argsort(ids)
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
        self.term_ids = sorted_ids[starts]
        self.indptr = np.append(starts, sorted_ids.size)
        self.rows = rows[order]
        self.weights = weights[order]

    def cosine(self, query: CompactBag) -> np.ndarray:
        """``bag_cosine(query, row)`` for every row, bitwise."""
        n = self.norms.size
        if n == 0 or query.norm == 0:
            return np.zeros(n)
        columns = np.searchsorted(self.term_ids, query.ids)
        found = columns < self.term_ids.size
        found[found] = self.term_ids[columns[found]] == query.ids[found]
        columns = columns[found]
        dots = np.zeros(n)
        for lo, hi, weight in zip(
            self.indptr[columns].tolist(),
            self.indptr[columns + 1].tolist(),
            query.weights[found].tolist(),
        ):
            dots[self.rows[lo:hi]] += weight * self.weights[lo:hi]
        with np.errstate(divide="ignore", invalid="ignore"):
            cosines = np.clip(dots / (query.norm * self.norms), 0.0, 1.0)
        return np.where(self.norms == 0, 0.0, cosines)
