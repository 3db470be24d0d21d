"""Latent topic space underlying all synthetic information objects.

The paper's Open Agora trades heterogeneous objects — images of jewels,
auction catalogs, magazine articles — whose *meaning* must be comparable
across types.  We model meaning as a shared latent topic space: every item,
query and user interest is a point on the probability simplex over
``n_topics`` topics.  Ground-truth relevance between any two entities is a
function of their latent vectors, which gives experiments an oracle to
score against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

DEFAULT_TOPIC_NAMES = [
    "folk-jewelry",
    "traditional-costume",
    "dance-forms",
    "museum-exhibitions",
    "auction-market",
    "fashion-trends",
    "regional-history",
    "tourism",
    "craft-techniques",
    "academic-theses",
]


# The ufuncs behind ``ndarray.min/max/sum`` and ``np.clip(v, 0.0, None)``
# (numpy's ``_clip`` dispatches a one-sided clip to ``maximum``), called
# directly: the same loops and the same bits, without numpy's Python-level
# wrappers, which cost more than the arithmetic on a 10-topic vector.
_min = np.minimum.reduce
_max = np.maximum.reduce
_sum = np.add.reduce


def _checked_nonnegative(values: np.ndarray) -> np.ndarray:
    """``values`` clipped at 0, after checking every component.

    Raises ``ValueError`` for a component that is NaN, infinite or below
    ``-1e-12``.  The check is two reductions with no temporary array:
    the minimum is NaN, ``-inf`` or negative for every bad component but
    ``+inf``, which the maximum shows.
    """
    lowest = _min(values, axis=None)
    highest = _max(values, axis=None)
    if not (lowest >= -1e-12 and highest < np.inf):  # NaN fails both
        if np.isnan(lowest) or np.isinf(lowest) or np.isinf(highest):
            raise ValueError("topic vector has non-finite components")
        raise ValueError("topic vector has negative components")
    return np.maximum(values, 0.0)


class TopicSpace:
    """A fixed latent topic space shared by the whole agora.

    Parameters
    ----------
    n_topics:
        Dimensionality of the simplex.
    names:
        Optional human-readable topic names; generated when omitted.
    """

    def __init__(self, n_topics: int = 10, names: Optional[Sequence[str]] = None):
        if n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        self.n_topics = n_topics
        if names is None:
            base = DEFAULT_TOPIC_NAMES
            names = [
                base[i] if i < len(base) else f"topic-{i}" for i in range(n_topics)
            ]
        if len(names) != n_topics:
            raise ValueError("names length must equal n_topics")
        self.names: List[str] = list(names)

    # ------------------------------------------------------------------
    def validate(self, vector: np.ndarray) -> np.ndarray:
        """Check that ``vector`` is a valid point of this space.

        Components must be finite and not below ``-1e-12``; the result is
        ``vector`` with its tiny negatives clipped to 0.
        """
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.n_topics,):
            raise ValueError(
                f"expected shape ({self.n_topics},), got {vector.shape}"
            )
        return _checked_nonnegative(vector)

    def validate_many(self, vectors: Sequence[np.ndarray]) -> np.ndarray:
        """:meth:`validate` of many vectors, returned as one stacked matrix.

        Checks the stacked matrix once; an invalid input raises
        ``ValueError`` as :meth:`validate` does.
        """
        if len(vectors) == 0:
            return np.zeros((0, self.n_topics))
        matrix: Optional[np.ndarray]
        try:
            matrix = np.stack(vectors).astype(float, copy=False)
        except ValueError:  # ragged shapes: let the scalar check name one
            matrix = None
        if matrix is None or matrix.shape[1:] != (self.n_topics,):
            for vector in vectors:
                self.validate(vector)
            raise ValueError(f"expected vectors of shape ({self.n_topics},)")
        return _checked_nonnegative(matrix)

    def normalize(self, vector: np.ndarray) -> np.ndarray:
        """Project ``vector`` onto the simplex (L1-normalise, clip at 0)."""
        vector = self.validate(vector)
        total = _sum(vector)
        if total <= 0:
            return np.full(self.n_topics, 1.0 / self.n_topics)
        return vector / total

    def sample(
        self,
        rng: np.random.Generator,
        concentration: float = 0.3,
        prior: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw a topic vector from a Dirichlet distribution.

        ``concentration`` < 1 yields peaked (specialised) vectors;
        larger values yield diffuse ones.  ``prior`` biases the draw
        towards a given mixture.
        """
        return rng.dirichlet(self.dirichlet_alpha(concentration, prior))

    def dirichlet_alpha(
        self, concentration: float, prior: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The Dirichlet parameter :meth:`sample` draws with."""
        if prior is None:
            return np.full(self.n_topics, concentration)
        prior = self.normalize(prior)
        return concentration * self.n_topics * prior + 1e-3

    def relevance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Ground-truth relevance between two latent vectors in [0, 1].

        Cosine similarity of simplex points; both arguments are validated.
        """
        a = self.validate(a)
        b = self.validate(b)
        na = np.linalg.norm(a)
        nb = np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.0
        return float(np.dot(a, b) / (na * nb))

    def relevance_many(
        self, a: np.ndarray, vectors: Sequence[np.ndarray]
    ) -> np.ndarray:
        """:meth:`relevance` of ``a`` against each of ``vectors``, bitwise.

        ``a`` is validated once and ``vectors`` as one stacked matrix, but
        the arithmetic stays the scalar one per row: ``np.dot(a, row)``
        over ``‖a‖·‖row‖``.  A matrix product or ``einsum`` would pick its
        own summation order and differ in the last bit for some rows.  Row
        norms are ``sqrt(row.dot(row))``, which is how ``np.linalg.norm``
        computes the norm of a 1-D float vector.
        """
        a = self.validate(a)
        matrix = self.validate_many(vectors)
        na = np.linalg.norm(a)
        if na == 0:
            return np.zeros(matrix.shape[0])
        dots = np.array([np.dot(a, row) for row in matrix], dtype=float)
        norms = np.sqrt(np.array([row.dot(row) for row in matrix], dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            relevances = dots / (na * norms)
        return np.where(norms == 0, 0.0, relevances)

    def basis(self, topic: str, weight: float = 1.0) -> np.ndarray:
        """Return a vector concentrated on ``topic``.

        The remaining mass (``1 - weight``) is spread uniformly.
        """
        if topic not in self.names:
            raise KeyError(f"unknown topic {topic!r}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight must be in [0, 1]")
        index = self.names.index(topic)
        vector = np.full(self.n_topics, (1.0 - weight) / self.n_topics)
        vector[index] += weight
        return vector / vector.sum()

    def __repr__(self) -> str:
        return f"TopicSpace(n_topics={self.n_topics})"
