"""Term vocabulary for text documents.

Each latent topic owns a Zipfian distribution over a shared vocabulary.
Documents draw terms from the mixture defined by their latent topic vector,
so term overlap between two documents correlates with latent relevance —
which is exactly the signal text matching algorithms can exploit, corrupted
by vocabulary noise.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, cast

import numpy as np

from repro.data.topics import TopicSpace
from repro.sim.rng import ScopedStreams


class Vocabulary:
    """A topic-conditioned Zipfian vocabulary.

    Parameters
    ----------
    topic_space:
        The shared latent topic space.
    streams:
        RNG scope used to build per-topic term distributions.
    vocabulary_size:
        Number of distinct terms.
    zipf_exponent:
        Skew of each topic's term distribution (1.0 ≈ natural language).
    terms_per_topic:
        How many vocabulary slots each topic's distribution concentrates on.
    """

    def __init__(
        self,
        topic_space: TopicSpace,
        streams: ScopedStreams,
        vocabulary_size: int = 2000,
        zipf_exponent: float = 1.1,
        terms_per_topic: int = 150,
    ):
        if vocabulary_size < terms_per_topic:
            raise ValueError("vocabulary_size must be >= terms_per_topic")
        self.topic_space = topic_space
        self.vocabulary_size = vocabulary_size
        self.terms: List[str] = [f"w{i:05d}" for i in range(vocabulary_size)]
        self._term_index: Dict[str, int] = {
            term: index for index, term in enumerate(self.terms)
        }
        self._topic_term_probs = self._build_topic_distributions(
            streams, zipf_exponent, terms_per_topic
        )
        # Precomputed so topic_posterior gathers rather than re-logs.
        self._log_term_probs = np.log(self._topic_term_probs + 1e-12)

    def _build_topic_distributions(
        self, streams: ScopedStreams, zipf_exponent: float, terms_per_topic: int
    ) -> np.ndarray:
        """Build an (n_topics, vocabulary_size) matrix of term probabilities."""
        rng = streams.stream("vocabulary")
        n_topics = self.topic_space.n_topics
        probs = np.zeros((n_topics, self.vocabulary_size))
        ranks = np.arange(1, terms_per_topic + 1, dtype=float)
        zipf_weights = 1.0 / ranks**zipf_exponent
        zipf_weights /= zipf_weights.sum()
        for topic_index in range(n_topics):
            slots = rng.choice(
                self.vocabulary_size, size=terms_per_topic, replace=False
            )
            probs[topic_index, slots] = zipf_weights
        # A small uniform smoothing models domain-independent stopwords.
        probs = 0.95 * probs + 0.05 / self.vocabulary_size
        return probs / probs.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    def sample_terms(
        self,
        latent: np.ndarray,
        rng: np.random.Generator,
        length: int = 120,
    ) -> Dict[str, int]:
        """Draw a bag of terms for a document with topic vector ``latent``."""
        latent = self.topic_space.normalize(latent)
        mixture = latent @ self._topic_term_probs
        mixture /= mixture.sum()
        counts = rng.multinomial(length, mixture)
        present = counts.nonzero()[0]
        terms = self.terms
        return {
            terms[index]: count
            for index, count in zip(present.tolist(), counts[present].tolist())
        }

    def _term_indices(self, terms: Dict[str, int]) -> Tuple[List[int], List[int]]:
        """In-vocabulary term indices and their counts, in bag order.

        A vocabulary term is looked up; any other string is read as
        ``int(term[1:])`` and kept when that index is in range (so ``w5``
        means ``w00005``).
        """
        indices = list(map(self._term_index.get, terms))
        if None not in indices:
            return cast(List[int], indices), list(terms.values())
        kept_indices: List[int] = []
        kept_counts: List[int] = []
        for index, (term, count) in zip(indices, terms.items()):
            if index is None:
                try:
                    index = int(term[1:])
                except (ValueError, IndexError):
                    continue
                if not 0 <= index < self.vocabulary_size:
                    continue
            kept_indices.append(index)
            kept_counts.append(count)
        return kept_indices, kept_counts

    def topic_posterior(self, terms: Dict[str, int]) -> np.ndarray:
        """Rough posterior over topics given a bag of terms.

        One EM-free estimate: normalised likelihood of each topic generating
        the bag, under an independence assumption.  Used by cross-type
        matching to lift text into the shared concept space.  The per-topic
        log term probabilities are precomputed, so a call is one gather and
        one einsum reduction instead of a Python loop over terms.
        """
        indices, counts = self._term_indices(terms)
        if not indices:
            n_topics = self.topic_space.n_topics
            return np.full(n_topics, 1.0 / n_topics)
        log_likelihood = np.einsum(
            "ij,j->i",
            self._log_term_probs[:, indices],
            np.asarray(counts, dtype=float),
        )
        log_likelihood -= log_likelihood.max()
        posterior = np.exp(log_likelihood)
        return posterior / posterior.sum()
