"""Deterministic random-number streams for reproducible simulation.

Every stochastic component in the library draws from a *named child stream*
of a single root seed.  Two runs with the same root seed produce identical
results regardless of the order in which components were created, because
each stream is derived from the root seed and the stream's name alone.

Draw accounting
---------------
Every generator handed out by :meth:`RngStreams.stream` is wrapped in a
:class:`CountingGenerator`: a transparent proxy that counts each draw call
per stream name with **zero bitstream change** (the proxy invokes the very
same methods on the very same underlying generator).  The counters make a
run's randomness consumption attributable — the flight recorder
(:mod:`repro.obs.flight`) snapshots them per event so the divergence
debugger can name the exact streams whose consumption forked between two
runs.

Example
-------
>>> streams = RngStreams(seed=42)
>>> a = streams.stream("network.latency")
>>> b = streams.stream("sources.availability")
>>> a is streams.stream("network.latency")
True
>>> _ = a.random(3)
>>> streams.draw_counts()["network.latency"]
1
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterator, cast

import numpy as np

#: ``numpy.random.Generator`` methods that consume bits from the stream.
#: Attribute access to anything else passes through the counting proxy
#: untouched (``bit_generator``, ``spawn``, dunders, ...).
DRAW_METHODS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "f", "gamma", "geometric", "gumbel",
        "hypergeometric", "integers", "laplace", "logistic", "lognormal",
        "logseries", "multinomial", "multivariate_hypergeometric",
        "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "normal", "pareto",
        "permutation", "permuted", "poisson", "power", "random",
        "rayleigh", "shuffle", "standard_cauchy", "standard_exponential",
        "standard_gamma", "standard_normal", "standard_t", "triangular",
        "uniform", "vonmises", "wald", "weibull", "zipf",
    }
)


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``.

    The derivation is stable across platforms and Python versions: it hashes
    the UTF-8 encoding of the name together with the root seed using SHA-256
    and keeps the low 64 bits.
    """
    payload = f"{root_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


class CountingGenerator:
    """A transparent draw-counting proxy around one ``numpy`` generator.

    Draw methods (see :data:`DRAW_METHODS`) are wrapped so each *call*
    increments the owning registry's per-stream counter before delegating
    to the untouched underlying generator — the produced bitstream is
    bit-for-bit what the raw generator would produce.  Wrapped methods
    are cached in the instance ``__dict__`` on first access, so the
    ``__getattr__`` indirection is paid once per method name, not per
    draw.
    """

    def __init__(
        self, generator: np.random.Generator, owner: "RngStreams", name: str
    ) -> None:
        self._generator = generator
        self._owner = owner
        self._name = name

    @property
    def raw(self) -> np.random.Generator:
        """The unwrapped underlying generator (escape hatch)."""
        return self._generator

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._generator, attr)
        if attr in DRAW_METHODS:
            owner, name = self._owner, self._name

            def counted(*args: Any, **kwargs: Any) -> Any:
                owner._count_draw(name)
                return value(*args, **kwargs)

            counted.__name__ = attr
            # Cache the bound wrapper: later accesses hit the instance
            # dict directly and never re-enter __getattr__.
            self.__dict__[attr] = counted
            return counted
        return value

    def __repr__(self) -> str:
        return f"CountingGenerator({self._name!r})"


class RngStreams:
    """A registry of named, independently seeded ``numpy`` generators.

    Parameters
    ----------
    seed:
        The root seed.  All child streams are pure functions of this seed
        and their name.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._draw_counts: Dict[str, int] = {}
        self._draw_total = 0

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = self._new(name)
        return self._streams[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``, resetting any prior state.

        The generator is handed to the caller and not retained: a caller
        deriving one stream per item (feature-extraction noise) would
        otherwise keep every item's generator alive for the whole run.  A
        later :meth:`stream` of the same name starts from the seed again.
        Draw counters are cumulative across ``fresh`` resets: a draw is a
        draw, whichever incarnation of the stream produced it.
        """
        self._streams.pop(name, None)
        return self._new(name)

    def _new(self, name: str) -> np.random.Generator:
        """A counting generator at the start of ``name``'s stream."""
        self._draw_counts.setdefault(name, 0)
        return cast(
            np.random.Generator,
            CountingGenerator(
                np.random.default_rng(derive_seed(self.seed, name)), self, name
            ),
        )

    def names(self) -> Iterator[str]:
        """Iterate over the names of retained streams (sorted).

        Streams handed out by :meth:`fresh` are not retained and not
        listed; their draws still show in :meth:`draw_counts`.
        """
        return iter(sorted(self._streams))

    def spawn(self, prefix: str) -> "ScopedStreams":
        """Return a view that prefixes every stream name with ``prefix``."""
        return ScopedStreams(self, prefix)

    # -- draw accounting ---------------------------------------------------
    def _count_draw(self, name: str) -> None:
        self._draw_counts[name] += 1
        self._draw_total += 1

    @property
    def draw_total(self) -> int:
        """Total draw calls across every stream (cheap: one int read)."""
        return self._draw_total

    def draw_counts(self) -> Dict[str, int]:
        """Per-stream draw-call counts, sorted by stream name.

        Streams that were created but never drawn from report 0 — an
        *unconsumed* stream is itself diagnostic.
        """
        return {name: self._draw_counts[name] for name in sorted(self._draw_counts)}

    def reset(self) -> None:
        """Drop every stream and zero all draw accounting.

        After a reset the registry behaves exactly like a freshly
        constructed ``RngStreams(seed)``: the same stream names replay
        the same bitstreams from the start.
        """
        self._streams.clear()
        self._draw_counts.clear()
        self._draw_total = 0

    def __repr__(self) -> str:
        return f"RngStreams(seed={self.seed}, streams={len(self._streams)})"


class ScopedStreams:
    """A prefixed view over an :class:`RngStreams` registry.

    Components receive a scoped view so that their stream names cannot
    collide with other components' names.
    """

    def __init__(self, parent: RngStreams, prefix: str):
        self._parent = parent
        self._prefix = prefix

    @property
    def seed(self) -> int:
        """The root seed of the underlying registry."""
        return self._parent.seed

    def stream(self, name: str) -> np.random.Generator:
        """The named generator (prefix applied)."""
        return self._parent.stream(f"{self._prefix}.{name}")

    def fresh(self, name: str) -> np.random.Generator:
        """A reset named generator (prefix applied)."""
        return self._parent.fresh(f"{self._prefix}.{name}")

    def spawn(self, prefix: str) -> "ScopedStreams":
        """A nested scope with an extended prefix."""
        return ScopedStreams(self._parent, f"{self._prefix}.{prefix}")

    def draw_counts(self) -> Dict[str, int]:
        """Draw counts of the streams under this scope's prefix.

        Keys keep their full (prefixed) names so they line up with
        :meth:`RngStreams.draw_counts` and flight-recorder checkpoints.
        """
        prefix = f"{self._prefix}."
        return {
            name: count
            for name, count in self._parent.draw_counts().items()
            if name.startswith(prefix)
        }

    def __repr__(self) -> str:
        return f"ScopedStreams(prefix={self._prefix!r}, seed={self.seed})"
