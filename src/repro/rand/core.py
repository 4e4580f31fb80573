"""Counter-based splittable randomness — the :class:`Stream` core.

A :class:`Stream` is a pure function of a 64-bit *key*: the value at
counter ``i`` is ``mix64(key + (i+1)·GOLDEN)``, the SplitMix64 output
function over a Weyl sequence.  Two consequences drive the whole design:

* **Order-independent splitting.**  ``derive(label)`` produces a child
  stream whose key depends only on the parent key and the label — it does
  *not* consume parent state.  Sibling streams are therefore identical no
  matter in which order they are derived, and deriving never perturbs the
  parent's own draws.  (The old ``PublicRandomness.spawn`` consumed the
  parent tape via ``getrandbits``, so sibling sub-protocols depended on
  spawn call order — the bug this module fixes.)
* **Cheap instances.**  Creating or deriving a stream is a handful of
  integer operations — no Mersenne-Twister state initialisation — so
  per-vertex / per-iteration sub-streams cost ~O(1) instead of the
  ~2500-word ``random.Random`` re-seed they used to.

Both parties of a protocol hold streams with equal keys and execute the
same (common-knowledge) schedule, so every draw agrees without
communication — exactly the public-tape contract of the paper, Section
3.1.  All arithmetic is plain 64-bit integer math, so streams are
bit-for-bit reproducible across processes, platforms and Python versions
(pinned by the golden-digest tests).
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_right
from collections.abc import MutableSequence, Sequence
from typing import TypeVar, Union

from . import kernels as _kernels
from .perm import Permutation, make_permutation
from .sampling import geometric_indices

__all__ = [
    "Label",
    "RandomSource",
    "Stream",
    "as_random",
    "derive_keys",
    "derived_random",
    "mix64",
    "stable_label_hash",
]

T = TypeVar("T")

#: Accepted label atoms for :meth:`Stream.derive` (tuples may nest them).
Label = Union[str, int, tuple]

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: The SplitMix64 Weyl increment (golden-ratio odd constant).
GOLDEN = 0x9E3779B97F4A7C15
#: Domain-separation constants so seeds, labels, and permutation keys can
#: never collide by arithmetic accident.
_SEED_DOMAIN = 0x53454544D0A11CE5
_LABEL_DOMAIN = 0x1ABE1D0_5C0FFEE5
_INT_TAG = 0x1
_STR_TAG = 0x2

# 2^53 as a float divisor / threshold base for unit-interval draws.
_TWO53 = 9007199254740992.0
_TWO53_INT = 1 << 53

# Memoized string-label hashes (labels are protocol identifiers — a small,
# bounded vocabulary; the size cap only guards against pathological use).
_STR_HASH_CACHE: dict[str, int] = {}

# byte value -> its 8 bits as bools, LSB first (for packed fair coins).
_BYTE_BOOLS = tuple(
    tuple(bool((byte >> bit) & 1) for bit in range(8)) for byte in range(256)
)


def mix64(x: int) -> int:
    """SplitMix64's avalanche finalizer: a 64-bit bijective mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stable_label_hash(label: Label) -> int:
    """A process-independent 64-bit hash of a derivation label.

    Strings hash through CRC32 of the bytes (and their reverse, for the
    high word) — the same core the legacy tape's ``_stable_hash`` used —
    then through the mixer with a type tag; integers mix directly; tuples
    fold their elements.  The tagged mixing means the *values* differ
    from the legacy hash, so everything seeded by label (including the
    engine's default per-scenario seeds) changed once at the migration.
    """
    if isinstance(label, int):
        return mix64((label * GOLDEN) ^ _INT_TAG)
    if isinstance(label, str):
        data = label.encode("utf-8")
        word = (zlib.crc32(data) << 32) | zlib.crc32(data[::-1])
        return mix64(word ^ _STR_TAG)
    if isinstance(label, tuple):
        acc = _LABEL_DOMAIN
        for part in label:
            acc = mix64(acc ^ stable_label_hash(part))
        return acc
    raise TypeError(f"labels must be str, int, or tuples thereof, got {label!r}")


def derive_keys(parent, labels):
    """``[Stream(p).derive(label).key …]`` for a batch of int labels.

    ``parent`` is one stream key for every row, or a sequence of per-row
    keys as long as ``labels``.  Row ``i`` is the key :meth:`Stream.derive`
    gives the parent of row ``i`` for the int label ``labels[i]``: the
    two SplitMix64 steps ``mix((parent ^ _LABEL_DOMAIN) ^ mix((label ·
    GOLDEN) ^ _INT_TAG))``.  A batch of at least
    :data:`~repro.rand.kernels.PERM_MIN_BATCH` rows is computed as one
    uint64 array when numpy is available and returned as that array;
    otherwise each row is ``Stream.derive`` itself, returned as a list of
    ints.  The values are the same either way.  Labels must lie in
    ``[0, 2^64)``: ``derive`` reduces other ints mod ``2^64`` through its
    hash, which an array cannot mirror, so they raise ``ValueError``.
    """
    k = len(labels)
    per_row = not isinstance(parent, int)
    if per_row and len(parent) != k:
        raise ValueError(f"{len(parent)} parent keys for {k} labels")
    if k:
        if hasattr(labels, "dtype"):
            low, high = int(labels.min()), int(labels.max())
        else:
            low, high = min(labels), max(labels)
        if low < 0 or high > _MASK64:
            raise ValueError(f"int labels must lie in [0, 2^64), got {low}..{high}")
    np = _kernels._np
    if np is not None and k >= _kernels.PERM_MIN_BATCH:
        with np.errstate(over="ignore"):
            keys = np.asarray(labels, dtype=np.uint64) * np.uint64(GOLDEN)
        keys ^= np.uint64(_INT_TAG)
        _kernels._mix_inplace(np, keys)
        if per_row:
            keys ^= np.asarray(parent, dtype=np.uint64)
            keys ^= np.uint64(_LABEL_DOMAIN)
        else:
            keys ^= np.uint64((parent & _MASK64) ^ _LABEL_DOMAIN)
        return _kernels._mix_inplace(np, keys)
    if per_row:
        return [
            Stream(int(p)).derive(int(label)).key for p, label in zip(parent, labels)
        ]
    stream = Stream(parent)
    return [stream.derive(int(label)).key for label in labels]


def _seed_key(seed: int) -> int:
    """Map an arbitrary integer seed onto a well-mixed stream key."""
    return mix64((seed & _MASK64) ^ _SEED_DOMAIN)


class Stream:
    """A counter-based splittable random stream (SplitMix64 PRF).

    The stream's *key* identifies it completely; the *counter* is the
    only mutable state and advances one step per drawn 64-bit word.
    ``derive`` splits off child streams without touching the counter.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0) -> None:
        self.key = key & _MASK64
        self.counter = counter

    @classmethod
    def from_seed(cls, seed: int | None = 0, *labels: Label) -> "Stream":
        """The root stream for an experiment seed, optionally pre-derived.

        ``None`` draws a fresh entropy seed (stdlib convention — the run
        is then *not* reproducible); pass an int for determinism.
        """
        if seed is None:
            seed = random.randrange(1 << 64)
        stream = cls(_seed_key(seed))
        return stream.derive(*labels) if labels else stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream(key=0x{self.key:016x}, counter={self.counter})"

    # -- core draws --------------------------------------------------------

    def next64(self) -> int:
        """The next 64-bit word; advances the counter by one."""
        self.counter = counter = self.counter + 1
        x = (self.key + counter * GOLDEN) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return x ^ (x >> 31)

    def random(self) -> float:
        """A uniform float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next64() >> 11) / _TWO53

    def _below(self, n: int) -> int:
        """A uniform integer in ``[0, n)`` via the multiply-shift map."""
        return (self.next64() * n) >> 64

    # -- splitting ---------------------------------------------------------

    def derive(self, *labels: Label) -> "Stream":
        """A child stream for a labelled sub-task — pure, O(1).

        Does **not** consume parent state: deriving the same labels twice
        yields the same child, and sibling derivations are independent of
        call order.  Use distinct labels for distinct sub-protocols.

        The scalar reference for :func:`derive_keys`, which batches the
        int-label case for the Color-Sample fan-outs.  The int label
        hash is inlined and str label hashes are memoized (both must stay
        in lockstep with :func:`stable_label_hash`, pinned by the golden
        tests).
        """
        key = self.key ^ _LABEL_DOMAIN
        for label in labels:
            if type(label) is int:
                h = (label * GOLDEN) ^ _INT_TAG
                h &= _MASK64
                h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
                key ^= h ^ (h >> 31)
            elif type(label) is str:
                try:
                    key ^= _STR_HASH_CACHE[label]
                except KeyError:
                    h = stable_label_hash(label)
                    if len(_STR_HASH_CACHE) < 4096:
                        _STR_HASH_CACHE[label] = h
                    key ^= h
            else:
                key ^= stable_label_hash(label)
            key = ((key ^ (key >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            key = ((key ^ (key >> 27)) * 0x94D049BB133111EB) & _MASK64
            key ^= key >> 31
        return Stream(key)

    def derive_random(self, *labels: Label) -> random.Random:
        """A labelled private ``random.Random`` (for local solvers only).

        Protocol-visible draws should stay on streams; this exists for
        consumers like the list-coloring search that want the stdlib
        sampling helpers on a reproducibly derived seed.
        """
        return random.Random(self.derive(*labels).key)

    # -- scalar draws ------------------------------------------------------

    def coin(self, p: float = 0.5) -> bool:
        """One coin flip with success probability ``p``."""
        return (self.next64() >> 11) < int(p * _TWO53)

    def uniform_int(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self._below(high - low + 1)

    def choice(self, items: Sequence[T]) -> T:
        """A uniform element of a non-empty sequence."""
        if not items:
            raise IndexError("cannot choose from an empty sequence")
        return items[self._below(len(items))]

    # -- batch draws -------------------------------------------------------

    def coins(self, k: int, p: float = 0.5) -> list[bool]:
        """``k`` coin flips in one call.

        Fair coins (``p = 0.5``) are packed 64 to a PRF word — the word's
        bits unpacked LSB-first through a byte table, consuming
        ``ceil(k/64)`` counter steps; biased coins cost one word per flip
        like :meth:`coin`.  Large batches dispatch to the numpy kernels
        when available (:data:`repro.rand.kernels.MIN_BATCH` for biased,
        :data:`~repro.rand.kernels.FAIR_MIN_BATCH` for fair coins) — the
        output (values and words consumed) is bit-for-bit identical
        either way.
        """
        if k <= 0:
            return []
        if _kernels._np is not None:
            if p == 0.5:
                if k >= _kernels.FAIR_MIN_BATCH:
                    out, used = _kernels.fair_coins(self.key, self.counter, k)
                    self.counter += used
                    return out
            elif k >= _kernels.MIN_BATCH:
                threshold = int(p * _TWO53)
                if 0 <= threshold < (1 << 64):
                    out, used = _kernels.biased_coins(
                        self.key, self.counter, k, threshold
                    )
                    self.counter += used
                    return out
        key, counter = self.key, self.counter
        out: list[bool] = []
        if p == 0.5:
            byte_bools = _BYTE_BOOLS
            extend = out.extend
            words = (k + 63) >> 6
            for i in range(counter + 1, counter + words + 1):
                x = (key + i * GOLDEN) & _MASK64
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
                for byte in (x ^ (x >> 31)).to_bytes(8, "little"):
                    extend(byte_bools[byte])
            self.counter = counter + words
            del out[k:]
            return out
        threshold = int(p * _TWO53)
        append = out.append
        for i in range(counter + 1, counter + k + 1):
            x = (key + i * GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            append(((x ^ (x >> 31)) >> 11) < threshold)
        self.counter = counter + k
        return out

    def ints(self, k: int, low: int, high: int) -> list[int]:
        """``k`` uniform integers in ``[low, high]`` inclusive, batched."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        if k <= 0:
            return []
        width = high - low + 1
        if (
            _kernels._np is not None
            and k >= _kernels.MIN_BATCH
            and width < (1 << 64)
        ):
            out, used = _kernels.ints(self.key, self.counter, k, low, width)
            self.counter += used
            return out
        key, counter = self.key, self.counter
        out = []
        append = out.append
        for i in range(counter + 1, counter + k + 1):
            x = (key + i * GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            append(low + (((x ^ (x >> 31)) * width) >> 64))
        self.counter = counter + k
        return out

    # -- structured draws --------------------------------------------------

    def permutation(self, m: int) -> Permutation:
        """A lazy uniform-ish permutation of ``range(m)``.

        Consumes one counter word to key the permutation; positions are
        computed on demand (Feistel cycle-walking for large ``m``,
        materialize-on-first-access below the small-``m`` threshold), so
        reading a few positions never costs an O(m) shuffle.
        """
        return make_permutation(self.next64(), m)

    def shuffle(self, x: MutableSequence) -> None:
        """Shuffle the mutable sequence ``x`` in place, uniformly.

        Fisher–Yates from the back, one word per swap, like
        ``random.Random.shuffle``.  At :data:`~repro.rand.kernels.MIN_BATCH`
        items or more with numpy, the swap indices come from the kernel
        :data:`~repro.rand.kernels.SHUFFLE_CHUNK` steps at a time and only
        the swaps stay a loop; the result and the words consumed are the
        same.
        """
        size = len(x)
        if _kernels._np is not None and _kernels.MIN_BATCH <= size < (1 << 32):
            top = size - 1
            while top:
                count = min(top, _kernels.SHUFFLE_CHUNK)
                js = _kernels.shuffle_indices(self.key, self.counter, top, count)
                self.counter += count
                for i, j in zip(range(top, top - count, -1), js):
                    x[i], x[j] = x[j], x[i]
                top -= count
            return
        for i in range(size - 1, 0, -1):
            j = self._below(i + 1)
            x[i], x[j] = x[j], x[i]

    def shuffled(self, items: Sequence[T]) -> list[T]:
        """A uniform shuffle of ``items`` (original left untouched)."""
        out = list(items)
        self.shuffle(out)
        return out

    def weighted_indices(self, k: int, cum_weights: Sequence[float]) -> list[int]:
        """``k`` indices drawn with probability proportional to weight.

        ``cum_weights`` are the running sums of finite non-negative
        weights.  Each draw is one word: the index
        ``min(bisect_right(cum, random() · cum[-1]), len(cum) - 1)``, the
        inverse-CDF scheme of ``random.choices``.  Batches of at least
        :data:`~repro.rand.kernels.MIN_BATCH` draws dispatch to the numpy
        kernel, with the same values and words consumed.
        """
        if k <= 0:
            return []
        if _kernels._np is not None and k >= _kernels.MIN_BATCH:
            out = _kernels.inverse_cdf(self.key, self.counter, k, cum_weights)
            self.counter += k
            return out
        total = cum_weights[-1]
        hi = len(cum_weights) - 1
        return [
            min(bisect_right(cum_weights, self.random() * total), hi)
            for _ in range(k)
        ]

    def sample_indices(self, m: int, p: float) -> Sequence[int]:
        """Sorted indices of a Bernoulli(``p``) subset of ``range(m)``.

        Sparse draws use geometric gap-skipping — O(p·m) expected work —
        and ``p ≥ 1`` returns ``range(m)`` without consuming any draws
        (both parties skip identically, so the tape stays in lockstep).
        """
        if p >= 1.0:
            return range(m)
        if p <= 0.0 or m <= 0:
            return ()
        if _kernels._np is not None and p * m >= _kernels.MIN_BATCH:
            out, used = _kernels.geometric(self.key, self.counter, m, p)
            self.counter += used
            return out
        return geometric_indices(self, m, p)

    def sample_mask(self, m: int, p: float) -> list[bool]:
        """Dense boolean mask form of :meth:`sample_indices`."""
        if p >= 1.0:
            return [True] * m
        if p <= 0.0 or m <= 0:
            return [False] * m
        indices = self.sample_indices(m, p)
        if (
            _kernels._np is not None
            and m >= _kernels.MIN_BATCH
            and 4 * len(indices) >= m
        ):
            # Dense enough that the vectorized fill beats the pure loop;
            # sparse masks keep the [False]*m + spot-assign build, which
            # is near-optimal already.
            return _kernels.dense_mask(m, indices)
        mask = [False] * m
        for i in indices:
            mask[i] = True
        return mask


#: Anything the graph generators / partitioners accept as a randomness
#: source: a :class:`Stream` (adapted via :func:`as_random`) or a bare
#: stdlib ``random.Random``.
RandomSource = Union[Stream, random.Random]


def as_random(rng: RandomSource) -> random.Random:
    """Adapt a :class:`Stream` (or pass through a ``random.Random``).

    The one-line bridge that lets every ``rng``-taking public signature —
    the graph generators and partitioners — accept either substrate.  A
    ``Stream`` maps to a labelled private ``random.Random`` (the
    ``"as-random"`` derivation), so adapting never consumes stream state
    and adapting the same stream twice yields identical generators.
    """
    if isinstance(rng, Stream):
        return rng.derive_random("as-random")
    if isinstance(rng, random.Random):
        return rng
    raise TypeError(
        f"expected a Stream or random.Random, got {type(rng).__name__}"
    )


def derived_random(seed: int | None, *labels: Label) -> random.Random:
    """A ``random.Random`` on the stream key space: ``from_seed → derive``.

    The engine's per-coordinate seeding helper: order-independent in the
    label path and decoupled from every other labelled stream of the same
    seed.
    """
    return Stream.from_seed(seed).derive_random(*labels)
