"""Lazy pseudorandom permutations of ``range(m)``.

:class:`FeistelPermutation` evaluates ``perm[i]`` and its inverse
``index_of(x)`` in O(1) per query — no O(m) shuffle — by running a
4-round balanced Feistel network over the smallest even-bit-width domain
``2^{2h} ≥ m`` and *cycle-walking* out-of-range values back into
``[0, m)``.  Because the domain is less than ``4m``, a walk takes under
four rounds in expectation, and the cycle-walked restriction of a
bijection is itself a bijection on ``[0, m)`` (for any ``m``, power of
two or not).

For small ``m`` the constant factors favor just materializing: a
Fisher–Yates table costs about the same as a handful of Feistel queries,
so :func:`make_permutation` returns a :class:`SmallPermutation` below
``SMALL_THRESHOLD`` — built lazily on first access, with the inverse
table built only if ``index_of`` is ever called.  Both back-ends are pure
functions of ``(key, m)``, so either side of a protocol computes the same
permutation without communication.

:func:`permutations` draws one permutation from each of many streams;
for a large enough batch of small tables it builds them all in one numpy
kernel instead of one Python Fisher–Yates loop each.
:func:`permutation_tables` builds the forward tables of a whole fan-out
as one byte matrix, one row per stream key, for callers that only need
the tables.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from . import kernels as _kernels

__all__ = [
    "FeistelPermutation",
    "Permutation",
    "SmallPermutation",
    "make_permutation",
    "permutation_tables",
    "permutations",
    "SMALL_THRESHOLD",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

#: Below this size a materialized table beats Feistel cycle-walking.
SMALL_THRESHOLD = 96

#: Feistel rounds — 4 gives full avalanche for a PRF round function.
_ROUNDS = 4

#: Up to 12!, a whole Lehmer code fits one 64-bit word with negligible
#: (< 2^-34) bias, so tiny permutations decode from a single PRF output.
_FACTORIALS = (1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800, 39916800, 479001600)
_LEHMER_MAX = 12


def _mix(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Permutation:
    """Common interface: ``perm[i]``, ``index_of``, iteration, ``materialize``."""

    __slots__ = ("m",)

    def __init__(self, m: int) -> None:
        if m < 0:
            raise ValueError(f"permutation size must be >= 0, got {m}")
        self.m = m

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, i: int) -> int:
        raise NotImplementedError

    def index_of(self, x: int) -> int:
        """The position ``i`` with ``perm[i] == x`` (the inverse map)."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[int]:
        return (self[i] for i in range(self.m))

    def batch(self, indices: Iterable[int]) -> list[int]:
        """``[perm[i] for i in indices]`` in one call.

        The base implementation is the scalar loop; the Feistel back-end
        overrides it with a vectorized network evaluation (identical
        values — the kernels are pinned against this loop).
        """
        return [self[i] for i in indices]

    def index_of_batch(self, values: Iterable[int]) -> list[int]:
        """``[perm.index_of(x) for x in values]`` in one call."""
        return [self.index_of(x) for x in values]

    def materialize(self) -> list[int]:
        """The full permutation as a list (forces all m evaluations)."""
        return [self[i] for i in range(self.m)]

    def _check(self, i: int) -> None:
        if not 0 <= i < self.m:
            raise IndexError(f"index {i} out of range for permutation of {self.m}")


class FeistelPermutation(Permutation):
    """Format-preserving 4-round Feistel permutation with cycle walking."""

    __slots__ = ("key", "_half_bits", "_half_mask", "_round_keys")

    def __init__(self, key: int, m: int) -> None:
        super().__init__(m)
        self.key = key & _MASK64
        # Smallest balanced domain 2^(2h) >= m; h >= 1 keeps the network
        # non-degenerate for m <= 2.
        bits = max(m - 1, 1).bit_length()
        half_bits = max(1, (bits + 1) // 2)
        self._half_bits = half_bits
        self._half_mask = (1 << half_bits) - 1
        self._round_keys = tuple(
            _mix(self.key ^ ((r + 1) * _GOLDEN)) for r in range(_ROUNDS)
        )

    def _encrypt(self, x: int) -> int:
        h, mask = self._half_bits, self._half_mask
        left, right = x >> h, x & mask
        for rk in self._round_keys:
            left, right = right, left ^ (_mix(rk ^ right) & mask)
        return (left << h) | right

    def _decrypt(self, x: int) -> int:
        h, mask = self._half_bits, self._half_mask
        left, right = x >> h, x & mask
        for rk in reversed(self._round_keys):
            left, right = right ^ (_mix(rk ^ left) & mask), left
        return (left << h) | right

    def __getitem__(self, i: int) -> int:
        self._check(i)
        x = self._encrypt(i)
        while x >= self.m:  # cycle-walk: E[steps] < 4 since domain < 4m
            x = self._encrypt(x)
        return x

    def index_of(self, x: int) -> int:
        self._check(x)
        i = self._decrypt(x)
        while i >= self.m:
            i = self._decrypt(i)
        return i

    def batch(self, indices: Iterable[int]) -> list[int]:
        indices = list(indices)
        if (
            _kernels._np is not None
            and len(indices) >= _kernels.FEISTEL_MIN_BATCH
        ):
            for i in indices:
                self._check(i)
            return _kernels.feistel_batch(self, indices, forward=True)
        return [self[i] for i in indices]

    def index_of_batch(self, values: Iterable[int]) -> list[int]:
        values = list(values)
        if (
            _kernels._np is not None
            and len(values) >= _kernels.FEISTEL_MIN_BATCH
        ):
            for x in values:
                self._check(x)
            return _kernels.feistel_batch(self, values, forward=False)
        return [self.index_of(x) for x in values]

    def materialize(self) -> list[int]:
        if _kernels._np is not None and self.m >= _kernels.FEISTEL_MIN_BATCH:
            return _kernels.feistel_batch(self, range(self.m), forward=True)
        return [self[i] for i in range(self.m)]


class SmallPermutation(Permutation):
    """Materialize-on-first-access Fisher–Yates table for small ``m``.

    Construction draws nothing; the forward table is built on the first
    query from the key's own SplitMix64 sequence, and the inverse table
    only if ``index_of`` is ever needed.  :func:`permutations` may hand
    in a forward table it built in a batch, as ``bytes`` (same entries).
    """

    __slots__ = ("key", "_forward", "_inverse")

    def __init__(self, key: int, m: int) -> None:
        super().__init__(m)
        self.key = key & _MASK64
        self._forward: list[int] | bytes | None = None
        self._inverse: list[int] | None = None

    def _build(self) -> list[int]:
        m = self.m
        forward = list(range(m))
        if m <= _LEHMER_MAX:
            # One PRF word -> Lehmer code -> Fisher-Yates swap sequence.
            x = (self.key + _GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            r = ((x ^ (x >> 31)) * _FACTORIALS[m]) >> 64
            for i in range(m - 1, 0, -1):
                r, j = divmod(r, i + 1)
                forward[i], forward[j] = forward[j], forward[i]
        else:
            key = self.key
            for i in range(m - 1, 0, -1):
                x = (key + i * _GOLDEN) & _MASK64
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
                j = ((x ^ (x >> 31)) * (i + 1)) >> 64
                forward[i], forward[j] = forward[j], forward[i]
        self._forward = forward
        return forward

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.m:
            raise IndexError(f"index {i} out of range for permutation of {self.m}")
        forward = self._forward
        return forward[i] if forward is not None else self._build()[i]

    def index_of(self, x: int) -> int:
        if not 0 <= x < self.m:
            raise IndexError(f"index {x} out of range for permutation of {self.m}")
        inverse = self._inverse
        if inverse is None:
            forward = self._forward
            if forward is None:
                forward = self._build()
            inverse = [0] * self.m
            for i, y in enumerate(forward):
                inverse[y] = i
            self._inverse = inverse
        return inverse[x]

    def materialize(self) -> list[int]:
        forward = self._forward
        return list(forward if forward is not None else self._build())


def make_permutation(key: int, m: int) -> Permutation:
    """The permutation of ``range(m)`` keyed by ``key``.

    Picks the back-end by size: a materialized table below
    :data:`SMALL_THRESHOLD`, the lazy Feistel network above it.  The
    *values* differ between back-ends, but the choice is a deterministic
    function of ``m``, so both protocol parties always agree.
    """
    if m <= SMALL_THRESHOLD:
        return SmallPermutation(key, m)
    return FeistelPermutation(key, m)


def permutations(streams: Sequence, m: int) -> list[Permutation]:
    """``[s.permutation(m) for s in streams]``, small tables built in one batch.

    It is that list: each stream's own ``permutation`` call draws its one
    key word, in order.  A :class:`~repro.rand.Stream` returns a lazy
    :class:`SmallPermutation` at these sizes, which draws nothing more;
    when every result is one, ``12 < m <= SMALL_THRESHOLD`` (the
    Fisher–Yates range) and the batch has at least
    :data:`~repro.rand.kernels.PERM_MIN_BATCH` entries, the numpy kernel
    builds all their forward tables up front as ``bytes`` rows.  The
    inverse is still built only if ``index_of`` is called.  Otherwise —
    no numpy, the Lehmer or Feistel sizes, or a stream-like object whose
    ``permutation`` returns any other type — the permutations stay as the
    streams returned them.
    """
    perms = [s.permutation(m) for s in streams]
    if (
        _kernels._np is not None
        and _LEHMER_MAX < m <= SMALL_THRESHOLD
        and len(perms) >= _kernels.PERM_MIN_BATCH
        and all(type(p) is SmallPermutation and p._forward is None for p in perms)
    ):
        tables = _kernels.small_permutation_tables([p.key for p in perms], m)
        for i, perm in enumerate(perms):
            perm._forward = tables[i * m:(i + 1) * m]
    return perms


def permutation_tables(keys: Sequence[int], m: int) -> bytes | None:
    """The forward tables of a fan-out's permutations, as one byte matrix.

    ``keys`` holds one stream key per row (a list of ints or a uint64
    array, such as :func:`~repro.rand.core.derive_keys` returns).  Row
    ``i`` of the returned ``len(keys) × m`` matrix is
    ``Stream(keys[i]).permutation(m).materialize()``: the permutation is
    keyed by the stream's first word ``mix(key + GOLDEN)``, but no stream
    or permutation object is built.  A batch of at least
    :data:`~repro.rand.kernels.PERM_MIN_BATCH` goes through the numpy
    kernels (first words and tables) when numpy is available, a smaller
    one through the pure Fisher–Yates loop.  ``None`` unless ``m`` is in
    the range that kernel mirrors (``12 < m <= SMALL_THRESHOLD``, so every
    entry fits one byte).
    """
    if not _LEHMER_MAX < m <= SMALL_THRESHOLD:
        return None
    if _kernels._np is not None and len(keys) >= _kernels.PERM_MIN_BATCH:
        return _kernels.small_permutation_tables(_kernels.first_words(keys), m)
    return b"".join(
        bytes(SmallPermutation(_mix(int(key) + _GOLDEN), m).materialize())
        for key in keys
    )
