"""Vectorized numpy kernels for the :class:`~repro.rand.Stream` hot paths.

The pure-Python draw loops in :mod:`repro.rand.core` / :mod:`.perm` /
:mod:`.sampling` are the **golden reference**; every kernel here must
produce byte-identical output (values *and* words consumed) and is pinned
against them by golden digests plus randomized cross-backend fuzz in
``tests/test_rand_kernels.py``.  The kernels only change *how fast* a
batch is drawn, never *what* is drawn, so a sweep's artifacts stay
canonical whether or not numpy is importable.

Gating: if numpy is missing — or ``REPRO_NO_NUMPY=1`` is set — ``_np``
stays ``None`` and every dispatch site falls back to the pure loops.
Dispatch is size-thresholded (:data:`MIN_BATCH`, :data:`FEISTEL_MIN_BATCH`,
:data:`PERM_MIN_BATCH`) because tiny batches are dominated by
array-construction overhead.

Bit-for-bit subtleties the implementations guard:

* uint64 wraparound is the *desired* semantics (SplitMix64 is mod-2^64
  arithmetic); ``np.errstate(over="ignore")`` silences the warnings.
* The Lemire ``ints`` map needs the high 64 bits of a 64×64 product;
  numpy has no 128-bit integers, so :func:`_mulhi` decomposes into 32-bit
  halves (every intermediate provably fits uint64).
* The Fisher–Yates index ``(x·(i+1)) >> 64`` of the small tables and of
  ``Stream.shuffle`` has a multiplier below ``2^32``, so two 32-bit
  partial products give it exactly (:func:`_mulhi_small`).
* The inverse-CDF draws compare ``(word >> 11) / 2^53 · total`` against
  the caller's cumulative weights: every step is one exactly rounded
  IEEE operation in both numpy and Python, and ``np.searchsorted`` with
  ``side="right"`` is ``bisect_right`` on the same floats.
* Word→bit unpacking goes through ``astype("<u8")`` so the byte order
  matches ``int.to_bytes(8, "little")`` on any host endianness.
* ``np.log`` (SIMD) may differ from ``math.log`` (libm) by a few ulps.
  For geometric gaps the float is truncated to an integer, so only draws
  *suspiciously close* to an integer boundary can disagree; those few are
  recomputed with ``math.log`` — the reference — before truncation.
"""

from __future__ import annotations

import math
import os

__all__ = [
    "FAIR_MIN_BATCH",
    "FEISTEL_MIN_BATCH",
    "MIN_BATCH",
    "PERM_CHUNK",
    "PERM_MIN_BATCH",
    "SHUFFLE_CHUNK",
    "available",
    "disabled",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_TWO53 = 9007199254740992.0

#: Batches below this size stay on the pure-Python loops: array setup and
#: the final ``tolist`` overhead beat the vector win for small k.  At the
#: threshold the kernels measure ~3x on one-word-per-draw ops (biased
#: coins, ints) and grow to ~10-30x by a few thousand draws.
MIN_BATCH = 128

#: Fair coins are already packed 64 to a word in pure Python, so the
#: kernel only wins once the word batch itself is large.
FAIR_MIN_BATCH = 2048

#: Feistel batch evaluation threshold: the cycle-walk loop costs a few
#: fancy-indexing passes per call, so small query sets stay scalar.
FEISTEL_MIN_BATCH = 256

#: Small-permutation batch threshold.  One pure Fisher–Yates table costs
#: ~15 µs at m=17 and ~70 µs at m=65; the kernel's fixed cost per call
#: breaks even at 3-4 tables and is 2-3x cheaper at 8 (~0.7 / ~1.6 µs per
#: table at 1024).
PERM_MIN_BATCH = 8

#: Fisher–Yates steps per :func:`shuffle_indices` call in
#: ``Stream.shuffle``: bounds the index list a large shuffle holds.
SHUFFLE_CHUNK = 65536

#: Tables built per kernel pass.  Bounds the K×(m-1) word and index
#: matrices (~3 MB at m=96) however many tables the caller asks for.
PERM_CHUNK = 1024


def _load_numpy():
    """Import numpy unless the escape hatch ``REPRO_NO_NUMPY=1`` is set."""
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


_np = _load_numpy()


def available() -> bool:
    """Whether the numpy backend is importable and not disabled."""
    return _np is not None


class disabled:
    """Context manager forcing the pure-Python paths (tests / benchmarks)."""

    def __enter__(self):
        global _np
        self._saved = _np
        _np = None
        return self

    def __exit__(self, *exc):
        global _np
        _np = self._saved
        return False


# ---------------------------------------------------------------------------
# SplitMix64 word generation
# ---------------------------------------------------------------------------


def _mix_inplace(np, x):
    """The SplitMix64 avalanche over a uint64 array, in place."""
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _words(np, key: int, counter: int, k: int):
    """PRF words at counters ``counter+1 .. counter+k`` as a uint64 array."""
    idx = np.arange(counter + 1, counter + k + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(key) + idx * np.uint64(_GOLDEN)
    return _mix_inplace(np, x)


def first_words(keys):
    """Each stream key's first PRF word ``mix(key + GOLDEN)``, as uint64.

    Mirrors ``Stream(key).next64()`` on a fresh stream, row by row.
    """
    np = _np
    with np.errstate(over="ignore"):
        x = np.asarray(keys, dtype=np.uint64) + np.uint64(_GOLDEN)
    return _mix_inplace(np, x)


def _mulhi(np, x, mult: int):
    """High 64 bits of ``x * mult`` per element (the Lemire range map).

    32-bit schoolbook decomposition; every intermediate fits uint64
    (checked in the tests across the extreme widths).
    """
    c32 = np.uint64(32)
    m32 = np.uint64(0xFFFFFFFF)
    y0 = np.uint64(mult & 0xFFFFFFFF)
    y1 = np.uint64(mult >> 32)
    x0 = x & m32
    x1 = x >> c32
    with np.errstate(over="ignore"):
        lo_lo = x0 * y0
        mid1 = x1 * y0 + (lo_lo >> c32)
        mid2 = x0 * y1 + (mid1 & m32)
        return x1 * y1 + (mid1 >> c32) + (mid2 >> c32)


def _mulhi_small(np, x, bound):
    """``(x * bound) >> 64`` per element for multipliers ``bound < 2^32``.

    With ``b < 2^32``, ``hi·b + ((lo·b) >> 32)`` stays below ``2^64``, and
    shifting it right by 32 gives exactly ``(x·b) >> 64``.
    """
    c32 = np.uint64(32)
    low = (x & np.uint64(0xFFFFFFFF)) * bound
    return ((x >> c32) * bound + (low >> c32)) >> c32


# ---------------------------------------------------------------------------
# batch draw kernels (mirror Stream.coins / Stream.ints / sampling)
# ---------------------------------------------------------------------------


def fair_coins(key: int, counter: int, k: int) -> tuple[list[bool], int]:
    """``k`` fair coins, 64 packed per word — mirrors ``Stream.coins(k, 0.5)``.

    Returns ``(flips, words_consumed)``.
    """
    np = _np
    nwords = (k + 63) >> 6
    w = _words(np, key, counter, nwords)
    # "<u8" fixes the byte order to little-endian before the uint8 view, so
    # bit i of word j lands at flat position 64*j + i exactly like the pure
    # path's to_bytes(8, "little") + LSB-first byte table.
    bits = np.unpackbits(w.astype("<u8").view(np.uint8), bitorder="little")
    return bits[:k].astype(bool).tolist(), nwords


def biased_coins(
    key: int, counter: int, k: int, threshold: int
) -> tuple[list[bool], int]:
    """``k`` biased coins at one word each — mirrors ``Stream.coins(k, p)``.

    ``threshold`` is the caller-computed ``int(p * 2**53)``; the caller
    guarantees ``0 <= threshold < 2**64`` (out-of-range p falls back to
    the pure loop, which handles it with bigint compares).
    """
    np = _np
    w = _words(np, key, counter, k)
    return ((w >> np.uint64(11)) < np.uint64(threshold)).tolist(), k


def ints(
    key: int, counter: int, k: int, low: int, width: int
) -> tuple[list[int], int]:
    """``k`` uniform ints in ``[low, low+width)`` — mirrors ``Stream.ints``.

    Caller guarantees ``1 <= width < 2**64``.
    """
    np = _np
    w = _words(np, key, counter, k)
    hi = _mulhi(np, w, width)
    if width <= (1 << 63) and -(1 << 63) <= low and low + width <= (1 << 63):
        # Everything representable in int64: add in numpy, one C tolist.
        out = (hi.astype(np.int64) + np.int64(low)).tolist()
    else:
        # Extreme ranges: exact Python adds on the (exact) uint64 values.
        out = [low + v for v in hi.tolist()]
    return out, k


def geometric(key: int, counter: int, m: int, p: float) -> tuple[list[int], int]:
    """Geometric gap-skipping Bernoulli sample — mirrors ``geometric_indices``.

    Caller guarantees ``0 < p < 1`` and ``m > 0``.  Returns the sorted
    included indices and the words consumed (one per index + the final
    overshoot word).
    """
    np = _np
    inv_log_q = 1.0 / math.log1p(-p)
    out: list[int] = []
    i = 0
    consumed = 0
    while True:
        expect = p * (m - i)
        batch = max(32, int(expect + 8.0 * math.sqrt(expect + 1.0)) + 8)
        w = _words(np, key, counter + consumed, batch)
        # u on (0, 1] exactly as the pure path: (word >> 11) < 2^53 is
        # exactly representable, +1.0 and the power-of-two divide are exact.
        u = ((w >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53
        x = np.log(u) * inv_log_q
        # Gaps beyond m overshoot regardless; clamping keeps int64 safe for
        # pathologically tiny p without changing the cutoff position.
        x = np.minimum(x, float(m))
        gaps = x.astype(np.int64)
        # ulp fixup: np.log and math.log may round differently; only draws
        # within ~1e-12 relative of an integer boundary can truncate
        # differently, and those are recomputed with the reference libm.
        frac = x - np.floor(x)
        tol = 1e-12 * (np.abs(x) + 1.0)
        suspicious = np.nonzero((frac < tol) | (1.0 - frac < tol))[0]
        for j in suspicious.tolist():
            gaps[j] = min(int(math.log(float(u[j])) * inv_log_q), m)
        positions = np.cumsum(gaps) + np.arange(len(gaps), dtype=np.int64) + i
        hits = np.nonzero(positions >= m)[0]
        if hits.size:
            cut = int(hits[0])
            out.extend(positions[:cut].tolist())
            return out, consumed + cut + 1
        out.extend(positions.tolist())
        i = int(positions[-1]) + 1
        consumed += batch


def shuffle_indices(key: int, counter: int, top: int, count: int) -> list[int]:
    """Swap indices of ``count`` Fisher–Yates steps of ``Stream.shuffle``.

    Entry ``t`` is step ``i = top - t``'s index ``j = (word·(i+1)) >> 64``
    in ``[0, i]``, its word drawn at counter ``counter + 1 + t``: the
    ``_below(i + 1)`` calls of the pure loop, in its order.  The caller
    guarantees ``1 <= count <= top < 2^32 - 1`` and consumes ``count``
    words.
    """
    np = _np
    w = _words(np, key, counter, count)
    bounds = np.arange(top + 1, top + 1 - count, -1, dtype=np.uint64)
    return _mulhi_small(np, w, bounds).tolist()


def inverse_cdf(key: int, counter: int, k: int, cum_weights) -> list[int]:
    """``k`` weighted indices — mirrors ``Stream.weighted_indices``.

    Draw ``t`` is ``min(bisect_right(cum, u·cum[-1]), len(cum) - 1)``
    for the unit float ``u = (word >> 11) / 2^53`` at counter ``counter +
    1 + t``.  The caller guarantees finite weights and consumes ``k``
    words.
    """
    np = _np
    cum = np.asarray(cum_weights, dtype=np.float64)
    w = _words(np, key, counter, k)
    x = (w >> np.uint64(11)).astype(np.float64) / _TWO53 * cum_weights[-1]
    out = np.searchsorted(cum, x, side="right")
    return np.minimum(out, len(cum) - 1).tolist()


def dense_mask(m: int, indices) -> list[bool]:
    """Dense boolean mask over ``range(m)`` from sorted included indices."""
    np = _np
    mask = np.zeros(m, dtype=bool)
    if len(indices):
        mask[np.asarray(indices, dtype=np.int64)] = True
    return mask.tolist()


# ---------------------------------------------------------------------------
# batched Feistel evaluation (mirrors FeistelPermutation encrypt/decrypt)
# ---------------------------------------------------------------------------


def _feistel_rounds(np, x, half_bits: int, half_mask: int, round_keys, forward: bool):
    """One full pass of the 4-round network over a uint64 array."""
    h = np.uint64(half_bits)
    mask = np.uint64(half_mask)
    left = x >> h
    right = x & mask
    if forward:
        for rk in round_keys:
            with np.errstate(over="ignore"):
                f = _mix_inplace(np, np.uint64(rk) ^ right) & mask
            left, right = right, left ^ f
    else:
        for rk in reversed(round_keys):
            with np.errstate(over="ignore"):
                f = _mix_inplace(np, np.uint64(rk) ^ left) & mask
            left, right = right ^ f, left
    return (left << h) | right


def feistel_batch(perm, xs, forward: bool) -> list[int]:
    """Evaluate ``perm[x]`` (or ``index_of``) for every ``x`` in ``xs``.

    Cycle-walks the shrinking out-of-range subset exactly like the scalar
    loop: a walked value re-enters the network until it lands in
    ``[0, m)``, and walks are independent per element, so the vectorized
    result is identical by construction.
    """
    np = _np
    m = perm.m
    vals = np.asarray(list(xs), dtype=np.uint64)
    out = np.zeros(len(vals), dtype=np.int64)
    pending = np.arange(len(vals), dtype=np.int64)
    h, mask, keys = perm._half_bits, perm._half_mask, perm._round_keys
    while pending.size:
        vals = _feistel_rounds(np, vals, h, mask, keys, forward)
        done = vals < np.uint64(m)
        out[pending[done]] = vals[done].astype(np.int64)
        keep = ~done
        pending = pending[keep]
        vals = vals[keep]
    return out.tolist()


# ---------------------------------------------------------------------------
# batched small permutations (mirrors SmallPermutation._build, m > 12)
# ---------------------------------------------------------------------------


def small_permutation_tables(keys, m: int) -> bytes:
    """The Fisher–Yates tables of ``SmallPermutation(key, m)``, one per key.

    Mirrors the ``m > 12`` branch of ``SmallPermutation._build``; the
    caller guarantees ``13 <= m <= 255``, so every entry fits one byte.
    Returns one ``len(keys) × m`` row-major blob: row ``r`` (bytes
    ``r·m`` to ``(r+1)·m``) is key ``r``'s table, indexed like the list
    the pure path builds.  ``keys`` is a list of ints or a uint64 array;
    it is processed :data:`PERM_CHUNK` rows at a time.
    """
    np = _np
    return b"".join(
        _small_tables_chunk(np, keys[start:start + PERM_CHUNK], m)
        for start in range(0, len(keys), PERM_CHUNK)
    )


def _small_tables_chunk(np, keys, m: int) -> bytes:
    k = len(keys)
    # Row i-1 holds swap step i for every key (column = key): the word
    # mix(key + i·GOLDEN) and its index j = (word·(i+1)) >> 64 in [0, i].
    steps = np.arange(1, m, dtype=np.uint64)
    with np.errstate(over="ignore"):
        words = (
            np.asarray(keys, dtype=np.uint64)[None, :]
            + (steps * np.uint64(_GOLDEN))[:, None]
        )
    _mix_inplace(np, words)
    js = _mulhi_small(np, words, (steps + np.uint64(1))[:, None])
    # Flat offsets into the transposed m×k table, so the table row for
    # position i is contiguous and step i swaps it with a gathered row.
    offsets = js.astype(np.intp) * k + np.arange(k, dtype=np.intp)[None, :]
    table = np.empty((m, k), dtype=np.uint8)
    table[:] = np.arange(m, dtype=np.uint8)[:, None]
    flat = table.reshape(-1)
    for i in range(m - 1, 0, -1):
        at_j = offsets[i - 1]
        row = table[i]
        saved = row.copy()
        row[:] = flat[at_j]
        flat[at_j] = saved
    return table.T.tobytes()
