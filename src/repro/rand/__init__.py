"""``repro.rand`` — counter-based splittable randomness.

The randomness substrate under every protocol in the library:

* :class:`Stream` — a SplitMix64 counter-mode PRF keyed by
  ``(seed, label path)``; ``derive(label)`` splits off independent child
  streams in O(1) *without consuming parent state*, so sibling
  sub-protocols never depend on derivation order (and parallel or
  sharded sweeps stay reproducible).
* Lazy permutations (:func:`make_permutation`) — ``perm[i]`` and
  ``perm.index_of(x)`` on demand via a Feistel network with cycle
  walking; no O(m) shuffle when only a few positions are read.
  :func:`permutations` draws one per stream for a whole parallel
  fan-out, building the small tables in one numpy batch.
* Geometric-skip sparse sampling (:meth:`Stream.sample_indices`) and
  batch draw primitives (:meth:`Stream.coins`, :meth:`Stream.ints`).
* :class:`LegacyTape` — the old ``random.Random`` tape behind the new
  API, kept solely as the baseline for ``python -m repro bench --rand``.

Every call site in the library speaks this API directly (the deprecated
``PublicRandomness`` compatibility shim has been retired).
"""

from . import kernels
from .core import (
    Label,
    RandomSource,
    Stream,
    as_random,
    derived_random,
    mix64,
    stable_label_hash,
)
from .legacy import LegacyTape
from .perm import (
    SMALL_THRESHOLD,
    FeistelPermutation,
    Permutation,
    SmallPermutation,
    make_permutation,
    permutations,
)
from .sampling import geometric_indices

__all__ = [
    "FeistelPermutation",
    "Label",
    "LegacyTape",
    "Permutation",
    "RandomSource",
    "SMALL_THRESHOLD",
    "SmallPermutation",
    "Stream",
    "as_random",
    "derived_random",
    "geometric_indices",
    "kernels",
    "make_permutation",
    "mix64",
    "permutations",
    "stable_label_hash",
]
