"""``repro.rand`` — counter-based splittable randomness.

The randomness substrate under every protocol in the library:

* :class:`Stream` — a SplitMix64 counter-mode PRF keyed by
  ``(seed, label path)``; ``derive(label)`` splits off independent child
  streams in O(1) *without consuming parent state*, so sibling
  sub-protocols never depend on derivation order (and parallel or
  sharded sweeps stay reproducible).  :func:`derive_keys` computes the
  child keys of a whole batch of int labels at once (one uint64 array),
  for fan-outs that need the keys but no stream objects.
* Lazy permutations (:func:`make_permutation`) — ``perm[i]`` and
  ``perm.index_of(x)`` on demand via a Feistel network with cycle
  walking; no O(m) shuffle when only a few positions are read.
  :func:`permutations` draws one per stream for a whole parallel
  fan-out, building the small tables in one numpy batch;
  :func:`.perm.permutation_tables` builds the tables of a fan-out's
  stream keys as one byte matrix.
* Geometric-skip sparse sampling (:meth:`Stream.sample_indices`) and
  batch draw primitives (:meth:`Stream.coins`, :meth:`Stream.ints`).

Every call site in the library speaks this API directly (the deprecated
``PublicRandomness`` compatibility shim has been retired).
"""

from . import kernels
from .core import (
    Label,
    RandomSource,
    Stream,
    as_random,
    derive_keys,
    derived_random,
    mix64,
    stable_label_hash,
)
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
    "Permutation",
    "RandomSource",
    "SMALL_THRESHOLD",
    "SmallPermutation",
    "Stream",
    "as_random",
    "derive_keys",
    "derived_random",
    "geometric_indices",
    "kernels",
    "make_permutation",
    "mix64",
    "permutations",
    "stable_label_hash",
]
