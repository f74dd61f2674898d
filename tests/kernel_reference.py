"""References for tests of the kernels and the kernel form.

* The keyed-hash random kernel that earlier versions drew: tests whose
  pinned numbers came from that kernel build it from these tables with
  ``RectKernel(cfg, tables)``, the tables a ``LevelTree``.
* The kernel form without the plan: the dense ``kernel_matrix`` of a
  weight's unfactored twin, and a plain loop over cell pairs that calls
  ``pair_kernel`` (box sums, no code shared with the matrix rows).
"""

import hashlib
import math

import numpy as np

from rectfrac import Weight, pair_kernel
from rectfrac.weights import LevelTree
from rectfrac.operators import kernel_matrix


def _per_cell_random_uniform(cfg, seed):
    """One keyed blake2b digest per table entry, scaled into [0, 1)."""
    key = int(seed).to_bytes(8, "little", signed=True)
    tables = LevelTree(cfg)
    for levels, arr in tables.items():
        for idx in np.ndindex(arr.shape):
            token = repr((levels, idx)).encode()
            h = hashlib.blake2b(token, digest_size=8, key=key).digest()
            arr[idx] = int.from_bytes(h, "little") / 2.0 ** 64
    return tables


def _unfactored(w):
    """The same density as a hand-made weight, with no per-axis factors."""
    return Weight(w.config, w.density)


def dense_kernel_form(w, alpha, f):
    """The kernel form of f by the dense matrix of the unfactored twin."""
    A = kernel_matrix(_unfactored(w), alpha)
    return (A @ (f.values * w.cell_masses).ravel()).reshape(f.values.shape)


def pair_loop(w, alpha, f, rows):
    """The kernel form at the anchor cells ``rows`` (flat indices), pair by pair.

    Returns per row the sum of ``pair_kernel(x, y) f(y) mu(cell_y)`` over
    cell centres y, the count of pairs excluded for sharing a coordinate
    with x, and the count of zero-mass pairs, where ``pair_kernel`` is
    +inf and the term is left out.
    """
    shape = f.values.shape
    out = {}
    for r in rows:
        i = np.unravel_index(r, shape)
        x = tuple(2 * int(a) + 1 for a in i)
        total, excluded, zeros = 0.0, 0, 0
        for j in np.ndindex(shape):
            if any(a == b for a, b in zip(i, j)):
                excluded += 1
                continue
            k = pair_kernel(w, alpha, x, tuple(2 * b + 1 for b in j))
            if k == math.inf:
                zeros += 1
            else:
                total += k * f.values[j] * w.cell_masses[j]
        out[r] = (total, excluded, zeros)
    return out
