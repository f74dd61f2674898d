"""The keyed-hash random kernel that earlier versions drew, as a reference.

Tests whose pinned numbers came from that kernel build it from these
tables with ``RectKernel(cfg, tables)``.
"""

import hashlib

import numpy as np

from rectfrac import operators


def _per_cell_random_uniform(cfg, seed):
    """One keyed blake2b digest per table entry, scaled into [0, 1)."""
    key = int(seed).to_bytes(8, "little", signed=True)
    tables = {}
    for levels in operators.level_combos(cfg):
        shape = tuple(1 << k for k in operators._axis_levels(cfg, levels))
        arr = np.empty(shape)
        for idx in np.ndindex(shape):
            token = repr((levels, idx)).encode()
            h = hashlib.blake2b(token, digest_size=8, key=key).digest()
            arr[idx] = int.from_bytes(h, "little") / 2.0 ** 64
        tables[levels] = arr
    return tables
