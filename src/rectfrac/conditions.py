"""Finite-family estimators of the structural constants of a weight.

Every constant is an extremum over the standard truncated family of
product dyadic rectangles (levels 0..K), reported together with a
witness that reproduces the extremal ratio, the number of tuples
scanned and the truncation depth.  The restriction to the lattice
family is a measurement limitation and is always surfaced through
those fields.

Every constant runs through one scan, ``_scan``, over ``(key, array)``
entries: the first extremum of each array, kept only when strictly
better than the best so far.  So ties go to the first extremal
rectangle in ``level_combos`` order, then direction j, then row-major
index within the level's array.  Each public constant is one such
scan, its input check first: ``condition_d_constant`` and
``carleson_testing_constant`` are each one descendant power scan.
What the levels beyond the truncation could add to either is a
separate function of the reverse doubling report,
``tail_bound(reverse, decay_exp)``, so a caller that already holds
that report scans reverse doubling once.

Conventions for degenerate masses follow the definitions read
literally: the doubling scan reports +inf when a child has zero mass
under a positive parent (the weight fails doubling, and the witness
says where), while 0/0 pairs are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import DyadicCube, cube_to_json, rect_to_json, standard_rect
from .operators import ExponentError, RectKernel, _check_pq, _neg_power, \
    _powers, check_mlinear_exponents, level_combos
from .weights import Weight, _check_same_grid, _sum_blocks


@dataclass
class ConstantReport:
    """One measured constant with its extremal witness."""

    name: str
    value: float
    witness: dict | None
    family_size: int
    depth: int
    params: dict = field(default_factory=dict)
    per_factor: tuple[float, ...] | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": "inf" if math.isinf(self.value) else self.value,
            "witness": self.witness,
            "family_size": self.family_size,
            "depth": self.depth,
            "params": self.params,
            "per_factor": None if self.per_factor is None else [
                "inf" if math.isinf(v) else v for v in self.per_factor],
        }


def _scan(entries, start: float, minimize: bool = False):
    """First extremum over ``(key, array)`` entries, read in order.

    Each array gives its first extremum (``np.argmax``, or ``np.argmin``
    when minimizing), which replaces the best so far only when strictly
    better; the best starts at ``start``.  Returns the best
    ``(value, key, flat index, shape)`` -- key None when no entry beat
    ``start`` -- and the number of array elements scanned.  No array is
    kept past its own scan.
    """
    pick = np.argmin if minimize else np.argmax
    best, scanned = (start, None, 0, ()), 0
    for key, arr in entries:
        flat = int(pick(arr))
        val = float(arr.flat[flat])
        scanned += arr.size
        if (val < best[0]) if minimize else (val > best[0]):
            best = (val, key, flat, arr.shape)
    return best, scanned


def _halving_scan(w: Weight, name: str, minimize: bool) -> ConstantReport:
    """Extremal mass ratio parent/child over all one-direction halvings.

    One scan per direction j gives ``per_factor[j]``; the overall best
    is the best of those, ties going to the smallest ``(levels, j)``.
    """
    cfg = w.config
    K, n = cfg.depth, cfg.n_factors
    skip = math.inf if minimize else -1.0

    def ratios(j):
        for levels in level_combos(cfg):
            if levels[j] >= K:
                continue
            child = w.mass_tree[levels[:j] + (levels[j] + 1,)
                                + levels[j + 1:]]
            parent = w.mass_tree[levels]
            for ax in cfg.factor_axes(j):
                parent = np.repeat(parent, 2, axis=ax)
            pos = child > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                arr = np.where(pos, parent / np.where(pos, child, 1.0),
                               np.where(parent > 0, math.inf, skip))
            yield levels, arr

    bests, counts = zip(*(_scan(ratios(j), skip, minimize) for j in range(n)))
    sign = 1.0 if minimize else -1.0
    # a None key comes only with the start value, which every hit beats
    j = min(range(n), key=lambda i: (sign * bests[i][0], bests[i][1] or ()))
    value, levels, flat, shape = bests[j]
    wit = None
    if levels is not None:
        c_idx = np.unravel_index(flat, shape)
        j_axes = cfg.factor_axes(j)
        parent_idx = tuple(int(v) // 2 if ax in j_axes else int(v)
                           for ax, v in enumerate(c_idx))
        child = DyadicCube(levels[j] + 1,
                           tuple(int(c_idx[ax]) for ax in j_axes))
        wit = {"rect": rect_to_json(standard_rect(cfg, levels, parent_idx)),
               "j": j, "child": cube_to_json(child)}
    return ConstantReport(name, value, wit, sum(counts), K,
                          per_factor=tuple(best[0] for best in bests))


def doubling_constant(w: Weight) -> ConstantReport:
    """Largest sigma(R) / sigma(<R; Q, j>) over one-direction halvings.

    +inf (with witness) when some halving child carries zero mass under
    a positive parent; 0/0 pairs are skipped.
    """
    return _halving_scan(w, "doubling", minimize=False)


def reverse_doubling_constant(w: Weight) -> ConstantReport:
    """Smallest sigma(R) / sigma(<R; Q, j>) over one-direction halvings.

    Always >= 1 on the lattice family since children are subsets.
    """
    return _halving_scan(w, "reverse_doubling", minimize=True)


def _descendant_power_scan(w: Weight, expo: float, name: str,
                           params: dict) -> ConstantReport:
    """Largest truncated descendant power sum over sigma(R)**expo.

    For each rectangle and direction j, sums sigma(<R; Q, j>)**expo over
    every dyadic descendant Q of the j-th side down to the configured
    depth, including the side itself, and divides by sigma(R)**expo.
    Every level of the mass tree is raised to ``expo`` once per scan.
    """
    cfg = w.config
    K, n = cfg.depth, cfg.n_factors
    powered = _powers(w.mass_tree, expo)

    def ratios():
        for levels in level_combos(cfg):
            base = w.mass_tree[levels]
            for j in range(n):
                acc = np.zeros_like(base)
                for l in range(levels[j], K + 1):
                    arr = powered[levels[:j] + (l,) + levels[j + 1:]]
                    block = 1 << (l - levels[j])
                    for ax in cfg.factor_axes(j):
                        arr = _sum_blocks(arr, ax, block)
                    acc = acc + arr
                pos = base > 0
                yield (levels, j), np.where(
                    pos, acc / np.where(pos, powered[levels], 1.0), -1.0)

    (best, key, flat, shape), scanned = _scan(ratios(), -1.0)
    wit = None if key is None else {"rect": rect_to_json(standard_rect(
        cfg, key[0], np.unravel_index(flat, shape))), "j": key[1]}
    return ConstantReport(name, best, wit, scanned, K, params)


def tail_bound(reverse: ConstantReport, decay_exp: float) -> float | None:
    """Geometric bound on what levels beyond the truncation could add.

    ``reverse`` is a reverse doubling report.  If its constant is
    gamma > 1, each extra relative level contributes at most
    gamma**(-l * decay_exp) to any scanned ratio, so the dropped tail is
    bounded by r/(1-r) with r = gamma**(-decay_exp); None otherwise.
    The decay is eps for ``condition_d_constant`` and q/p - 1 for
    ``carleson_testing_constant``.  gamma is always finite: the level-0
    rectangle carries the positive total mass, and the tree builds each
    parent as the sum of its ``2**d_j`` children in direction j, so the
    largest child is positive and gives a ratio of at most ``2**d_j``;
    gamma is the minimum over all ratios.
    """
    if not reverse.value > 1.0:
        return None
    r = reverse.value ** (-decay_exp)
    return r / (1.0 - r)


def _positive_eps(eps: float) -> float:
    """A summability power as a float, refused unless positive."""
    if not eps > 0:
        raise ExponentError(f"eps must be positive, got {eps}")
    return float(eps)


def condition_d_constant(w: Weight, eps: float) -> ConstantReport:
    """Summability testing constant with power 1 + eps over descendants."""
    eps = _positive_eps(eps)
    return _descendant_power_scan(w, 1.0 + eps, "condition_d", {"eps": eps})


def carleson_testing_constant(w: Weight, p: float, q: float) -> ConstantReport:
    """Testing constant with power q/p over descendants, 1 < p < q."""
    _check_pq(p, q)
    return _descendant_power_scan(w, q / p, "carleson_testing",
                                  {"p": float(p), "q": float(q)})


def fp_constant(kernel, weights, exponents) -> ConstantReport:
    """Largest K(R) * prod_k sigma_k(R)**(1/p_k') over the standard family."""
    if len(weights) != len(exponents) or not weights:
        raise ValueError("need one exponent per weight")
    cfg = _check_same_grid(*weights)
    kernel = RectKernel.coerce(kernel, cfg)
    ps = check_mlinear_exponents(exponents)
    conj_exps = [1.0 - 1.0 / p for p in ps]

    def products():
        for levels in level_combos(cfg):
            arr = kernel.tables[levels]
            for w, ce in zip(weights, conj_exps):
                arr = arr * _neg_power(w.mass_tree[levels], ce)
            yield levels, arr

    (best, levels, flat, shape), scanned = _scan(products(), -1.0)
    wit = None if levels is None else {"rect": rect_to_json(standard_rect(
        cfg, levels, np.unravel_index(flat, shape)))}
    return ConstantReport("fefferman_phong", max(best, 0.0), wit, scanned,
                          cfg.depth, {"exponents": list(ps)})
