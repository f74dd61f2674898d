"""Finite-family estimators of the structural constants of a weight.

Every constant is an extremum over the standard truncated family of
product dyadic rectangles (levels 0..K), reported together with a
witness that reproduces the extremal ratio, the number of tuples
scanned and the truncation depth.  The restriction to the lattice
family is a measurement limitation and is always surfaced through
those fields.

Conventions for degenerate masses follow the definitions read
literally: the doubling scan reports +inf when a child has zero mass
under a positive parent (the weight fails doubling, and the witness
says where), while 0/0 pairs are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import DyadicCube, GridConfig, cube_to_json, rect_to_json, \
    standard_rect
from .operators import ExponentError, RectKernel, _neg_power, \
    check_mlinear_exponents, level_combos
from .weights import Weight, _sum_blocks


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
    tail_bound: float | None = None

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
            "tail_bound": self.tail_bound,
        }


def _expand_parent(config: GridConfig, arr: np.ndarray, j: int) -> np.ndarray:
    for ax in config.factor_axes(j):
        arr = np.repeat(arr, 2, axis=ax)
    return arr


def _child_witness(config: GridConfig, levels, j: int, flat: int,
                   child_shape) -> dict:
    c_idx = np.unravel_index(flat, child_shape)
    j_axes = set(config.factor_axes(j))
    parent_idx = tuple(int(v) // 2 if ax in j_axes else int(v)
                       for ax, v in enumerate(c_idx))
    rect = standard_rect(config, levels, parent_idx)
    child = DyadicCube(levels[j] + 1,
                       tuple(int(c_idx[ax]) for ax in config.factor_axes(j)))
    return {"rect": rect_to_json(rect), "j": j, "child": cube_to_json(child)}


def _halving_scan(w: Weight, minimize: bool):
    """Extremal mass ratio parent/child over all one-direction halvings."""
    cfg = w.config
    K, n = cfg.depth, cfg.n_factors
    skip = math.inf if minimize else -1.0
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)
    best = math.inf if minimize else -1.0
    best_wit = None
    per_factor = [math.inf if minimize else -1.0] * n
    scanned = 0
    for levels in level_combos(cfg):
        parent_arr = w.mass_tree[levels]
        for j in range(n):
            if levels[j] >= K:
                continue
            child_levels = levels[:j] + (levels[j] + 1,) + levels[j + 1:]
            child_arr = w.mass_tree[child_levels]
            parent_exp = _expand_parent(cfg, parent_arr, j)
            scanned += child_arr.size
            pos = child_arr > 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    pos, parent_exp / np.where(pos, child_arr, 1.0),
                    np.where(parent_exp > 0, math.inf, skip))
            flat = int(np.argmin(ratios) if minimize else np.argmax(ratios))
            val = float(ratios.flat[flat])
            if better(val, per_factor[j]):
                per_factor[j] = val
            if better(val, best):
                best = val
                best_wit = _child_witness(cfg, levels, j, flat,
                                          child_arr.shape)
    return best, best_wit, scanned, tuple(per_factor)


def doubling_constant(w: Weight) -> ConstantReport:
    """Largest sigma(R) / sigma(<R; Q, j>) over one-direction halvings.

    +inf (with witness) when some halving child carries zero mass under
    a positive parent; 0/0 pairs are skipped.
    """
    value, wit, scanned, per_factor = _halving_scan(w, minimize=False)
    return ConstantReport("doubling", value, wit, scanned, w.config.depth,
                          per_factor=per_factor)


def reverse_doubling_constant(w: Weight) -> ConstantReport:
    """Smallest sigma(R) / sigma(<R; Q, j>) over one-direction halvings.

    Always >= 1 on the lattice family since children are subsets.
    """
    value, wit, scanned, per_factor = _halving_scan(w, minimize=True)
    return ConstantReport("reverse_doubling", value, wit, scanned,
                          w.config.depth, per_factor=per_factor)


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
    best = -1.0
    best_wit = None
    scanned = 0
    powered = {lv: arr ** expo for lv, arr in w.mass_tree.items()}
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
            scanned += base.size
            pos = base > 0
            ratios = np.where(
                pos, acc / np.where(pos, powered[levels], 1.0), -1.0)
            flat = int(np.argmax(ratios))
            val = float(ratios.flat[flat])
            if val > best:
                best = val
                rect = standard_rect(cfg, levels,
                                     np.unravel_index(flat, base.shape))
                best_wit = {"rect": rect_to_json(rect), "j": j}
    return ConstantReport(name, best, best_wit, scanned, K, params)


def _reverse_tail_bound(w: Weight, decay_exp: float) -> float | None:
    """Geometric bound on what levels beyond the truncation could add.

    If the measured reverse doubling constant is gamma > 1, each extra
    relative level contributes at most gamma**(-l * decay_exp) to any
    scanned ratio, so the dropped tail is bounded by r/(1-r) with
    r = gamma**(-decay_exp).
    """
    gamma = reverse_doubling_constant(w).value
    if not gamma > 1.0:
        return None
    if math.isinf(gamma):
        return 0.0
    r = gamma ** (-decay_exp)
    return r / (1.0 - r)


def condition_d_constant(w: Weight, eps: float) -> ConstantReport:
    """Summability testing constant with power 1 + eps over descendants."""
    if not eps > 0:
        raise ExponentError(f"eps must be positive, got {eps}")
    rep = _descendant_power_scan(w, 1.0 + float(eps), "condition_d",
                                 {"eps": float(eps)})
    rep.tail_bound = _reverse_tail_bound(w, float(eps))
    return rep


def _carleson_scan(w: Weight, p: float, q: float) -> ConstantReport:
    """``carleson_testing_constant`` without its tail bound."""
    if not (1.0 < p < q < math.inf):
        raise ExponentError(f"need 1 < p < q < inf, got p={p}, q={q}")
    return _descendant_power_scan(w, q / p, "carleson_testing",
                                  {"p": float(p), "q": float(q)})


def carleson_testing_constant(w: Weight, p: float, q: float) -> ConstantReport:
    """Testing constant with power q/p over descendants, 1 < p < q."""
    rep = _carleson_scan(w, p, q)
    rep.tail_bound = _reverse_tail_bound(w, q / p - 1.0)
    return rep


def fp_constant(kernel, weights, exponents) -> ConstantReport:
    """Largest K(R) * prod_k sigma_k(R)**(1/p_k') over the standard family."""
    if len(weights) != len(exponents) or not weights:
        raise ValueError("need one exponent per weight")
    cfg = weights[0].config
    for w in weights[1:]:
        if w.config != cfg:
            raise ValueError("weights live on different grids")
    kernel = RectKernel.coerce(kernel, cfg)
    ps = check_mlinear_exponents(exponents)
    conj_exps = [1.0 - 1.0 / p for p in ps]
    best = -1.0
    best_wit = None
    scanned = 0
    for levels in level_combos(cfg):
        arr = kernel.tables[levels].copy()
        for w, ce in zip(weights, conj_exps):
            arr = arr * _neg_power(w.mass_tree[levels], ce)
        scanned += arr.size
        flat = int(np.argmax(arr))
        val = float(arr.flat[flat])
        if val > best:
            best = val
            rect = standard_rect(cfg, levels,
                                 np.unravel_index(flat, arr.shape))
            best_wit = {"rect": rect_to_json(rect)}
    return ConstantReport("fefferman_phong", max(best, 0.0), best_wit,
                          scanned, cfg.depth,
                          {"exponents": [float(p) for p in ps]})
