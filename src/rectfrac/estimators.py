"""Lower-bound estimation of embedding and operator norms.

The workhorse is cyclic coordinate ascent (multilinear power iteration):
with every function but one frozen, the objective is a nonnegative
linear functional of the remaining one, whose exact maximizer on the
unit ball of L^p is a power of the functional's density.  Each step
therefore increases the objective, histories are non-decreasing, and
the reported value is a certified lower bound on the supremum -- never
a claim of the supremum itself.

Every run also scans indicator test functions of single rectangles,
which realize the single-rectangle testing value exactly; when that
beats the ascent, the ascent is restarted from the extremal indicator,
so reported values never fall below the testing constant.  (The
cell-quadrature kernel form excludes same-coordinate pairs, so the
indicator identity does not transfer to it; that form runs without the
restart.)

Determinism: for fixed inputs all computations are fixed-order numpy
reductions, so histories are reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .conditions import carleson_testing_constant, fp_constant
from .grids import rect_from_json
from .operators import (ExponentConfig, ExponentError, RectKernel,
                        _check_same_grid, _neg_power, _upsample,
                        check_mlinear_exponents, kernel_matrix, level_combos,
                        perez_maps, shifted_sum_map)
from .weights import GridFunction, Weight, build_mass_tree

OPERATOR_FORMS = ("dyadic", "perez", "kernel", "shifted-sum")


@dataclass
class NormEstimate:
    """A certified lower bound with its ascent trace."""

    value: float
    maximizers: tuple[GridFunction, ...]
    sweeps: int
    converged: bool
    history: list[float]
    seed: int
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"value": self.value, "sweeps": self.sweeps,
                "converged": self.converged, "history": self.history,
                "seed": self.seed, "params": self.params}


def _lp(cell_masses: np.ndarray, values: np.ndarray, p: float) -> float:
    return float(np.sum(values ** p * cell_masses)) ** (1.0 / p)


def _normalized(cell_masses, values, p):
    nrm = _lp(cell_masses, values, p)
    if nrm == 0.0:
        return None
    return values / nrm


def _ascend_multilinear(kernel: RectKernel, sigmas, ps, init, tol,
                        max_sweeps):
    """Cyclic exact coordinate maximization of the multilinear ratio."""
    cfg = sigmas[0].config
    combos = list(level_combos(cfg))
    cms = [w.cell_masses for w in sigmas]
    conj = [p / (p - 1.0) for p in ps]
    fs = []
    for f0, cm, p in zip(init, cms, ps):
        f = _normalized(cm, f0, p)
        if f is None:
            return [np.zeros_like(f0) for f0 in init], [0.0], 0, True
        fs.append(f)
    trees = [build_mass_tree(cfg, cm * f) for cm, f in zip(cms, fs)]

    def objective():
        tot = 0.0
        for lv in combos:
            arr = kernel.tables[lv].copy()
            for t in trees:
                arr *= t[lv]
            tot += float(arr.sum())
        return tot

    history: list[float] = []
    sweeps = 0
    converged = False
    while True:
        for j in range(len(fs)):
            grad = np.zeros_like(fs[j])
            for lv in combos:
                arr = kernel.tables[lv].copy()
                for k, t in enumerate(trees):
                    if k != j:
                        arr *= t[lv]
                grad += _upsample(cfg, arr)
            f = _normalized(cms[j], grad ** (conj[j] - 1.0), ps[j])
            if f is None:
                return fs, history or [0.0], sweeps, True
            fs[j] = f
            trees[j] = build_mass_tree(cfg, cms[j] * f)
        sweeps += 1
        history.append(objective())
        if len(history) >= 2 and \
                history[-1] - history[-2] <= tol * abs(history[-1]):
            converged = True
            break
        if sweeps >= max_sweeps:
            break
    return fs, history, sweeps, converged


def embed_norm_lower(kernel, sigmas, exponents, *, tol: float = 1e-9,
                     max_sweeps: int = 200, seed: int = 0,
                     warm_start=None) -> NormEstimate:
    """Lower bound on the least multilinear embedding constant.

    Starts from constants (or the given warm start), ascends to a
    stationary ratio, and compares against the single-rectangle testing
    value; if the latter wins, re-ascends from the extremal indicator
    functions.  The result is always >= the testing constant up to
    roundoff.
    """
    sigmas = tuple(sigmas)
    cfg = _check_same_grid(*sigmas)
    kernel = RectKernel.coerce(kernel, cfg)
    ps = check_mlinear_exponents(exponents)
    if len(ps) != len(sigmas):
        raise ValueError("need one exponent per weight")
    if warm_start is not None:
        init = [gf.values for gf in warm_start]
    else:
        init = [np.ones_like(w.density) for w in sigmas]
    fs, history, sweeps, converged = _ascend_multilinear(
        kernel, sigmas, ps, init, tol, max_sweeps)
    value = history[-1] if history else 0.0
    c2 = fp_constant(kernel, sigmas, ps)
    if c2.value > value and c2.value > 0 and c2.witness is not None:
        rect = rect_from_json(c2.witness["rect"])
        ind = GridFunction.indicator(cfg, rect).values
        fs2, h2, s2, conv2 = _ascend_multilinear(
            kernel, sigmas, ps, [ind.copy() for _ in sigmas], tol, max_sweeps)
        if h2 and h2[-1] >= value:
            fs, sweeps, converged = fs2, sweeps + s2, conv2
            history = history + h2
            value = h2[-1]
    maximizers = tuple(GridFunction(cfg, f) for f in fs)
    params = {"exponents": [float(p) for p in ps], "depth": cfg.depth,
              "c2": c2.value, "tol": tol, "max_sweeps": max_sweeps}
    return NormEstimate(value, maximizers, sweeps, converged, history,
                        seed, params)


def _ascend_bilinear(mu: Weight, p: float, q: float, forward, adjoint,
                     f0, g0, tol, max_sweeps):
    """Alternating exact maximization of <Tf, g> on unit p / q' balls."""
    cm = mu.cell_masses
    p_conj = p / (p - 1.0)
    q_conj = q / (q - 1.0)
    f = _normalized(cm, f0, p)
    g = _normalized(cm, g0, q_conj)
    if f is None or g is None:
        return f0, g0, [0.0], 0, True
    history: list[float] = []
    sweeps = 0
    converged = False
    while True:
        g_new = _normalized(cm, forward(f) ** (q - 1.0), q_conj)
        if g_new is None:
            return f, g, history or [0.0], sweeps, True
        g = g_new
        f_new = _normalized(cm, adjoint(g) ** (p_conj - 1.0), p)
        if f_new is None:
            return f, g, history or [0.0], sweeps, True
        f = f_new
        sweeps += 1
        history.append(float(np.sum(forward(f) * g * cm)))
        if len(history) >= 2 and \
                history[-1] - history[-2] <= tol * abs(history[-1]):
            converged = True
            break
        if sweeps >= max_sweeps:
            break
    return f, g, history, sweeps, converged


def operator_norm_lower(mu: Weight, alpha: float, p: float, q: float,
                        form: str = "dyadic", *, tol: float = 1e-9,
                        max_sweeps: int = 200, seed: int = 0,
                        warm_start=None) -> NormEstimate:
    """Lower bound on the L^p(mu) -> L^q(mu) norm of one operator form."""
    ec = ExponentConfig(float(alpha), float(p), float(q),
                        mu.config.total_dim)
    key = form.replace("_", "-")
    if key not in OPERATOR_FORMS:
        raise ValueError(f"unknown operator form {form!r}; "
                         f"choose from {OPERATOR_FORMS}")
    base_params = {"form": key, "alpha": ec.alpha, "p": ec.p, "q": ec.q,
                   "depth": mu.config.depth}
    if key == "dyadic":
        est = embed_norm_lower(RectKernel.hls(mu, ec.alpha), (mu, mu),
                               (ec.p, ec.q_conj), tol=tol,
                               max_sweeps=max_sweeps, seed=seed,
                               warm_start=warm_start)
        est.params.update(base_params)
        return est

    cfg = mu.config
    if key == "kernel":
        A = kernel_matrix(mu, ec.alpha)
        shape = mu.density.shape
        cm_flat = mu.cell_masses.ravel()

        def forward(fv):
            return (A @ (fv.ravel() * cm_flat)).reshape(shape)

        adjoint = forward  # the pair kernel is symmetric
    elif key == "perez":
        forward, adjoint = perez_maps(mu, ec.alpha)
    else:
        forward = adjoint = shifted_sum_map(mu, ec.alpha)

    if warm_start is not None:
        f0 = warm_start[0].values.copy()
        g0 = warm_start[1].values.copy() if len(warm_start) > 1 else f0.copy()
    else:
        f0 = np.ones_like(mu.density)
        g0 = np.ones_like(mu.density)
    f, g, history, sweeps, converged = _ascend_bilinear(
        mu, ec.p, ec.q, forward, adjoint, f0, g0, tol, max_sweeps)
    value = history[-1] if history else 0.0

    if key != "kernel":
        c2 = fp_constant(RectKernel.hls(mu, ec.alpha), (mu, mu),
                         (ec.p, ec.q_conj))
        if c2.value > value and c2.witness is not None:
            rect = rect_from_json(c2.witness["rect"])
            ind = GridFunction.indicator(cfg, rect).values
            f2, g2, h2, s2, conv2 = _ascend_bilinear(
                mu, ec.p, ec.q, forward, adjoint, ind.copy(), ind.copy(),
                tol, max_sweeps)
            if h2 and h2[-1] >= value:
                f, g, converged = f2, g2, conv2
                history = history + h2
                sweeps += s2
                value = h2[-1]

    maximizers = (GridFunction(cfg, f), GridFunction(cfg, g))
    return NormEstimate(value, maximizers, sweeps, converged, history,
                        seed, base_params)


def carleson_norm_lower(sigma: Weight, p: float, q: float, *,
                        tol: float = 1e-9, max_sweeps: int = 200,
                        seed: int = 0, warm_start=None) -> NormEstimate:
    """Lower bound on the least embedding constant of the averaging sum.

    Maximizes sum_R sigma(R)**(q/p - q) (int_R f dsigma)**q over the
    unit ball of L^p(sigma), f >= 0.  The functional is convex, so the
    linearized exact step ascends.
    """
    p, q = float(p), float(q)
    if not (1.0 < p < q < math.inf):
        raise ExponentError(f"need 1 < p < q < inf, got p={p}, q={q}")
    cfg = sigma.config
    combos = list(level_combos(cfg))
    cm = sigma.cell_masses
    p_conj = p / (p - 1.0)
    a_tables = {lv: _neg_power(sigma.mass_tree[lv], q / p - q)
                for lv in combos}

    def run(f0):
        f = _normalized(cm, f0, p)
        if f is None:
            return f0, [0.0], 0, True
        history: list[float] = []
        sweeps = 0
        converged = False
        while True:
            tree = build_mass_tree(cfg, cm * f)
            phi = 0.0
            grad = np.zeros_like(f)
            for lv in combos:
                integ = tree[lv]
                phi += float((a_tables[lv] * integ ** q).sum())
                grad += _upsample(cfg, a_tables[lv] * integ ** (q - 1.0))
            history.append(phi)
            if len(history) >= 2 and \
                    history[-1] - history[-2] <= tol * abs(history[-1]):
                converged = True
                break
            if sweeps >= max_sweeps:
                break
            f_new = _normalized(cm, grad ** (p_conj - 1.0), p)
            if f_new is None:
                break
            f = f_new
            sweeps += 1
        return f, history, sweeps, converged

    f0 = warm_start[0].values.copy() if warm_start else np.ones_like(sigma.density)
    f, history, sweeps, converged = run(f0)
    value = history[-1] if history else 0.0
    c2 = carleson_testing_constant(sigma, p, q)
    if c2.value > value and c2.witness is not None:
        rect = rect_from_json(c2.witness["rect"])
        f2, h2, s2, conv2 = run(GridFunction.indicator(cfg, rect).values.copy())
        if h2 and h2[-1] >= value:
            f, converged = f2, conv2
            history = history + h2
            sweeps += s2
            value = h2[-1]
    params = {"p": p, "q": q, "depth": cfg.depth, "c2": c2.value,
              "tol": tol, "max_sweeps": max_sweeps}
    return NormEstimate(value, (GridFunction(cfg, f),), sweeps, converged,
                        history, seed, params)


# ---------------------------------------------------------------------------
# Depth sweeps


@dataclass(frozen=True)
class SweepRow:
    depth: int
    c2: float
    c1_hat: float
    ratio: float
    seconds: float


def rows_to_csv(rows) -> str:
    lines = ["K,c2,c1_hat,ratio,seconds"]
    for r in rows:
        lines.append(f"{r.depth},{r.c2!r},{r.c1_hat!r},{r.ratio!r},"
                     f"{r.seconds!r}")
    return "\n".join(lines) + "\n"


def depth_sweep(task: str, depths, *, weight: Weight | None = None,
                weights=None, alpha: float | None = None,
                p: float | None = None, q: float | None = None,
                form: str = "dyadic", exponents=(2.0, 2.0),
                kernel_seed: int = 0, tol: float = 1e-9,
                max_sweeps: int = 200, seed: int = 0,
                timing: bool = False) -> list[SweepRow]:
    """Testing constant vs ascent lower bound across nested depths.

    Maximizers are carried between rows by cell replication, which makes
    the lower-bound column non-decreasing (families are nested and the
    warm start reproduces the previous ratio exactly).  ``seconds`` is
    wall time when ``timing`` is set and 0.0 otherwise, keeping output
    files byte-reproducible by default.
    """
    depths = sorted({int(k) for k in depths})
    if task not in ("hls", "embed", "carleson"):
        raise ValueError(f"unknown sweep task {task!r}")
    if task == "embed":
        if not weights:
            raise ValueError("embed sweeps need weights")
        base_weights = tuple(weights)
        base_depth = base_weights[0].config.depth
    else:
        if weight is None:
            raise ValueError(f"{task} sweeps need a weight")
        base_weights = (weight,)
        base_depth = weight.config.depth
    if depths[-1] > base_depth:
        raise ValueError(
            f"sweep depth {depths[-1]} exceeds the weight depth {base_depth}")

    rows: list[SweepRow] = []
    warm = None
    for K in depths:
        ws = tuple(w.coarsen(K) if w.config.depth != K else w
                   for w in base_weights)
        if warm is not None:
            warm = tuple(m.refine(K) for m in warm)
        t0 = time.perf_counter()
        if task == "hls":
            ec = ExponentConfig.hls(alpha, p, ws[0].config.total_dim)
            est = operator_norm_lower(ws[0], ec.alpha, ec.p, ec.q, form,
                                      tol=tol, max_sweeps=max_sweeps,
                                      seed=seed, warm_start=warm)
            c2 = fp_constant(RectKernel.hls(ws[0], ec.alpha), (ws[0], ws[0]),
                             (ec.p, ec.q_conj)).value
        elif task == "embed":
            kern = RectKernel.random_uniform(ws[0].config, kernel_seed)
            est = embed_norm_lower(kern, ws, exponents, tol=tol,
                                   max_sweeps=max_sweeps, seed=seed,
                                   warm_start=warm)
            c2 = fp_constant(kern, ws, exponents).value
        else:
            est = carleson_norm_lower(ws[0], p, q, tol=tol,
                                      max_sweeps=max_sweeps, seed=seed,
                                      warm_start=warm)
            c2 = carleson_testing_constant(ws[0], p, q).value
        dt = time.perf_counter() - t0
        warm = est.maximizers
        if c2 > 0:
            ratio = est.value / c2
        else:
            ratio = 0.0 if est.value == 0 else math.inf
        rows.append(SweepRow(K, c2, est.value, ratio,
                             dt if timing else 0.0))
    return rows
