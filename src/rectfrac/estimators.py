"""Lower-bound estimation of embedding and operator norms.

Every norm bounded here is the supremum of a form: the multilinear
rectangle sum of the embedding theorem, ``<Tf, g>`` for an operator
form, or the Carleson averaging sum.  One loop, ``_ascend``, serves all
of them by cyclic exact coordinate ascent (the nonlinear power
iteration).  With every argument but one frozen, a linear form is
``int f_j d dsigma_j`` for a nonnegative density d, whose maximizer on
the unit ball of L^p is ``d**(p'-1) / nrm``.  By the equality case of
Hölder's inequality the form then equals ``nrm**(p-1)``, so each sweep
reads its value from the normalization.  The Carleson functional is
convex in f: its step takes the gradient as the density, and its value
is evaluated after each sweep.  Each step increases the form, histories (one entry
per sweep, the start not included) are non-decreasing, and the
reported value is a certified lower bound on the supremum -- never a
claim of the supremum itself.

Every run also scans indicator test functions of single rectangles,
which realize the single-rectangle testing value exactly; when that
beats the ascent, ``_restart`` re-runs the ascent from the extremal
indicator, so reported values never fall below the testing constant.
A multilinear density keeps each argument's mass tree between steps
and rebuilds it whenever that argument is a new array, so a restarted
run reads no tree of the run before.  (The cell-quadrature kernel form
excludes same-coordinate pairs, so the indicator identity does not
transfer to it; that form reports the testing constant but runs
without the restart.)  The Carleson bound keeps the tree of its f the
same way, for its value and its next gradient.

Every operator form, the dyadic one included, ascends ``<Tf, g>``
with the ``forward`` and ``adjoint`` maps of one ``operators.plan``,
whose coefficients are computed once per bound.  The steps run in
argument order, f from ``adjoint(g)`` and then g from ``forward(f)``,
as the embedding's do, so the dyadic bound is the bilinear embedding
of ``embed_norm_lower`` with the HLS kernel, bit for bit.  Every bound
(embedding, operator and Carleson) shares one set-up, ``_norm_bound``:
the start from constants or a warm start, the testing constant, the
restart and the report.

Steps run at the resolution their density comes in.  On the standard
family (the dyadic and perez forms, the multilinear densities and the
Carleson gradient) ``_spread`` returns one value per level-K cube, so a
step raises, normalizes and scales the density per cube and puts it on
cells with one ``_upsample``; only the products with cell masses, the
tree base and the L^p norm sum, are taken per cell.  Every power,
product and addition is then the one a step on cells would make, so the
results are those of steps on cells, bit for bit.

Determinism: for fixed inputs all computations are fixed-order numpy
reductions, and the densities and the Carleson gradient are scattered
by ``_spread``, which adds the level combinations in ``level_combos``
order, so histories are reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .conditions import _carleson_scan, fp_constant
from .grids import GridConfig, rect_from_json
from .operators import (ExponentConfig, RectKernel, _check_same_grid,
                        _neg_power, _paired, _spread, _upsample,
                        check_mlinear_exponents, level_combos, plan)
from .weights import GridFunction, Weight, build_mass_tree


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
    """The L^p norm of per-block (or per-cell) ``values``.

    The power is taken per block, the product with the cell masses and
    the sum per cell, as for the ``_upsample`` of ``values``.
    """
    view, term = _paired(cell_masses.shape, values.shape)
    cells = (values ** p).reshape(term) * cell_masses.reshape(view)
    return float(np.sum(cells.reshape(cell_masses.shape))) ** (1.0 / p)


def _check_limits(tol: float, max_sweeps: int) -> None:
    """Refuse a sweep cap below 1 and a negative (or NaN) tolerance."""
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if not tol >= 0:
        raise ValueError(f"tol must be at least 0, got {tol}")


def _ascend(densities, sigmas, rs, tol, max_sweeps, value=None):
    """Cyclic exact coordinate maximization of a form.

    ``densities[j](fs)`` is the form's density in argument j, whose
    maximizer is sought on the unit ball of L^r_j(sigma_j).  The steps
    run in argument order, each raising its density to ``r' - 1`` and
    normalizing it at the resolution the density comes in (per level-K
    cube on the standard family), then putting it on cells.  A sweep
    records the form's value by Hölder's equality, or ``value(fs)`` for
    a form that is not linear.  Returns the run: a map of initial
    arrays to ``(fs, history, sweeps, converged)``.
    """
    cfg = sigmas[0].config
    steps = [(j, density, w.cell_masses, r / (r - 1.0) - 1.0, r)
             for j, (density, w, r) in enumerate(zip(densities, sigmas, rs))]

    def run(fs):
        fs = list(fs)
        for j, _, cm, _, p in steps:
            nrm = _lp(cm, fs[j], p)
            if nrm == 0.0:
                return [np.zeros_like(f0) for f0 in fs], [0.0], 0, True
            fs[j] = fs[j] / nrm
        history: list[float] = []
        while True:
            for j, density, cm, power, p in steps:
                d = density(fs)  # a fresh array: raised and scaled in place
                d **= power
                nrm = _lp(cm, d, p)
                if nrm == 0.0:
                    return fs, history or [0.0], len(history), True
                d /= nrm
                fs[j] = _upsample(cfg, d)
            # Hölder equality: the form at the last step's maximizer
            history.append(nrm ** (p - 1.0) if value is None else value(fs))
            if len(history) >= 2 and \
                    history[-1] - history[-2] <= tol * abs(history[-1]):
                return fs, history, len(history), True
            if len(history) >= max_sweeps:
                return fs, history, len(history), False

    return run


def _restart(run, first, c2, config):
    """Re-run the ascent from the testing witness when it beats ``first``.

    ``run`` maps initial arrays to an ``(fs, history, sweeps, converged)``
    result; the restarted run is kept when it ends no lower, and its
    history and sweeps are appended to the first run's.
    """
    fs, history, sweeps, converged = first
    if c2.value > history[-1] and c2.witness is not None:
        rect = rect_from_json(c2.witness["rect"])
        ind = GridFunction.indicator(config, rect).values
        fs2, h2, s2, conv2 = run([ind] * len(fs))
        if h2[-1] >= history[-1]:
            return fs2, history + h2, sweeps + s2, conv2
    return first


def _norm_bound(run, sigmas, c2, head, *, tol, max_sweeps, seed,
                warm_start, restart=True) -> NormEstimate:
    """The set-up every bound shares around its ascent ``run``.

    Runs from the warm start or from constants, then ``_restart`` from
    the testing constant ``c2`` unless ``restart`` is off, and reports
    ``params`` as ``head`` followed by the keys every bound has.
    """
    cfg = sigmas[0].config
    if warm_start is not None:
        result = run([gf.values for gf in warm_start])
    else:
        result = run([np.ones_like(w.density) for w in sigmas])
    if restart:
        result = _restart(run, result, c2, cfg)
    fs, history, sweeps, converged = result
    params = {**head, "depth": cfg.depth, "c2": c2.value, "tol": tol,
              "max_sweeps": max_sweeps}
    return NormEstimate(history[-1], tuple(GridFunction(cfg, f) for f in fs),
                        sweeps, converged, history, seed, params)


def _mlinear_densities(kernel: RectKernel, sigmas):
    """The multilinear form's density in each argument, as maps of all fs.

    The maps share the arguments' mass trees: a tree is rebuilt only
    when its argument is a new array.  The steps run in cyclic order,
    and step j + 1 replaces its argument without reading that
    argument's tree, so step j drops it: at M = 2 no tree outlives the
    step that built it.
    """
    cfg = sigmas[0].config
    combos = list(level_combos(cfg))
    cache = {}  # k -> (the f_k the tree was built from, the tree)

    def tree(k, f):
        if k not in cache or cache[k][0] is not f:
            cache[k] = (f, build_mass_tree(cfg, sigmas[k].cell_masses * f))
        return cache[k][1]

    def term(lv, trees):
        arr = kernel.tables[lv].copy()
        for t in trees:
            arr *= t[lv]
        return arr

    def density_in(j):
        def density(fs):
            trees = [tree(k, f) for k, f in enumerate(fs) if k != j]
            cache.pop((j + 1) % len(fs), None)
            return _spread(cfg, (term(lv, trees) for lv in combos))
        return density

    return [density_in(j) for j in range(len(sigmas))]


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
    _check_limits(tol, max_sweeps)
    sigmas = tuple(sigmas)
    cfg = _check_same_grid(*sigmas)
    kernel = RectKernel.coerce(kernel, cfg)
    ps = check_mlinear_exponents(exponents)
    if len(ps) != len(sigmas):
        raise ValueError("need one exponent per weight")
    run = _ascend(_mlinear_densities(kernel, sigmas), sigmas, ps, tol,
                  max_sweeps)
    return _norm_bound(run, sigmas, fp_constant(kernel, sigmas, ps),
                       {"exponents": list(ps)}, tol=tol,
                       max_sweeps=max_sweeps, seed=seed,
                       warm_start=warm_start)


def operator_norm_lower(mu: Weight, alpha: float, p: float, q: float,
                        form: str = "dyadic", *, tol: float = 1e-9,
                        max_sweeps: int = 200, seed: int = 0,
                        warm_start=None) -> NormEstimate:
    """Lower bound on the L^p(mu) -> L^q(mu) norm of one operator form.

    Every form ascends ``<Tf, g>`` with the maps of its ``plan``: f
    from ``adjoint(g)`` on the unit ball of L^p, then g from
    ``forward(f)`` on that of L^q'.  For the dyadic form these are the
    steps of ``embed_norm_lower`` with the HLS kernel, bit for bit.
    """
    _check_limits(tol, max_sweeps)
    ec = ExponentConfig(float(alpha), float(p), float(q),
                        mu.config.total_dim)
    key = form.replace("_", "-")  # ``plan`` refuses an unknown form
    op, mus, rs = plan(mu, ec.alpha, key), (mu, mu), (ec.p, ec.q_conj)
    run = _ascend((lambda fs: op.adjoint(fs[1]), lambda fs: op.forward(fs[0])),
                  mus, rs, tol, max_sweeps)
    kernel = RectKernel.hls(mu, ec.alpha) if op.kernel is None else op.kernel
    c2 = fp_constant(kernel, mus, rs)
    head = {"form": key, "alpha": ec.alpha, "p": ec.p, "q": ec.q}
    return _norm_bound(run, mus, c2, head, tol=tol, max_sweeps=max_sweeps,
                       seed=seed, warm_start=warm_start,
                       restart=key != "kernel")


def carleson_norm_lower(sigma: Weight, p: float, q: float, *,
                        tol: float = 1e-9, max_sweeps: int = 200,
                        seed: int = 0, warm_start=None) -> NormEstimate:
    """Lower bound on the least embedding constant of the averaging sum.

    Maximizes sum_R sigma(R)**(q/p - q) (int_R f dsigma)**q over the
    unit ball of L^p(sigma), f >= 0.  The functional is convex, so the
    linearized exact step ascends: ``_ascend`` takes the gradient
    sum_R a_R (int_R f dsigma)**(q-1) 1_R as its density, and the
    value and the gradient read one mass tree of f.
    """
    _check_limits(tol, max_sweeps)
    p, q = float(p), float(q)
    c2 = _carleson_scan(sigma, p, q)  # refuses exponents outside 1 < p < q
    cfg, cm = sigma.config, sigma.cell_masses
    combos = list(level_combos(cfg))
    a_tables = {lv: _neg_power(sigma.mass_tree[lv], q / p - q)
                for lv in combos}
    kept = []  # the f the tree was built from and its tree, once built

    def tree(f):
        if not kept or kept[0] is not f:
            kept.clear()
            kept.extend((f, build_mass_tree(cfg, cm * f)))
        return kept[1]

    def gradient(fs):
        t = tree(fs[0])
        return _spread(cfg, (a_tables[lv] * t[lv] ** (q - 1.0)
                             for lv in combos))

    def value(fs):
        t, phi = tree(fs[0]), 0.0
        for lv in combos:
            phi += float((a_tables[lv] * t[lv] ** q).sum())
        return phi

    run = _ascend((gradient,), (sigma,), (p,), tol, max_sweeps, value)
    return _norm_bound(run, (sigma,), c2, {"p": p, "q": q}, tol=tol,
                       max_sweeps=max_sweeps, seed=seed,
                       warm_start=warm_start)


# ---------------------------------------------------------------------------
# Depth sweeps


@dataclass(frozen=True)
class SweepRow:
    depth: int
    c2: float
    c1_hat: float
    ratio: float
    seconds: float
    sweeps: int
    converged: bool


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
    _check_limits(tol, max_sweeps)
    depths = sorted({int(k) for k in depths})
    if not depths:
        raise ValueError("a depth sweep needs at least one depth")
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
    if task == "embed":
        # keyed by rectangle identity: the deepest table serves every row
        kern = RectKernel.random_uniform(
            GridConfig(base_weights[0].config.dims, depths[-1]), kernel_seed)

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
        elif task == "embed":
            est = embed_norm_lower(kern.restrict(ws[0].config), ws,
                                   exponents, tol=tol, max_sweeps=max_sweeps,
                                   seed=seed, warm_start=warm)
        else:
            est = carleson_norm_lower(ws[0], p, q, tol=tol,
                                      max_sweeps=max_sweeps, seed=seed,
                                      warm_start=warm)
        c2 = est.params["c2"]  # the estimator's testing constant
        dt = time.perf_counter() - t0
        warm = est.maximizers
        if c2 > 0:
            ratio = est.value / c2
        else:
            ratio = 0.0 if est.value == 0 else math.inf
        rows.append(SweepRow(K, c2, est.value, ratio,
                             dt if timing else 0.0, est.sweeps,
                             est.converged))
    return rows
