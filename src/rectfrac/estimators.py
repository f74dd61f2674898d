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
beats the ascent, the ascent runs again from the extremal indicator
and that run is kept when it ends no lower, so reported values never
fall below the testing constant.  The multilinear densities and the
Carleson bound keep their mass trees in one ``_tree_cache``: the tree
of sigma_k * f_k is rebuilt only when f_k is a new array, so a
restarted run reads no tree of the run before, and the Carleson value
and its next gradient read one tree.  (The cell-quadrature kernel
form excludes same-coordinate pairs, so the indicator identity does
not transfer to it: its testing constant is the dyadic form's and does
not bound it.  It restarts by the same rule; a restart is kept only
when it ends no lower, so its bound stays a certified lower bound and
can only rise, though not necessarily to the testing constant.)

Every operator form, the dyadic one included, ascends ``<Tf, g>``
with the ``forward`` and ``adjoint`` maps of one ``operators.plan``,
whose coefficients are computed once per bound.  The steps run in
argument order, f from ``adjoint(g)`` and then g from ``forward(f)``,
as the embedding's do, so the dyadic bound is the bilinear embedding
of ``embed_norm_lower`` with the HLS kernel, bit for bit.  Every bound
(embedding, operator and Carleson) hands its densities and testing
constant to one set-up, ``_norm_bound``, which builds the ``_ascend``
run, starts it from constants or a warm start, restarts it from the
testing witness and reports the estimate.

Steps run at the resolution their density comes in.  On the standard
family (the dyadic and perez forms, the multilinear densities and the
Carleson gradient) ``_scatter`` returns one value per level-K cube, so
the iterate stays per cube: its L^p norm (``weights._lp``) and the base
of its mass tree read the cube masses ``mass_tree[(K,) * n]``
(``weights._weighted``), and it goes onto cells once, as a maximizer,
in ``_norm_bound`` (``weights._upsample``).  Only the start, a warm
start and a restart indicator enter on cells, for the first
normalization and the first density; a constant start is one value,
which ``_weighted`` reads against the cell masses, so it takes no cell
array.  Sums over cube masses round differently from sums over
cells, so these bounds match steps on cells to about 1e-15 relative,
not bit for bit.  The shifted families and the kernel form have
densities on cells, and their steps are steps on cells.

Determinism: for fixed inputs all computations are fixed-order numpy
reductions, and the densities and the Carleson gradient are scattered
by ``weights._scatter``, whose passes add in one fixed order, so
histories are reproducible bit for bit.  On one factor that order is
the term-by-term sum's in ``level_combos`` order, so one-factor
histories keep the bits they had when the terms were added one table
at a time; on several factors they move within about (K+1)**N unit
roundoffs per scatter.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .conditions import carleson_testing_constant, fp_constant
from .grids import _integer, rect_from_json
from .operators import (ExponentConfig, RectKernel, _level_sums, _powers,
                        _terms, check_mlinear_exponents, plan)
from .weights import (GridFunction, Weight, _check_same_grid, _lp, _scatter,
                      _upsample, _weighted, build_mass_tree)


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


def _check_limits(tol: float, max_sweeps: int, tol_name: str = "tol",
                  sweeps_name: str = "max_sweeps") -> None:
    """Refuse a sweep cap below 1 and a negative (or NaN) tolerance.

    The refusals name the two limits ``tol_name`` and ``sweeps_name``:
    the keywords here, the options on the command line.
    """
    if max_sweeps < 1:
        raise ValueError(f"{sweeps_name} must be at least 1, got {max_sweeps}")
    if not tol >= 0:
        raise ValueError(f"{tol_name} must be at least 0, got {tol}")


def _ascend(densities, sigmas, rs, tol, max_sweeps, value=None):
    """Cyclic exact coordinate maximization of a form.

    ``densities[j](fs)`` is the form's density in argument j, whose
    maximizer is sought on the unit ball of L^r_j(sigma_j).  The steps
    run in argument order, each raising its density to ``r' - 1`` and
    normalizing it, and the iterate stays at the resolution its density
    comes in: per level-K cube on the standard family, on cells
    otherwise.  The initial arrays are on cells, or one value for a
    constant.  A sweep records the form's value by Hölder's equality, or
    ``value(fs)`` for a form that is not linear.  Returns the run: a map
    of initial arrays to ``(fs, history, sweeps, converged)``.
    """
    steps = [(j, density, w, r / (r - 1.0) - 1.0, r)
             for j, (density, w, r) in enumerate(zip(densities, sigmas, rs))]

    def run(fs):
        fs = list(fs)
        for j, _, w, _, p in steps:
            nrm = _lp(w, fs[j], p)
            if nrm == 0.0:
                return [np.zeros_like(f0) for f0 in fs], [0.0], 0, True
            fs[j] = fs[j] / nrm
        history: list[float] = []
        while True:
            for j, density, w, power, p in steps:
                d = density(fs)  # a fresh array: raised and scaled in place
                d **= power
                nrm = _lp(w, d, p)
                if nrm == 0.0:
                    return fs, history or [0.0], len(history), True
                d /= nrm
                fs[j] = d
            # Hölder equality: the form at the last step's maximizer
            history.append(nrm ** (p - 1.0) if value is None else value(fs))
            if len(history) >= 2 and \
                    history[-1] - history[-2] <= tol * abs(history[-1]):
                return fs, history, len(history), True
            if len(history) >= max_sweeps:
                return fs, history, len(history), False

    return run


def _norm_bound(densities, sigmas, rs, c2, head, *, tol, max_sweeps, seed,
                warm_start, value=None) -> NormEstimate:
    """The set-up every bound shares around its ascent.

    Builds the run of ``densities`` with ``_ascend`` (looked up when
    called) and starts it from the warm start or from constants.  A
    warm start is refused unless it holds one function per argument,
    each on the grid of ``sigmas``.  When
    the testing constant ``c2`` beats that run, runs again from the
    indicator of ``c2``'s witness and keeps the restarted run, its
    history and sweeps appended to the first run's, when it ends no
    lower.  Every form follows this one rule, the kernel form too,
    whose ``c2`` does not bound it: the reported value can only rise.
    The maximizers go onto cells here, once.  ``params`` are ``head``
    followed by the keys every bound has.
    """
    cfg = sigmas[0].config
    run = _ascend(densities, sigmas, rs, tol, max_sweeps, value)
    # a constant start is one value, read against the cell masses
    if warm_start is not None:
        warm_start = tuple(warm_start)
        if len(warm_start) != len(sigmas):
            raise ValueError("need one warm start per argument")
        _check_same_grid(*sigmas, *warm_start)
        first = run([gf.values for gf in warm_start])
    else:
        first = run([np.ones((1,) * w.density.ndim) for w in sigmas])
    fs, history, sweeps, converged = first
    if c2.value > history[-1] and c2.witness is not None:
        rect = rect_from_json(c2.witness["rect"])
        ind = GridFunction.indicator(cfg, rect).values
        fs2, h2, s2, conv2 = run([ind] * len(fs))
        if h2[-1] >= history[-1]:
            fs, history = fs2, history + h2
            sweeps, converged = sweeps + s2, conv2
    params = {**head, "depth": cfg.depth, "c2": c2.value, "tol": tol,
              "max_sweeps": max_sweeps}
    return NormEstimate(history[-1],
                        tuple(GridFunction(cfg, _upsample(cfg, f))
                              for f in fs),
                        sweeps, converged, history, seed, params)


def _tree_cache(sigmas, keep=lambda t: t):
    """``tree(k, f)``, ``keep`` of the mass tree of sigma_k * f, and its dict.

    f is on cells, one value or per level-K cube.  The dict maps k to
    the f its tree was built from and what is kept of that tree; a tree
    is rebuilt only when f is a new array, so a restarted run reads no
    tree of the run before.
    """
    cfg = sigmas[0].config
    cache = {}

    def tree(k, f):
        if k not in cache or cache[k][0] is not f:
            cache.pop(k, None)  # freed before its successor is built
            cache[k] = (f, keep(build_mass_tree(cfg, _weighted(sigmas[k], f))))
        return cache[k][1]
    return tree, cache


def _mlinear_densities(kernel: RectKernel, sigmas):
    """The multilinear form's density in each argument, as maps of all fs.

    The maps share one ``_tree_cache``.  The steps run in cyclic order,
    and step j + 1 replaces its argument without reading that
    argument's tree, so step j drops it: at M = 2 no tree outlives the
    step that built it.
    """
    tree, cache = _tree_cache(sigmas)

    def density_in(j):
        def density(fs):
            trees = [tree(k, f) for k, f in enumerate(fs) if k != j]
            cache.pop((j + 1) % len(fs), None)
            return _scatter(_terms(kernel.tables, trees))
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
    roundoff.  ``fp_constant`` checks the inputs: one grid, a kernel
    tabulated on it and one exponent per weight.
    """
    _check_limits(tol, max_sweeps)
    sigmas = tuple(sigmas)
    ps = check_mlinear_exponents(exponents)
    c2 = fp_constant(kernel, sigmas, ps)  # refuses grids, kernel and count
    return _norm_bound(_mlinear_densities(kernel, sigmas), sigmas, ps, c2,
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
    ``params["factor"]`` is the plan's ``factor`` report.
    """
    _check_limits(tol, max_sweeps)
    ec = ExponentConfig(float(alpha), float(p), float(q),
                        mu.config.total_dim)
    op, mus, rs = plan(mu, ec.alpha, form), (mu, mu), (ec.p, ec.q_conj)
    kernel = RectKernel.hls(mu, ec.alpha) if op.kernel is None else op.kernel
    c2 = fp_constant(kernel, mus, rs)
    head = {"form": form, "alpha": ec.alpha, "p": ec.p, "q": ec.q,
            "factor": op.factor}
    return _norm_bound((lambda fs: op.adjoint(fs[1]),
                        lambda fs: op.forward(fs[0])), mus, rs, c2, head,
                       tol=tol, max_sweeps=max_sweeps, seed=seed,
                       warm_start=warm_start)


def carleson_norm_lower(sigma: Weight, p: float, q: float, *,
                        tol: float = 1e-9, max_sweeps: int = 200,
                        seed: int = 0, warm_start=None) -> NormEstimate:
    """Lower bound on the least embedding constant of the averaging sum.

    Maximizes sum_R sigma(R)**(q/p - q) (int_R f dsigma)**q over the
    unit ball of L^p(sigma), f >= 0.  The functional is convex, so the
    linearized exact step ascends: ``_ascend`` takes the gradient
    sum_R a_R (int_R f dsigma)**(q-1) 1_R as its density.  Its heap
    ``a * t**(q-1)`` is kept with the mass tree t of f, so each table is
    raised once: the value is ``sum(a * t**(q-1) * t)``, summed level
    by level, and the next gradient scatters a copy of the same heap.
    """
    _check_limits(tol, max_sweeps)
    p, q = float(p), float(q)
    # refuses exponents outside 1 < p < q
    c2 = carleson_testing_constant(sigma, p, q)
    a = _powers(sigma.mass_tree, q / p - q).heap
    tree, _ = _tree_cache((sigma,), lambda t: (
        t.like(a * t.heap ** (q - 1.0)), t))

    def gradient(fs):
        g, _ = tree(0, fs[0])
        return _scatter(g.like(g.heap.copy()))

    def value(fs):
        g, t = tree(0, fs[0])
        return _level_sums(g.like(g.heap * t.heap))

    return _norm_bound((gradient,), (sigma,), (p,), c2, {"p": p, "q": q},
                       tol=tol, max_sweeps=max_sweeps, seed=seed,
                       warm_start=warm_start, value=value)


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


def _ratio(num: float, den: float, both_zero: float = 0.0) -> float:
    """num / den, with ``both_zero`` for 0 / 0 and inf for a positive num / 0.

    The sweep rows' ``ratio`` and the ``hls`` report's successive change
    both read their quotients of bounds through this rule.
    """
    if den > 0:
        return num / den
    return both_zero if num == 0 else math.inf


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
    depths = sorted({_integer(k, "sweep depths must be integers")
                     for k in depths})
    if not depths:
        raise ValueError("a depth sweep needs at least one depth")
    if task not in ("hls", "embed", "carleson"):
        raise ValueError(f"unknown sweep task {task!r}")
    if task == "embed":
        if not weights:
            raise ValueError("embed sweeps need weights")
        base_weights = tuple(weights)
    else:
        if weight is None:
            raise ValueError(f"{task} sweeps need a weight")
        base_weights = (weight,)
    base_depth = base_weights[0].config.depth
    if depths[0] < 1:
        raise ValueError(f"sweep depth {depths[0]} is below 1")
    if depths[-1] > base_depth:
        raise ValueError(
            f"sweep depth {depths[-1]} exceeds the weight depth {base_depth}")
    opts = {"tol": tol, "max_sweeps": max_sweeps, "seed": seed}
    if task == "hls":
        def bound(ws, warm):
            ec = ExponentConfig.hls(alpha, p, ws[0].config.total_dim)
            return operator_norm_lower(ws[0], ec.alpha, ec.p, ec.q, form,
                                       warm_start=warm, **opts)
    elif task == "embed":
        # a table ignores the depth, so each row's draw holds the tables
        # of the deeper rows' draws on its levels
        def bound(ws, warm):
            kern = RectKernel.random_uniform(ws[0].config, kernel_seed)
            return embed_norm_lower(kern, ws, exponents, warm_start=warm,
                                    **opts)
    else:
        def bound(ws, warm):
            return carleson_norm_lower(ws[0], p, q, warm_start=warm, **opts)

    rows: list[SweepRow] = []
    warm = None
    for K in depths:
        coarse = {w: w.coarsen(K) for w in dict.fromkeys(base_weights)}
        ws = tuple(coarse[w] for w in base_weights)
        if warm is not None:
            warm = tuple(m.refine(K) for m in warm)
        t0 = time.perf_counter()
        est = bound(ws, warm)
        c2 = est.params["c2"]  # the estimator's testing constant
        dt = time.perf_counter() - t0
        warm = est.maximizers
        rows.append(SweepRow(K, c2, est.value, _ratio(est.value, c2),
                             dt if timing else 0.0, est.sweeps,
                             est.converged))
    return rows
