"""Gaussian-process modeling baseline.

One independent GP per tower regresses ASU on planar position with a
squared-exponential kernel, k(p, q) = sigma_f^2 * exp(-|p - q|^2 / (2 l^2)),
and additive observation noise sigma_n^2.  Values are centered on the
per-tower training mean before fitting (and the mean added back at
prediction), so far from the data the posterior reverts to the tower's
typical level instead of ASU 0.

Hyperparameters come from a deterministic grid search maximizing the log
marginal likelihood (LML) of Rasmussen & Williams, *GPML* (2006), Sec. 5.4.
Per length scale, one Householder tridiagonalization (Golub & Van Loan,
Sec. 8.3.1) of the bordered matrix [[0, y^T], [y, R]], R = exp(-d^2 / (2 l^2)),
gives Q^T R Q = T with Q^T y = |y| e_0, since the first reflector maps y onto
e_0 and the later ones never touch that index.  Each (sigma_f^2, sigma_n^2)
candidate then costs one tridiagonal solve, y^T K^-1 y =
|y|^2 [(sigma_f^2 T + sigma_n^2 I)^-1]_00, whose L D L^T factorization also
gives log|K| as the sum of log D.  The near-best candidates are scored
exactly by Cholesky, so the chosen model equals that of a dense search.  GP
arrays are bit-reproducible only under a fixed scipy/OpenBLAS build and BLAS
thread count.

For localization, posterior mean and variance are precomputed once on a dense
lattice, where the kernel factors per axis, exp(-(dx^2 + dy^2) / (2 l^2)) =
exp(-dx^2 / (2 l^2)) exp(-dy^2 / (2 l^2)), so k* is the outer product of an
(nx, n) and an (ny, n) table.  Each online estimate weights every lattice point
by its Gaussian likelihood of the observed readings and returns the weighted
average position; that per-point work makes this baseline much slower than the
histogram techniques.  scipy.stats, for that likelihood, loads at a process's
first GP estimate, once (about 43 MB and 0.9 s), and never in other processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dptsv, dsytrd, dsytrd_lwork

from .estimators import LocationEstimate, _check_scans
from .geo import GeoPoint, PlanarPoint, ScanVector, project_array
from .radiomap import (check_positive_finite, ground_truths, json_array, json_value,
                       load_document, reading_arrays, save_document)

GP_GRID_KIND = "gp_grid"

DEFAULT_LENGTH_SCALES_M = (50.0, 100.0, 200.0, 400.0, 800.0)
DEFAULT_SIGNAL_VARS = (25.0, 100.0, 400.0)
DEFAULT_NOISE_VARS = (1.0, 4.0, 16.0)
FIT_MAX_POINTS = 500  # training points kept per tower, subsampled with FIT_SEED
FIT_SEED = 0

_JITTER_START = 1e-8
_JITTER_RETRIES = 3


class GpFitError(RuntimeError):
    """Kernel matrix factorization failed even after jitter retries."""


@dataclass(frozen=True)
class GpHyperparams:
    """Squared-exponential kernel parameters (ASU^2 variances, meters)."""

    sigma_f2: float
    sigma_n2: float
    length_scale: float

    def __post_init__(self) -> None:
        if self.sigma_f2 <= 0 or self.sigma_n2 <= 0 or self.length_scale <= 0:
            raise ValueError("all GP hyperparameters must be strictly positive")


def default_hyper_grid() -> list[GpHyperparams]:
    """The deterministic hyperparameter grid searched by :func:`gp_fit`."""
    return [
        GpHyperparams(sf2, sn2, ls)
        for ls in DEFAULT_LENGTH_SCALES_M
        for sf2 in DEFAULT_SIGNAL_VARS
        for sn2 in DEFAULT_NOISE_VARS
    ]


def _sq_dists(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    dx = xa[:, None, 0] - xb[None, :, 0]
    dy = xa[:, None, 1] - xb[None, :, 1]
    return dx * dx + dy * dy


def _se_kernel(d2: np.ndarray, hyper: GpHyperparams) -> np.ndarray:
    return hyper.sigma_f2 * np.exp(-d2 / (2.0 * hyper.length_scale**2))


def _cholesky_with_jitter(k_noisy: np.ndarray, sigma_f2: float) -> np.ndarray:
    jitter = 0.0
    for retry in range(_JITTER_RETRIES + 1):
        try:
            return cholesky(k_noisy + jitter * np.eye(len(k_noisy)) if retry else k_noisy,
                            lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            jitter = jitter * 10.0 if retry else _JITTER_START * sigma_f2
    raise GpFitError("kernel matrix is not positive definite even after jitter")


@dataclass(frozen=True, eq=False)
class GpTowerModel:
    """Fitted per-tower GP posterior over planar position.

    Stores the training set, the lower Cholesky factor of K + sigma_n^2 I
    and the precomputed solve against the centered targets, which is all
    that posterior evaluation needs.
    """

    locations: np.ndarray  # (n, 2)
    values: np.ndarray  # (n,) raw ASU
    hyper: GpHyperparams
    mean_offset: float
    chol: np.ndarray  # (n, n) lower triangular
    alpha: np.ndarray  # (n,)
    log_marginal: float

    @property
    def n_training(self) -> int:
        return len(self.values)


def _factorize(
    d2: np.ndarray, yc: np.ndarray, hyper: GpHyperparams
) -> tuple[np.ndarray, np.ndarray, float]:
    """Cholesky factor of K + sigma_n^2 I, alpha = (K + sigma_n^2 I)^-1 yc and the LML."""
    k_noisy = _se_kernel(d2, hyper) + hyper.sigma_n2 * np.eye(len(d2))
    chol = _cholesky_with_jitter(k_noisy, hyper.sigma_f2)
    half = solve_triangular(chol, yc, lower=True, check_finite=False)
    alpha = solve_triangular(chol.T, half, lower=False, check_finite=False)
    lml = float(
        -0.5 * yc @ alpha - np.log(np.diag(chol)).sum() - 0.5 * len(yc) * math.log(2.0 * math.pi)
    )
    return chol, alpha, lml


def gp_log_marginal_likelihood(
    locations: np.ndarray, values: np.ndarray, hyper: GpHyperparams
) -> float:
    """Log marginal likelihood of (mean-centered) values under the GP prior."""
    x = np.asarray(locations, dtype=float)
    y = np.asarray(values, dtype=float)
    return _factorize(_sq_dists(x, x), y - y.mean(), hyper)[2]


def _spectral_lmls(
    d2: np.ndarray, yc: np.ndarray, candidates: Sequence[GpHyperparams]
) -> np.ndarray:
    """Every candidate's LML from one tridiagonal reduction per distinct length scale.

    The log-determinant sums the logs of the pivots D of the L D L^T
    factorization that ``dptsv`` computes for the solve.  A candidate with
    sigma_n^2 <= 1e-6 sigma_f^2, whose matrix may be near singular, or whose
    tridiagonal solve fails, gets +inf, so that it is always scored exactly,
    with the Cholesky path's jitter retries.
    """
    n = len(yc)
    lmls = np.full(len(candidates), np.inf)
    bordered = np.zeros((n + 1, n + 1), order="F")
    bordered[1:, 0] = yc
    unit = np.eye(n, 1)
    lwork = int(dsytrd_lwork(n + 1, lower=1)[0])
    tridiagonals: dict[float, tuple[np.ndarray, np.ndarray, float]] = {}
    for i, hyper in enumerate(candidates):
        if hyper.length_scale not in tridiagonals:
            bordered[1:, 1:] = np.exp(-d2 / (2.0 * hyper.length_scale**2))
            _, d, e, _, _ = dsytrd(bordered, lower=1, lwork=lwork)
            tridiagonals[hyper.length_scale] = d[1:], e[1:], e[0] ** 2
        d, e, yy = tridiagonals[hyper.length_scale]
        if hyper.sigma_n2 > 1e-6 * hyper.sigma_f2:
            pivots, _, x, info = dptsv(hyper.sigma_f2 * d + hyper.sigma_n2, hyper.sigma_f2 * e, unit)
            if info == 0:
                lmls[i] = -0.5 * yy * x[0, 0] - 0.5 * np.log(pivots).sum()
    return lmls - 0.5 * n * math.log(2.0 * math.pi)


def gp_fit(
    locations: np.ndarray,
    values: np.ndarray,
    hyper_grid: Iterable[GpHyperparams] | None = None,
    *,
    max_points: int = FIT_MAX_POINTS,
    seed: int = FIT_SEED,
) -> GpTowerModel:
    """Fit one tower's GP, selecting hyperparameters by grid search.

    The candidate maximizing the log marginal likelihood wins (first
    maximum on ties, in grid order).  Candidates are ranked by their
    spectral LML; those within 1e-6 * max(1, |best|) of the best, and those
    with sigma_n^2 <= 1e-6 sigma_f^2 or a failed tridiagonal solve, are
    re-scored exactly with the factorization of
    :func:`gp_log_marginal_likelihood`, which also yields the returned
    ``chol``, ``alpha`` and ``log_marginal``.  Training sets larger than
    ``max_points`` are subsampled uniformly at random with the given seed.

    Raises:
        ValueError: on arrays not shaped (n, 2) and (n,), with fewer than 2
            training points, or with a NaN or infinite location or value.
        GpFitError: if factorization fails even after jitter retries.
    """
    x = np.asarray(locations, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2 or len(x) != len(y):
        raise ValueError("locations must be (n, 2) and match values")
    if len(x) < 2:
        raise ValueError("GP fit needs at least 2 training points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("GP training locations and values must be finite")
    if len(x) > max_points:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(x), size=max_points, replace=False))
        x, y = x[keep], y[keep]

    candidates = list(hyper_grid) if hyper_grid is not None else default_hyper_grid()
    if not candidates:
        raise ValueError("hyper_grid must contain at least one candidate")
    mean_offset = float(y.mean())
    yc = y - mean_offset
    d2 = _sq_dists(x, x)
    spectral = _spectral_lmls(d2, yc, candidates)
    top = spectral[np.isfinite(spectral)].max(initial=-np.inf)
    near = np.flatnonzero(spectral >= top - 1e-6 * max(1.0, abs(top)))
    hyper, (chol, alpha, lml) = max(  # max keeps the first of equal maxima
        ((candidates[i], _factorize(d2, yc, candidates[i])) for i in near), key=lambda c: c[1][2])
    for array in (x, y, chol, alpha):
        array.setflags(write=False)
    return GpTowerModel(
        locations=x,
        values=y,
        hyper=hyper,
        mean_offset=mean_offset,
        chol=chol,
        alpha=alpha,
        log_marginal=lml,
    )


def _predict_lattice(model: GpTowerModel, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at every (xs[i], ys[j]), x varying fastest."""
    scale = -0.5 / model.hyper.length_scale**2
    ex = np.exp(scale * (xs[:, None] - model.locations[:, 0]) ** 2)  # (nx, n)
    ey = model.hyper.sigma_f2 * np.exp(scale * (ys[:, None] - model.locations[:, 1]) ** 2)
    k_star = (ey[:, None, :] * ex[None, :, :]).reshape(-1, len(model.alpha)).T  # (n, m), F order: solved in place
    mean = k_star.T @ model.alpha + model.mean_offset
    w = solve_triangular(model.chol, k_star, lower=True, overwrite_b=True, check_finite=False)
    var = model.hyper.sigma_f2 - (w * w).sum(axis=0)
    return mean, np.maximum(var, 0.0)


def gp_predict(model: GpTowerModel, p: PlanarPoint) -> tuple[float, float]:
    """Posterior mean and variance of the tower's ASU field at a point."""
    mean, var = _predict_lattice(model, np.array([p.x]), np.array([p.y]))
    return float(mean[0]), float(var[0])


def fit_tower_models(
    scans: Sequence[ScanVector],
    origin: GeoPoint,
    *,
    max_points: int = FIT_MAX_POINTS,
) -> dict[str, GpTowerModel]:
    """Fit one GP per tower from a ground-truthed trace.

    Each tower searches :func:`default_hyper_grid`, and towers heard at fewer
    than 2 positions are skipped.  Per-tower subsampling seeds derive from
    (``FIT_SEED``, tower rank), so results do not depend on fit order.
    """
    xy = project_array(origin, ground_truths(scans))
    towers, n_read, reading_tower, reading_asu = reading_arrays(scans)
    # Readings grouped by tower; the stable sort keeps each tower's in scan order.
    order = np.argsort(reading_tower, kind="stable")
    reading_point = np.repeat(np.arange(len(scans)), n_read)[order]
    values = reading_asu[order]
    bounds = np.searchsorted(reading_tower[order], np.arange(len(towers) + 1)).tolist()

    models: dict[str, GpTowerModel] = {}
    for rank, tower_id in enumerate(towers):
        a, b = bounds[rank], bounds[rank + 1]
        if b - a < 2:
            continue
        tower_seed = int(np.random.SeedSequence([FIT_SEED, rank]).generate_state(1)[0])
        models[tower_id] = gp_fit(xy[reading_point[a:b]], values[a:b],
                                  max_points=max_points, seed=tower_seed)
    return models


@dataclass(frozen=True, eq=False)
class PrecomputedGrid:
    """Per-tower GP posterior on a dense lattice.

    Construction checks every rule of a grid and raises ``ValueError`` on the
    first one broken: ``spacing`` is positive and finite; there is at least
    one point and one tower; ``means``, ``variances`` and ``noise_vars``
    name the same towers; each tower's mean and variance arrays have one
    entry per point; points and means are finite; variances are in [0, inf)
    and each ``noise_var`` is in (0, inf).
    """

    origin: GeoPoint
    spacing: float
    points: np.ndarray  # (n_points, 2)
    means: dict[str, np.ndarray]
    variances: dict[str, np.ndarray]
    noise_vars: dict[str, float]

    def __post_init__(self) -> None:
        check_positive_finite("spacing", self.spacing)
        if self.n_points == 0:
            raise ValueError("precomputed grid has no points")
        if not self.means:
            raise ValueError("precomputed grid has no towers")
        if not self.means.keys() == self.variances.keys() == self.noise_vars.keys():
            raise ValueError("means, variances and noise_vars must name the same towers")
        if not np.isfinite(self.points).all():
            raise ValueError("precomputed grid points must be finite")
        for tid, mean in self.means.items():
            var, noise_var = self.variances[tid], self.noise_vars[tid]
            if len(mean) != self.n_points or len(var) != self.n_points:
                raise ValueError(f"tower {tid!r} arrays do not match the point count")
            if not np.isfinite(mean).all():
                raise ValueError(f"tower {tid!r} has a non-finite mean")
            if not ((var >= 0.0) & (var < math.inf)).all():
                raise ValueError(f"tower {tid!r} has a negative or non-finite variance")
            if not 0.0 < noise_var < math.inf:
                raise ValueError(f"tower {tid!r} noise_var {noise_var} is not positive and finite")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def towers(self) -> tuple[str, ...]:
        return tuple(sorted(self.means))


def gp_build_grid(
    models: Mapping[str, GpTowerModel],
    bounds: tuple[float, float, float, float],
    spacing: float,
    origin: GeoPoint,
) -> PrecomputedGrid:
    """Evaluate every tower model on a regular lattice over ``bounds``.

    The lattice includes both edges of each axis: a span of exactly
    ``k * spacing`` yields k + 1 points per axis.
    """
    check_positive_finite("spacing", spacing)
    x_min, y_min, x_max, y_max = bounds
    if x_max < x_min or y_max < y_min:
        raise ValueError("bounds must not be empty")
    nx = int(math.floor((x_max - x_min) / spacing + 1e-9)) + 1
    ny = int(math.floor((y_max - y_min) / spacing + 1e-9)) + 1
    xs = x_min + spacing * np.arange(nx)
    ys = y_min + spacing * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    means: dict[str, np.ndarray] = {}
    variances: dict[str, np.ndarray] = {}
    for tower_id in sorted(models):
        means[tower_id], variances[tower_id] = _predict_lattice(models[tower_id], xs, ys)
    for array in (points, *means.values(), *variances.values()):
        array.setflags(write=False)
    return PrecomputedGrid(
        origin=origin,
        spacing=float(spacing),
        points=points,
        means=means,
        variances=variances,
        noise_vars={tid: models[tid].hyper.sigma_n2 for tid in means},
    )


def gp_locate(grid: PrecomputedGrid, window: Sequence[ScanVector]) -> LocationEstimate:
    """Likelihood-weighted average of all precomputed points.

    Each point's log likelihood sums, over the window's scans and observed
    towers with a model, the Gaussian log density of the observed ASU under
    (posterior mean, posterior variance + observation noise).  Weights come
    from a log-sum-exp over all points; observed towers without a model are
    skipped.  The first call in a process also imports scipy.stats: ``evaluate``'s
    default timing, a median over repeats, excludes that import, and
    ``evaluate(..., time_repeats=1)`` includes it.
    """
    from scipy.stats import norm  # ~43 MB and ~0.9 s, paid only by processes that run GP
    scans = _check_scans(window)
    ll = np.zeros(grid.n_points)
    used = 0
    for scan in scans:
        for tower_id, asu in scan.readings.items():
            mean = grid.means.get(tower_id)
            if mean is None:
                continue
            var = grid.variances[tower_id] + grid.noise_vars[tower_id]
            ll += norm.logpdf(asu, loc=mean, scale=np.sqrt(var))
            used += 1
    if used == 0:
        raise ValueError("no observed tower has a GP model")
    m = ll.max()
    weights = np.exp(ll - m)
    weights /= weights.sum()
    x, y = weights @ grid.points
    return LocationEstimate(PlanarPoint(float(x), float(y)), float(m), ())


# ---------------------------------------------------------------------------
# Persistence: same versioned JSON envelope as the radio map, kind "gp_grid"
# ---------------------------------------------------------------------------


def save_grid(grid: PrecomputedGrid, path: str) -> None:
    """Serialize a precomputed grid to versioned JSON."""
    save_document(path, GP_GRID_KIND, grid.origin, {
        "spacing_m": grid.spacing,
        "points": grid.points.tolist(),
        "towers": {tid: {"mean": grid.means[tid].tolist(), "var": grid.variances[tid].tolist(),
                         "noise_var": grid.noise_vars[tid]} for tid in grid.towers},
    })


def load_grid(path: str) -> PrecomputedGrid:
    """Read a grid saved by :func:`save_grid`.

    Raises:
        MapFormatError: on another version, a malformed/truncated file, a
            field that breaks :func:`~gsmloc.radiomap.json_value` or an array
            that breaks :func:`~gsmloc.radiomap.json_array` (``points`` are
            [x, y] pairs), an origin outside the lat/lon range, or any
            :class:`PrecomputedGrid` rule broken.
    """
    return load_document(path, GP_GRID_KIND, "GP grid", _parse_grid)


def _parse_grid(doc: dict, origin: GeoPoint) -> PrecomputedGrid:
    towers = json_value(doc["towers"], dict)
    means, variances = ({tid: json_array(entry[k], float) for tid, entry in towers.items()}
                        for k in ("mean", "var"))
    return PrecomputedGrid(
        origin=origin,
        spacing=json_value(doc["spacing_m"], float),
        points=json_array(doc["points"], float, 2),
        means=means,
        variances=variances,
        noise_vars={tid: json_value(e["noise_var"], float) for tid, e in towers.items()},
    )
