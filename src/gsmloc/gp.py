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
exactly by Cholesky, so the chosen model equals that of a dense search.

Towers are fitted, and gridded, concurrently, one thread per CPU the process
may run on.  Every LAPACK call (``dsytrd``, ``dptsv``, ``dpotrf``, ``dtrtrs``)
goes through one binding, ``_lapack``, which ctypes calls without holding the
GIL, to the OpenBLAS that numpy already links (numpy 2's wheels export its
ILP64 routines as ``scipy_<name>_64_``), where ``k*^T alpha`` runs too.  So
one pin of it to one thread makes every GP factorization, solve and product
bit-reproducible on one machine and numpy build at any BLAS thread count,
and importing this module loads no scipy.  ``_lapack_library`` chooses the
library once per process, at first use: where numpy exports no LAPACK, it is
scipy's ``cython_lapack``, and scipy's OpenBLAS is pinned next to numpy's.
A library without a thread-count setter is not pinned, and the bits then
follow its thread count.

For localization, posterior mean and variance are precomputed once on a dense
lattice, where the kernel factors per axis, exp(-(dx^2 + dy^2) / (2 l^2)) =
exp(-dx^2 / (2 l^2)) exp(-dy^2 / (2 l^2)), so k* is the outer product of an
(nx, n) and an (ny, n) table.  Each online estimate weights every lattice point
by its Gaussian likelihood of the observed readings and returns the weighted
average position; that per-point work makes this baseline much slower than the
histogram techniques.  scipy.stats, for that likelihood, loads at a process's
first GP estimate, once (about 69 MB and 0.8-1.4 s, scipy.linalg with it), and
never in other processes.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .estimators import LocationEstimate, _check_scans, check_count
from .geo import GeoPoint, PlanarPoint, ScanVector, check_tower_id
from .radiomap import (check_positive_finite, derived_seed, json_array, json_value, load_document,
                       planar_truths, reading_arrays, save_document)

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
        for name in ("sigma_f2", "sigma_n2", "length_scale"):
            check_positive_finite(name, getattr(self, name))


def default_hyper_grid() -> list[GpHyperparams]:
    """The deterministic hyperparameter grid searched by :func:`gp_fit`."""
    return [
        GpHyperparams(sf2, sn2, ls)
        for ls in DEFAULT_LENGTH_SCALES_M
        for sf2 in DEFAULT_SIGNAL_VARS
        for sn2 in DEFAULT_NOISE_VARS
    ]


# ---------------------------------------------------------------------------
# Concurrency: LAPACK without the GIL, OpenBLAS on one thread
# ---------------------------------------------------------------------------

_T = TypeVar("_T")
_Control = tuple[Callable[[], int], Callable[[int], None]]
_ROUTINES = ("dsytrd", "dptsv", "dpotrf", "dtrtrs")  # every LAPACK routine GP calls
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _numpy_library() -> ctypes.CDLL | None:
    """numpy's core extension, through which the OpenBLAS it links resolves; None if unavailable."""
    try:
        return ctypes.CDLL(importlib.import_module("numpy._core._multiarray_umath").__file__)
    except (ImportError, OSError):  # numpy 1.x: no such module, or a Python shim
        return None


def _thread_control(library: ctypes.CDLL | None, suffix: str) -> tuple[_Control, ...]:
    """(get, set) of the thread count of the scipy-openblas behind ``library``, or () if it exports none."""
    try:
        get, set_ = (getattr(library, f"scipy_openblas_{verb}_num_threads{suffix}")
                     for verb in ("get", "set"))
    except AttributeError:
        return ()
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return ((get, set_),)


@functools.cache
def _lapack_library() -> tuple[dict[str, int], type[ctypes._SimpleCData], tuple[_Control, ...]]:
    """The library GP's LAPACK runs in, chosen once per process, at the first use.

    Returns each routine's address by name, the C type of LAPACK's integers
    and the thread controls the one-thread pin sets.  numpy 2's wheels link an
    ILP64 OpenBLAS that exports ``scipy_<name>_64_``.  Where numpy exports no
    such routines (numpy 1.x, Accelerate or MKL builds, Windows), scipy is
    imported and they are ``cython_lapack``'s, with 32-bit integers; numpy's
    OpenBLAS, where ``k*^T alpha`` runs, stays pinned too.
    """
    numpy_library = _numpy_library()
    controls = _thread_control(numpy_library, "64_")
    try:
        routines = [getattr(numpy_library, f"scipy_{name}_64_") for name in _ROUTINES]
    except AttributeError:  # also when numpy_library is None
        from scipy.linalg import cython_lapack
        capsules = [cython_lapack.__pyx_capi__[name] for name in _ROUTINES]
        addresses = [_capsule_pointer(c, _capsule_name(c)) for c in capsules]
        return (dict(zip(_ROUTINES, addresses)), ctypes.c_int,
                controls + _thread_control(ctypes.CDLL(cython_lapack.__file__), ""))
    addresses = [ctypes.cast(r, ctypes.c_void_p).value for r in routines]
    return dict(zip(_ROUTINES, addresses)), ctypes.c_int64, controls


class _OneBlasThread:
    """Re-entrant pin of the OpenBLAS libraries GP runs in to one thread.

    The count is process-wide: while any thread holds the pin, every BLAS
    call to those libraries runs single-threaded.  The outermost entry, before
    any LAPACK call under the pin, saves and pins :func:`_lapack_library`'s
    controls; the outermost exit restores them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[tuple[_Control, int]] = []

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                *_, controls = _lapack_library()
                self._saved = [(control, control[0]()) for control in controls]
                for (_, set_), _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_), count in self._saved:
                    set_(count)


_ONE_BLAS_THREAD = _OneBlasThread()


@functools.cache
def _lapack_function(name: str, n_args: int) -> tuple[Callable[..., None], type[ctypes._SimpleCData]]:
    """The ctypes prototype of LAPACK routine ``name`` and the C type of its integers."""
    addresses, c_int, _ = _lapack_library()
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(addresses[name]), c_int


def _lapack(name: str, *args: np.ndarray | bytes | int, query: bool = False) -> int:
    """``info`` of LAPACK routine ``name``, called without the GIL, which f2py wrappers hold.

    As in Fortran, every argument goes by address: an array, float64 in
    Fortran order, by its data pointer, a ``bytes`` flag or an ``int`` by
    reference, in the library's integer width; ``query`` appends lwork = -1,
    LAPACK's workspace query, and ``info`` is appended last.  Callers check
    shapes, since a wrong one lets LAPACK read past a buffer.  A negative
    ``int`` raises ``ValueError`` before the call, where LAPACK's error
    handler would print; any other argument LAPACK rejects (``info < 0``)
    raises the same ``ValueError`` after it.
    """
    for i, arg in enumerate(args, 1):
        if isinstance(arg, np.ndarray):
            if arg.dtype != np.float64 or not arg.flags.f_contiguous:
                raise ValueError("LAPACK buffers must be float64 and in Fortran order")
        elif not isinstance(arg, bytes) and arg < 0:
            raise ValueError(f"{name} rejected argument {i}")
    if query:
        args = (*args, -1)
    function, c_int = _lapack_function(name, len(args) + 1)
    refs = [arg.ctypes.data if isinstance(arg, np.ndarray)
            else ctypes.byref(ctypes.c_char(arg) if isinstance(arg, bytes) else c_int(arg)) for arg in args]
    info = c_int()
    function(*refs, ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"{name} rejected argument {-info.value}")
    return info.value


def _tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and subdiagonal of T = Q^T A Q by ``dsytrd``.

    ``a`` is symmetric and in Fortran order; its lower triangle is read and
    overwritten with the reflectors.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("dsytrd needs a square matrix")
    n = len(a)
    d, e, tau, work = np.empty(n), np.empty(n - 1), np.empty(n - 1), np.empty(1)
    _lapack("dsytrd", b"L", n, a, n, d, e, tau, work, query=True)
    work = np.empty(int(work[0]))
    _lapack("dsytrd", b"L", n, a, n, d, e, tau, work, len(work))
    return d, e


def _tridiagonal_inverse_00(d: np.ndarray, e: np.ndarray) -> float | None:
    """[T^-1]_00 for the tridiagonal T with diagonal ``d`` and subdiagonal ``e``, by ``dptsv``.

    ``d`` is overwritten with the pivots D of T = L D L^T.  None when T is
    not positive definite.
    """
    if d.ndim != 1 or e.shape != (len(d) - 1,):
        raise ValueError("dptsv needs n diagonal and n - 1 subdiagonal entries")
    x = np.zeros(len(d))
    x[0] = 1.0
    return float(x[0]) if _lapack("dptsv", len(d), 1, d, e, x, len(d)) == 0 else None


def _solve_lower_in_place(chol: np.ndarray, b: np.ndarray, trans: bytes = b"N") -> None:
    """Overwrite ``b``, (n, m) in Fortran order, with chol^-1 b (chol^-T b if ``trans`` is b"T")."""
    a = np.asfortranarray(chol)
    if b.ndim != 2 or a.shape != (len(b), len(b)):
        raise ValueError("dtrtrs needs an (n, n) factor and (n, m) right-hand sides")
    info = _lapack("dtrtrs", b"L", trans, b"N", len(b), b.shape[1], a, len(b), b, len(b))
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")


def _n_workers(n_tasks: int) -> int:
    """Threads for ``n_tasks`` tasks: one per usable CPU, at most one per task, at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks))


def _run_concurrently(tasks: Mapping[str, Callable[[], _T]], cost: Mapping[str, int]) -> dict[str, _T]:
    """Every task's result, in ``tasks`` order, from :func:`_n_workers` threads.

    Tasks start costliest first, under :data:`_ONE_BLAS_THREAD`.  The first
    task in ``tasks`` order that fails raises its exception unchanged, once
    the running tasks have finished and the queued ones are cancelled: no
    thread outlives the call.
    """
    with _ONE_BLAS_THREAD:
        pool = ThreadPoolExecutor(max_workers=_n_workers(len(tasks)))
        try:
            futures = {key: pool.submit(tasks[key]) for key in sorted(tasks, key=lambda k: -cost[k])}
            return {key: futures[key].result() for key in tasks}
        finally:
            pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Fit
# ---------------------------------------------------------------------------


def _sq_dists(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    dx = xa[:, None, 0] - xb[None, :, 0]
    dy = xa[:, None, 1] - xb[None, :, 1]
    dx *= dx
    dx += np.square(dy, out=dy)
    return dx


def _cholesky_with_jitter(k_noisy: np.ndarray, sigma_f2: float) -> np.ndarray:
    """Lower Cholesky factor, Fortran order, of the exactly symmetric ``k_noisy`` by ``dpotrf``."""
    n = len(k_noisy)
    if k_noisy.shape != (n, n):
        raise ValueError("dpotrf needs a square matrix")
    jitter = 0.0
    for retry in range(_JITTER_RETRIES + 1):
        upper = np.triu(k_noisy)  # fresh per attempt; upper.T = tril(K), zeros above left by dpotrf
        upper.flat[:: n + 1] += jitter
        if _lapack("dpotrf", b"L", n, upper.T, n) == 0:
            return upper.T
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
    k_noisy = np.negative(d2)
    k_noisy /= 2.0 * hyper.length_scale**2
    np.exp(k_noisy, out=k_noisy)
    k_noisy *= hyper.sigma_f2
    k_noisy.flat[:: len(d2) + 1] += hyper.sigma_n2
    chol = _cholesky_with_jitter(k_noisy, hyper.sigma_f2)
    alpha = yc.copy()
    for trans in (b"N", b"T"):  # alpha = chol^-T chol^-1 yc
        _solve_lower_in_place(chol, alpha[:, None], trans)
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
    with _ONE_BLAS_THREAD:
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
    bordered = np.empty((n + 1, n + 1), order="F")
    r = bordered[1:, 1:]
    tridiagonals: dict[float, tuple[np.ndarray, np.ndarray, float]] = {}
    for i, hyper in enumerate(candidates):
        if hyper.length_scale not in tridiagonals:
            np.negative(d2.T, out=r)  # d2 is exactly symmetric; .T matches the Fortran order
            r /= 2.0 * hyper.length_scale**2
            np.exp(r, out=r)
            bordered[0, 0] = 0.0
            bordered[1:, 0] = yc
            d, e = _tridiagonal(bordered)
            tridiagonals[hyper.length_scale] = d[1:], e[1:], e[0] ** 2
        d, e, yy = tridiagonals[hyper.length_scale]
        if hyper.sigma_n2 > 1e-6 * hyper.sigma_f2:
            pivots = hyper.sigma_f2 * d + hyper.sigma_n2
            inverse_00 = _tridiagonal_inverse_00(pivots, hyper.sigma_f2 * e)
            if inverse_00 is not None:
                lmls[i] = -0.5 * yy * inverse_00 - 0.5 * np.log(pivots).sum()
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
        ValueError: on arrays not shaped (n, 2) and (n,), with fewer than 2 training
            points or a NaN or infinite location or value, or ``max_points`` not an integer >= 2.
        GpFitError: if factorization fails even after jitter retries.
    """
    check_count("max_points", max_points, minimum=2)
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
    with _ONE_BLAS_THREAD:
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


def _predict_lattice(
    model: GpTowerModel, xs: np.ndarray, ys: np.ndarray, workspace: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at every (xs[i], ys[j]), x varying fastest.

    ``workspace``, of at least len(xs) * len(ys) * n_training floats, is overwritten.
    """
    n, nx, ny = model.n_training, len(xs), len(ys)
    scale = -0.5 / model.hyper.length_scale**2
    ex = np.exp(scale * (xs[:, None] - model.locations[:, 0]) ** 2)  # (nx, n)
    ey = model.hyper.sigma_f2 * np.exp(scale * (ys[:, None] - model.locations[:, 1]) ** 2)
    out = workspace[: ny * nx * n].reshape(ny, nx, n)
    k_star = np.multiply(ey[:, None, :], ex[None, :, :], out=out).reshape(-1, n).T  # (n, m), F order
    with _ONE_BLAS_THREAD:
        mean = k_star.T @ model.alpha + model.mean_offset
        _solve_lower_in_place(model.chol, k_star)  # k_star is now w = chol^-1 k*
    var = model.hyper.sigma_f2 - np.square(k_star, out=k_star).sum(axis=0)
    return mean, np.maximum(var, 0.0)


def gp_predict(model: GpTowerModel, p: PlanarPoint) -> tuple[float, float]:
    """Posterior mean and variance of the tower's ASU field at a point."""
    mean, var = _predict_lattice(model, np.array([p.x]), np.array([p.y]), np.empty(model.n_training))
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

    The towers are fitted concurrently, one thread per CPU the process may
    run on, the largest first, with every LAPACK call releasing the GIL and
    the OpenBLAS that numpy links pinned to one thread (with scipy's where
    numpy exports no LAPACK, both chosen before the first fit starts), the
    callers' counts restored after.  The models equal a serial loop of
    :func:`gp_fit`'s, bit for bit, at any BLAS thread count.  The first
    tower, in tower order, whose fit fails raises its exception once the
    other fits have stopped.
    """
    xy = planar_truths(scans, origin)[1]
    towers, n_read, reading_tower, reading_asu = reading_arrays(scans)
    # Readings grouped by tower; the stable sort keeps each tower's in scan order.
    order = np.argsort(reading_tower, kind="stable")
    reading_point = np.repeat(np.arange(len(scans)), n_read)[order]
    values = reading_asu[order]
    bounds = np.searchsorted(reading_tower[order], np.arange(len(towers) + 1)).tolist()

    fits: dict[str, Callable[[], GpTowerModel]] = {}
    sizes: dict[str, int] = {}
    for rank, tower_id in enumerate(towers):
        a, b = bounds[rank], bounds[rank + 1]
        if b - a < 2:
            continue
        fits[tower_id] = functools.partial(gp_fit, xy[reading_point[a:b]], values[a:b],
                                           max_points=max_points, seed=derived_seed(FIT_SEED, rank))
        sizes[tower_id] = min(b - a, max_points)
    return _run_concurrently(fits, sizes)


@dataclass(frozen=True, eq=False)
class PrecomputedGrid:
    """Per-tower GP posterior on a dense lattice.

    Construction checks every rule of a grid and raises ``ValueError`` on the
    first one broken: ``spacing`` is positive and finite; there is at least
    one point and one tower; ``means``, ``variances`` and ``noise_vars``
    name the same towers (:func:`~gsmloc.geo.check_tower_id`); each tower's
    mean and variance arrays have one entry per point; points and means are
    finite; variances are in [0, inf) and each ``noise_var`` is in (0, inf).
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
            check_tower_id(tid)
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
    """Evaluate every tower model on a regular lattice over finite, non-empty ``bounds``.

    The lattice includes both edges of each axis: a span of exactly
    ``k * spacing`` yields k + 1 points per axis.  Towers are evaluated
    concurrently, as in :func:`fit_tower_models`, under the same one-thread
    BLAS pin, so the grid's bits do not depend on the BLAS thread count.
    """
    check_positive_finite("spacing", spacing)
    x_min, y_min, x_max, y_max = bounds
    steps = ((x_max - x_min) / spacing, (y_max - y_min) / spacing)
    if not np.isfinite([*bounds, *steps]).all():  # finite bounds can span more than a float
        raise ValueError(f"bounds {tuple(bounds)} must be finite, and so must their span")
    if x_max < x_min or y_max < y_min:
        raise ValueError("bounds must not be empty")
    nx, ny = (int(math.floor(n + 1e-9)) + 1 for n in steps)
    xs = x_min + spacing * np.arange(nx)
    ys = y_min + spacing * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    # One k* workspace per thread, allocated by the caller: glibc keeps a
    # block that a worker thread frees in that thread's arena, resident, and
    # a k* block per task kept the rural seed-0 peak RSS about 7 MB higher.
    workspaces: queue.SimpleQueue[np.ndarray] = queue.SimpleQueue()
    for _ in range(_n_workers(len(models))):
        workspaces.put(np.empty(nx * ny * max((m.n_training for m in models.values()), default=0)))

    def lattice(model: GpTowerModel) -> tuple[np.ndarray, np.ndarray]:
        workspace = workspaces.get()
        try:
            return _predict_lattice(model, xs, ys, workspace)
        finally:
            workspaces.put(workspace)

    lattices = _run_concurrently({tid: functools.partial(lattice, models[tid]) for tid in sorted(models)},
                                 {tid: model.n_training for tid, model in models.items()})
    means = {tid: mean for tid, (mean, _) in lattices.items()}
    variances = {tid: var for tid, (_, var) in lattices.items()}
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
    # Kept: a numpy log density in scipy's order gives the same estimates bit for bit on
    # criterion 7's timing bed, but takes its GP/prob from 16.5-20.7x to 3.5-6.4x, under 10x.
    from scipy.stats import norm  # ~69 MB and ~1 s, paid only by processes that run GP
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
