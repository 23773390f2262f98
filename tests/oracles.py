"""Independent brute-force reference implementations for the estimators
and the synthetic world.

Everything here works in plain probability space with exhaustive
enumeration and naive dense linear algebra, re-deriving likelihoods from
raw histogram counts rather than calling the package's fast paths.  Tests
compare the package output against these on instances small enough that
probabilities do not underflow.  The map-build and synthetic-world
references work one scan, reading, tower or point at a time, in plain
Python floats.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from gsmloc.geo import PlanarPoint, ScanVector
from gsmloc.gp import GpHyperparams, GpTowerModel, PrecomputedGrid
from gsmloc.radiomap import N_ASU_BINS, RadioMap, SmoothingParams
from gsmloc.synth import D0_M, P0_DBM


def map_cells(rm: RadioMap) -> dict:
    """The map's arrays as plain dicts, one per cell, keyed by (row, col) in key order.

    Each cell is ``{"centroid": (x, y), "histograms": {tower_id: [32 counts]},
    "points": [(x, y, {tower_id: asu}), ...]}``, its points in stored order.
    Read from the array fields with plain loops, through none of the map's
    own accessors and not through its save path.
    """
    towers = sorted(rm.tower_ids)
    cells = {key: {"centroid": (x, y), "histograms": {}, "points": []}
             for key, (x, y) in zip(rm.keys, rm.centroids.tolist())}
    for c, t, counts in zip(rm.hist_cell.tolist(), rm.hist_tower.tolist(), rm.counts.tolist()):
        cells[rm.keys[c]]["histograms"][towers[t]] = counts
    offsets, xy, n_read = rm.point_offsets.tolist(), rm.point_xy.tolist(), rm.n_read.tolist()
    columns, asus = rm.reading_tower.tolist(), rm.reading_asu.tolist()
    first = 0  # point i's readings are the n_read[i] after those of points 0..i-1
    for c, key in enumerate(rm.keys):
        for i in range(offsets[c], offsets[c + 1]):
            readings = {towers[columns[j]]: asus[j] for j in range(first, first + n_read[i])}
            first += n_read[i]
            cells[key]["points"].append((*xy[i], readings))
    return cells


def likelihood_from_counts(cell: dict, tower_id: str, asu: int, sm: SmoothingParams) -> float:
    """P(asu | cell) for one tower of a :func:`map_cells` cell, from its raw counts."""
    counts = cell["histograms"].get(tower_id)
    if counts is None:
        return sm.p_min
    return (counts[asu] + sm.alpha) / (sum(counts) + N_ASU_BINS * sm.alpha)


def cell_probabilities(rm: RadioMap, scans, sm: SmoothingParams) -> dict:
    """P(window | cell) per cell, plain product in probability space."""
    out = {}
    for key, cell in map_cells(rm).items():
        p = 1.0
        for scan in scans:
            for tower_id, asu in scan.readings.items():
                p *= likelihood_from_counts(cell, tower_id, asu, sm)
        out[key] = p
    return out


def _weighted_centroid(rm: RadioMap, top, weights) -> tuple[float, float]:
    cells = map_cells(rm)
    x = sum(w * cells[key]["centroid"][0] for key, w in zip(top, weights))
    y = sum(w * cells[key]["centroid"][1] for key, w in zip(top, weights))
    return x, y


def brute_probabilistic(rm: RadioMap, scans, k: int, sm: SmoothingParams) -> tuple[float, float]:
    probs = cell_probabilities(rm, scans, sm)
    ranked = sorted(probs, key=lambda key: (-probs[key], key))
    top = ranked[: min(k, len(ranked))]
    weights = [probs[key] for key in top]
    total = sum(weights)
    if total == 0.0:
        weights = [1.0 / len(top)] * len(top)
    else:
        weights = [w / total for w in weights]
    return _weighted_centroid(rm, top, weights)


def brute_rssi_distance(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return math.sqrt(sum((a.get(t, 0) - b.get(t, 0)) ** 2 for t in keys))


def brute_hybrid(rm: RadioMap, scans, k_refine: int, sm: SmoothingParams) -> tuple[float, float]:
    """Most probable cell under the window's freshest scan, then its k_refine nearest points."""
    freshest = scans[-1]
    probs = cell_probabilities(rm, [freshest], sm)
    best = sorted(probs, key=lambda key: (-probs[key], key))[0]
    points = map_cells(rm)[best]["points"]
    order = sorted(
        range(len(points)),
        key=lambda i: (brute_rssi_distance(points[i][2], freshest.readings), i),
    )
    chosen = order[: min(k_refine, len(order))]
    x = sum(points[i][0] for i in chosen) / len(chosen)
    y = sum(points[i][1] for i in chosen) / len(chosen)
    return x, y


def deterministic_distances(rm: RadioMap, scans) -> dict:
    """Query-to-cell RSSI-space distances of the deterministic baseline."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for scan in scans:
        for tower_id, asu in scan.readings.items():
            sums[tower_id] = sums.get(tower_id, 0.0) + asu
            counts[tower_id] = counts.get(tower_id, 0) + 1
    query = {t: sums[t] / counts[t] for t in sums}

    cell_means = {}
    for key, cell in map_cells(rm).items():
        means = {}
        for tower_id, hist in cell["histograms"].items():
            means[tower_id] = sum(a * c for a, c in enumerate(hist)) / sum(hist)
        cell_means[key] = means
    return {key: brute_rssi_distance(query, means) for key, means in cell_means.items()}


def brute_deterministic(rm: RadioMap, scans, k: int) -> tuple[float, float]:
    dists = deterministic_distances(rm, scans)
    ranked = sorted(dists, key=lambda key: (dists[key], key))
    top = ranked[: min(k, len(ranked))]
    weights = [1.0 / (dists[key] + 1e-6) for key in top]
    total = sum(weights)
    weights = [w / total for w in weights]
    return _weighted_centroid(rm, top, weights)


def dense_deterministic(rm: RadioMap, scans, k: int) -> tuple[PlanarPoint, tuple]:
    """The deterministic baseline ranking every cell by its exact distance.

    The dense form the package used before its screen: (n_cells, n_towers)
    ``M - v`` squared and summed per row, a stable argsort over all cells
    and the same inverse-distance weights.  Returns the location and the
    contributing cells, which the package must match bit for bit.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for scan in scans:
        for tower_id, asu in scan.readings.items():
            sums[tower_id] = sums.get(tower_id, 0.0) + asu
            counts[tower_id] = counts.get(tower_id, 0) + 1
    query = {tid: sums[tid] / counts[tid] for tid in sums}

    tower_index = rm.tower_index()
    v = np.zeros(len(tower_index))
    unknown_sq = 0.0
    for tower_id, mean_asu in query.items():
        t = tower_index.get(tower_id)
        if t is None:
            unknown_sq += mean_asu * mean_asu
        else:
            v[t] = mean_asu
    diff = rm.mean_asu_matrix() - v
    dists = np.sqrt((diff * diff).sum(axis=1) + unknown_sq)

    k = min(k, rm.n_cells)
    nearest = np.argsort(dists, kind="stable")[:k]
    weights = 1.0 / (dists[nearest] + 1e-6)
    weights /= weights.sum()
    # The package's centroid rule: a plain-float sum from the first product.
    weights, rows = weights.tolist(), rm.centroid_array()[nearest].tolist()
    x, y = weights[0] * rows[0][0], weights[0] * rows[0][1]
    for w, (cx, cy) in zip(weights[1:], rows[1:]):
        x += w * cx
        y += w * cy
    contributing = tuple((rm.cell_keys()[i], w) for i, w in zip(nearest, weights))
    return PlanarPoint(x, y), contributing


def brute_gp_locate(grid: PrecomputedGrid, scans) -> tuple[float, float]:
    """Probability-space point weighting with scalar Gaussian densities."""
    weights = np.ones(grid.n_points)
    for scan in scans:
        for tower_id, asu in scan.readings.items():
            if tower_id not in grid.means:
                continue
            mu = grid.means[tower_id]
            var = grid.variances[tower_id] + grid.noise_vars[tower_id]
            for i in range(grid.n_points):
                d = asu - mu[i]
                weights[i] *= math.exp(-0.5 * d * d / var[i]) / math.sqrt(2 * math.pi * var[i])
    weights = weights / weights.sum()
    x = float((weights * grid.points[:, 0]).sum())
    y = float((weights * grid.points[:, 1]).sum())
    return x, y


def boundary_tie(values: dict, k: int, *, descending: bool, rel: float = 1e-9) -> bool:
    """True when the k-th and (k+1)-th ranked values are numerically tied.

    Exact mathematical ties (identical factor multisets) round differently
    in probability space and log space, so selection across the top-K
    boundary is implementation-defined there; comparisons skip such
    degenerate instances.
    """
    ranked = sorted(values.values(), reverse=descending)
    if k >= len(ranked):
        return False
    a, b = ranked[k - 1], ranked[k]
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) <= rel * scale


def kernel(p: PlanarPoint, q: PlanarPoint, hyper: GpHyperparams) -> float:
    """Squared-exponential covariance between two positions."""
    d2 = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
    return hyper.sigma_f2 * math.exp(-d2 / (2.0 * hyper.length_scale**2))


def naive_gp_posterior(
    train_x: np.ndarray,
    train_y: np.ndarray,
    hyper: GpHyperparams,
    query: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense-inverse GP posterior (mean-centered), no Cholesky anywhere."""

    def k(a, b):
        return hyper.sigma_f2 * math.exp(-((a - b) ** 2).sum() / (2 * hyper.length_scale**2))

    n = len(train_x)
    ybar = train_y.mean()
    yc = train_y - ybar
    cov = np.array([[k(train_x[i], train_x[j]) for j in range(n)] for i in range(n)])
    inv = np.linalg.inv(cov + hyper.sigma_n2 * np.eye(n))
    means, variances = [], []
    for q in query:
        k_star = np.array([k(train_x[i], q) for i in range(n)])
        means.append(k_star @ inv @ yc + ybar)
        variances.append(hyper.sigma_f2 - k_star @ inv @ k_star)
    return np.array(means), np.array(variances)


def dense_gp_predict(model: GpTowerModel, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at arbitrary points from the dense (n, m) k*.

    The fitted model's own Cholesky factor and alpha, with every kernel entry
    computed from the full squared distance, without the lattice factorization.
    """
    d2 = ((model.locations[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    k_star = model.hyper.sigma_f2 * np.exp(-d2 / (2.0 * model.hyper.length_scale**2))
    mean = k_star.T @ model.alpha + model.mean_offset
    w = solve_triangular(model.chol, k_star, lower=True)
    return mean, np.maximum(model.hyper.sigma_f2 - (w * w).sum(axis=0), 0.0)


def naive_log_marginal(train_x: np.ndarray, train_y: np.ndarray, hyper: GpHyperparams) -> float:
    def k(a, b):
        return hyper.sigma_f2 * math.exp(-((a - b) ** 2).sum() / (2 * hyper.length_scale**2))

    n = len(train_x)
    yc = train_y - train_y.mean()
    cov = np.array([[k(train_x[i], train_x[j]) for j in range(n)] for i in range(n)])
    noisy = cov + hyper.sigma_n2 * np.eye(n)
    sign, logdet = np.linalg.slogdet(noisy)
    assert sign > 0
    return float(-0.5 * yc @ np.linalg.inv(noisy) @ yc - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi))


def eigh_spectral_lmls(d2: np.ndarray, yc: np.ndarray, candidates) -> np.ndarray:
    """Every candidate's LML from one dense ``eigh`` of R per length scale.

    With R = V diag(lambda) V^T, sigma_f^2 R + sigma_n^2 I has eigenvalues
    sigma_f^2 lambda + sigma_n^2 on the same eigenvectors, so the quadratic
    form is sum((V^T yc)^2 / eig), and the log-determinant is sum(log(eig)).
    A spectrum whose minimum is <= 1e-6 sigma_f^2 gives +inf, "score exactly
    instead".  As lambda >= 0, such a candidate has sigma_n^2 <= 1e-6
    sigma_f^2, the package's rule, which can flag more candidates than this.
    """
    lmls = np.full(len(candidates), np.inf)
    spectra: dict = {}
    for i, hyper in enumerate(candidates):
        if hyper.length_scale not in spectra:
            lam, vecs = np.linalg.eigh(np.exp(-d2 / (2.0 * hyper.length_scale**2)))
            spectra[hyper.length_scale] = lam, (vecs.T @ yc) ** 2
        lam, proj2 = spectra[hyper.length_scale]
        eig = hyper.sigma_f2 * lam + hyper.sigma_n2
        if eig.min() > 1e-6 * hyper.sigma_f2:
            lmls[i] = -0.5 * (proj2 / eig).sum() - 0.5 * np.log(eig).sum()
    return lmls - 0.5 * len(yc) * math.log(2.0 * math.pi)


def random_instance(
    rng: np.random.Generator,
    *,
    max_cells: int = 10,
    max_points_per_cell: int = 10,
    max_towers: int = 5,
    grid_length: float = 50.0,
):
    """A small random radio map plus a random observation window.

    Returns (radio_map, window) with every scan drawing 1..min(3, towers)
    readings from a small tower pool.  Instances stay small enough for
    probability-space enumeration.
    """
    from gsmloc.geo import GeoPoint, unproject
    from gsmloc.radiomap import build_radio_map

    origin = GeoPoint(30.0, 31.0)
    n_towers = int(rng.integers(1, max_towers + 1))
    towers = [f"T{i}" for i in range(n_towers)]
    side = grid_length * math.ceil(math.sqrt(max_cells))
    n_scans = int(rng.integers(2, max_cells * max_points_per_cell // 2 + 2))
    scans = []
    for i in range(n_scans):
        p = PlanarPoint(rng.uniform(0, side), rng.uniform(0, side))
        n_read = int(rng.integers(1, n_towers + 1))
        chosen = rng.choice(n_towers, size=n_read, replace=False)
        readings = {towers[t]: int(rng.integers(0, 32)) for t in sorted(chosen)}
        scans.append(ScanVector(float(i), readings, truth=unproject(origin, p)))
    rm = build_radio_map(scans, grid_length, origin=origin)

    n_window = int(rng.integers(1, 4))
    window = []
    for j in range(n_window):
        n_read = int(rng.integers(1, n_towers + 1))
        chosen = rng.choice(n_towers, size=n_read, replace=False)
        readings = {towers[t]: int(rng.integers(0, 32)) for t in sorted(chosen)}
        window.append(ScanVector(float(1000 + j), readings))
    return rm, window


def scalar_radio_map(scans, grid_length: float, *, origin=None, tower_locations=None,
                     strip_points: bool = False, dropped=frozenset()) -> RadioMap:
    """The map ``build_radio_map`` builds, one scan and one reading at a time.

    Each truth is projected with ``project``, histograms are counted in
    dicts, and each centroid is a left-to-right Python-float sum over the
    cell's points in scan order.  ``dropped`` names towers removed as
    ``ablate_towers`` removes them: their readings go, then points left
    without readings and cells left without histograms.  The grid keeps the
    anchor of the whole trace, and a cell of a stripped map keeps the
    centroid of all its points.
    """
    from gsmloc.geo import GeoPoint, project

    if origin is None:
        lat = lon = 0.0  # left to right, as the centroids below: sum() compensates from 3.12 on
        for s in scans:
            lat += s.truth.lat
            lon += s.truth.lon
        origin = GeoPoint(lat / len(scans), lon / len(scans))
    pts = [project(origin, s.truth) for s in scans]
    ax, ay = min(p.x for p in pts), min(p.y for p in pts)
    towers = sorted({tid for s in scans for tid in s.readings} - set(dropped))
    column = {tid: i for i, tid in enumerate(towers)}
    members: dict = {}  # (row, col) -> [(point, [(column, asu), ...] sorted by column)]
    for scan, p in zip(scans, pts):
        key = (math.floor((p.y - ay) / grid_length), math.floor((p.x - ax) / grid_length))
        kept = sorted((column[tid], asu) for tid, asu in scan.readings.items() if tid in column)
        members.setdefault(key, []).append((p, kept))

    keys, centroids, hist_cell, hist_tower, counts = [], [], [], [], []
    point_xy, point_offsets, n_read, reading_tower, reading_asu = [], [0], [], [], []
    for key in sorted(members):
        kept_points = [(p, r) for p, r in members[key] if r]
        if not kept_points:
            continue
        averaged = members[key] if strip_points else kept_points
        sx = sy = 0.0
        for p, _ in averaged:
            sx += p.x
            sy += p.y
        centroids.append((sx / len(averaged), sy / len(averaged)))
        hists: dict = {}
        for _, r in kept_points:
            for t, asu in r:
                hists.setdefault(t, [0] * N_ASU_BINS)[asu] += 1
        for t in sorted(hists):
            hist_cell.append(len(keys))
            hist_tower.append(t)
            counts.append(hists[t])
        keys.append(key)
        if not strip_points:
            for p, r in kept_points:
                point_xy.append((p.x, p.y))
                n_read.append(len(r))
                for t, asu in r:
                    reading_tower.append(t)
                    reading_asu.append(asu)
        point_offsets.append(len(point_xy))

    planar_towers = None if tower_locations is None else {
        tid: project(origin, gp) for tid, gp in sorted(tower_locations.items())
        if tid not in dropped}
    return RadioMap(
        origin, float(grid_length), ax, ay, tuple(keys), centroids=centroids,
        hist_cell=hist_cell, hist_tower=hist_tower, counts=np.reshape(counts, (-1, N_ASU_BINS)),
        point_xy=np.reshape(point_xy, (-1, 2)), point_offsets=point_offsets,
        n_read=n_read, reading_tower=reading_tower, reading_asu=reading_asu,
        tower_ids=tuple(towers), tower_locations=planar_towers)


# ---------------------------------------------------------------------------
# Synthetic world: the static field, scans and traces one reading at a time
# ---------------------------------------------------------------------------


def scalar_received_dbm(world, rank: int, p: PlanarPoint) -> float:
    """Path loss plus bilinear shadowing of tower ``rank`` at ``p``.

    The tower's shadowing lattice is re-drawn from its seed on every call.
    """
    tower = world.towers[rank]
    d = math.hypot(tower.location.x - p.x, tower.location.y - p.y)
    dbm = tower.tx_power_dbm - (P0_DBM + 10.0 * world.exponent * math.log10(max(d, D0_M) / D0_M))
    if world.shadow_sigma_db > 0:
        x_min, y_min, x_max, y_max = world.bounds
        h = world.shadow_grid_spacing
        nx = int(math.ceil((x_max - x_min + 2 * h) / h)) + 1
        ny = int(math.ceil((y_max - y_min + 2 * h) / h)) + 1
        rng = np.random.default_rng(np.random.SeedSequence([world.seed, 1, rank]))
        v = rng.normal(0.0, world.shadow_sigma_db, size=(ny, nx)).tolist()
        gx = (p.x - (x_min - h)) / h
        gy = (p.y - (y_min - h)) / h
        i = min(max(int(math.floor(gx)), 0), nx - 2)
        j = min(max(int(math.floor(gy)), 0), ny - 2)
        fx = min(max(gx - i, 0.0), 1.0)
        fy = min(max(gy - j, 0.0), 1.0)
        dbm += (1 - fy) * ((1 - fx) * v[j][i] + fx * v[j][i + 1]) + fy * (
            (1 - fx) * v[j + 1][i] + fx * v[j + 1][i + 1]
        )
    return dbm


def scalar_scan(world, p: PlanarPoint, noise_rng=None):
    """Readings at ``p`` as ``[(tower_id, asu), ...]``, strongest first.

    One scalar noise draw per tower in world order, with the world's
    ``measurement_noise_db``, when ``noise_rng`` is given; ``None`` when no
    tower is audible.
    """
    from gsmloc.geo import SENSITIVITY_DBM, dbm_to_asu

    audible = []
    for rank, tower in enumerate(world.towers):
        dbm = scalar_received_dbm(world, rank, p)
        if noise_rng is not None:
            dbm += noise_rng.normal(0.0, world.measurement_noise_db)
        if dbm >= SENSITIVITY_DBM:
            audible.append((dbm, tower.tower_id))
    if not audible:
        return None
    audible.sort(key=lambda it: (-it[0], it[1]))
    return [(tid, dbm_to_asu(dbm)) for dbm, tid in audible[:7]]


def scalar_trace(world, route, seed: np.random.SeedSequence):
    """``(x, y, readings)`` per 1 Hz step along the route, stepped one at a time.

    The noise is the world's ``measurement_noise_db``, drawn from ``seed``,
    the route's seed sequence.
    """
    pts = route.waypoints
    seg_lengths = [math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(pts, pts[1:])]
    cumulative = [0.0]
    for length in seg_lengths:
        cumulative.append(cumulative[-1] + length)
    rng = np.random.default_rng(seed)
    out = []
    for t in range(int(math.ceil(cumulative[-1] / route.speed - 1e-9)) + 1):
        dist = min(t * route.speed, cumulative[-1])
        seg = max(k for k in range(len(seg_lengths)) if cumulative[k] <= dist)
        frac = (dist - cumulative[seg]) / seg_lengths[seg]
        x = pts[seg].x + frac * (pts[seg + 1].x - pts[seg].x)
        y = pts[seg].y + frac * (pts[seg + 1].y - pts[seg].y)
        out.append((x, y, scalar_scan(world, PlanarPoint(x, y), rng)))
    return out
