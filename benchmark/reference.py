"""Brute-force references for the histogram estimators.

They re-derive every likelihood and distance from the raw histogram counts
and fingerprint points of a :class:`gsmloc.RadioMap`, summing logs one
Python float at a time, and share no code with the package's array paths.
Each reference returns ``None`` when its ranking has a numerical near-tie
at the selection boundary: log sums taken in another order may then
legitimately pick a different cell, so the window is not compared.
"""

from __future__ import annotations

import math

N_ASU_BINS = 32
TIE_REL = 1e-9


def _tied(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_REL * max(abs(a), abs(b), 1e-300)


def _log_scores(radio_map, scans, smoothing) -> dict:
    """Log P(scans | cell) per cell from raw counts, uniform prior."""
    out = {}
    for key, cell in radio_map.cells.items():
        score = 0.0
        for scan in scans:
            for tower_id, asu in scan.readings.items():
                hist = cell.histograms.get(tower_id)
                if hist is None:
                    p = smoothing.p_min
                else:
                    total = sum(hist.counts)
                    p = (hist.counts[asu] + smoothing.alpha) / (total + N_ASU_BINS * smoothing.alpha)
                score += math.log(p)
        out[key] = score
    return out


def _weighted_mean(radio_map, keys, weights) -> tuple[float, float]:
    total = sum(weights)
    x = sum(w * radio_map.cells[k].centroid.x for k, w in zip(keys, weights)) / total
    y = sum(w * radio_map.cells[k].centroid.y for k, w in zip(keys, weights)) / total
    return x, y


def probabilistic(radio_map, window, params):
    """Top-K cells by log posterior, weighted by their renormalized posteriors."""
    scores = _log_scores(radio_map, window, params.smoothing)
    ranked = sorted(scores, key=lambda key: (-scores[key], key))
    k = min(params.k, len(ranked))
    if k < len(ranked) and _tied(scores[ranked[k - 1]], scores[ranked[k]]):
        return None
    top = ranked[:k]
    best = scores[top[0]]
    return _weighted_mean(radio_map, top, [math.exp(scores[key] - best) for key in top])


def hybrid(radio_map, window, params):
    """Most probable cell from the first scan, then K nearest points in ASU space."""
    first = window[0]
    scores = _log_scores(radio_map, [first], params.smoothing)
    ranked = sorted(scores, key=lambda key: (-scores[key], key))
    if len(ranked) > 1 and _tied(scores[ranked[0]], scores[ranked[1]]):
        return None
    points = radio_map.cells[ranked[0]].points

    def sq_dist(readings) -> int:
        towers = readings.keys() | first.readings.keys()
        return sum((readings.get(t, 0) - first.readings.get(t, 0)) ** 2 for t in towers)

    order = sorted(range(len(points)), key=lambda i: (sq_dist(points[i].readings), i))
    chosen = order[: min(params.k, len(order))]
    x = sum(points[i].location.x for i in chosen) / len(chosen)
    y = sum(points[i].location.y for i in chosen) / len(chosen)
    return x, y


def cell_mean_asu(radio_map) -> dict:
    """Per-cell {tower: mean ASU} from raw histogram counts."""
    return {
        key: {
            tower_id: sum(asu * c for asu, c in enumerate(hist.counts)) / sum(hist.counts)
            for tower_id, hist in cell.histograms.items()
        }
        for key, cell in radio_map.cells.items()
    }


def deterministic(radio_map, window, params, means):
    """K nearest cells in mean-ASU space, inverse-distance weighted.

    ``means`` is :func:`cell_mean_asu` of the same map, computed once.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for scan in window:
        for tower_id, asu in scan.readings.items():
            sums[tower_id] = sums.get(tower_id, 0.0) + asu
            counts[tower_id] = counts.get(tower_id, 0) + 1
    query = {t: sums[t] / counts[t] for t in sums}

    dists = {}
    for key, cell_means in means.items():
        towers = query.keys() | cell_means.keys()
        dists[key] = math.sqrt(
            sum((query.get(t, 0.0) - cell_means.get(t, 0.0)) ** 2 for t in towers)
        )
    ranked = sorted(dists, key=lambda key: (dists[key], key))
    k = min(params.k, len(ranked))
    if k < len(ranked) and _tied(dists[ranked[k - 1]], dists[ranked[k]]):
        return None
    top = ranked[:k]
    return _weighted_mean(radio_map, top, [1.0 / (dists[key] + 1e-6) for key in top])
