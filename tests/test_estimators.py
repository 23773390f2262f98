import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ORIGIN, scan_at_planar
from gsmloc.bench import DEFAULT_GRID_M, ablate_towers, preset_params
from gsmloc.estimators import (
    EstimatorParams,
    cell_log_posterior,
    cellid_locate,
    deterministic_locate,
    hybrid_locate,
    probabilistic_locate,
)
from gsmloc.geo import GeoPoint, PlanarPoint, ScanVector
from gsmloc.radiomap import (
    N_ASU_BINS,
    MapFormatError,
    SmoothingParams,
    build_radio_map,
    load_radio_map,
    save_radio_map,
)
from gsmloc.synth import generate_trace, make_preset
from oracles import (
    boundary_tie,
    brute_deterministic,
    brute_hybrid,
    brute_probabilistic,
    brute_rssi_distance,
    cell_probabilities,
    dense_deterministic,
    deterministic_distances as _oracle_cell_distances,
    map_cells,
    random_instance,
)


def scan(readings, t=100.0):
    return ScanVector(t, dict(readings))


def as_built(rm):
    return rm


@pytest.fixture(params=["loaded", "ablated"])
def remake(request, tmp_path):
    """The other two ways a map is made: saved then loaded, or with half of
    its towers ablated.  Every constructor builds the map's arrays itself."""
    def loaded(rm):
        path = str(tmp_path / "map.json")
        save_radio_map(rm, path)
        return load_radio_map(path)

    return {"loaded": loaded, "ablated": lambda rm: ablate_towers(rm, 0.5, 11)}[request.param]


class TestParams:
    """Parameters the estimators cannot use are refused at construction."""

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite number"):
            SmoothingParams(alpha=alpha)

    @pytest.mark.parametrize("name,value", [("k", 1.5), ("n_samples", 2.5),
                                            ("k", True), ("n_samples", True)])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EstimatorParams(**{name: value})

    def test_numpy_integers_accepted(self):
        params = EstimatorParams(n_samples=np.int64(3), k=np.intp(2))
        assert (params.n_samples, params.k) == (3, 2)

    @pytest.mark.parametrize("p_min", [0.0, 1.5])
    def test_p_min_must_be_a_probability(self, p_min):
        with pytest.raises(ValueError, match=r"p_min must be in \(0, 1\]"):
            SmoothingParams(p_min=p_min)


class TestLogPosterior:
    def test_single_cell_map_gets_finite_score(self):
        rm = build_radio_map([scan_at_planar(0, 1.0, 1.0, {"A": 10})], 70.0, origin=ORIGIN)
        scores = cell_log_posterior(rm, [scan({"A": 10})])
        assert len(scores) == 1
        assert math.isfinite(next(iter(scores.values())))

    def test_matching_cell_scores_higher(self):
        scans = [
            scan_at_planar(t, 10.0, 10.0, {"T": 10}) for t in range(4)
        ] + [
            scan_at_planar(t + 4, 100.0, 10.0, {"T": 20}) for t in range(4)
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        scores = cell_log_posterior(rm, [scan({"T": 10})])
        assert scores[(0, 0)] > scores[(0, 1)]

    def test_log_matches_probability_domain(self):
        rng = np.random.default_rng(41)
        sm = SmoothingParams()
        for _ in range(50):
            rm, window = random_instance(rng)
            scores = cell_log_posterior(rm, window, EstimatorParams(smoothing=sm))
            probs = cell_probabilities(rm, window, sm)
            for key, log_p in scores.items():
                assert math.exp(log_p) == pytest.approx(probs[key], rel=1e-12)

    def test_monotone_evidence_on_uniform_window(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            rm, window = random_instance(rng)
            readings = window[0].readings
            uniform = [ScanVector(float(i), dict(readings)) for i in range(3)]
            extended = uniform + [ScanVector(3.0, dict(readings))]
            s3 = cell_log_posterior(rm, uniform)
            s4 = cell_log_posterior(rm, extended)
            best = max(s3, key=lambda k: (s3[k], k))
            for key in s3:
                gap_before = s3[best] - s3[key]
                gap_after = s4[best] - s4[key]
                assert gap_after >= gap_before - 1e-9


class TestProbabilisticLocate:
    def test_k1_returns_map_cell_centroid(self, small_map):
        window = [scan({"A": 10, "B": 4})]
        est = probabilistic_locate(small_map, window, EstimatorParams(n_samples=1, k=1))
        scores = cell_log_posterior(small_map, window)
        best = min(scores, key=lambda key: (-scores[key], key))
        assert est.location == PlanarPoint(*map_cells(small_map)[best]["centroid"])
        assert est.contributing_cells == ((best, 1.0),)

    def test_equal_cells_k2_gives_midpoint(self):
        scans = [
            scan_at_planar(0, 10.0, 10.0, {"T": 15}),
            scan_at_planar(1, 100.0, 10.0, {"T": 15}),
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        est = probabilistic_locate(rm, [scan({"T": 15})], EstimatorParams(k=2))
        cents = [c["centroid"] for c in map_cells(rm).values()]
        assert est.location.x == pytest.approx(sum(x for x, _ in cents) / 2, abs=1e-9)
        assert est.location.y == pytest.approx(sum(y for _, y in cents) / 2, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, k):
        self._check_brute_force(k, as_built)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force_on_remade_map(self, k, remake):
        self._check_brute_force(k, remake)

    @staticmethod
    def _check_brute_force(k, remake):
        rng = np.random.default_rng(47 + k)
        sm = SmoothingParams()
        checked = 0
        while checked < 40:
            rm, window = random_instance(rng)
            rm = remake(rm)
            if boundary_tie(cell_probabilities(rm, window, sm), k, descending=True):
                continue  # top-K boundary tie: selection is domain-dependent
            est = probabilistic_locate(rm, window, EstimatorParams(k=k, smoothing=sm))
            bx, by = brute_probabilistic(rm, window, k, sm)
            assert est.location.x == pytest.approx(bx, abs=1e-9)
            assert est.location.y == pytest.approx(by, abs=1e-9)
            checked += 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_alpha_unseen_asu_falls_back_to_uniform_weights(self, k):
        # Every cell heard tower A, none at ASU 20: with alpha = 0 every
        # cell scores -inf, and the top K are weighted uniformly.
        scans = [
            scan_at_planar(t, x, 10.0, {"A": 10, "B": 12})
            for t, x in enumerate((10.0, 100.0, 190.0, 280.0))
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        sm = SmoothingParams(alpha=0.0)
        window = [scan({"A": 20, "B": 12})]
        est = probabilistic_locate(rm, window, EstimatorParams(k=k, smoothing=sm))
        assert est.log_score == -math.inf
        assert [key for key, _ in est.contributing_cells] == sorted(rm.keys)[:k]
        assert [w for _, w in est.contributing_cells] == [1.0 / k] * k
        bx, by = brute_probabilistic(rm, window, k, sm)
        assert est.location.x == pytest.approx(bx, abs=1e-9)
        assert est.location.y == pytest.approx(by, abs=1e-9)

    def test_weights_sum_to_one_inside_hull(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            rm, window = random_instance(rng)
            est = probabilistic_locate(rm, window, EstimatorParams(k=3))
            weights = [w for _, w in est.contributing_cells]
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)
            assert all(w >= 0 for w in weights)
            cells = map_cells(rm)
            xs = [cells[key]["centroid"][0] for key, _ in est.contributing_cells]
            ys = [cells[key]["centroid"][1] for key, _ in est.contributing_cells]
            assert min(xs) - 1e-9 <= est.location.x <= max(xs) + 1e-9
            assert min(ys) - 1e-9 <= est.location.y <= max(ys) + 1e-9

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(59)
        rm, window = random_instance(rng)
        a = probabilistic_locate(rm, window, EstimatorParams(k=2))
        b = probabilistic_locate(rm, window, EstimatorParams(k=2))
        assert a == b

    def test_empty_map_rejected(self, tmp_path):
        # A map without cells cannot be constructed or loaded, so no
        # estimator ever sees one.
        rm = build_radio_map([scan_at_planar(0, 1.0, 1.0, {"A": 1})], 70.0, origin=ORIGIN)
        with pytest.raises(ValueError, match="radio map has no cells"):
            dataclasses.replace(rm, keys=())
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        doc = json.loads(path.read_text())
        doc["keys"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="radio map has no cells"):
            load_radio_map(str(path))

    def test_unknown_tower_shifts_all_scores_uniformly(self):
        # A reading from a tower the map never heard adds the same floor
        # penalty to every cell: argmax, top-K and weights must not move.
        rng = np.random.default_rng(61)
        for _ in range(100):
            rm, window = random_instance(rng)
            params = EstimatorParams(k=2)
            base = probabilistic_locate(rm, window, params)
            noisy = list(window)
            readings = dict(noisy[-1].readings)
            if len(readings) >= 7:
                continue
            readings["UNSEEN-TOWER"] = 13
            noisy[-1] = ScanVector(noisy[-1].timestamp, readings)
            shifted = probabilistic_locate(rm, noisy, params)
            assert [key for key, _ in base.contributing_cells] == [
                key for key, _ in shifted.contributing_cells
            ]
            assert shifted.location.x == pytest.approx(base.location.x, abs=1e-9)
            assert shifted.location.y == pytest.approx(base.location.y, abs=1e-9)


class TestScanWindow:
    def test_rejects_empty(self, small_map):
        with pytest.raises(ValueError, match="at least one scan"):
            probabilistic_locate(small_map, ())

    def test_rejects_non_increasing(self, small_map):
        window = (scan({"A": 1}, t=5.0), scan({"A": 1}, t=5.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            probabilistic_locate(small_map, window)

    def test_accepts_tuple_window(self, small_map):
        w = (scan({"A": 10}, t=1.0), scan({"A": 11}, t=2.0))
        assert len(w) == 2
        assert w[0].timestamp == 1.0
        est = probabilistic_locate(small_map, w)
        assert est.location is not None


class TestRssiDistance:
    def test_identical_is_zero(self):
        assert brute_rssi_distance({"A": 10, "B": 5}, {"A": 10, "B": 5}) == 0.0

    def test_one_dimensional(self):
        assert brute_rssi_distance({"A": 10}, {"A": 13}) == pytest.approx(3.0)

    def test_disjoint_towers_imputed_as_zero(self):
        expected = pytest.approx(math.sqrt(200), abs=1e-12)
        assert brute_rssi_distance({"A": 10}, {"B": 10}) == expected

    def test_symmetry(self):
        a, b = {"A": 3, "B": 30}, {"B": 1, "C": 12}
        assert brute_rssi_distance(a, b) == brute_rssi_distance(b, a)


class TestHybridLocate:
    def test_single_point_cell_returns_that_point(self):
        scans = [scan_at_planar(0, 12.0, 34.0, {"A": 10})]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        for k in (1, 2, 5):
            est = hybrid_locate(rm, [scan({"A": 10})], k)
            assert est.location.x == pytest.approx(12.0, abs=1e-9)
            assert est.location.y == pytest.approx(34.0, abs=1e-9)

    def test_exact_signal_match_wins(self):
        scans = [
            scan_at_planar(0, 10.0, 10.0, {"A": 10, "B": 20}),
            scan_at_planar(1, 60.0, 60.0, {"A": 25, "B": 3}),
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        est = hybrid_locate(rm, [scan({"A": 25, "B": 3})], 1)
        assert est.location.x == pytest.approx(60.0, abs=1e-9)
        assert est.location.y == pytest.approx(60.0, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2])
    def test_window_placed_by_its_freshest_scan(self, small_map, k):
        # A drive from the first cell to the last: the window is placed
        # where its last scan is, the position evaluate measures it against.
        s0, s1, s2 = (scan({"A": a, "B": b}, float(t))
                      for t, (a, b) in enumerate([(10, 4), (20, 10), (30, 22)]))
        est = hybrid_locate(small_map, [s0, s1, s2], k)
        assert est == hybrid_locate(small_map, [s2], k)
        assert est != hybrid_locate(small_map, [s0], k)

    def test_matches_brute_force(self):
        self._check_brute_force(as_built)

    def test_matches_brute_force_on_remade_map(self, remake):
        self._check_brute_force(remake)

    @staticmethod
    def _check_brute_force(remake):
        rng = np.random.default_rng(67)
        sm = SmoothingParams()
        checked = 0
        while checked < 40:
            rm, window = random_instance(rng)
            rm = remake(rm)
            freshest = window[-1]
            if boundary_tie(cell_probabilities(rm, [freshest], sm), 1, descending=True):
                continue  # phase-1 argmax tie: domain-dependent
            for k in (1, 2, 3):
                est = hybrid_locate(rm, window, k, sm)
                key = est.contributing_cells[0][0]
                dists = {
                    i: brute_rssi_distance(readings, freshest.readings)
                    for i, (_, _, readings) in enumerate(map_cells(rm)[key]["points"])
                }
                if boundary_tie(dists, k, descending=False):
                    continue
                bx, by = brute_hybrid(rm, window, k, sm)
                assert est.location.x == pytest.approx(bx, abs=1e-9)
                assert est.location.y == pytest.approx(by, abs=1e-9)
            checked += 1

    def test_output_inside_map_cell_point_hull(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            rm, window = random_instance(rng)
            est = hybrid_locate(rm, window, 3)
            ((key, _),) = est.contributing_cells
            points = map_cells(rm)[key]["points"]
            xs = [x for x, _, _ in points]
            ys = [y for _, y, _ in points]
            assert min(xs) - 1e-9 <= est.location.x <= max(xs) + 1e-9
            assert min(ys) - 1e-9 <= est.location.y <= max(ys) + 1e-9

    def test_stripped_map_rejected(self):
        rm = build_radio_map(
            [scan_at_planar(0, 1.0, 1.0, {"A": 10})], 70.0, origin=ORIGIN, strip_points=True
        )
        with pytest.raises(ValueError, match="strip"):
            hybrid_locate(rm, [scan({"A": 10})], 1)

    def test_k_refine_below_1_rejected(self, small_map):
        with pytest.raises(ValueError, match=r"^k_refine must be an integer >= 1, got 0$"):
            hybrid_locate(small_map, [scan({"A": 10})], k_refine=0)

    @pytest.mark.parametrize("k_refine", [True, 1.5, 2.0])
    def test_k_refine_that_is_not_an_integer_rejected(self, small_map, k_refine):
        # EstimatorParams' count rule: a bool or a float is not a count.
        with pytest.raises(ValueError, match=rf"^k_refine must be an integer >= 1, got {k_refine}$"):
            hybrid_locate(small_map, [scan({"A": 10})], k_refine=k_refine)


class TestDeterministicLocate:
    def test_single_cell_returns_centroid(self):
        scans = [scan_at_planar(0, 5.0, 5.0, {"A": 10}), scan_at_planar(1, 15.0, 25.0, {"A": 12})]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        est = deterministic_locate(rm, [scan({"A": 11})], EstimatorParams(k=1))
        (cell,) = map_cells(rm).values()
        assert est.location == PlanarPoint(*cell["centroid"])

    def test_equidistant_cells_k2_gives_midpoint(self):
        scans = [
            scan_at_planar(0, 10.0, 10.0, {"T": 10}),
            scan_at_planar(1, 100.0, 10.0, {"T": 20}),
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        est = deterministic_locate(rm, [scan({"T": 15})], EstimatorParams(k=2))
        cents = [c["centroid"] for c in map_cells(rm).values()]
        assert est.location.x == pytest.approx(sum(x for x, _ in cents) / 2, abs=1e-9)

    def test_matches_brute_force(self):
        self._check_brute_force(as_built)

    def test_matches_brute_force_on_remade_map(self, remake):
        self._check_brute_force(remake)

    @staticmethod
    def _check_brute_force(remake):
        rng = np.random.default_rng(73)
        checked = 0
        while checked < 40:
            rm, window = random_instance(rng)
            rm = remake(rm)
            dists = _oracle_cell_distances(rm, window)
            if any(boundary_tie(dists, k, descending=False) for k in (1, 2, 4)):
                continue
            for k in (1, 2, 4):
                est = deterministic_locate(rm, window, EstimatorParams(k=k))
                bx, by = brute_deterministic(rm, window, k)
                assert est.location.x == pytest.approx(bx, abs=1e-9)
                assert est.location.y == pytest.approx(by, abs=1e-9)
            checked += 1

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(79)
        rm, window = random_instance(rng)
        est = deterministic_locate(rm, window, EstimatorParams(k=3))
        assert sum(w for _, w in est.contributing_cells) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def preset_maps():
    """The rural and urban seed-0 test traces and 70 m maps."""
    out = {}
    for preset in ("rural", "urban"):
        world, routes = make_preset(preset, 0)
        out[preset] = (generate_trace(world, routes["test"]),
                       build_radio_map(generate_trace(world, routes["train"]), DEFAULT_GRID_M))
    return out


@pytest.mark.parametrize("alpha", [0.5, 0.1, 1.0])
@pytest.mark.parametrize("preset", ["rural", "urban"])
def test_log_table_equals_a_math_log_table_bit_for_bit(preset_maps, preset, alpha):
    """The table takes ``np.log``, whose last bit may move with the CPU's SIMD
    level, as ``np.exp``'s did; on these maps it equals libm's ``math.log``.
    Should it differ on some machine, the table takes ``math.log``."""
    _, rm = preset_maps[preset]
    smoothing = SmoothingParams(alpha=alpha)
    table = rm.log_likelihood_table(smoothing)
    expected = np.full(table.shape, math.log(smoothing.p_min))
    for t, c, counts in zip(rm.hist_tower.tolist(), rm.hist_cell.tolist(), rm.counts.tolist()):
        total = sum(counts) + N_ASU_BINS * alpha
        expected[t, :, c] = [math.log((n + alpha) / total) for n in counts]
    assert table.tobytes() == expected.tobytes()


class TestDeterministicScreen:
    """The screened KNN equals the dense ranking of every cell bit for bit."""

    @staticmethod
    def _assert_dense(rm, window, k):
        est = deterministic_locate(rm, window, EstimatorParams(k=k))
        assert (est.location, est.contributing_cells) == dense_deterministic(rm, window, k)

    @staticmethod
    def _grid_map(fingerprints, n_cols):
        """One 50 m cell per fingerprint, row by row; the extra metre per
        row and column keeps every point off a cell edge."""
        return build_radio_map(
            [scan_at_planar(i, 51.0 * (i % n_cols), 51.0 * (i // n_cols), r)
             for i, r in enumerate(fingerprints)], 50.0, origin=ORIGIN)

    @pytest.mark.parametrize("label", ["full", "ablated"])
    @pytest.mark.parametrize("preset", ["rural", "urban"])
    def test_matches_dense_on_preset_maps(self, preset_maps, preset, label):
        test, rm = preset_maps[preset]
        if label == "ablated":
            rm = ablate_towers(rm, 0.4, 7)
        params = preset_params(preset, "deterministic")
        for k in (1, params.k, rm.n_cells - 1, rm.n_cells, rm.n_cells + 3):
            for i in range(len(test)):
                self._assert_dense(rm, test[max(0, i + 1 - params.n_samples) : i + 1], k)

    def test_exact_ties_straddle_the_k_boundary(self):
        # Cells 1-4 share one fingerprint, so their distances to any query
        # are equal; the assertion checks that k = 2 or 3 falls inside them.
        fingerprints = [{"A": 12}, {"A": 10, "B": 5}, {"A": 10, "B": 5}, {"A": 10, "B": 5},
                        {"A": 10, "B": 5}, {"A": 3, "C": 7}]
        rm = self._grid_map(fingerprints, 6)
        assert rm.n_cells == 6
        for query in ({"A": 10, "B": 5}, {"A": 11, "B": 4}, {"A": 4, "C": 6}, {"B": 5, "Z": 8}):
            dists = sorted(_oracle_cell_distances(rm, [scan(query)]).values())
            assert dists.count(dists[1]) >= 4 or dists.count(dists[2]) >= 4
            for k in range(1, rm.n_cells + 2):
                self._assert_dense(rm, [scan(query)], k)

    # Maps and windows where two cells' exact distances tie, or nearly, and
    # rounding ranks them one way in the screen and the other way exactly:
    # keeping only the k smallest screen values would drop the true nearest.
    ROUNDING_CASES = [
        ([(14, 15, 1), (28, 8, 20), (16, 28, 14), (18, 17, 9)],
         [(10, 18, 29), (10, 4, 18), (9, 1, 21)], 1),
        ([(28, 29, 24), (3, 19, 24), (3, 24, 4), (19, 5, 9)],
         [(20, 2, 17), (15, 24, 24), (12, 26, 0), (16, 29, 16), (14, 0, 16), (11, 25, 2),
          (12, 30, 28)], 2),
        ([(26, 19, 30), (20, 17, 2), (17, 16, 2)],
         [(22, 0, 21), (31, 1, 25), (15, 26, 12), (20, 15, 13), (26, 9, 2), (10, 1, 30)], 2),
    ]

    @pytest.mark.parametrize("cells, scans, k", ROUNDING_CASES)
    def test_rounding_near_ties_stay_in_the_screen(self, cells, scans, k):
        rm = self._grid_map([dict(zip("ABC", asus)) for asus in cells], len(cells))
        window = [scan(dict(zip("ABC", asus)), float(t)) for t, asus in enumerate(scans)]
        self._assert_dense(rm, window, k)

    def test_random_maps_with_repeated_fingerprints(self):
        # 24 cells drawn from 3 fingerprints: most k fall inside a tie.
        rng = np.random.default_rng(83)
        towers = ["A", "B", "C", "D", "E"]
        for _ in range(20):
            patterns = [{t: int(rng.integers(0, 32)) for t in rng.choice(towers, 3, replace=False)}
                        for _ in range(3)]
            rm = self._grid_map([patterns[rng.integers(0, 3)] for _ in range(24)], 6)
            assert rm.n_cells == 24
            for t in range(5):
                heard = rng.choice(towers + ["X", "Y"], 3, replace=False)
                window = [scan({tid: int(rng.integers(0, 32)) for tid in heard}, 100.0 + t)]
                for k in range(1, rm.n_cells + 2):
                    self._assert_dense(rm, window, k)

    def test_window_of_towers_unknown_to_the_map(self, preset_maps):
        _, rm = preset_maps["rural"]
        window = [scan({"X1": 20, "X2": 9}, 1.0), scan({"X1": 23, "X3": 0}, 2.0)]
        assert not set(rm.tower_index()) & {"X1", "X2", "X3"}
        for k in (1, preset_params("rural", "deterministic").k, rm.n_cells):
            self._assert_dense(rm, window, k)


class TestCellIdLocate:
    @staticmethod
    def _map_with_towers(towers):
        scans = [scan_at_planar(0, 1.0, 1.0, {tid: 5 for tid in towers})]
        return build_radio_map(
            scans,
            70.0,
            origin=ORIGIN,
            tower_locations={tid: GeoPoint(30.0 + i * 0.001, 31.0) for i, tid in enumerate(sorted(towers))},
        )

    def test_strongest_tower_wins(self):
        rm = self._map_with_towers(["A", "B"])
        est = cellid_locate(rm, scan({"A": 20, "B": 10}))
        assert est.location == rm.tower_locations["A"]

    def test_single_tower(self):
        rm = self._map_with_towers(["A"])
        est = cellid_locate(rm, scan({"A": 3}))
        assert est.location == rm.tower_locations["A"]

    def test_tie_breaks_lexicographically(self):
        rm = self._map_with_towers(["A", "B"])
        est = cellid_locate(rm, scan({"B": 15, "A": 15}))
        assert est.location == rm.tower_locations["A"]

    def test_missing_registry_rejected(self):
        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 5})]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        with pytest.raises(ValueError, match="tower locations"):
            cellid_locate(rm, scan({"A": 5}))

    def test_unknown_tower_rejected(self):
        rm = self._map_with_towers(["A"])
        with pytest.raises(ValueError, match="ZZ"):
            cellid_locate(rm, scan({"ZZ": 30}))


@settings(max_examples=300, deadline=None)
@given(
    # Exact binary fractions keep the shifted addition exact, so this tests
    # the selection rule, not float rounding.
    scores=st.lists(
        st.integers(min_value=-4000, max_value=0).map(lambda n: n / 8.0),
        min_size=1,
        max_size=12,
    ),
    shift=st.integers(min_value=-1600, max_value=1600).map(lambda n: n / 8.0),
    k=st.integers(min_value=1, max_value=5),
)
def test_topk_selection_invariant_under_uniform_shift(scores, shift, k):
    """Adding any constant to all log scores never changes argmax or top-K."""
    keys = [(0, i) for i in range(len(scores))]

    def select(vals):
        order = sorted(keys, key=lambda key: (-vals[key[1]], key))
        return order[: min(k, len(order))]

    assert select(scores) == select([s + shift for s in scores])


def test_reference_helpers_are_not_package_api():
    # Scalar references live in tests/oracles.py; the package ships only the fast paths.
    import gsmloc
    from gsmloc import estimators, gp, radiomap

    for name in ("rssi_distance", "cell_likelihood", "kernel", "ScanWindow"):
        for module in (gsmloc, estimators, gp, radiomap):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
