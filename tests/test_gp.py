import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import gsmloc
from conftest import ORIGIN, scan_at_planar
from gsmloc import gp
from gsmloc.geo import PlanarPoint, ProjectionRangeWarning, ScanVector
from gsmloc.gp import (
    GpFitError,
    GpHyperparams,
    _spectral_lmls,
    default_hyper_grid,
    fit_tower_models,
    gp_build_grid,
    gp_fit,
    gp_locate,
    gp_log_marginal_likelihood,
    gp_predict,
    load_grid,
    save_grid,
)
from gsmloc.radiomap import MAP_FORMAT_VERSION, MapFormatError, build_radio_map
from gsmloc.synth import generate_trace, make_preset
from oracles import (
    brute_gp_locate,
    dense_gp_predict,
    eigh_spectral_lmls,
    kernel,
    naive_gp_posterior,
    naive_log_marginal,
)

HYPER = GpHyperparams(sigma_f2=100.0, sigma_n2=4.0, length_scale=100.0)


def random_model(rng):
    """A GP fitted with one random hyperparameter triple to a noisy random field."""
    x, y = random_training(rng, n=int(rng.integers(5, 60)))
    hyper = GpHyperparams(
        float(rng.choice([25.0, 100.0, 400.0])),
        float(rng.choice([1.0, 4.0, 16.0])),
        float(rng.choice([50.0, 100.0, 200.0, 400.0])),
    )
    return gp_fit(x, y + rng.normal(0, 1.0, size=len(y)), [hyper])


def random_training(rng, n=30, side=400.0):
    x = rng.uniform(0, side, size=(n, 2))
    field = 15.0 + 8.0 * np.sin(x[:, 0] / 120.0) + 5.0 * np.cos(x[:, 1] / 90.0)
    return x, field


class TestKernel:
    def test_zero_distance_is_signal_variance(self):
        p = PlanarPoint(3.0, 4.0)
        assert kernel(p, p, HYPER) == HYPER.sigma_f2

    def test_length_scale_times_sqrt2(self):
        hyper = GpHyperparams(1.0, 1.0, 50.0)
        p, q = PlanarPoint(0.0, 0.0), PlanarPoint(50.0 * math.sqrt(2), 0.0)
        assert kernel(p, q, hyper) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_monotone_decay(self):
        p = PlanarPoint(0.0, 0.0)
        values = [kernel(p, PlanarPoint(d, 0.0), HYPER) for d in (0, 50, 100, 400, 2000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6 * HYPER.sigma_f2

    def test_hyperparams_validated(self):
        with pytest.raises(ValueError):
            GpHyperparams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GpHyperparams(1.0, -1.0, 1.0)


class TestFit:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            gp_fit(np.zeros((1, 2)), np.zeros(1))

    def test_constant_data_sane(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 300, size=(40, 2))
        y = np.full(40, 17.0) + rng.normal(0, 0.01, size=40)
        model = gp_fit(x, y)
        for q in x[:5]:
            mean, _ = gp_predict(model, PlanarPoint(*q))
            assert mean == pytest.approx(17.0, abs=math.sqrt(model.hyper.sigma_n2))

    def test_interpolates_noiseless_field_with_tiny_noise_floor(self):
        # Custom grid whose minimum noise is tiny: a smooth noiseless field
        # must be reproduced at the training points almost exactly.
        rng = np.random.default_rng(1)
        x, y = random_training(rng, n=50)
        grid = [GpHyperparams(100.0, sn2, 150.0) for sn2 in (1e-8, 1.0)]
        model = gp_fit(x, y, grid)
        assert model.hyper.sigma_n2 == 1e-8
        for i in range(10):
            mean, _ = gp_predict(model, PlanarPoint(*x[i]))
            assert abs(mean - y[i]) <= 1e-3

    def test_selected_hyper_attains_grid_max(self):
        rng = np.random.default_rng(2)
        x, y = random_training(rng, n=35)
        y = y + rng.normal(0, 2.0, size=len(y))
        model = gp_fit(x, y)
        lml = {h: gp_log_marginal_likelihood(x, y, h) for h in default_hyper_grid()}
        assert model.log_marginal == pytest.approx(max(lml.values()), rel=1e-9)

    def test_subsampling_is_seeded(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 500, size=(80, 2))
        y = rng.uniform(0, 31, size=80)
        grid = [HYPER]
        m1 = gp_fit(x, y, grid, max_points=40, seed=11)
        m2 = gp_fit(x, y, grid, max_points=40, seed=11)
        m3 = gp_fit(x, y, grid, max_points=40, seed=12)
        assert np.array_equal(m1.locations, m2.locations)
        assert not np.array_equal(m1.locations, m3.locations)
        assert m1.n_training == 40

    def test_gp_fit_error_after_the_jitter_retries(self, monkeypatch):
        calls = []

        def never_positive_definite(matrix, **kwargs):
            calls.append(matrix)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp, "cholesky", never_positive_definite)
        x, y = random_training(np.random.default_rng(6), n=20)
        with pytest.raises(GpFitError, match="not positive definite even after jitter"):
            gp_fit(x, y, [HYPER])
        assert len(calls) == 4  # the plain matrix, then three jitters

    def test_factorization_reproduces_kernel_matrix(self):
        rng = np.random.default_rng(4)
        x, y = random_training(rng, n=40)
        model = gp_fit(x, y, [HYPER])
        k_noisy = np.array(
            [
                [kernel(PlanarPoint(*a), PlanarPoint(*b), HYPER) for b in model.locations]
                for a in model.locations
            ]
        ) + HYPER.sigma_n2 * np.eye(model.n_training)
        rebuilt = model.chol @ model.chol.T
        rel = np.linalg.norm(rebuilt - k_noisy) / np.linalg.norm(k_noisy)
        assert rel < 1e-8


class TestSelection:
    """``gp_fit``'s grid choice against dense per-candidate LMLs."""

    @staticmethod
    def _dense_argmax(x, y, grid):
        lmls = [gp_log_marginal_likelihood(x, y, h) for h in grid]
        best = max(range(len(grid)), key=lambda i: (lmls[i], -i))
        return best, lmls[best]

    @pytest.mark.parametrize("n", [5, 50, 200])
    def test_selects_dense_grid_argmax(self, n):
        rng = np.random.default_rng(100 + n)
        for side in (150.0, 600.0, 2000.0):
            x, y = random_training(rng, n=n, side=side)
            y = y + rng.normal(0, 1.5, size=n)
            grid = default_hyper_grid()
            model = gp_fit(x, y, grid)
            best, lml = self._dense_argmax(x, y, grid)
            assert model.hyper == grid[best]
            assert model.log_marginal == lml

    def test_tie_goes_to_earlier_entry(self):
        rng = np.random.default_rng(21)
        x, y = random_training(rng, n=30)
        grid = [c for h in default_hyper_grid() for c in (h, dataclasses.replace(h))]
        model = gp_fit(x, y, grid)
        best, _ = self._dense_argmax(x, y, grid)
        assert model.hyper is grid[best]

    def test_jittered_candidates_match_dense_loop(self):
        # Duplicated locations make K singular; with sigma_n^2 = 1e-10 the
        # plain Cholesky fails and the factorization must add jitter.
        rng = np.random.default_rng(22)
        x, y = random_training(rng, n=10)
        x, y = np.vstack([x, x]), np.concatenate([y, y])
        grid = [GpHyperparams(1e6, sn2, ls) for ls in (100.0, 400.0) for sn2 in (1e-10, 1.0)]
        lmls, plain_fails = [], []
        for h in grid:
            k_noisy = np.array(
                [[kernel(PlanarPoint(*a), PlanarPoint(*b), h) for b in x] for a in x]
            ) + h.sigma_n2 * np.eye(len(x))
            try:
                np.linalg.cholesky(k_noisy)
                plain_fails.append(False)
            except np.linalg.LinAlgError:
                plain_fails.append(True)
            lmls.append(gp_log_marginal_likelihood(x, y, h))
        best = lmls.index(max(lmls))
        assert plain_fails[best]
        model = gp_fit(x, y, grid)
        assert model.hyper is grid[best]
        assert model.log_marginal == lmls[best]

    @staticmethod
    def _spectral_pair(x, y, grid):
        """The package's tridiagonal LMLs and the eigh oracle's, on the same input."""
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        yc = y - y.mean()
        return _spectral_lmls(d2, yc, grid), eigh_spectral_lmls(d2, yc, grid)

    @staticmethod
    def _assert_lmls_agree(got, want):
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert finite.any()
        err = np.abs(got[finite] - want[finite])
        assert (err <= 1e-9 * np.maximum(1.0, np.abs(want[finite]))).all(), err.max()

    @pytest.mark.parametrize("n", [2, 5, 50, 200, 500])
    def test_tridiagonal_lmls_match_eigh_oracle(self, n):
        rng = np.random.default_rng(300 + n)
        for side in (150.0, 600.0, 2000.0):
            x, y = random_training(rng, n=n, side=side)
            y = y + rng.normal(0, 1.5, size=n)
            self._assert_lmls_agree(*self._spectral_pair(x, y, default_hyper_grid()))

    def test_constant_targets_match_eigh_oracle(self):
        rng = np.random.default_rng(24)
        x, _ = random_training(rng, n=40)
        got, want = self._spectral_pair(x, np.full(40, 12.0), default_hyper_grid())
        self._assert_lmls_agree(got, want)
        # with yc = 0 only the log-determinant is left
        assert got[0] == pytest.approx(gp_log_marginal_likelihood(x, np.full(40, 12.0),
                                                                  default_hyper_grid()[0]))

    def test_duplicated_locations_give_inf_on_the_same_candidates(self):
        rng = np.random.default_rng(25)
        x, y = random_training(rng, n=15)
        x, y = np.vstack([x, x]), np.concatenate([y, y + 0.5])
        grid = [GpHyperparams(1e6, sn2, ls) for ls in (100.0, 400.0) for sn2 in (1e-10, 4.0)]
        got, want = self._spectral_pair(x, y, grid)
        assert np.isinf(want).tolist() == [True, False, True, False]
        self._assert_lmls_agree(got, want)

    def test_tiny_noise_scored_exactly_even_when_well_conditioned(self):
        # Far-apart points make R close to I, so the spectrum stays positive,
        # but sigma_n^2 <= 1e-6 sigma_f^2 alone sends a candidate to Cholesky.
        rng = np.random.default_rng(26)
        x, y = random_training(rng, n=12, side=5000.0)
        grid = [GpHyperparams(100.0, sn2, 50.0) for sn2 in (1e-5, 1e-3, 4.0)]
        got, want = self._spectral_pair(x, y, grid)
        assert np.isinf(got).tolist() == [True, False, False]
        assert np.isfinite(want).all()
        self._assert_lmls_agree(got[1:], want[1:])
        exact = [gp_log_marginal_likelihood(x, y, h) for h in grid]
        model = gp_fit(x, y, grid)
        assert model.hyper is grid[exact.index(max(exact))]
        assert model.log_marginal == max(exact)

    def test_rural_preset_fit_picks_the_eigh_ranking_choice(self):
        # Every tower of rural seed 0, re-ranked by the oracle under the same
        # rule: the near-best candidates are scored exactly, first max wins.
        world, routes = make_preset("rural", seed=0)
        train = generate_trace(world, routes["train"])
        models = fit_tower_models(train, build_radio_map(train, 70.0).origin)
        grid = default_hyper_grid()
        assert len(models) == 51
        for tid, model in models.items():
            x, y = model.locations, model.values
            yc = y - y.mean()
            spectral = eigh_spectral_lmls(((x[:, None] - x[None]) ** 2).sum(axis=2), yc, grid)
            top = spectral[np.isfinite(spectral)].max(initial=-np.inf)
            near = np.flatnonzero(spectral >= top - 1e-6 * max(1.0, abs(top)))
            exact = {i: gp_log_marginal_likelihood(x, y, grid[i]) for i in near}
            best = max(near, key=lambda i: (exact[i], -i))
            assert model.hyper == grid[best], tid
            assert model.log_marginal == exact[best], tid

    def test_non_finite_input_rejected(self):
        rng = np.random.default_rng(23)
        x, y = random_training(rng, n=10)
        bad_y = y.copy()
        bad_y[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            gp_fit(x, bad_y)
        bad_x = x.copy()
        bad_x[5, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            gp_fit(bad_x, y)

    @pytest.mark.parametrize("x,y,hyper_grid,message", [
        pytest.param(np.zeros((5, 2)), np.zeros(4), None, "match values", id="length_mismatch"),
        pytest.param(np.zeros((5, 3)), np.zeros(5), None, r"\(n, 2\)", id="three_columns"),
        pytest.param(np.zeros(5), np.zeros(5), None, r"\(n, 2\)", id="one_dimensional"),
        pytest.param(np.arange(10.0).reshape(5, 2), np.zeros(5), [], "at least one candidate",
                     id="empty_hyper_grid"),
    ])
    def test_bad_shape_or_empty_hyper_grid_rejected(self, x, y, hyper_grid, message):
        with pytest.raises(ValueError, match=message):
            gp_fit(x, y, hyper_grid)


class TestPredict:
    def test_far_query_reverts_to_training_mean(self):
        rng = np.random.default_rng(5)
        x, y = random_training(rng, n=30)
        model = gp_fit(x, y, [HYPER])
        mean, var = gp_predict(model, PlanarPoint(1e6, 1e6))
        assert mean == pytest.approx(float(y.mean()), abs=1e-6)
        assert var == pytest.approx(HYPER.sigma_f2, rel=1e-9)

    def test_training_point_with_vanishing_noise(self):
        rng = np.random.default_rng(6)
        x, y = random_training(rng, n=25)
        model = gp_fit(x, y, [GpHyperparams(100.0, 1e-8, 150.0)])
        mean, var = gp_predict(model, PlanarPoint(*x[3]))
        assert mean == pytest.approx(y[3], abs=1e-3)
        assert var < 1e-3

    def test_matches_naive_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x, y = random_training(rng, n=int(rng.integers(5, 45)))
            y = y + rng.normal(0, 1.0, size=len(y))
            model = gp_fit(x, y, [HYPER])
            queries = rng.uniform(-100, 500, size=(8, 2))
            naive_mean, naive_var = naive_gp_posterior(x, y, HYPER, queries)
            for q, nm, nv in zip(queries, naive_mean, naive_var):
                mean, var = gp_predict(model, PlanarPoint(*q))
                assert mean == pytest.approx(nm, abs=1e-8)
                assert var == pytest.approx(nv, abs=1e-8)

    def test_matches_dense_kernel_oracle_at_random_points(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            model = random_model(rng)
            queries = rng.uniform(-300, 700, size=(20, 2))
            dense_mean, dense_var = dense_gp_predict(model, queries)
            for q, dm, dv in zip(queries, dense_mean, dense_var):
                mean, var = gp_predict(model, PlanarPoint(*q))
                assert abs(mean - dm) <= 1e-9
                assert abs(var - dv) <= 1e-9

    def test_variance_bounds(self):
        rng = np.random.default_rng(8)
        x, y = random_training(rng, n=30)
        model = gp_fit(x, y)
        hi = model.hyper.sigma_f2 + model.hyper.sigma_n2
        for q in rng.uniform(-500, 1000, size=(50, 2)):
            _, var = gp_predict(model, PlanarPoint(*q))
            assert 0.0 <= var <= hi + 1e-9

    def test_log_marginal_matches_naive(self):
        rng = np.random.default_rng(9)
        for n in (5, 20, 50):
            x, y = random_training(rng, n=n)
            y = y + rng.normal(0, 1.5, size=n)
            for hyper in (HYPER, GpHyperparams(25.0, 1.0, 50.0)):
                ours = gp_log_marginal_likelihood(x, y, hyper)
                naive = naive_log_marginal(x, y, hyper)
                assert ours == pytest.approx(naive, abs=1e-6)


class TestGrid:
    @staticmethod
    def _models(rng, towers=("A", "B")):
        models = {}
        for tid in towers:
            x, y = random_training(rng, n=25)
            models[tid] = gp_fit(x, y, [HYPER])
        return models

    def test_lattice_count_1km_50m(self):
        rng = np.random.default_rng(10)
        grid = gp_build_grid(self._models(rng), (0.0, 0.0, 1000.0, 1000.0), 50.0, ORIGIN)
        assert grid.n_points == 21 * 21

    def test_single_tower_one_pair_per_point(self):
        rng = np.random.default_rng(11)
        grid = gp_build_grid(self._models(rng, ("A",)), (0.0, 0.0, 200.0, 100.0), 50.0, ORIGIN)
        assert grid.towers == ("A",)
        assert len(grid.means["A"]) == grid.n_points
        assert len(grid.variances["A"]) == grid.n_points

    def test_variances_non_negative(self):
        rng = np.random.default_rng(12)
        grid = gp_build_grid(self._models(rng), (0.0, 0.0, 500.0, 500.0), 100.0, ORIGIN)
        for tid in grid.towers:
            assert (grid.variances[tid] >= 0).all()

    @pytest.mark.parametrize("bounds,shape", [
        pytest.param((50.0, 60.0, 50.0, 60.0), (1, 1), id="1x1"),
        pytest.param((0.0, 60.0, 440.0, 60.0), (1, 12), id="1xN"),
        pytest.param((60.0, -40.0, 60.0, 480.0), (14, 1), id="Nx1"),
        pytest.param((-120.0, -80.0, 520.0, 360.0), (12, 17), id="NxM"),
    ])
    def test_lattice_matches_dense_kernel_oracle(self, bounds, shape):
        rng = np.random.default_rng(20)
        models = {str(i): random_model(rng) for i in range(6)}
        grid = gp_build_grid(models, bounds, 40.0, ORIGIN)
        assert grid.n_points == shape[0] * shape[1]
        for tid, model in models.items():
            dense_mean, dense_var = dense_gp_predict(model, grid.points)
            assert np.abs(grid.means[tid] - dense_mean).max() <= 1e-9
            assert np.abs(grid.variances[tid] - dense_var).max() <= 1e-9

    def test_bad_spacing(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            gp_build_grid(self._models(rng), (0.0, 0.0, 100.0, 100.0), 0.0, ORIGIN)

    @pytest.mark.parametrize("bounds,towers,message", [
        pytest.param((100.0, 0.0, 0.0, 100.0), ("A",), "bounds must not be empty", id="x_inverted"),
        pytest.param((0.0, 100.0, 100.0, 0.0), ("A",), "bounds must not be empty", id="y_inverted"),
        pytest.param((0.0, 0.0, 100.0, 100.0), (), "no towers", id="no_models"),
    ])
    def test_empty_lattice_or_no_models_rejected(self, bounds, towers, message):
        models = self._models(np.random.default_rng(13), towers)
        with pytest.raises(ValueError, match=message):
            gp_build_grid(models, bounds, 50.0, ORIGIN)

    def test_towers_follow_means(self):
        rng = np.random.default_rng(13)
        grid = gp_build_grid(self._models(rng), (0.0, 0.0, 100.0, 100.0), 50.0, ORIGIN)
        assert grid.towers == ("A", "B")
        only_b = {name: {"B": getattr(grid, name)["B"]}
                  for name in ("means", "variances", "noise_vars")}
        assert dataclasses.replace(grid, **only_b).towers == ("B",)


class TestGpLocate:
    @staticmethod
    def _grid(rng, bounds=(0.0, 0.0, 400.0, 400.0), spacing=200.0, towers=("A", "B")):
        models = {}
        for tid in towers:
            x, y = random_training(rng, n=25)
            models[tid] = gp_fit(x, y, [HYPER])
        return gp_build_grid(models, bounds, spacing, ORIGIN)

    def test_single_point_grid(self):
        rng = np.random.default_rng(14)
        grid = self._grid(rng, bounds=(50.0, 60.0, 50.0, 60.0), spacing=10.0)
        assert grid.n_points == 1
        est = gp_locate(grid, [ScanVector(0.0, {"A": 15})])
        assert est.location.x == pytest.approx(50.0)
        assert est.location.y == pytest.approx(60.0)

    def test_matches_probability_domain_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            grid = self._grid(rng)  # 3x3 = 9 points
            assert grid.n_points == 9
            window = [
                ScanVector(0.0, {"A": int(rng.integers(0, 32)), "B": int(rng.integers(0, 32))}),
                ScanVector(1.0, {"A": int(rng.integers(0, 32))}),
            ]
            est = gp_locate(grid, window)
            bx, by = brute_gp_locate(grid, window)
            assert est.location.x == pytest.approx(bx, abs=1e-9)
            assert est.location.y == pytest.approx(by, abs=1e-9)

    def test_output_inside_grid_bounding_box(self):
        rng = np.random.default_rng(16)
        grid = self._grid(rng)
        est = gp_locate(grid, [ScanVector(0.0, {"A": 31, "B": 0})])
        assert 0.0 <= est.location.x <= 400.0
        assert 0.0 <= est.location.y <= 400.0

    def test_unmodeled_towers_skipped(self):
        rng = np.random.default_rng(17)
        grid = self._grid(rng)
        a = gp_locate(grid, [ScanVector(0.0, {"A": 10, "B": 20})])
        b = gp_locate(grid, [ScanVector(0.0, {"A": 10, "B": 20, "ZZ": 30})])
        assert a.location == b.location

    def test_no_modeled_tower_rejected(self):
        rng = np.random.default_rng(18)
        grid = self._grid(rng)
        with pytest.raises(ValueError, match="no observed tower"):
            gp_locate(grid, [ScanVector(0.0, {"ZZ": 30})])


_FOOTPRINT_SCRIPT = textwrap.dedent("""
    import math, os, sys, tempfile
    from gsmloc import (GeoPoint, PlanarPoint, ScanVector, build_radio_map, evaluate,
                        fit_tower_models, gp_build_grid, gp_locate, load_radio_map,
                        save_radio_map, unproject, write_trace)
    from gsmloc.cli import main

    origin = GeoPoint(30.0, 31.0)
    towers = {"A": PlanarPoint(0.0, 0.0), "B": PlanarPoint(300.0, 0.0), "C": PlanarPoint(150.0, 300.0)}

    def scan(t, x, y):
        p = PlanarPoint(x, y)
        readings = {tid: max(0, 31 - int(p.distance_to(q) / 15)) for tid, q in towers.items()}
        return ScanVector(float(t), readings, truth=unproject(origin, p))

    train = [scan(i, 20.0 * (i % 16), 20.0 * (i // 16)) for i in range(256)]
    test = train[::17]
    tower_geo = {tid: unproject(origin, q) for tid, q in towers.items()}
    radio_map = build_radio_map(train, 50.0, origin=origin, tower_locations=tower_geo)
    for technique in ("probabilistic", "hybrid", "deterministic", "cellid"):
        assert math.isfinite(evaluate(radio_map, test, technique).median_error_m)
    with tempfile.TemporaryDirectory() as tmp:
        map_path, scans_path = os.path.join(tmp, "map.json"), os.path.join(tmp, "test.csv")
        save_radio_map(radio_map, map_path)
        assert load_radio_map(map_path).n_cells == radio_map.n_cells
        write_trace(test, scans_path)
        assert main(["locate", "--map", map_path, "--scans", scans_path,
                     "--technique", "probabilistic", "--out", os.path.join(tmp, "est.csv")]) == 0
    assert "scipy.stats" not in sys.modules, "a histogram path loaded scipy.stats"

    grid = gp_build_grid(fit_tower_models(train, origin), (0.0, 0.0, 300.0, 300.0), 100.0, origin)
    est = gp_locate(grid, test[:2])
    assert math.isfinite(est.location.x) and math.isfinite(est.location.y)
    assert "scipy.stats" in sys.modules, "gp_locate ran without scipy.stats"
    print("ok")
""")


def test_scipy_stats_loads_at_the_first_gp_estimate_only():
    src = str(Path(gsmloc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


class TestFitTowerModels:
    def test_skips_sparse_towers(self):
        scans = [scan_at_planar(0, 0.0, 5.0, {"A": 10, "B": 5})] + [
            scan_at_planar(t, 10.0 * t, 5.0, {"A": 10 + t % 3}) for t in range(1, 6)
        ]
        # tower B appears once: no model
        models = fit_tower_models(scans, ORIGIN)
        assert "A" in models
        assert "B" not in models

    def test_requires_truth(self):
        with pytest.raises(ValueError, match="ground truth"):
            fit_tower_models([ScanVector(0.0, {"A": 5})], ORIGIN)

    @staticmethod
    def _scans():
        return [scan_at_planar(t, 10.0 * t, 5.0, {"A": 10 + t % 3}) for t in range(6)]

    def test_nan_value_rejected(self):
        scans = self._scans()
        scans[2].readings["A"] = math.nan
        with pytest.raises(ValueError, match="finite"):
            fit_tower_models(scans, ORIGIN)

    def test_infinite_location_rejected(self):
        scans = self._scans()
        object.__setattr__(scans[4].truth, "lat", math.inf)
        with pytest.warns(ProjectionRangeWarning), pytest.raises(ValueError, match="finite"):
            fit_tower_models(scans, ORIGIN)


def _drop_points(doc):
    """Empty a saved grid's points and every tower's arrays with them."""
    doc["points"] = []
    for entry in doc["towers"].values():
        entry["mean"], entry["var"] = [], []


def _with(array, index, value):
    """A copy of ``array`` with ``array[index] = value``."""
    copy = array.copy()
    copy[index] = value
    return copy


class TestGridRules:
    """Each rule PrecomputedGrid checks, broken once on an otherwise valid grid."""

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda g: dict(points=_with(g.points, (3, 1), math.nan)),
                     "points must be finite", id="nan_point"),
        pytest.param(lambda g: dict(means={"A": _with(g.means["A"], 2, math.nan)}),
                     "non-finite mean", id="nan_mean"),
        pytest.param(lambda g: dict(variances={"A": _with(g.variances["A"], 1, -1.0)}),
                     "negative or non-finite variance", id="negative_variance"),
        pytest.param(lambda g: dict(noise_vars={"A": 0.0}), "noise_var 0.0 is not positive",
                     id="zero_noise_var"),
        pytest.param(lambda g: dict(spacing=math.inf), "spacing inf is not a positive finite",
                     id="inf_spacing"),
        pytest.param(lambda g: dict(variances={}), "name the same towers", id="variance_missing"),
        pytest.param(lambda g: dict(noise_vars={}), "name the same towers", id="noise_var_missing"),
        pytest.param(lambda g: dict(variances={**g.variances, "B": g.variances["A"]}),
                     "name the same towers", id="variance_extra"),
        pytest.param(lambda g: dict(noise_vars={**g.noise_vars, "B": 1.0}),
                     "name the same towers", id="noise_var_extra"),
    ])
    def test_broken_rule_raises(self, edit, message):
        models = {"A": gp_fit(*random_training(np.random.default_rng(19), n=20), [HYPER])}
        grid = gp_build_grid(models, (0.0, 0.0, 300.0, 300.0), 100.0, ORIGIN)
        assert dataclasses.replace(grid).n_points == 16
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(grid, **edit(grid))

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, 0.0, -1.0])
    def test_build_refuses_spacing_not_positive_finite_before_array_work(self, spacing):
        models = {"A": gp_fit(*random_training(np.random.default_rng(19), n=20), [HYPER])}
        message = rf"^spacing {re.escape(str(spacing))} is not a positive finite number$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                gp_build_grid(models, (0.0, 0.0, 300.0, 300.0), spacing, ORIGIN)


class TestGridPersistence:
    @staticmethod
    def _saved_grid(tmp_path):
        rng = np.random.default_rng(19)
        models = {"A": gp_fit(*random_training(rng, n=20), [HYPER])}
        grid = gp_build_grid(models, (0.0, 0.0, 300.0, 300.0), 100.0, ORIGIN)
        path = tmp_path / "grid.json"
        save_grid(grid, str(path))
        return grid, path

    def test_round_trip(self, tmp_path):
        grid, path = self._saved_grid(tmp_path)
        back = load_grid(str(path))
        assert back.origin == grid.origin
        assert back.spacing == grid.spacing
        assert np.array_equal(back.points, grid.points)
        assert back.towers == grid.towers
        for tid in grid.towers:
            assert np.array_equal(back.means[tid], grid.means[tid])
            assert np.array_equal(back.variances[tid], grid.variances[tid])
            assert back.noise_vars[tid] == grid.noise_vars[tid]

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d.update(spacing_m=0.0), id="spacing_zero"),
        pytest.param(lambda d: d.update(spacing_m=math.nan), id="spacing_nan"),
        pytest.param(lambda d: d["points"][3].__setitem__(1, math.inf), id="point_inf"),
        pytest.param(lambda d: d["towers"]["A"]["mean"].__setitem__(2, math.nan), id="mean_nan"),
        pytest.param(lambda d: d["towers"]["A"]["var"].__setitem__(1, -1.0), id="var_negative"),
        pytest.param(lambda d: d["towers"]["A"]["var"].__setitem__(0, math.inf), id="var_inf"),
        pytest.param(lambda d: d["towers"]["A"].update(noise_var=0.0), id="noise_var_zero"),
        pytest.param(lambda d: d["towers"]["A"].update(noise_var=-4.0), id="noise_var_negative"),
    ])
    def test_non_finite_or_out_of_range_number_rejected(self, tmp_path, edit):
        _, path = self._saved_grid(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="finite"):
            load_grid(str(path))

    def test_number_too_large_rejected(self, tmp_path):
        _, path = self._saved_grid(tmp_path)
        doc = json.loads(path.read_text())
        doc["points"][0][0] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="too large"):
            load_grid(str(path))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d["points"][0].__setitem__(0, "0.0"), id="point_string"),
        pytest.param(lambda d: d["points"][0].pop(), id="point_of_one"),
        pytest.param(lambda d: d["towers"]["A"]["mean"].__setitem__(0, "10.0"), id="mean_string"),
        pytest.param(lambda d: d["towers"]["A"]["var"].__setitem__(0, True), id="var_bool"),
        pytest.param(lambda d: d["towers"]["A"].update(noise_var="4.0"), id="noise_var_string"),
        pytest.param(lambda d: d.update(spacing_m="50"), id="spacing_string"),
        pytest.param(lambda d: d.update(towers=[]), id="towers_array"),
    ])
    def test_wrongly_typed_field_rejected(self, tmp_path, edit):
        _, path = self._saved_grid(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError):
            load_grid(str(path))

    @pytest.mark.parametrize("edit,message", [
        pytest.param(_drop_points, "no points", id="no_points"),
        pytest.param(lambda d: d.update(towers={}), "no towers", id="no_towers"),
        pytest.param(lambda d: d["towers"]["A"]["mean"].pop(), "point count", id="mean_short"),
        pytest.param(lambda d: d["towers"]["A"]["var"].append(1.0), "point count", id="var_long"),
    ])
    def test_empty_or_mismatched_grid_rejected(self, tmp_path, edit, message):
        _, path = self._saved_grid(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=message):
            load_grid(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"version": MAP_FORMAT_VERSION, "kind": "radio_map"}))
        with pytest.raises(MapFormatError, match="kind 'radio_map', expected 'gp_grid'"):
            load_grid(str(path))

    def test_version_1_file_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "version": 1, "kind": "gp_grid", "origin": {"lat": 30.0, "lon": 31.0},
            "spacing_m": 50.0, "points": [{"x": 0.0, "y": 0.0}],
            "towers": {"A": {"mean": [10.0], "var": [1.0], "noise_var": 4.0}}}))
        with pytest.raises(MapFormatError, match=r"unsupported format version 1 \(expected 2\)"):
            load_grid(str(path))

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"version": MAP_FORMAT_VERSION, "kind": "gp_grid",
                                    "points": [{"x": 1}]}))
        with pytest.raises(MapFormatError):
            load_grid(str(path))

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_bytes(b'{"version": 2, "kind": "gp_grid", "towers": {"\xe9": {}}}')
        with pytest.raises(MapFormatError, match="UTF-8"):
            load_grid(str(path))
