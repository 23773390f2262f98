"""gsmloc: grid-based probabilistic RSSI fingerprinting for GSM localization.

The package splits along the natural pipeline:

* :mod:`gsmloc.geo` - readings, scans, ASU/dBm conversion, planar projection,
  trace and tower CSV I/O (a malformed file raises ``TraceFormatError``
  naming its line).
* :mod:`gsmloc.radiomap` - offline fingerprint construction, tower ablation
  and persistence.
* :mod:`gsmloc.estimators` - the probabilistic, hybrid, deterministic-KNN
  and cell-ID estimators.
* :mod:`gsmloc.gp` - the Gaussian-process modeling baseline.
* :mod:`gsmloc.synth` - synthetic GSM worlds and war-drive trace generation.
* :mod:`gsmloc.bench` - evaluation metrics, sweeps and CSV reports.
* :mod:`gsmloc.cli` - the ``gsmloc`` command line.

The names imported below are the package's public API.
"""

from .bench import (
    DEFAULT_GRID_M,
    EvalReport,
    PRESET_GP_SPACING_M,
    PRESET_PARAMS,
    TECHNIQUES,
    evaluate,
    preset_params,
    sweep_density,
    sweep_grid_length,
    sweep_params,
    sweep_tower_drop,
    thin_fingerprint,
    window_at,
    write_cdf_csv,
    write_report_csv,
)
from .estimators import (
    EstimatorParams,
    LocationEstimate,
    cell_log_posterior,
    cellid_locate,
    deterministic_locate,
    hybrid_locate,
    probabilistic_locate,
)
from .geo import (
    GeoPoint,
    PlanarPoint,
    ProjectionRangeWarning,
    ScanVector,
    TraceFormatError,
    asu_to_dbm,
    dbm_to_asu,
    project,
    project_array,
    read_tower_locations,
    read_trace,
    unproject,
    write_tower_locations,
    write_trace,
)
from .gp import (
    GpHyperparams,
    GpTowerModel,
    PrecomputedGrid,
    fit_tower_models,
    gp_build_grid,
    gp_fit,
    gp_locate,
    gp_predict,
    load_grid,
    save_grid,
)
from .radiomap import (
    MapFormatError,
    RadioMap,
    SmoothingParams,
    ablate_towers,
    build_radio_map,
    load_radio_map,
    save_radio_map,
)
from .synth import (
    Route,
    SynthWorld,
    Tower,
    generate_trace,
    make_preset,
    received_dbm,
    scan_at,
)

__version__ = "0.1.0"
