"""Seeded fuzzing of the three readers: saved radio maps, GP grids and trace CSVs.

Every mutated file either loads or raises the reader's own error
(``MapFormatError`` or ``TraceFormatError``).  Whatever loads must serve the
estimators, which may only return or raise ``ValueError``.  Each case names
its seed, so a failure replays alone.
"""

import json
import math
import random

import numpy as np
import pytest

from gsmloc.bench import PRESET_PARAMS, TECHNIQUES
from gsmloc.geo import GeoPoint, ScanVector, TraceFormatError, read_trace, write_trace
from gsmloc.gp import PrecomputedGrid, load_grid, save_grid
from gsmloc.radiomap import MapFormatError, build_radio_map, load_radio_map, save_radio_map
from gsmloc.synth import generate_trace, make_preset

HISTOGRAM_TECHNIQUES = ("probabilistic", "hybrid", "deterministic", "cellid")
PARAMS = PRESET_PARAMS["rural"]["probabilistic"]

#: Values a structural mutation writes in place of a JSON value.
REPLACEMENTS = (0, -1, 1, 7, 31, 32, 2**31, 2**63, 10**400, 0.5, -0.0, 1e308, math.nan,
                math.inf, "", "A", "T000", None, True, [], [0], {}, {"x": 1.0})


@pytest.fixture(scope="module")
def rural():
    """The rural seed-0 map with tower locations, three test windows and 12 test scans."""
    world, routes = make_preset("rural", 0)
    radio_map = build_radio_map(generate_trace(world, routes["train"]), 70.0,
                                tower_locations=world.tower_locations_geo())
    test = generate_trace(world, routes["test"])
    return radio_map, [test[i:i + PARAMS.n_samples] for i in (0, 200, 400)], test[:12]


def _estimate_all(model, windows, techniques):
    """Run each technique on each window; only an estimate or ``ValueError`` may come out."""
    for window in windows:
        for name in techniques:
            try:
                TECHNIQUES[name](model, window, PARAMS)
            except ValueError:
                pass


def _pick(rng, node):
    """A random (container, key) inside ``node``, walking down from the top."""
    while True:
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or rng.random() < 0.3:
            return node, key
        node = child


def _mutate(rng, doc):
    """Apply one seeded structural mutation to ``doc`` in place; return (container, key, value)."""
    container, key = _pick(rng, doc)
    op = rng.randrange(6)
    value = container[key]
    if op == 0:
        value = rng.choice(REPLACEMENTS)
    elif op == 1 and type(value) in (int, float):
        value = rng.choice((value + 1, value - 1, -value, value * 2**31))
    elif op == 2:
        del container[key]
        return container, key, None
    elif op == 3 and isinstance(container, list):
        container.insert(key, value)
        return container, key, value
    elif op == 4 and isinstance(container, list):
        other = rng.randrange(len(container))
        container[key], container[other] = container[other], value
        return container, key, container[key]
    else:
        value = rng.choice(REPLACEMENTS)
    container[key] = value
    return container, key, value


def test_saved_map_mutations_load_or_raise_map_format_error(rural, tmp_path):
    radio_map, windows, _ = rural
    path = tmp_path / "map.json"
    save_radio_map(radio_map, str(path))
    text = path.read_text()
    loaded = number_ids = 0
    for seed in range(40):
        doc = json.loads(text)
        container, _, value = _mutate(random.Random(seed), doc)
        # A tower id that is not a string would load back as another tower.
        number_id = container is doc.get("towers") and not isinstance(value, (str, type(None)))
        number_ids += number_id
        path.write_text(json.dumps(doc))
        try:
            mutated = load_radio_map(str(path))
        except MapFormatError:
            continue
        assert not number_id, f"seed {seed}: tower id {value!r} accepted"
        loaded += 1
        _estimate_all(mutated, windows, HISTOGRAM_TECHNIQUES)
    # Some mutations turn a tower id into a number; some keep the map valid for the estimators.
    assert number_ids > 0 and loaded > 0


def test_saved_grid_mutations_load_or_raise_map_format_error(tmp_path):
    xs, ys = np.meshgrid([0.0, 100.0, 200.0], [0.0, 100.0, 200.0])
    points = np.stack([xs.ravel(), ys.ravel()], axis=1)
    grid = PrecomputedGrid(
        GeoPoint(30.0, 31.0), 100.0, points,
        means={"A": np.linspace(5.0, 25.0, 9), "B": np.linspace(20.0, 3.0, 9)},
        variances={"A": np.full(9, 2.0), "B": np.linspace(0.0, 4.0, 9)},
        noise_vars={"A": 4.0, "B": 1.5})
    path = tmp_path / "grid.json"
    save_grid(grid, str(path))
    text = path.read_text()
    windows = [[ScanVector(0.0, {"A": 12, "B": 9})], [ScanVector(0.0, {"B": 31, "C": 4})],
               [ScanVector(0.0, {"C": 4})]]
    loaded = 0
    for seed in range(300):
        doc = json.loads(text)
        _mutate(random.Random(seed), doc)
        path.write_text(json.dumps(doc))
        try:
            mutated = load_grid(str(path))
        except MapFormatError:
            continue
        loaded += 1
        _estimate_all(mutated, windows, ("gp",))
    assert loaded > 0


#: Bytes a trace mutation writes: the CSV's own syntax, digits, and bytes that are not UTF-8.
TRACE_BYTES = b',\n\r" .-+e0159AZnNi\x00\xff\xc3'


def test_trace_byte_mutations_read_or_raise_trace_format_error(rural, tmp_path):
    radio_map, _, scans = rural
    path = tmp_path / "trace.csv"
    write_trace(scans, str(path))
    data = path.read_bytes()
    loaded = 0
    for seed in range(400):
        rng = random.Random(seed)
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(mutated))
            op = rng.randrange(3)
            if op == 0:
                mutated[at] = rng.choice(TRACE_BYTES)
            elif op == 1:
                mutated.insert(at, rng.choice(TRACE_BYTES))
            else:
                del mutated[at]
        path.write_bytes(bytes(mutated))
        try:
            read = read_trace(str(path))
        except TraceFormatError:
            continue
        loaded += 1
        _estimate_all(radio_map, [[scan] for scan in read], HISTOGRAM_TECHNIQUES)
    assert loaded > 0
