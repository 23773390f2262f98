"""Print sha256 digests of synthetic traces, histogram-technique estimates and saved maps.

Run from a checkout's root:

    python3 tools/estimate_digests.py

For rural seeds 0-2 and urban seeds 0-1, it first prints ``preset seed
route trace digest`` for the training and the test route, where the digest
is the sha256 of the file :func:`gsmloc.write_trace` writes for the trace
that :func:`gsmloc.generate_trace` synthesizes.  It then builds the 70 m
map from the training trace and slides each technique's preset window over
the test trace, on the full map and on ``ablate_towers(map, 0.4, 7)``.
Each of these lines is ``preset seed map technique digest``, where the
digest is the sha256 of ``repr((x, y, log_score, contributing_cells))`` over
every window, in order.  On rural and urban seed 0 it also prints ``preset
seed map saved-map digest`` for the full map, the ablated map, the map
built with ``strip_points=True`` and the full maps at the sweep's other
grid lengths, 50 m (``full-50m``) and 110 m (``full-110m``), where the
digest is the sha256 of the file :func:`gsmloc.save_radio_map` writes: 50
lines in all.  Two checkouts that print the same lines synthesize
byte-identical traces, give bit-identical probabilistic, hybrid and
deterministic estimates and write byte-identical maps on these worlds at
these grid lengths, so diffing the output of a parent and a change checks
a refactor that claims to move no trace, no estimate and no saved byte.

``tools/estimate_digests.txt`` holds the committed output, the only copy of
these digests.  Acceptance criterion 9a, a tier-1 test, compares every line
of a fresh run with it, and on x86-64 also the seed-0 lines of fresh
interpreters that run other CPU kernels.  To see which lines a change moves:

    python3 tools/estimate_digests.py | diff tools/estimate_digests.txt -
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gsmloc import (  # noqa: E402
    DEFAULT_GRID_M,
    TECHNIQUES,
    ablate_towers,
    build_radio_map,
    generate_trace,
    make_preset,
    preset_params,
    save_radio_map,
    window_at,
    write_trace,
)

WORLDS = (("rural", 0), ("rural", 1), ("rural", 2), ("urban", 0), ("urban", 1))
TECHNIQUE_NAMES = ("probabilistic", "hybrid", "deterministic")
SAVED_WORLDS = (("rural", 0), ("urban", 0))
SAVED_GRID_M = (50.0, 110.0)
#: The committed output that criterion 9a compares a fresh run with.
COMMITTED = Path(__file__).with_suffix(".txt")


def file_digest(save, obj, workdir: str) -> str:
    """The sha256 of the bytes ``save(obj, path)`` writes."""
    path = os.path.join(workdir, "out")
    save(obj, path)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def world_lines(preset: str, seed: int):
    """Yield the output lines of one world, in the order :func:`main` prints them."""
    world, routes = make_preset(preset, seed)
    train = generate_trace(world, routes["train"])
    test = generate_trace(world, routes["test"])
    with tempfile.TemporaryDirectory() as workdir:
        for route, trace in (("train", train), ("test", test)):
            yield f"{preset} {seed} {route} trace {file_digest(write_trace, trace, workdir)}"
    towers = world.tower_locations_geo()
    full = build_radio_map(train, DEFAULT_GRID_M, tower_locations=towers)
    maps = {"full": full, "ablated": ablate_towers(full, 0.4, 7)}
    for label, radio_map in maps.items():
        for technique in TECHNIQUE_NAMES:
            params = preset_params(preset, technique)
            h = hashlib.sha256()
            for i in range(len(test)):
                window = window_at(test, i, params.n_samples)
                est = TECHNIQUES[technique](radio_map, window, params)
                loc = est.location
                h.update(repr((loc.x, loc.y, est.log_score, est.contributing_cells)).encode())
            yield f"{preset} {seed} {label} {technique} {h.hexdigest()}"
    if (preset, seed) in SAVED_WORLDS:
        maps["stripped"] = build_radio_map(
            train, DEFAULT_GRID_M, tower_locations=towers, strip_points=True
        )
        for grid_m in SAVED_GRID_M:
            maps[f"full-{grid_m:g}m"] = build_radio_map(train, grid_m, tower_locations=towers)
        with tempfile.TemporaryDirectory() as workdir:
            for label, radio_map in maps.items():
                digest = file_digest(save_radio_map, radio_map, workdir)
                yield f"{preset} {seed} {label} saved-map {digest}"


def lines(worlds=WORLDS):
    """Yield the output lines of each of ``worlds`` in turn."""
    for preset, seed in worlds:
        yield from world_lines(preset, seed)


def main() -> int:
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
