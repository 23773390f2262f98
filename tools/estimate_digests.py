"""Print sha256 digests of histogram-technique estimates and saved maps on fixed worlds.

Run from a checkout's root:

    python3 tools/estimate_digests.py

For rural seeds 0-2 and urban seeds 0-1, it builds the 70 m map from the
training trace and slides each technique's preset window over the test
trace, on the full map and on ``ablate_towers(map, 0.4, 7)``.  Each line
is ``preset seed map technique digest``, where the digest is the sha256 of
``repr((x, y, log_score, contributing_cells))`` over every window, in
order.  On rural and urban seed 0 it also prints ``preset seed map
saved-map digest`` for the full map, the ablated map and the map built
with ``strip_points=True``, where the digest is the sha256 of the file
:func:`gsmloc.save_radio_map` writes: 36 lines in all.  Two checkouts
that print the same lines give bit-identical probabilistic, hybrid and
deterministic estimates and byte-identical saved maps on these worlds, so
diffing the output of a parent and a change checks a refactor that claims
to move no estimate and no saved byte.  ``tools/estimate_digests.txt``
holds the committed output, and CI diffs a fresh run against it:

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
)

WORLDS = (("rural", 0), ("rural", 1), ("rural", 2), ("urban", 0), ("urban", 1))
TECHNIQUE_NAMES = ("probabilistic", "hybrid", "deterministic")
SAVED_WORLDS = (("rural", 0), ("urban", 0))


def saved_digest(radio_map, workdir: str) -> str:
    """The sha256 of the bytes ``save_radio_map`` writes for ``radio_map``."""
    path = os.path.join(workdir, "map.json")
    save_radio_map(radio_map, path)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main() -> int:
    for preset, seed in WORLDS:
        world, routes = make_preset(preset, seed)
        train = generate_trace(world, routes["train"])
        test = generate_trace(world, routes["test"])
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
                print(preset, seed, label, technique, h.hexdigest(), flush=True)
        if (preset, seed) in SAVED_WORLDS:
            maps["stripped"] = build_radio_map(
                train, DEFAULT_GRID_M, tower_locations=towers, strip_points=True
            )
            with tempfile.TemporaryDirectory() as workdir:
                for label, radio_map in maps.items():
                    print(preset, seed, label, "saved-map", saved_digest(radio_map, workdir),
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
