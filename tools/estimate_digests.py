"""Print sha256 digests of every histogram-technique estimate on fixed worlds.

Run from a checkout's root:

    python3 tools/estimate_digests.py

For rural seeds 0-2 and urban seeds 0-1, it builds the 70 m map from the
training trace and slides each technique's preset window over the test
trace, on the full map and on ``ablate_towers(map, 0.4, 7)``.  Each line
is ``preset seed map technique digest``, where the digest is the sha256 of
``repr((x, y, log_score, contributing_cells))`` over every window, in
order: 30 lines in all.  Two checkouts that print the same lines give
bit-identical probabilistic, hybrid and deterministic estimates on these
worlds, so diffing the output of a parent and a change checks a refactor
that claims to move no estimate.  ``tools/estimate_digests.txt`` holds the
committed output, and CI diffs a fresh run against it:

    python3 tools/estimate_digests.py | diff tools/estimate_digests.txt -
"""

from __future__ import annotations

import hashlib
import sys
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
)

WORLDS = (("rural", 0), ("rural", 1), ("rural", 2), ("urban", 0), ("urban", 1))
TECHNIQUE_NAMES = ("probabilistic", "hybrid", "deterministic")


def main() -> int:
    for preset, seed in WORLDS:
        world, routes = make_preset(preset, seed)
        train = generate_trace(world, routes["train"])
        test = generate_trace(world, routes["test"])
        full = build_radio_map(train, DEFAULT_GRID_M, tower_locations=world.tower_locations_geo())
        for label, radio_map in (("full", full), ("ablated", ablate_towers(full, 0.4, 7))):
            for technique in TECHNIQUE_NAMES:
                params = preset_params(preset, technique)
                h = hashlib.sha256()
                for i in range(len(test)):
                    window = test[max(0, i + 1 - params.n_samples) : i + 1]
                    est = TECHNIQUES[technique](radio_map, window, params)
                    loc = est.location
                    h.update(repr((loc.x, loc.y, est.log_score, est.contributing_cells)).encode())
                print(preset, seed, label, technique, h.hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
