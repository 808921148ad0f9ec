from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cartonfold.model import CartonSpec, PanelSpec, build_tree, load_spec
from cartonfold.planner import enumerate_sequences

# Property tests draw the same examples on every run, keep no example
# database and allow slow examples on a loaded machine. Hypothesis still
# caches the constants it reads from the sources; that cache goes to the
# temporary directory, not into the checkout.
settings.register_profile(
    "cartonfold", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("cartonfold")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "cartonfold-hypothesis")

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

SHIPPED_SPECS = (
    "three_flaps.yaml",
    "blocking_pair.yaml",
    "obstructed_flap.yaml",
    "case_study_tray.yaml",
)


@pytest.fixture(scope="session")
def spec_dir() -> Path:
    return SPEC_DIR


@pytest.fixture(scope="session")
def case_study():
    spec = load_spec(SPEC_DIR / "case_study_tray.yaml")
    return spec, build_tree(spec)


@pytest.fixture(scope="session")
def case_study_sequences(case_study):
    _, tree = case_study
    return enumerate_sequences(tree)


@pytest.fixture(scope="session")
def blocking_pair():
    spec = load_spec(SPEC_DIR / "blocking_pair.yaml")
    return spec, build_tree(spec)


@pytest.fixture(scope="session")
def three_flaps():
    spec = load_spec(SPEC_DIR / "three_flaps.yaml")
    return spec, build_tree(spec)


def free_flap_spec(k: int, flap_height=50.0) -> CartonSpec:
    """Base with k flaps so far apart that no ordering can ever collide.

    Flaps are dealt round robin onto the edges of a huge square base, with
    generous insets at the corners and between neighbours on one edge;
    every one of the k! orderings is collision free by construction.
    ``flap_height`` is one height for all flaps or a sequence of k heights.
    """
    side = 600.0
    t = 2.0
    gap = 10.0
    edges = [
        # (crease start corner, crease_dir) per base edge, flap extending outward
        ((0.0, side, 0.0), (1.0, 0.0, 0.0)),     # north
        ((side, 0.0, 0.0), (-1.0, 0.0, 0.0)),    # south
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)),      # west
        ((side, side, 0.0), (0.0, -1.0, 0.0)),   # east
    ]
    if k < 1:
        raise ValueError("k must be at least 1")
    heights = [flap_height] * k if np.isscalar(flap_height) else list(flap_height)
    if len(heights) != k:
        raise ValueError(f"need {k} flap heights, got {len(heights)}")
    panels = [PanelSpec(id=1, parent=None, dims=(side, side, t))]
    for e, (start, direction) in enumerate(edges):
        slots = range(e, k, len(edges))
        width = (side - gap * (len(slots) + 1)) / max(len(slots), 1)
        for i, flap in enumerate(slots):
            offset = gap + i * (width + gap)
            panels.append(
                PanelSpec(
                    id=flap + 2,
                    parent=1,
                    dims=(heights[flap], width, t),
                    crease_anchor=tuple(s + offset * d for s, d in zip(start, direction)),
                    crease_dir=direction,
                    theta_init=0.0,
                    theta_final=np.pi / 2.0,
                )
            )
    from cartonfold.geometry import Transform

    return CartonSpec(
        panels=tuple(panels),
        root_pose=Transform(np.eye(3), (0.0, 0.0, t / 2.0)),
        table_plane=True,
        penetration_tolerance=1.05,
    )
