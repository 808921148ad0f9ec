"""The package's record types: how each is built, compared, hashed and
protected against assignment, and what importing the package loads."""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cartonfold
from cartonfold.cli import RunConfig
from cartonfold.geometry import OrientedBox, Transform
from cartonfold.metrics import RankedReport, rank_lattice
from cartonfold.model import (
    GripperSpec,
    KinematicTree,
    build_tree,
    load_spec,
)
from cartonfold.planner import FoldLattice, SearchDiagnostics, build_lattice
from cartonfold.reference import Aabb, JointVector, PanelPose, forward_kinematics

from .conftest import SPEC_DIR

NO_DEFAULT = inspect.Parameter.empty

# Every record's constructor: its parameters in order, with their defaults.
SIGNATURES = {
    Transform: [("rotation", NO_DEFAULT), ("translation", NO_DEFAULT)],
    OrientedBox: [("pose", NO_DEFAULT), ("half_extents", NO_DEFAULT)],
    Aabb: [("min", NO_DEFAULT), ("max", NO_DEFAULT)],
    GripperSpec: [("dims", NO_DEFAULT), ("standoff", 0.0)],
    KinematicTree: [
        (name, NO_DEFAULT)
        for name in (
            "spec", "ids", "topo_order", "foldable_ids", "bits", "panels_by_id", "mounts",
            "crease_terms", "turns", "slabs", "subtrees", "ancestry", "subtree_ancestry", "fixtures",
        )
    ],
    JointVector: [("angles", NO_DEFAULT)],
    PanelPose: [("panel_id", NO_DEFAULT), ("pose", NO_DEFAULT), ("center", NO_DEFAULT), ("solid", NO_DEFAULT)],
    SearchDiagnostics: [
        (name, 0)
        for name in (
            "nodes_expanded", "cc_calls", "cc_cache_hits", "pruned", "dead_ends", "sequences",
            "sweeps", "pair_tests",
        )
    ],
    FoldLattice: [
        (name, NO_DEFAULT)
        for name in (
            "tree", "masks", "layers", "first", "source", "child", "slot", "aerial",
            "sequence_count", "stats",
        )
    ],
    RankedReport: [
        (name, NO_DEFAULT)
        for name in ("criteria", "sequence_count", "joints", "steps", "edges", "c_vol", "c_dim", "c_aerial")
    ],
    RunConfig: [
        ("spec_path", NO_DEFAULT), ("fmt", "table"), ("top", 20), ("tolerance_angle_deg", None),
        ("penetration_mm", None), ("support_mm", None), ("dump_dir", None), ("explain", None),
    ],
}


@pytest.fixture(scope="module")
def planned():
    tree = build_tree(load_spec(SPEC_DIR / "three_flaps.yaml"))
    lattice = build_lattice(build_tree(tree.spec))
    return tree, lattice, rank_lattice(lattice, 3)


def fields_of(record) -> dict:
    return {name: getattr(record, name) for name, _ in SIGNATURES[type(record)]}


def assert_built_both_ways(record) -> None:
    """The record rebuilt from its fields by keyword and by position."""
    fields = fields_of(record)
    for again in (type(record)(**fields), type(record)(*fields.values())):
        for name, value in fields_of(again).items():
            assert value is fields[name] or np.array_equal(value, fields[name]), name


def assert_frozen(record) -> None:
    for name, _ in SIGNATURES[type(record)]:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def assert_equal_by_value(record, twin, other) -> None:
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert record != other and not record == other


def assert_equal_by_identity(record) -> None:
    twin = type(record)(**fields_of(record))
    assert record == record and record != twin
    assert len({record, twin}) == 2


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)


class TestGeometryRecords:
    def test_transform(self):
        turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        a = Transform(turn, [1, 2, 3])
        assert_built_both_ways(a)
        assert_equal_by_value(a, Transform(rotation=turn.copy(), translation=(1.0, 2.0, 3.0)), Transform.identity())
        assert_frozen(a)
        assert a.translation.dtype == float and not a.translation.flags.writeable
        with pytest.raises(ValueError, match="orthonormal"):
            Transform(2 * turn, [0, 0, 0])

    def test_transform_init_runs_the_class_post_init(self, monkeypatch):
        # Each checked construction calls the class-level __post_init__;
        # the unchecked _of skips it.
        calls = []
        post_init = Transform.__post_init__
        monkeypatch.setattr(Transform, "__post_init__", lambda t: calls.append(t) or post_init(t))
        made = Transform(np.eye(3), np.zeros(3))
        assert calls == [made]
        Transform._of(np.eye(3), np.zeros(3))
        assert calls == [made]

    def test_oriented_box(self):
        box = OrientedBox(Transform.identity(), [1.0, 2.0, 3.0])
        assert_built_both_ways(box)
        assert_equal_by_value(
            box,
            OrientedBox(pose=Transform.identity(), half_extents=np.array([1.0, 2.0, 3.0])),
            OrientedBox(Transform.identity(), [1.0, 2.0, 4.0]),
        )
        assert_frozen(box)
        with pytest.raises(ValueError, match="strictly positive"):
            OrientedBox(Transform.identity(), [1.0, 0.0, 3.0])

    def test_aabb(self):
        box = Aabb([0, 0, 0], [1, 2, 3])
        assert_built_both_ways(box)
        assert_equal_by_value(box, Aabb(min=(0.0, 0.0, 0.0), max=(1.0, 2.0, 3.0)), Aabb([0, 0, 0], [1, 2, 4]))
        assert_frozen(box)
        assert box.volume == 6.0
        with pytest.raises(ValueError, match="min must be <= max"):
            Aabb([0, 0, 5], [1, 2, 3])


class TestModelRecords:
    def test_gripper_spec(self):
        gripper = GripperSpec((10.0, 20.0, 5.0))
        assert gripper.standoff == 0.0
        assert_built_both_ways(gripper)
        assert_equal_by_value(gripper, GripperSpec(dims=(10.0, 20.0, 5.0), standoff=0.0), GripperSpec((10.0, 20.0, 5.0), 1.0))
        assert_frozen(gripper)
        assert repr(gripper) == "GripperSpec(dims=(10.0, 20.0, 5.0), standoff=0.0)"

    def test_kinematic_tree(self, planned):
        tree, _, _ = planned
        assert_built_both_ways(tree)
        assert_equal_by_identity(tree)
        assert_frozen(tree)
        tree.panel_state(2, 0)
        rebuilt = KinematicTree(**fields_of(tree))
        for memo in ("panel_records", "sweeps", "pair_verdicts"):
            assert getattr(rebuilt, memo) == {} and getattr(rebuilt, memo) is not getattr(tree, memo)
            assert memo not in repr(tree)

    def test_joint_vector(self):
        angles = {1: 0.0, 2: 0.5}
        theta = JointVector(angles)
        assert_built_both_ways(theta)
        assert theta == JointVector(angles={1: 0.0, 2: 0.5}) and theta != JointVector({1: 0.0, 2: 0.6})
        assert_frozen(theta)
        assert theta.replace(2, 0.6) == JointVector({1: 0.0, 2: 0.6}) and theta.angle(2) == 0.5

    def test_panel_pose(self, planned):
        tree, _, _ = planned
        pose = forward_kinematics(tree, JointVector.flat(tree))[0]
        assert_built_both_ways(pose)
        twin = forward_kinematics(build_tree(tree.spec), JointVector.flat(tree))[0]
        moved = PanelPose(2, pose.pose, pose.center, pose.solid)
        assert_equal_by_value(pose, twin, moved)
        assert_frozen(pose)

    def test_specs_stay_dataclasses(self, planned):
        # README documents dataclasses.replace(spec, ...) as the way to vary a spec.
        spec = planned[0].spec
        for record, change in ((spec, {"table_plane": False}), (spec.panels[0], {"name": "floor"})):
            changed = dataclasses.replace(record, **change)
            assert changed != record
            assert dataclasses.replace(changed, **{key: getattr(record, key) for key in change}) == record


class TestPlanRecords:
    def test_search_diagnostics(self):
        stats = SearchDiagnostics(3, cc_calls=4)
        assert_built_both_ways(stats)
        assert stats == SearchDiagnostics(nodes_expanded=3, cc_calls=4) and stats != SearchDiagnostics()
        assert SearchDiagnostics.__hash__ is None
        stats.pruned += 2  # counters are bumped in place
        assert stats.lines() == [
            "nodes_expanded=3", "cc_calls=4", "cc_cache_hits=0", "pruned=2", "dead_ends=0",
            "sequences=0", "sweeps=0", "pair_tests=0",
        ]
        assert list(vars(stats)) == [name for name, _ in SIGNATURES[SearchDiagnostics]]
        assert repr(stats) == f"SearchDiagnostics({', '.join(stats.lines())})"

    def test_fold_lattice(self, planned):
        _, lattice, _ = planned
        assert_built_both_ways(lattice)
        assert_equal_by_identity(lattice)
        assert_frozen(lattice)

    def test_ranked_report(self, planned):
        _, _, report = planned
        assert len(report) == 3
        assert_built_both_ways(report)
        assert_equal_by_identity(report)
        assert_frozen(report)

    def test_run_config(self):
        config = RunConfig("a.yaml")
        assert (config.fmt, config.top, config.explain) == ("table", 20, None)
        assert_built_both_ways(config)
        assert_equal_by_value(config, RunConfig(spec_path="a.yaml", top=20), RunConfig("a.yaml", top=None))
        assert_frozen(config)
        assert config.__dict__ == fields_of(config)
        assert RunConfig(**{**config.__dict__, "fmt": "csv"}).fmt == "csv"


# Run in a fresh interpreter: which top-level modules `import cartonfold.cli`
# loads from outside the standard library, which of the package's classes
# are dataclasses, and which of the package's modules are loaded after the
# import and after a default plan of the spec named by the first argument.
FOOTPRINT = textwrap.dedent(
    """
    import dataclasses, io, json, sys
    before = set(sys.modules)
    import cartonfold.cli
    loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
    outside = sorted(
        name for name in loaded
        if name not in sys.stdlib_module_names and getattr(sys.modules.get(name), "__file__", None)
    )
    classes = {
        f"{module.__name__}.{name}"
        for module in list(sys.modules.values()) if module and module.__name__.startswith("cartonfold")
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value)
    }

    def package():
        return sorted(name for name in sys.modules if name.partition(".")[0] == "cartonfold")

    imported = package()
    code = cartonfold.cli.run(cartonfold.cli.RunConfig(sys.argv[1]), out=io.StringIO())
    print(json.dumps({
        "outside": outside, "dataclasses": sorted(classes), "imported": imported,
        "code": code, "planned": package(),
    }))
    """
)

# The package's modules that a default plan needs; the reference
# implementations and the replay paths load on first use.
PLAN_MODULES = [
    "cartonfold", "cartonfold.cli", "cartonfold.collision", "cartonfold.geometry",
    "cartonfold.metrics", "cartonfold.model", "cartonfold.planner",
]


def test_import_footprint():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-B", "-c", FOOTPRINT, str(SPEC_DIR / "case_study_tray.yaml")],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    found = json.loads(done.stdout)
    assert found["outside"] == ["cartonfold", "numpy", "yaml"]
    assert found["dataclasses"] == ["cartonfold.model.CartonSpec", "cartonfold.model.PanelSpec"]
    assert found["imported"] == PLAN_MODULES
    assert found["code"] == 0
    assert found["planned"] == PLAN_MODULES


# Run in a fresh interpreter: every report format at top 20 and at every
# row, and an --explain, of the spec named by the first argument; then
# print which numpy.ma modules are loaded. A plan uses no masked array, and
# numpy loads numpy.ma only on first use (np.unique without flags does).
MASKED_ARRAYS = textwrap.dedent(
    """
    import io, sys
    from cartonfold.cli import RunConfig, run
    codes = [
        run(RunConfig(sys.argv[1], fmt=fmt, top=top), out=io.StringIO())
        for fmt in ("table", "csv", "structured") for top in (20, None)
    ]
    codes.append(run(RunConfig(sys.argv[1], explain=(1, 2, 3, 4, 5, 6, 7)), out=io.StringIO()))
    print(codes, sorted(name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma.")))
    """
)


def test_no_plan_imports_numpy_ma():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", MASKED_ARRAYS, str(SPEC_DIR / "case_study_tray.yaml")],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout == "[0, 0, 0, 0, 0, 0, 0] []\n"


# Where each name of the package that no plan runs is defined.
ON_FIRST_USE = {
    "cartonfold.reference": [
        "Aabb", "JointVector", "PanelPose", "forward_kinematics", "obb_intersect", "rotate_about_axis",
        "score_and_rank", "serialize_spec", "world_aabb",
    ],
    "cartonfold.replay": ["GraspSide", "grasp_side"],
}


def test_exported_names_resolve_to_their_homes():
    listed = dir(cartonfold)
    for name in cartonfold.__all__:
        value = getattr(cartonfold, name)
        home = sys.modules[value.__module__]
        assert getattr(home, name) is value, name
        assert name in listed, name
    moved = {
        home: [name for name in cartonfold.__all__ if getattr(cartonfold, name).__module__ == home]
        for home in ON_FIRST_USE
    }
    assert moved == ON_FIRST_USE
    with pytest.raises(AttributeError, match="no_such_name"):
        cartonfold.no_such_name


def test_traced_names_stay_on_their_old_modules():
    # The benchmark's tracer looks these two up by the module its span names.
    import cartonfold.metrics
    import cartonfold.model
    import cartonfold.reference
    from cartonfold.metrics import score_and_rank
    from cartonfold.model import forward_kinematics

    assert forward_kinematics is cartonfold.reference.forward_kinematics
    assert score_and_rank is cartonfold.reference.score_and_rank
    for module in (cartonfold.model, cartonfold.metrics):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
