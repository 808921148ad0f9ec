from __future__ import annotations

import io
import json
import logging
import math
import os
import hashlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cartonfold
import cartonfold.cli as cli_module
import cartonfold.reference as reference_module

from cartonfold.cli import (
    EXIT_NO_SEQUENCES,
    EXIT_OK,
    EXIT_SPEC_INVALID,
    RunConfig,
    block_rows,
    format_csv,
    format_structured,
    format_table,
    main,
    run,
    write_report,
)
from cartonfold.geometry import OrientedBox, Transform
from cartonfold.metrics import EdgeMetrics, RankedReport, rank_lattice
from cartonfold.model import MAX_LENGTH_MM, MAX_NESTING, KinematicTree, build_tree, load_spec
from cartonfold.planner import SearchDiagnostics, build_lattice
from cartonfold.reference import JointVector, PanelPose, forward_kinematics

from .conftest import SHIPPED_SPECS, SPEC_DIR, free_flap_spec
from .oracles import csv_report, structured_report
from .test_metrics import POLICIES
from .test_planner import frozenset_lattice

ROOT = Path(__file__).resolve().parent.parent


# The table entry of specs/three_flaps.yaml, which malformed obstacles replace.
TABLE = "- {name: table, half_space: true}"
BOX = "- {{name: a, center_mm: [0, 0, 0], dims_mm: [{}]}}"
HALF_SPACE = "environment[0]: half_space must be true or false"


def run_to_string(config: RunConfig) -> tuple[int, str]:
    out = io.StringIO()
    code = run(config, out=out)
    return code, out.getvalue()


def python_process(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter, with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
    )


def cli_process(*args: str) -> subprocess.CompletedProcess:
    """``python -m cartonfold.cli`` in a fresh interpreter, with ``src`` importable."""
    return python_process("-m", "cartonfold.cli", *args)


# Runs cartonfold.cli as __main__, as ``python -m`` does, with the script's
# arguments, then prints on stderr the exit code and whether the module was
# also loaded under its own name.
AS_MAIN = """
import runpy, sys
try:
    runpy.run_module("cartonfold.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    print(exit.code, "cartonfold.cli" in sys.modules, file=sys.stderr)
"""


# Deep documents, each with its error: flow and block sequences deep enough
# to crash libyaml's recursive composer, a number and a merge key deep
# enough to exhaust Python's recursion, flow sequences 100 000 deep, which
# the scan still reads through, and sequences nested to the bound, which
# pass the scan and load.
TOO_DEEP = "error: carton spec nests too deeply: more than 10000 levels\n"
TOO_DEEP_TO_READ = "error: carton spec nests too deeply to be read\n"
DEEP_DOCUMENTS = {
    "flow sequences": ("panels: " + "[" * 25_000 + "\n", TOO_DEEP),
    "block sequences": ("panels:\n" + "- " * 40_000 + "x\n", TOO_DEEP),
    "nested number": (
        "panels:\n  - {id: 1, parent: null, dims_mm: [" + "[" * 3000 + "1" + "]" * 3000 + ", 1, 1]}\n",
        TOO_DEEP_TO_READ,
    ),
    "nested merge keys": ("panels: [" + "{<<: " * 3000 + "{a: 1}" + "}" * 3000 + "]\n", TOO_DEEP_TO_READ),
    "closed flow sequences": ("panels: " + "[" * 100_000 + "]" * 100_000 + "\n", TOO_DEEP),
    "nested to the bound": (
        "panels: " + "[" * (MAX_NESTING - 1) + "]" * (MAX_NESTING - 1) + "\n",
        "error: each panel entry must be a mapping\n",
    ),
}


def chain_document(n: int) -> str:
    """A root, a chain of n - 2 static panels on it and one flap at the chain's end."""
    crease = "dims_mm: [20, 100, 2], crease_anchor_mm: [0, 20, 0], crease_dir: [1, 0, 0], theta_init_deg: 0"
    lines = ["panels:", "  - {id: 1, parent: null, dims_mm: [20, 100, 2]}"]
    lines += [f"  - {{id: {i}, parent: {i - 1}, {crease}, theta_final_deg: {90 if i == n else 0}}}" for i in range(2, n + 1)]
    return "\n".join([*lines, "environment: [{half_space: true}]", "planner: {penetration_tolerance_mm: 1.05}\n"])


class TestRun:
    def test_three_flap_table_has_six_rows(self, spec_dir):
        code, text = run_to_string(
            RunConfig(spec_path=str(spec_dir / "three_flaps.yaml"), fmt="table")
        )
        assert code == EXIT_OK
        lines = [l for l in text.splitlines() if l.strip()]
        assert len(lines) == 2 + 6  # policy line, header, six sequences

    def test_planner_lines_are_formatted_only_when_logged(self, spec_dir, monkeypatch, caplog):
        # The counters' log lines are built only when INFO is on for the CLI's logger.
        built = []
        lines = SearchDiagnostics.lines
        monkeypatch.setattr(SearchDiagnostics, "lines", lambda stats: built.append(1) or lines(stats))
        config = RunConfig(spec_path=str(spec_dir / "three_flaps.yaml"))
        caplog.set_level(logging.WARNING, logger="cartonfold.cli")
        quiet = run_to_string(config)
        assert not built and not caplog.records
        caplog.set_level(logging.INFO, logger="cartonfold.cli")
        assert run_to_string(config) == quiet
        assert built == [1]
        logged = [record.getMessage() for record in caplog.records]
        assert logged and all(message.startswith("planner ") for message in logged)
        assert "planner sequences=6" in logged

    def test_malformed_spec_exits_3(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("panels:\n  - {id: 1, parent: null, dims_mm: [0, 10, 1]}\n")
        code, _ = run_to_string(RunConfig(spec_path=str(bad)))
        assert code == EXIT_SPEC_INVALID

    def test_each_run_reads_parses_and_places_the_spec_afresh(self, spec_dir, tmp_path):
        # Nothing of one plan outlives its run: a spec file rewritten between
        # two runs in one process gives the second run the new file's report.
        text = (spec_dir / "three_flaps.yaml").read_text()
        grown = text.replace("dims_mm: [60, 190, 2]", "dims_mm: [75, 190, 2]", 1)
        assert grown != text
        path, fresh = tmp_path / "spec.yaml", tmp_path / "fresh.yaml"
        fresh.write_text(grown)
        reports = []
        for version in (text, grown, text):
            path.write_text(version)
            reports.append(run_to_string(RunConfig(spec_path=str(path), fmt="csv", top=None)))
        assert reports[0][0] == EXIT_OK and reports[1] != reports[0]
        assert reports[1] == run_to_string(RunConfig(spec_path=str(fresh), fmt="csv", top=None))
        assert reports[2] == reports[0]

    @pytest.mark.parametrize("document", ["panels: [\n", "{:::", "panels:\n\t- id: 1\n"])
    def test_malformed_yaml_exits_3(self, tmp_path, capsys, document):
        bad = tmp_path / "bad.yaml"
        bad.write_text(document)
        code, report = run_to_string(RunConfig(spec_path=str(bad)))
        assert code == EXIT_SPEC_INVALID
        assert report == ""
        assert "not valid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(DEEP_DOCUMENTS))
    def test_deep_document_exits_3_with_one_error_line(self, tmp_path, name):
        # In a child process, since a crash in libyaml would end pytest too.
        document, error = DEEP_DOCUMENTS[name]
        path = tmp_path / "deep.yaml"
        path.write_text(document)
        result = cli_process("--spec", str(path))
        assert (result.returncode, result.stdout, result.stderr) == (EXIT_SPEC_INVALID, "", error)

    def test_a_chain_of_2000_panels_plans(self, tmp_path):
        # The flap is placed after its 1 999 ancestors, one loop each.
        path = tmp_path / "chain.yaml"
        path.write_text(chain_document(2000))
        code, report = run_to_string(RunConfig(spec_path=str(path), fmt="csv"))
        assert code == EXIT_OK
        assert report == "sequence,volume_mm3,maxdim_mm,naf\n2000,8000000.000000,40000.000000,0\n"

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("dims_mm: [60, 190, 2]", "dims_mm: [.inf, 190, 2]", "dims_mm"),
            ("dims_mm: [60, 190, 2]", "dims_mm: [a, 190, 2]", "dims_mm"),
            ("dims_mm: [60, 190, 2]", "dims_mm: [[1, 2], 190, 2]", "dims_mm"),
            ("tolerance_angle_deg: 5", "tolerance_angle_deg: .nan", "tolerance_angle_deg"),
            ("tolerance_angle_deg: 5", "tolerance_angle_deg: 1.0e-9", "tolerance_angle_deg"),
            ("theta_final_deg: 90", "theta_final_deg: 720", "theta_final_deg"),
            ("theta_init_deg: 0", "theta_init_deg: -181", "theta_init_deg"),
            ("ranking: [aerial, maxdim]", "ranking: []", "ranking"),
            ("ranking: [aerial, maxdim]", "ranking: [aerial, aerial]", "ranking"),
            ("ranking: [aerial, maxdim]", "ranking: [speed]", "ranking"),
            (TABLE, BOX.format("0, 1, 1"), "environment[0]: dims_mm"),
            (TABLE, BOX.format("-1, 1, 1"), "environment[0]: dims_mm"),
            (TABLE, BOX.format("-1, 0, 2"), "environment[0]: dims_mm"),
            (TABLE, TABLE.replace("true", '"false"'), f"{HALF_SPACE}, got 'false'"),
            (TABLE, TABLE.replace("true", "'no'"), f"{HALF_SPACE}, got 'no'"),
            (TABLE, TABLE.replace("true", "1"), f"{HALF_SPACE}, got 1"),
            (TABLE, TABLE.replace("true", "0"), f"{HALF_SPACE}, got 0"),
            (TABLE, TABLE.replace("true", "null"), f"{HALF_SPACE}, got None"),
            ("theta_final_deg: 90}", "theta_final_deg: 90, foldable: false}", "foldable"),
            ("theta_final_deg: 90}", "theta_final_deg: 90, foldable: 'no'}", "foldable"),
            ("theta_final_deg: 90}", "theta_final_deg: 90, foldable: 1}", "foldable"),
            ("dims_mm: [40, 80, 20]", "dims_mm: [40, 0, 20]", "gripper dims must be positive"),
            ("standoff_mm: 5", "standoff_mm: -1", "gripper standoff must be >= 0"),
            ("support_tolerance_mm: 1.0", "support_tolerance_mm: -1", "support_tolerance must be >= 0"),
            ("{id: 2,", "{id: 0,", "panel id must be >= 1, got 0"),
            ("{id: 2,", "{id: 2.5,", "panel 2.5: id must be an integer, got 2.5"),
            ("dims_mm: [60, 190, 2]", "dims_mm: [1" + "0" * 400 + ", 190, 2]", "panel 2: dims_mm must be finite"),
            ("{id: 4,", "{id: 4, id: 5,", "duplicate key 'id' on line 11"),
            ("  penetration_tolerance_mm", "  tolerance_angle_deg: 6\n  penetration_tolerance_mm",
             "duplicate key 'tolerance_angle_deg' on line 24"),
            ("translation_mm: [0, 0, 1]}", "translation_mm: [0, 0, 1], rpy_deg: [1e308, 0, 0]}",
             "root_pose: rpy_deg must lie within [-360, 360], got 1e+308"),
            (TABLE, TABLE + "\n  " + BOX.format("1, 1, 1")[:-1] + ", rpy_deg: [0, -360.5, 0]}",
             "environment[1]: rpy_deg must lie within [-360, 360], got -360.5"),
            # Beyond int()'s digit limit, which PyYAML's constructor raises as a ValueError.
            ("dims_mm: [60, 190, 2]", "dims_mm: [60, " + "1" * 5000 + ", 2]",
             "error: integer on line 5 has too many digits to read"),
            ("theta_final_deg: 90", "theta_final_deg: " + "9" * 5000,
             "error: integer on line 7 has too many digits to read"),
        ],
    )
    def test_malformed_number_exits_3_naming_the_field(
        self, spec_dir, tmp_path, capsys, old, new, field
    ):
        text = (spec_dir / "three_flaps.yaml").read_text()
        assert old in text
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace(old, new, 1))
        code, report = run_to_string(RunConfig(spec_path=str(bad)))
        assert code == EXIT_SPEC_INVALID
        assert report == ""
        assert field in capsys.readouterr().err

    def test_joint_range_error_echoes_the_spec_number(self, spec_dir, tmp_path, capsys):
        text = (spec_dir / "three_flaps.yaml").read_text()
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace("theta_final_deg: 90}", "theta_final_deg: 500}", 1))
        code, _ = run_to_string(RunConfig(spec_path=str(bad)))
        assert code == EXIT_SPEC_INVALID
        assert capsys.readouterr().err == (
            "error: panel 2: theta_final_deg must lie within [-180, 180], got 500.0\n"
        )

    @pytest.mark.parametrize("sequence", (None, (3, 4, 2)), ids=("plan", "explain"))
    @pytest.mark.parametrize(
        "spelling", ("9223372036854775808", '"9223372036854775808"', "1" + "0" * 30, "1e300", "1.0e+300")
    )
    def test_panel_id_above_int64_exits_3_naming_the_panel(
        self, spec_dir, tmp_path, capsys, spelling, sequence
    ):
        text = (spec_dir / "three_flaps.yaml").read_text()
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace("{id: 2,", f"{{id: {spelling},", 1))
        code, report = run_to_string(RunConfig(spec_path=str(bad), explain=sequence))
        assert code == EXIT_SPEC_INVALID
        assert report == ""
        err = capsys.readouterr().err
        assert err.startswith("error: panel ") and "id must be at most 2**63 - 1" in err

    @pytest.mark.parametrize("quote", ("", '"'), ids=("plain", "quoted"))
    def test_panel_id_of_int64_max_plans_exactly(self, spec_dir, tmp_path, quote):
        big = 2**63 - 1
        text = (spec_dir / "three_flaps.yaml").read_text()
        path = tmp_path / "big.yaml"
        path.write_text(text.replace("{id: 2,", f"{{id: {quote}{big}{quote},", 1))
        assert big in {panel.id for panel in load_spec(path).panels}
        code, report = run_to_string(RunConfig(spec_path=str(path), fmt="csv", top=None))
        assert code == EXIT_OK
        want = run_to_string(RunConfig(spec_path=str(spec_dir / "three_flaps.yaml"), fmt="csv", top=None))[1]
        # Joint 2 sorts first among 2, 3 and 4, and 2**63 - 1 last, so the
        # rows of equal totals may list in another order: compare as sets.
        rows = {line.replace(str(big), "2") for line in report.splitlines()}
        assert rows == set(want.splitlines())
        assert run_to_string(RunConfig(spec_path=str(path), explain=(3, 4, big)))[0] == EXIT_OK

    @pytest.mark.parametrize("sequence", (None, (2, 3, 4)), ids=("plan", "explain"))
    def test_spec_that_is_not_utf8_exits_3_naming_the_encoding(
        self, spec_dir, tmp_path, capsys, sequence
    ):
        text = (spec_dir / "three_flaps.yaml").read_bytes()
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(text.replace(b"# ", b"# \xff", 1))
        code, report = run_to_string(RunConfig(spec_path=str(bad), explain=sequence))
        assert code == EXIT_SPEC_INVALID
        assert report == ""
        err = capsys.readouterr().err
        assert err.startswith("error: spec is not UTF-8 text:") and "byte 0xff" in err

    @pytest.mark.parametrize("sequence", (None, (1, 2, 3, 4, 5, 6, 7)), ids=("plan", "explain"))
    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("dims_mm: [240, 330, 2]", "dims_mm: [240, 1.0e+308, 2]", "panel 8: dims_mm"),
            ("crease_anchor_mm: [2, 140, 0]", "crease_anchor_mm: [1.0e+308, 1.0e+308, 1.0e+308]",
             "panel 5: crease_anchor_mm"),
            ("translation_mm: [0, 0, 1]", "translation_mm: [0, 0, -1000000.001]", "root_pose: translation_mm"),
            (TABLE, TABLE + "\n  - {center_mm: [0, 1.0e+10, 0], dims_mm: [1, 1, 1]}", "environment[1]: center_mm"),
            (TABLE, TABLE + "\n  - {center_mm: [0, 0, 0], dims_mm: [1, 1000000.001, 1]}", "environment[1]: dims_mm"),
            ("dims_mm: [60, 120, 25]", "dims_mm: [60, 120, 1.0e+300]", "gripper: dims_mm"),
            ("standoff_mm: 5", "standoff_mm: -1.0e+7", "gripper: standoff_mm"),
        ],
    )
    def test_length_beyond_the_bound_exits_3_naming_the_field(
        self, spec_dir, tmp_path, capsys, old, new, field, sequence
    ):
        # Lengths this large overflow the plan's volume sums to inf, or
        # outgrow the broad phase's margin for rounding, long before that.
        text = (spec_dir / "case_study_tray.yaml").read_text()
        assert old in text
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace(old, new, 1))
        code, report = run_to_string(RunConfig(spec_path=str(bad), explain=sequence))
        assert code == EXIT_SPEC_INVALID
        assert report == ""
        assert capsys.readouterr().err.startswith(
            f"error: {field} must lie within [-{MAX_LENGTH_MM:g}, {MAX_LENGTH_MM:g}], got "
        )
        at_bound = tmp_path / "at_bound.yaml"
        at_bound.write_text(text.replace("translation_mm: [0, 0, 1]", f"translation_mm: [0, 0, {MAX_LENGTH_MM}]"))
        assert run_to_string(RunConfig(spec_path=str(at_bound), explain=sequence))[0] == EXIT_OK

    def test_non_finite_override_exits_3(self, spec_dir):
        code, _ = run_to_string(
            RunConfig(spec_path=str(spec_dir / "three_flaps.yaml"), tolerance_angle_deg=math.nan)
        )
        assert code == EXIT_SPEC_INVALID

    def test_too_fine_sweep_override_exits_3(self, spec_dir, capsys):
        code, _ = run_to_string(
            RunConfig(spec_path=str(spec_dir / "three_flaps.yaml"), tolerance_angle_deg=1e-9)
        )
        assert code == EXIT_SPEC_INVALID
        assert "tolerance_angle_deg" in capsys.readouterr().err

    @pytest.mark.parametrize("sequence", (None, ()), ids=("plan", "explain"))
    def test_no_foldable_joint_exits_3(self, tmp_path, capsys, sequence):
        path = tmp_path / "base_only.yaml"
        path.write_text("panels: [{id: 1, parent: null, dims_mm: [10, 10, 1]}]\n")
        code, report = run_to_string(RunConfig(spec_path=str(path), explain=sequence))
        assert code == EXIT_SPEC_INVALID
        assert report == ""
        assert "error: carton has no foldable joints" in capsys.readouterr().err

    def test_zero_sequences_exits_2(self, spec_dir):
        code, text = run_to_string(
            RunConfig(spec_path=str(spec_dir / "obstructed_flap.yaml"), fmt="csv")
        )
        assert code == EXIT_NO_SEQUENCES
        assert text.strip() == "sequence,volume_mm3,maxdim_mm,naf"

    def test_top_truncation(self, spec_dir):
        code, text = run_to_string(
            RunConfig(spec_path=str(spec_dir / "three_flaps.yaml"), fmt="csv", top=2)
        )
        assert code == EXIT_OK
        assert len(text.splitlines()) == 1 + 2

    def test_top_all(self, spec_dir):
        code, text = run_to_string(
            RunConfig(spec_path=str(spec_dir / "three_flaps.yaml"), fmt="csv", top=None)
        )
        assert len(text.splitlines()) == 1 + 6

    def test_case_study_has_more_than_100_rows(self, spec_dir):
        code, text = run_to_string(
            RunConfig(
                spec_path=str(spec_dir / "case_study_tray.yaml"),
                fmt="structured",
                top=5,
            )
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["sequence_count"] > 100
        assert len(payload["rows"]) == 5

    def test_csv_and_structured_carry_identical_numbers(self, spec_dir):
        base = RunConfig(spec_path=str(spec_dir / "three_flaps.yaml"), top=None)
        _, csv_text = run_to_string(
            RunConfig(**{**base.__dict__, "fmt": "csv"})
        )
        _, json_text = run_to_string(
            RunConfig(**{**base.__dict__, "fmt": "structured"})
        )
        payload = json.loads(json_text)
        csv_rows = csv_text.strip().splitlines()[1:]
        assert len(csv_rows) == len(payload["rows"])
        for line, row in zip(csv_rows, payload["rows"]):
            seq, vol, dim, naf = line.split(",")
            assert [int(t) for t in seq.split("-")] == row["sequence"]
            assert float(vol) == pytest.approx(row["volume_mm3"], rel=1e-6)
            assert float(dim) == pytest.approx(row["maxdim_mm"], rel=1e-6)
            assert int(naf) == row["naf"]

    @pytest.mark.parametrize("top", (1, 20, None))
    @pytest.mark.parametrize("policy", POLICIES, ids=">".join)
    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_structured_report_is_the_json_encoding(self, name, policy, top):
        # format_structured writes from templates; the text must be that of
        # the JSON encoder with a two-space indent, byte for byte.
        tree = build_tree(replace(load_spec(SPEC_DIR / name), ranking=policy))
        report = rank_lattice(build_lattice(tree), top)
        assert format_structured(report) == structured_report(report)

    def test_machine_output_is_deterministic(self, spec_dir):
        for fmt in ("csv", "structured"):
            config = RunConfig(
                spec_path=str(spec_dir / "blocking_pair.yaml"), fmt=fmt, top=None
            )
            first = run_to_string(config)
            second = run_to_string(config)
            assert first == second

    def test_overrides_are_applied(self, spec_dir):
        # A hostile penetration override (negative) must be rejected.
        code, _ = run_to_string(
            RunConfig(
                spec_path=str(spec_dir / "three_flaps.yaml"),
                penetration_mm=-1.0,
            )
        )
        assert code == EXIT_SPEC_INVALID

    def test_support_override_changes_aerial_counts(self, spec_dir):
        # With an absurdly large support tolerance nothing is ever aerial.
        _, strict = run_to_string(
            RunConfig(spec_path=str(spec_dir / "blocking_pair.yaml"), fmt="csv")
        )
        _, lax = run_to_string(
            RunConfig(
                spec_path=str(spec_dir / "blocking_pair.yaml"),
                fmt="csv",
                support_mm=1e6,
            )
        )
        naf_strict = int(strict.strip().splitlines()[1].split(",")[-1])
        naf_lax = int(lax.strip().splitlines()[1].split(",")[-1])
        assert naf_strict == 1 and naf_lax == 0


def csv_total(rng: np.random.Generator) -> float:
    """A total as reports print it: any value, or one within two ulps of a
    6-decimal rounding edge."""
    if rng.random() < 0.5:
        return float(rng.uniform(0.0, 1e9))
    value = (int(rng.integers(0, 10**12)) + 0.5) / 1e6
    for _ in range(abs(int(rng.integers(-2, 3)))):
        value = float(np.nextafter(value, rng.choice((0.0, np.inf))))
    return value


@st.composite
def drawn_reports(draw):
    """A report of 0, 1 or many rows over multi-digit, non-contiguous joint
    ids, its totals drawn from a small pool (repeating) or row by row.

    Its edges list each joint's slot one or more times, in shuffled order,
    and each step is one of its joint's edges, so each row orders every
    joint once. Edge measures are drawn like totals.
    """
    k = draw(st.integers(1, 6))
    ids = st.integers(1, 10**6) | st.integers(2**53, 2**63 - 1)
    joints = np.array(sorted(draw(st.lists(ids, min_size=k, max_size=k, unique=True))), dtype=np.intp)
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [csv_total(rng) for _ in range(draw(st.sampled_from((1, 3, 40))))]
    repeat = draw(st.booleans())

    def totals() -> np.ndarray:
        values = [pool[i] for i in rng.integers(0, len(pool), n)] if repeat else [
            csv_total(rng) for _ in range(n)
        ]
        return np.array(values, dtype=float)

    copies = rng.integers(1, draw(st.sampled_from((2, 40))), k)
    edge_id = rng.permutation(int(copies.sum()))  # of each edge, grouped by joint
    edge_slot = np.empty(len(edge_id), dtype=np.uint8)
    edge_slot[edge_id] = np.repeat(np.arange(k), copies)
    position = np.array([rng.permutation(k) for _ in range(n)], dtype=np.intp).reshape(n, k)
    pick = (rng.random((n, k)) * copies[position]).astype(np.intp)
    steps = edge_id[(np.cumsum(copies) - copies)[position] + pick]
    measures = [np.array([csv_total(rng) for _ in edge_id]) for _ in range(2)]
    return RankedReport(
        criteria=("aerial", "maxdim"),
        sequence_count=n,
        joints=joints,
        steps=steps,
        edges=EdgeMetrics(edge_slot, *measures, rng.random(len(edge_id)) < 0.5),
        c_vol=totals(),
        c_dim=totals(),
        c_aerial=rng.integers(0, k + 1, n),
    )


def joined_ranges(write, report, rows: int) -> str:
    """The texts of consecutive ranges of ``rows`` rows, joined."""
    return "".join(write(report, a, a + rows) for a in range(0, max(len(report), 1), rows))


class WriteLog:
    """An output that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text: str) -> None:
        self.writes.append(text)


class DigestSink:
    """An output that keeps only the MD5 digest of what is written to it."""

    def __init__(self):
        self.md5 = hashlib.md5()

    def write(self, text: str) -> None:
        self.md5.update(text.encode())


class TestCsvWriter:
    """``format_csv`` against the line-by-line writer ``oracles.csv_report``."""

    @given(drawn_reports())
    def test_drawn_reports_are_written_byte_for_byte(self, report):
        want = csv_report(report)
        assert format_csv(report) == want
        # One row per range: every row crosses a range boundary.
        assert joined_ranges(format_csv, report, 1) == want

    def test_peak_memory_no_higher_than_the_reference(self):
        # Written a block at a time, the report's text is never held whole.
        report = rank_lattice(build_lattice(build_tree(free_flap_spec(8))), None)
        assert len(report) == 40320
        sink, peaks = DigestSink(), []
        for write in (lambda: write_report(report, "csv", sink), lambda: csv_report(report)):
            tracemalloc.start()
            try:
                text = write()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert sink.md5.hexdigest() == hashlib.md5(text.encode()).hexdigest()
        assert peaks[0] * 10 <= peaks[1]


class TestStructuredWriter:
    """``format_structured`` against ``json.dumps``, ``oracles.structured_report``."""

    @given(drawn_reports())
    def test_drawn_reports_are_written_byte_for_byte(self, report):
        assert np.array_equal(np.sort(report.orders, axis=1), np.tile(report.joints, (len(report), 1)))
        want = structured_report(report)
        assert format_structured(report) == want
        assert joined_ranges(format_structured, report, 1) == want


WRITERS = {"table": format_table, "csv": format_csv, "structured": format_structured}


@pytest.fixture(scope="module")
def every_row():
    """Every ranked row of the tray, of eight free flaps of distinct heights,
    and of a carton with no feasible sequence (a report of no rows)."""
    flaps8 = free_flap_spec(8, [40.0 + 7 * i for i in range(8)])
    trees = {
        "tray": build_tree(load_spec(SPEC_DIR / "case_study_tray.yaml")),
        "flaps8": build_tree(flaps8),
        "no rows": build_tree(load_spec(SPEC_DIR / "obstructed_flap.yaml")),
    }
    return {name: rank_lattice(build_lattice(tree), None) for name, tree in trees.items()}


class TestWritersByRange:
    """Each writer formats a range of rows; consecutive ranges join into the
    one-range text, and run writes the report one block at a time."""

    @pytest.mark.parametrize("fmt", WRITERS)
    @pytest.mark.parametrize("name", ("tray", "flaps8", "no rows"))
    def test_consecutive_ranges_join_into_the_whole_report(self, every_row, name, fmt):
        report, write = every_row[name], WRITERS[fmt]
        assert len(report) == {"tray": 1680, "flaps8": 40320, "no rows": 0}[name]
        whole = write(report)
        assert whole.endswith("\n")
        for rows in (1, 2, 7, block_rows(report), len(report) + 1):
            assert joined_ranges(write, report, rows) == whole, rows

    @pytest.mark.parametrize("fmt", WRITERS)
    def test_run_writes_one_block_at_a_time(self, every_row, fmt, monkeypatch):
        # Blocks of 102 rows: the tray's 1 680 rows are one block at the default size.
        monkeypatch.setattr(cli_module, "BLOCK_WORDS", 1024)
        report = every_row["tray"]
        rows = block_rows(report)
        log = WriteLog()
        config = RunConfig(spec_path=str(SPEC_DIR / "case_study_tray.yaml"), fmt=fmt, top=None)
        assert run(config, out=log) == EXIT_OK
        assert len(log.writes) == -(-len(report) // rows) > 1
        assert log.writes == [WRITERS[fmt](report, a, a + rows) for a in range(0, len(report), rows)]

    def test_streamed_structured_peak_memory_is_a_tenth_of_the_whole_text(self, every_row):
        report, peaks = every_row["flaps8"], []
        for write in (lambda: write_report(report, "structured", DigestSink()), lambda: format_structured(report)):
            tracemalloc.start()
            try:
                write()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] * 10 <= peaks[1]

    @pytest.mark.parametrize("fmt", WRITERS)
    def test_a_report_of_no_rows_is_one_write(self, every_row, fmt):
        log = WriteLog()
        write_report(every_row["no rows"], fmt, log)
        assert log.writes == [WRITERS[fmt](every_row["no rows"])]


# specs/obstructed_flap.yaml with its beam replaced by a 0.5 mm blade that
# the flap's free edge passes between two 5 degree samples.
BLADE_DOC = """
panels:
  - {id: 1, name: base, parent: null, dims_mm: [100, 200, 2]}
  - {id: 2, name: flap, parent: 1, dims_mm: [60, 190, 2],
     crease_anchor_mm: [195, 0, 0], crease_dir: [-1, 0, 0],
     theta_init_deg: 0, theta_final_deg: 90}
root_pose: {translation_mm: [0, 0, 1]}
environment:
  - {name: table, half_space: true}
  - {name: blade, center_mm: [100, -50, 3.18], dims_mm: [10, 4, 0.5]}
planner: {tolerance_angle_deg: 5, penetration_tolerance_mm: 1.05, support_tolerance_mm: 1.0}
ranking: [aerial, maxdim]
"""


class TestThinBlade:
    @pytest.mark.xfail(
        strict=True,
        reason="certified sweeps, ROADMAP.md item 3: the swept check tests sampled angles only, "
        "so at 5 degrees the flap passes through the blade between two samples",
    )
    def test_blade_blocks_the_fold_at_every_sweep_step(self, tmp_path):
        path = tmp_path / "blade.yaml"
        path.write_text(BLADE_DOC)
        codes = {
            step: run_to_string(RunConfig(spec_path=str(path), tolerance_angle_deg=step))[0]
            for step in (1.0, 5.0)
        }
        assert codes == {1.0: EXIT_NO_SEQUENCES, 5.0: EXIT_NO_SEQUENCES}


class TestStateMemo:
    def test_plan_builds_each_panel_pose_once_without_forward_kinematics(
        self, spec_dir, monkeypatch
    ):
        # A plan never runs forward kinematics on a whole fold state: it
        # builds each panel's pose once per folded subset of the joints that
        # place it, shared by the sweeps, the pair tests and the ranking.
        path = spec_dir / "case_study_tray.yaml"
        tree = build_tree(load_spec(path))
        reachable, _ = frozenset_lattice(tree)
        expected = {
            (pid, tree.mask(folded) & tree.ancestry[pid])
            for folded in reachable
            if len(folded) < len(tree.foldable_ids)
            for pid in tree.ids
        }
        fk_calls, built, trees = [], [], []
        place = KinematicTree._place

        def counted_fk(tree_, theta):
            fk_calls.append(theta)
            return forward_kinematics(tree_, theta)

        def counted_place(tree_, panel_id, mask, parent):
            built.append((panel_id, mask & tree_.ancestry[panel_id]))
            return place(tree_, panel_id, mask, parent)

        def kept_tree(spec):
            trees.append(build_tree(spec))
            return trees[-1]

        monkeypatch.setattr(KinematicTree, "_place", counted_place)
        monkeypatch.setattr(cli_module, "build_tree", kept_tree)
        for module in vars(cartonfold).values():
            if getattr(module, "forward_kinematics", None) is forward_kinematics:
                monkeypatch.setattr(module, "forward_kinematics", counted_fk)
        code, _ = run_to_string(RunConfig(spec_path=str(path), fmt="csv", top=None))
        assert code == EXIT_OK
        assert fk_calls == []
        (planned,) = trees
        assert set(planned.panel_records) == expected
        assert sorted(built) == sorted(expected) and len(built) == 17

    def test_default_plan_builds_no_pose_object(self, spec_dir, monkeypatch):
        # A plan places panels as arrays: once the spec is loaded (its root
        # pose is a Transform), it builds no transform, box or panel pose.
        path = spec_dir / "case_study_tray.yaml"
        spec = load_spec(path)
        built = []

        def counted(name, make):
            def wrapper(*args, **kwargs):
                built.append(name)
                return make(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli_module, "load_spec", lambda _: spec)
        for owner in (Transform, OrientedBox, PanelPose):
            monkeypatch.setattr(owner, "__init__", counted(owner.__name__, owner.__init__))
        monkeypatch.setattr(Transform, "_of", classmethod(counted("Transform._of", Transform._of.__func__)))
        monkeypatch.setattr(
            reference_module, "_frozen_in_place", counted("_frozen_in_place", reference_module._frozen_in_place)
        )
        code, _ = run_to_string(RunConfig(spec_path=str(path)))
        assert code == EXIT_OK
        assert built == []
        # The wrappers see the reference FK build its poses.
        tree = build_tree(spec)
        forward_kinematics(tree, JointVector.flat(tree))
        assert {"PanelPose", "Transform._of", "_frozen_in_place"} <= set(built)


class TestDumpStates:
    def test_dump_replays_through_forward_kinematics(self, spec_dir, tmp_path):
        out_dir = tmp_path / "dump"
        code, _ = run_to_string(
            RunConfig(
                spec_path=str(spec_dir / "three_flaps.yaml"),
                fmt="csv",
                top=3,
                dump_dir=str(out_dir),
            )
        )
        assert code == EXIT_OK
        files = sorted(out_dir.glob("sequence_*.json"))
        assert len(files) == 3

        spec = load_spec(spec_dir / "three_flaps.yaml")
        tree = build_tree(spec)
        payload = json.loads(files[0].read_text())
        assert len(payload["steps"]) == len(payload["sequence"]) + 1
        for record in payload["steps"]:
            theta = JointVector(
                {int(pid): float(v) for pid, v in record["theta_rad"].items()}
            )
            poses = {p.panel_id: p for p in forward_kinematics(tree, theta)}
            for dumped in record["panels"]:
                pose = poses[dumped["id"]]
                np.testing.assert_allclose(
                    np.array(dumped["rotation"]), pose.pose.rotation, atol=1e-9
                )
                np.testing.assert_allclose(
                    np.array(dumped["translation"]), pose.pose.translation, atol=1e-9
                )
            assert "aabb" in record and "aerial" in record

    def test_step_records_mark_aerial_folds(self, spec_dir, tmp_path):
        out_dir = tmp_path / "dump"
        run_to_string(
            RunConfig(
                spec_path=str(spec_dir / "case_study_tray.yaml"),
                fmt="csv",
                top=1,
                dump_dir=str(out_dir),
            )
        )
        payload = json.loads((out_dir / "sequence_0001.json").read_text())
        flags = [s["aerial"] for s in payload["steps"][:-1]]
        assert sum(flags) == 2

    @pytest.mark.parametrize("name, top", [("three_flaps.yaml", None), ("case_study_tray.yaml", 40)])
    def test_files_are_the_json_encoding(self, spec_dir, tmp_path, name, top):
        # Steps are encoded once and shared between files; each file must
        # still be the text of json.dumps with an indent of 2.
        out_dir = tmp_path / "dump"
        code, report = run_to_string(
            RunConfig(spec_path=str(spec_dir / name), fmt="csv", top=top, dump_dir=str(out_dir))
        )
        assert code == EXIT_OK
        files = sorted(out_dir.iterdir())
        assert [f.name for f in files] == [
            f"sequence_{rank:04d}.json" for rank in range(1, len(report.splitlines()))
        ]
        for path in files:
            text = path.read_text(encoding="utf-8")
            payload = json.loads(text)
            assert text == json.dumps(payload, indent=2) + "\n"
            assert [s["t"] for s in payload["steps"]] == list(range(len(payload["sequence"]) + 1))

    def test_dump_onto_a_file_exits_3_before_reporting(self, spec_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        code, report = run_to_string(
            RunConfig(spec_path=str(spec_dir / "three_flaps.yaml"), top=1, dump_dir=str(taken))
        )
        assert code == EXIT_SPEC_INVALID
        assert report == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0]
        assert taken.read_text() == "keep me\n"


class TestExplain:
    def test_flat_start_steps_are_grounded(self, spec_dir):
        out = io.StringIO()
        code = run(
            RunConfig(
                spec_path=str(spec_dir / "three_flaps.yaml"),
                explain=(2, 3, 4),
            ),
            out=out,
        )
        assert code == EXIT_OK
        text = out.getvalue()
        assert text.count("step ") == 3
        assert "aerial=yes" not in text
        assert "sequence valid" in text

    def test_infeasible_order_names_the_failing_step(self, spec_dir):
        out = io.StringIO()
        code = run(
            RunConfig(
                spec_path=str(spec_dir / "blocking_pair.yaml"),
                explain=(2, 3),
            ),
            out=out,
        )
        assert code == EXIT_NO_SEQUENCES
        assert "step 1" in out.getvalue()
        assert "joint 2" in out.getvalue()

    def test_case_study_sequence_trace(self, spec_dir, case_study_sequences):
        order = case_study_sequences[0]
        out = io.StringIO()
        code = run(
            RunConfig(
                spec_path=str(spec_dir / "case_study_tray.yaml"),
                explain=order,
            ),
            out=out,
        )
        assert code == EXIT_OK
        text = out.getvalue()
        assert text.count("step ") == 7
        assert text.count("aerial=yes") == 2
        assert "grasp=" in text

    def test_reference_seventh_row_ordering_traces_clean(self, spec_dir):
        # The ordering reported as implementable for the reference carton:
        # seven steps, exactly two of them aerial.
        out = io.StringIO()
        code = run(
            RunConfig(
                spec_path=str(spec_dir / "case_study_tray.yaml"),
                explain=(2, 1, 7, 4, 3, 6, 5),
            ),
            out=out,
        )
        assert code == EXIT_OK
        text = out.getvalue()
        assert text.count("step ") == 7
        assert text.count("aerial=yes") == 2

    def test_single_flap_spec_one_step_zero_aerial(self, tmp_path):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [100, 200, 2]}
  - {id: 2, parent: 1, dims_mm: [60, 190, 2], crease_anchor_mm: [195, 0, 0],
     crease_dir: [-1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
root_pose: {translation_mm: [0, 0, 1]}
environment: [{name: table, half_space: true}]
planner: {penetration_tolerance_mm: 1.05}
"""
        path = tmp_path / "single_flap.yaml"
        path.write_text(doc)
        out = io.StringIO()
        code = run(RunConfig(spec_path=str(path), explain=(2,)), out=out)
        assert code == EXIT_OK
        text = out.getvalue()
        assert text.count("step ") == 1
        assert "aerial=yes" not in text

    def test_incomplete_sequence_rejected(self, spec_dir):
        code = run(
            RunConfig(
                spec_path=str(spec_dir / "three_flaps.yaml"),
                explain=(2, 3),
            ),
            out=io.StringIO(),
        )
        assert code == EXIT_NO_SEQUENCES

    def test_crease_along_the_parent_normal_exits_3(self, tmp_path, capsys):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [100, 200, 2]}
  - {id: 2, parent: 1, dims_mm: [60, 190, 2], crease_anchor_mm: [195, 0, 0],
     crease_dir: [0, 0, 1], theta_init_deg: 0, theta_final_deg: 90}
"""
        path = tmp_path / "vertical_crease.yaml"
        path.write_text(doc)
        out = io.StringIO()
        code = run(RunConfig(spec_path=str(path), explain=(2,)), out=out)
        assert code == EXIT_SPEC_INVALID
        assert out.getvalue() == ""
        assert "crease_dir" in capsys.readouterr().err

    def test_huge_crease_dir_exits_3_with_one_line_on_stderr(self, tmp_path):
        # |v| of a vector too long to square must not overflow on its way
        # to the unit-vector check: the only output is the error line.
        path = tmp_path / "huge_crease.yaml"
        path.write_text(
            (SPEC_DIR / "three_flaps.yaml").read_text().replace(
                "crease_dir: [1, 0, 0]", "crease_dir: [1e200, 0, 0]"
            )
        )
        result = cli_process("--spec", str(path))
        assert result.returncode == EXIT_SPEC_INVALID
        assert result.stdout == ""
        assert result.stderr == (
            "error: panel 2 crease_dir must be a unit vector, |v| = 1e+200\n"
        )

    def test_run_loads_the_spec_once(self, spec_dir, monkeypatch):
        loads = []

        def counted(path):
            loads.append(path)
            return load_spec(path)

        monkeypatch.setattr(cli_module, "load_spec", counted)
        code, text = run_to_string(
            RunConfig(spec_path=str(spec_dir / "blocking_pair.yaml"), explain=(3, 2))
        )
        assert code == EXIT_OK
        assert "sequence valid" in text
        assert len(loads) == 1


class TestMainEntry:
    def test_main_runs_end_to_end(self, spec_dir, capsys):
        code = main(["--spec", str(spec_dir / "three_flaps.yaml"), "--format", "csv"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("sequence,volume_mm3,maxdim_mm,naf")

    @pytest.mark.parametrize("top", ("0", "x"))
    def test_bad_top_is_named_as_the_option(self, spec_dir, capsys, top):
        with pytest.raises(SystemExit) as exit_:
            main(["--spec", str(spec_dir / "three_flaps.yaml"), "--top", top])
        assert exit_.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "cartonfold: error: argument --top: --top must be a positive integer or 'all'"

    def test_main_explain_flag(self, spec_dir, capsys):
        code = main(
            ["--spec", str(spec_dir / "blocking_pair.yaml"), "--explain", "3,2"]
        )
        assert code == EXIT_OK
        assert "sequence valid" in capsys.readouterr().out


class TestOnDemandPaths:
    """--explain and --dump-states in a fresh interpreter: the replay module
    loads only for them, so an import it lacks cannot be hidden by one that
    an earlier test made in this process."""

    def test_explain(self, spec_dir):
        result = cli_process("--spec", str(spec_dir / "three_flaps.yaml"), "--explain", "2,3,4")
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout.splitlines()[-1] == "sequence valid: 3 steps"

    def test_dump_states(self, spec_dir, tmp_path):
        out_dir = tmp_path / "dump"
        result = cli_process(
            "--spec", str(spec_dir / "three_flaps.yaml"), "--top", "3", "--dump-states", str(out_dir)
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert len(list(out_dir.glob("sequence_*.json"))) == 3

    @pytest.mark.parametrize("flags", (["--explain", "2,3,4"], ["--top", "3", "--dump-states"]),
                             ids=("explain", "dump-states"))
    def test_cli_runs_as_main_without_loading_itself_again(self, spec_dir, tmp_path, flags):
        if flags[-1] == "--dump-states":
            flags = [*flags, str(tmp_path / "dump")]
        result = python_process("-c", AS_MAIN, "--spec", str(spec_dir / "three_flaps.yaml"), *flags)
        assert result.stderr.splitlines() == ["0 False"], result.stderr
