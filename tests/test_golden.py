"""Golden reports: the sha256 of stdout for pinned CLI configurations.

Every shipped spec in every format at top 20 and top all, and eight equal
free flaps at top 20 under each of the three test policies. Beside the
reports, the ``--explain`` trace (stdout, stderr and exit code) of pinned
orders, and the ``--dump-states`` directory of two plans, hashed over its
sorted file names and bytes. A change to planning, ranking or formatting
that is meant to keep the output the same must keep these hashes. To
print the current hashes:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from cartonfold.cli import RunConfig, run
from cartonfold.reference import serialize_spec

from .conftest import SHIPPED_SPECS, SPEC_DIR, free_flap_spec
from .test_metrics import POLICIES

FORMATS = ("table", "csv", "structured")

# (case, format, top) -> sha256 of stdout. A case is a shipped spec file or
# "free:8 <policy>", eight equal free flaps ranked by the policy.
GOLDEN: dict[tuple[str, str, int | None], str] = {
    ("three_flaps.yaml", "table", 20): "b746a2a038dc02ebf92c730b3962e27fcea7c7009efdb3339aa3746bbe252bf3",
    ("three_flaps.yaml", "table", None): "b746a2a038dc02ebf92c730b3962e27fcea7c7009efdb3339aa3746bbe252bf3",
    ("three_flaps.yaml", "csv", 20): "c089ddba728c5c45e663397344fe9a17fe0353886213ef3602c48b80e7379852",
    ("three_flaps.yaml", "csv", None): "c089ddba728c5c45e663397344fe9a17fe0353886213ef3602c48b80e7379852",
    ("three_flaps.yaml", "structured", 20): "a48ed3f4c456c03abb5950ea8b6dd52eb48bd2f6ccd64fe2f605f50278fc5389",
    ("three_flaps.yaml", "structured", None): "a48ed3f4c456c03abb5950ea8b6dd52eb48bd2f6ccd64fe2f605f50278fc5389",
    ("blocking_pair.yaml", "table", 20): "41cb6e011e6fc45ac6da0ca60fcff59e9d44e4c367db3a7fbd696585bb3bae67",
    ("blocking_pair.yaml", "table", None): "41cb6e011e6fc45ac6da0ca60fcff59e9d44e4c367db3a7fbd696585bb3bae67",
    ("blocking_pair.yaml", "csv", 20): "122f1ed4153a7c99df80ecccf9e10a5f7462bf70740c5be7a88868f63cacbef1",
    ("blocking_pair.yaml", "csv", None): "122f1ed4153a7c99df80ecccf9e10a5f7462bf70740c5be7a88868f63cacbef1",
    ("blocking_pair.yaml", "structured", 20): "7483d6c3df1555b2826dd3e995df3fbb0d9aacd1baff0e7c7bbfaa9590d82df8",
    ("blocking_pair.yaml", "structured", None): "7483d6c3df1555b2826dd3e995df3fbb0d9aacd1baff0e7c7bbfaa9590d82df8",
    ("obstructed_flap.yaml", "table", 20): "f4e88777243edd3d306fe3ae8a3aad8010b8f64ed495a6760bb9c4ff254b289f",
    ("obstructed_flap.yaml", "table", None): "f4e88777243edd3d306fe3ae8a3aad8010b8f64ed495a6760bb9c4ff254b289f",
    ("obstructed_flap.yaml", "csv", 20): "11df802cea645fa2da3f9463d33b114df8cdf239626a20302cc02c921a6e3f8f",
    ("obstructed_flap.yaml", "csv", None): "11df802cea645fa2da3f9463d33b114df8cdf239626a20302cc02c921a6e3f8f",
    ("obstructed_flap.yaml", "structured", 20): "c692ba7446000be3d0a0bf76bb4d2c5bf749b362e8e0fb6d0443e956ff99a98b",
    ("obstructed_flap.yaml", "structured", None): "c692ba7446000be3d0a0bf76bb4d2c5bf749b362e8e0fb6d0443e956ff99a98b",
    ("case_study_tray.yaml", "table", 20): "0bdcda70023b0aeaa31c114c338d0a09d8f8ab24fc24cf28a882b8af64b6f4ba",
    ("case_study_tray.yaml", "table", None): "ff12743fe009564c282b5764f821b40b7922e70da88d5c2c7c4fb04d1cca2ac3",
    ("case_study_tray.yaml", "csv", 20): "32a0ec17aab83cb0b193aae0e35688aeeed2afe36f60f47dbd7c12d7daaf983c",
    ("case_study_tray.yaml", "csv", None): "cf3371646064d71014f15c2d808852b59dda002fe4ba3c2b7bbe855c5e933c02",
    ("case_study_tray.yaml", "structured", 20): "d5f9010296d51183274f000b1e11c1dc80794cd5618132ec4ef2cd6663860a6f",
    ("case_study_tray.yaml", "structured", None): "c4a19534f19003d6048b4f09003da4906eb4a40daebb7e5714e556f41d7402b5",
    ("free:8 aerial>maxdim", "table", 20): "a9a6606582c3fa6ebcde8a14e04042de44f3ae060f177ba0cf7493357c8ee967",
    ("free:8 aerial>maxdim", "csv", 20): "74dd785992e6719bb7820fad4e11567c66c58a537a3a9fb08ee22fc11bd48697",
    ("free:8 aerial>maxdim", "structured", 20): "f3c31aa30cd601cce5558ca9826e83ff35af14531232368f8443d2f4e436b4c5",
    ("free:8 aerial>maxdim>volume", "table", 20): "7926167056d1b8c95255ae91606befa7acf4c3f2532cfaf8a7f03293868820e1",
    ("free:8 aerial>maxdim>volume", "csv", 20): "e5d1d07d8c042e76360e9c084a52ee08ca5a3a60f12f5272523b056bebd85165",
    ("free:8 aerial>maxdim>volume", "structured", 20): "55c5bf62cdf731cbab030ec33cb2644ff45e7663f01e70d61b7390f70a0f98a8",
    ("free:8 volume", "table", 20): "e2188a02c730a47d1703847233971661a1e68015a636fd4dabc944fc438a39fe",
    ("free:8 volume", "csv", 20): "b8bf44e86662cd093ab58cc350af5439896584f29276597f34e52a56e4b623b9",
    ("free:8 volume", "structured", 20): "82734e98b8a19e24fed508dc1da3e902628bda9e3e601163393528686c719894",
}


# (spec, order) -> sha256 of the --explain exit code, stdout and stderr: the
# tray's top 20 orders, one that collides at step 1, and every order of the
# three flaps. Both specs declare a gripper, so every step reports a grasp.
EXPLAIN_GOLDEN: dict[tuple[str, str], str] = {
    ("case_study_tray.yaml", "3,1,4,2,7,5,6"): "91f4954f6353e6c0975d6faab4cee68592123db24e0dd452206e1513f49b7fed",
    ("case_study_tray.yaml", "3,1,4,2,7,6,5"): "ecca6896ffaad958353c7036edea72d12d0a1cbd27f686cf61e5349c712f6f43",
    ("case_study_tray.yaml", "3,1,4,7,2,5,6"): "43b9e902120400f9252897f25d33ff6737c39da9305ce26765324cdb7f7e80e9",
    ("case_study_tray.yaml", "3,1,4,7,2,6,5"): "41ccafd1d61bb346b1aed807fcef0bb50fa768f849680600ca5113bc88bb781a",
    ("case_study_tray.yaml", "4,1,3,2,7,5,6"): "02d7d8c440c400f4e2b021a09d78e4f46083d383348a1cd94d099ae3f5b41323",
    ("case_study_tray.yaml", "4,1,3,2,7,6,5"): "c371d797661aa0018eb7d1eb1335b59873a7bac81592f39226776cc1799bb04e",
    ("case_study_tray.yaml", "4,1,3,7,2,5,6"): "381f3e5d042579142b28fe88e3a670189bc65bf7828a913057c7a094912b87eb",
    ("case_study_tray.yaml", "4,1,3,7,2,6,5"): "2604feb15857a995b6769303ac702224216d770e5c4da9ca35373a2268f39978",
    ("case_study_tray.yaml", "1,3,4,2,7,5,6"): "92b8580e0878f1710dcf96c7726ce0b4be71d1278b94cf21facfe54f72f82408",
    ("case_study_tray.yaml", "1,3,4,2,7,6,5"): "511f332d0fbd21ae9cd053183b44376b84c1c2f31f83443cb476bd3de6e04086",
    ("case_study_tray.yaml", "1,3,4,7,2,5,6"): "171836cf3092c09d99a12b296c12d24fbec022b80ed9435df5259f6a44651eab",
    ("case_study_tray.yaml", "1,3,4,7,2,6,5"): "d2cf9e9ae98a26c1be14f8aa50f6c14f90af27567766d97f0a76572222da64b2",
    ("case_study_tray.yaml", "1,4,3,2,7,5,6"): "f9416c9dda1cb4fd5c8e224fde130af6c964d5c640943e1a2341ecd7fc47adb7",
    ("case_study_tray.yaml", "1,4,3,2,7,6,5"): "78875c725995d78877b512390a5db867665e871cf775b9c4bcac2cdae6aadeda",
    ("case_study_tray.yaml", "1,4,3,7,2,5,6"): "7f9a1d07bea0f73e91cad6e30c17259f482e412774cc4a3ac335be98b26bc102",
    ("case_study_tray.yaml", "1,4,3,7,2,6,5"): "e7136a49ec3b609048a675f242335f8b00a099d9500cb223f084ede8d4e5e221",
    ("case_study_tray.yaml", "3,1,4,2,5,7,6"): "80c14d06758895f0bb9cd228f511b990089b2607b57e59a6f8e7ed495c5c518a",
    ("case_study_tray.yaml", "3,1,4,2,6,7,5"): "439228568a72d573486a4cabf40c9f3109ef9c40708b4cc5dfe034427d6d780c",
    ("case_study_tray.yaml", "3,1,4,7,5,2,6"): "dcbb3d5c1ed4a52809e08a9b1f5034d9dfdbf66751cebfd6c9de711ab89c45bf",
    ("case_study_tray.yaml", "3,1,4,7,6,2,5"): "74066704553ef199f911d19238907b10cc085542f2c952d3d4c5d9874fa117b2",
    ("case_study_tray.yaml", "5,1,2,3,4,6,7"): "e0bbbb7a5728b8b0f3792a7a119c0eb577d8bdc8ce14b5b39fc5ad010cb04c34",
    ("three_flaps.yaml", "2,3,4"): "6ff0ae4a3529f658ca4c9000fc60de05d1ee46d567122ef8fe171a0be7e2840a",
    ("three_flaps.yaml", "2,4,3"): "5ab4a0bd746ff10e490f3b2596fde0e7608acce53c55c39c1578a7cd7a034dbe",
    ("three_flaps.yaml", "3,2,4"): "f5ee9dc292bd34814deebe782c5f8766d86099d52ab23a86a21458c62e473e08",
    ("three_flaps.yaml", "3,4,2"): "89f852e3eed5026069e7dfdad10ac99e889886c97e76dc1cdc2b53a76be6cbc1",
    ("three_flaps.yaml", "4,2,3"): "2c433ca027ad8eaa34c214c6e5ac82703404d9ca58c3a56fe4ba4add3767c266",
    ("three_flaps.yaml", "4,3,2"): "e592b6073c3ee1bcd4e7d924b7592266c1660dd246bc71fd249ad9c7eebc5f35",
}

# (spec, top) -> sha256 over the sorted file names and bytes of --dump-states.
DUMP_GOLDEN: dict[tuple[str, int | None], str] = {
    ("three_flaps.yaml", None): "574a740c46ac05e3dc9fae46d3957bcdc8b8980c2d7f4c1adffccc6af1427114",
    ("case_study_tray.yaml", 5): "17f27cf55901b208b6452b6274f313cb1157245487ecdf7a1ae50e6bcbe25c95",
}


def cases() -> list[tuple[str, str, int | None]]:
    found = [(spec, fmt, top) for spec in SHIPPED_SPECS for fmt in FORMATS for top in (20, None)]
    found += [(f"free:8 {'>'.join(p)}", fmt, 20) for p in POLICIES for fmt in FORMATS]
    return found


def report_digest(case: str, fmt: str, top: int | None, workdir: Path) -> str:
    if case.startswith("free:"):
        policy = tuple(case.split()[1].split(">"))
        path = workdir / f"{case.replace(':', '_').replace('>', '_').replace(' ', '_')}.yaml"
        path.write_text(serialize_spec(replace(free_flap_spec(8), ranking=policy)))
    else:
        path = SPEC_DIR / case
    out = io.StringIO()
    run(RunConfig(spec_path=str(path), fmt=fmt, top=top), out=out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def explain_digest(spec: str, order: str) -> str:
    config = RunConfig(
        spec_path=str(SPEC_DIR / spec), explain=tuple(map(int, order.split(",")))
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(config, out=out)
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def dump_digest(spec: str, top: int | None, workdir: Path) -> str:
    directory = workdir / "dump"
    config = RunConfig(spec_path=str(SPEC_DIR / spec), fmt="csv", top=top, dump_dir=str(directory))
    run(config, out=io.StringIO())
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("case, fmt, top", cases(), ids=lambda v: str(v))
def test_report_matches_its_golden_hash(case, fmt, top, tmp_path):
    assert report_digest(case, fmt, top, tmp_path) == GOLDEN[case, fmt, top]


@pytest.mark.parametrize("spec, order", list(EXPLAIN_GOLDEN), ids=lambda v: str(v))
def test_explain_matches_its_golden_hash(spec, order):
    assert explain_digest(spec, order) == EXPLAIN_GOLDEN[spec, order]


@pytest.mark.parametrize("spec, top", list(DUMP_GOLDEN), ids=lambda v: str(v))
def test_dump_states_match_their_golden_hash(spec, top, tmp_path):
    assert dump_digest(spec, top, tmp_path) == DUMP_GOLDEN[spec, top]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key in cases():
            case, fmt, top = key
            print(f'    ("{case}", "{fmt}", {top}): "{report_digest(*key, Path(tmp))}",')
        for spec, order in EXPLAIN_GOLDEN:
            print(f'    ("{spec}", "{order}"): "{explain_digest(spec, order)}",')
        for spec, top in DUMP_GOLDEN:
            with tempfile.TemporaryDirectory() as work:
                print(f'    ("{spec}", {top}): "{dump_digest(spec, top, Path(work))}",')
