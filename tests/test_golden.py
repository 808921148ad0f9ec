"""Golden reports: the sha256 of stdout for pinned CLI configurations.

Every shipped spec in every format at top 20 and top all, and eight equal
free flaps at top 20 under each of the three test policies. A change to
planning, ranking or formatting that is meant to keep the reports the same
must keep these hashes. To print the current hashes:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import hashlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from cartonfold.cli import RunConfig, run
from cartonfold.model import serialize_spec

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


@pytest.mark.parametrize("case, fmt, top", cases(), ids=lambda v: str(v))
def test_report_matches_its_golden_hash(case, fmt, top, tmp_path):
    assert report_digest(case, fmt, top, tmp_path) == GOLDEN[case, fmt, top]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key in cases():
            case, fmt, top = key
            print(f'    ("{case}", "{fmt}", {top}): "{report_digest(*key, Path(tmp))}",')
