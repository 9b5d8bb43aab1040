"""Pinned verdicts: a speed-up of the criterion must not change any of them.

The digests are of `report_json` over every polyomino of at most 6 cells,
recorded before the hole search became incremental.
"""

import hashlib

import pytest

from polygrid.holes import (GLOBAL_HOLE, HAMILTONIAN, NO_SOLUTION,
                            UNVERIFIED, HoleContext, decide)
from polygrid.oracle import compare, enumerate_polyominoes, gen_grid, report_json

COMPARE_6_SHA256 = {
    "strict": "520bd9cf2259ce1058b62631fdc60a4f2ed7ce4cc08acf66b8707438db3dc9c1",
    "lenient": "3412a2ef1a7ebe89ce5abe8aa8e46c08806b596c3a6df1bb10b9edd64d22f2d7",
}


@pytest.mark.parametrize("mode", sorted(COMPARE_6_SHA256))
def test_compare_report_digest(mode):
    report = report_json(compare(enumerate_polyominoes(6), claw_mode=mode))
    assert hashlib.sha256(report.encode()).hexdigest() == \
        COMPARE_6_SHA256[mode]


def test_decide_rectangles_pinned():
    hole_4x5 = HoleContext(x=7, cx=(1, 4, 9), ck=6, cxe=(), ce=(5, 7),
                           cv=(3, 11))
    expected = {
        (4, 4): (HAMILTONIAN, None),
        (4, 5): (GLOBAL_HOLE, hole_4x5),
        (4, 6): (UNVERIFIED, None),
        (5, 5): (NO_SOLUTION, None),
        (5, 6): (UNVERIFIED, None),
    }
    for (m, n), (tag, hole) in expected.items():
        v = decide(gen_grid(m, n))
        assert (v.tag, v.hole) == (tag, hole), (m, n)
