"""Small-scope sweeps: every distinct code within `depth` templates of
(0 | I 0) on n streams with r generators, for each (n, r, depth) in SWEEPS.

Each template is unimodular and keeps commutation, so every code reached is
valid and has an encoder with Gamma = I: each must synthesize, its
transcript must replay to the normal form, and Gamma's bodies must equal
the Smith invariants of (X | Z).  Depth 4 on n=3, r=2 (20,808 codes) is
left out: nine of its codes end in `reduction failed` today, the reduction
gap that `TestReductionGap` in tests/test_cli.py pins."""

from functools import lru_cache

import pytest

from helpers import z_only_identity_code
from qconvenc.gates import CNOT, CSIGN, GateTemplate, H, P, PL, apply
from qconvenc.synthesis import replay, synthesize
from test_properties import _smith_bodies

# (n, r, depth) -> (distinct templates, codes first reached at each depth)
SWEEPS = {
    (3, 2, 3): (36, [14, 162, 1838]),
    (4, 3, 3): (66, [30, 651, 12814]),
}


def sweep_templates(n: int) -> list[GateTemplate]:
    """H, P and PL(l=1) on each stream, and CNOT and CSIGN on every ordered
    pair at offsets -1, 0 and 1, each distinct template once (CSIGN(i, j, l)
    is CSIGN(j, i, -l))."""
    streams = range(1, n + 1)
    candidates = [GateTemplate(H, i) for i in streams]
    candidates += [GateTemplate(P, i) for i in streams]
    candidates += [GateTemplate(PL, i, 0, 1) for i in streams]
    candidates += [
        GateTemplate(kind, i, j, ell)
        for kind in (CNOT, CSIGN)
        for i in streams
        for j in streams
        if i != j
        for ell in (-1, 0, 1)
    ]
    return list(dict.fromkeys(candidates))


@lru_cache(maxsize=None)
def sweep_codes(n: int, r: int, depth: int) -> list[list]:
    """The codes first reached at depth 1, 2, ..., depth, breadth first
    from (0 | I 0); a matrix already seen at a smaller depth is dropped."""
    templates = sweep_templates(n)
    start = z_only_identity_code(n, r)
    seen, frontier, levels = {start}, [start], []
    for _ in range(depth):
        level = []
        for s in frontier:
            for g in templates:
                t = apply(s, g)
                if t not in seen:
                    seen.add(t)
                    level.append(t)
        levels.append(level)
        frontier = level
    return levels


def test_the_sweep_covers_every_distinct_code():
    for (n, r, depth), (templates, counts) in SWEEPS.items():
        assert len(sweep_templates(n)) == templates
        assert [len(level) for level in sweep_codes(n, r, depth)] == counts


# the n=3, r=2 sweep keeps its bare depth ids
@pytest.mark.parametrize(
    "n, r, depth, level",
    [
        pytest.param(n, r, depth, level, id=str(level) if (n, r) == (3, 2) else f"n{n}-r{r}-{level}")
        for n, r, depth in SWEEPS
        for level in range(1, depth + 1)
    ],
)
def test_every_code_synthesizes_replays_and_keeps_its_invariants(n, r, depth, level):
    for s in sweep_codes(n, r, depth)[level - 1]:
        result = synthesize(s)
        assert replay(s, result) == result.normal_form, s
        assert [g.bits for g in result.gamma] == _smith_bodies(s), s
