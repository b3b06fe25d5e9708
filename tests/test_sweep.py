"""Small-scope sweep: every distinct code within three templates of (0 | I 0)
on n=3 streams with r=2 generators.

Each template is unimodular and keeps commutation, so every code reached is
valid and has an encoder with Gamma = I: each must synthesize, its
transcript must replay to the normal form, and Gamma's bodies must equal
the Smith invariants of (X | Z).  Depth 4 (20,808 codes) is left out:
nine of its codes end in `reduction failed` today, the reduction gap that
`TestReductionGap` in tests/test_cli.py pins."""

import pytest

from helpers import z_only_identity_code
from qconvenc.gates import CNOT, CSIGN, GateTemplate, H, P, PL, apply
from qconvenc.synthesis import replay, synthesize
from test_properties import _smith_bodies

N, R, DEPTH = 3, 2, 3


def sweep_templates() -> list[GateTemplate]:
    """H, P and PL(l=1) on each stream, and CNOT and CSIGN on every ordered
    pair at offsets -1, 0 and 1, each distinct template once (CSIGN(i, j, l)
    is CSIGN(j, i, -l))."""
    streams = range(1, N + 1)
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


def sweep_codes() -> list[list]:
    """The codes first reached at depth 1, 2, ..., DEPTH, breadth first from
    (0 | I 0); a matrix already seen at a smaller depth is dropped."""
    templates = sweep_templates()
    start = z_only_identity_code(N, R)
    seen, frontier, levels = {start}, [start], []
    for _ in range(DEPTH):
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


LEVELS = sweep_codes()


def test_the_sweep_covers_every_distinct_code():
    assert len(sweep_templates()) == 36
    assert [len(level) for level in LEVELS] == [14, 162, 1838]


@pytest.mark.parametrize("depth", range(1, DEPTH + 1))
def test_every_code_synthesizes_replays_and_keeps_its_invariants(depth):
    for s in LEVELS[depth - 1]:
        result = synthesize(s)
        assert replay(s, result) == result.normal_form, s
        assert [g.bits for g in result.gamma] == _smith_bodies(s), s
