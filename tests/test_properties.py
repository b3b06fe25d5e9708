"""Property tests: the circuit text format round trip, the symmetric
quotient against the y-basis reference, Laurent arithmetic against its
exponent-set reference, the fused entry updates against the operators
they stand for, the template runs of `gates.act_run`
against their template-by-template replay, the driver's gate kernels
against the template push, the polynomial seed images
of `gates.act` against the window kernel, and the window kernel's packed
unit and subcode seeds against its per-seed packing."""

import random
import tracemalloc
from contextlib import nullcontext
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    L,
    _lane_images,
    _pack,
    exponent_sum,
    identity,
    outcome,
    random_circuit,
    random_proper_code,
    random_valid_code,
    reference_symmetric_quotient,
    z_only_identity_code,
    zeros,
)
from qconvenc.gates import (
    CNOT,
    CSIGN,
    Circuit,
    Gate,
    GateTemplate,
    H,
    P,
    PL,
    _circuit,
    _gate,
    act,
    act_gate,
    act_run,
    act_swap,
    apply_circuit,
    format_circuit,
    parse_circuit,
)
from qconvenc.errors import ExponentOverflowError, NonClearableError, ParseError, PreconditionError
from qconvenc.matrix import thaw
from qconvenc.poly import LaurentPoly, add_product, add_shifted, max_span, span_limit
from qconvenc.smith import smith
from qconvenc.stabilizer import StabilizerMatrix, parse_stabilizer
from qconvenc.synthesis import _symmetric_quotient, synthesize
from qconvenc.verify import _lane_bytes, _unit_seeds

DATA = Path(__file__).parent / "data"

# reproducible runs that leave no example database behind
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def templates(draw, n: int) -> GateTemplate:
    """Any template on n streams: offsets of both signs, CSIGN in either
    qubit order and PL with a negative offset, which the constructor
    canonicalizes."""
    kind = draw(st.sampled_from((H, P, PL, CNOT, CSIGN)))
    i = draw(st.integers(1, n))
    if kind in (CNOT, CSIGN):
        j = draw(st.integers(1, n).filter(lambda j: j != i))
        return GateTemplate(kind, i, j, draw(st.integers(-5, 5)))
    if kind == PL:
        return GateTemplate(PL, i, 0, draw(st.integers(-5, 5).filter(bool)))
    return GateTemplate(kind, i)


@st.composite
def circuits(draw) -> Circuit:
    n = draw(st.integers(2, 5))
    return Circuit(n, tuple(draw(st.lists(templates(n), max_size=12))))


@PROPERTY
@given(circuits())
def test_circuit_format_round_trip(c):
    text = format_circuit(c)
    assert parse_circuit(text) == c
    assert format_circuit(parse_circuit(text)) == text


@st.composite
def symmetric(draw) -> LaurentPoly:
    """A sum of terms D^-e + D^e, with e = 0 standing for the constant 1."""
    exps = draw(st.sets(st.integers(0, 6), max_size=4))
    return LaurentPoly.from_exponents([x for e in exps for x in {-e, e}])


@st.composite
def self_orthogonal_pairs(draw) -> tuple[LaurentPoly, LaurentPoly]:
    """(z, gamma) with gamma = D^o b, b palindromic of degree 2h, and
    z = gamma u + D^(o + h) c for symmetric u and c, so that z gamma(1/D)
    is symmetric."""
    h = draw(st.integers(0, 4))
    o = draw(st.integers(-4, 4))
    low = draw(st.integers(0, (1 << h) - 1)) << 1 | 1
    half = [k for k in range(h + 1) if low >> k & 1]
    b = LaurentPoly.from_exponents(set(half) | {2 * h - k for k in half})
    gamma = b.shifted(o)
    z = gamma * draw(symmetric()) + draw(symmetric()).shifted(o + h)
    return z, gamma


@PROPERTY
@given(self_orthogonal_pairs())
def test_symmetric_quotient_matches_y_basis(pair):
    z, gamma = pair
    f = _symmetric_quotient(z, gamma)
    assert f == reference_symmetric_quotient(z, gamma)
    rest = z + f * gamma
    assert rest.is_zero() or rest.degree < gamma.degree


def test_symmetric_quotient_rejects_an_asymmetric_pair():
    with pytest.raises(AssertionError, match="is not symmetric"):
        _symmetric_quotient(L("D"), L("1"))


# -- Laurent arithmetic against exponent sets ---------------------------------


@st.composite
def laurents(draw) -> LaurentPoly:
    """Any value through the public constructor, which normalizes: bodies
    with trailing zeros, and zero with a nonzero offset."""
    return LaurentPoly(draw(st.integers(-12, 12)), draw(st.integers(0, (1 << 14) - 1)))


_reference = exponent_sum

# operation name -> (the operation, its reference on exponent sets)
LAURENT_OPS = {
    "add": (lambda a, b, k: a + b, lambda a, b, k: _reference(a.exponents() + b.exponents())),
    "mul": (lambda a, b, k: a * b, lambda a, b, k: _reference(e + f for e in a.exponents() for f in b.exponents())),
    "shifted": (lambda a, b, k: a.shifted(k), lambda a, b, k: _reference(e + k for e in a.exponents())),
    "reciprocal": (lambda a, b, k: a.reciprocal(), lambda a, b, k: _reference(-e for e in a.exponents())),
}


def _normalized(p: LaurentPoly) -> bool:
    return (p.offset, p.bits) == (0, 0) if p.bits == 0 else p.bits & 1 == 1


@pytest.mark.parametrize("op", sorted(LAURENT_OPS))
@PROPERTY
@given(a=laurents(), b=laurents(), k=st.integers(-20, 20))
def test_laurent_results_match_exponent_sets(op, a, b, k):
    run, reference = LAURENT_OPS[op]
    got = run(a, b, k)
    assert got == reference(a, b, k)
    assert _normalized(got)
    with pytest.raises(AttributeError):
        got.offset = 0
    with pytest.raises(AttributeError):
        got.bits = 1


@pytest.mark.parametrize("op", sorted(LAURENT_OPS))
@PROPERTY
@given(a=laurents(), b=laurents(), k=st.integers(-20, 20), limit=st.integers(1, 30))
def test_laurent_results_raise_exactly_above_a_lowered_limit(op, a, b, k, limit):
    """A result built anew is checked against the current limit; an operand
    returned as it is (beside a zero summand, or shifted by zero) is not,
    as it was checked when it was built."""
    run, reference = LAURENT_OPS[op]
    want = reference(a, b, k)
    passed_through = (op == "add" and not (a and b)) or (op == "shifted" and k == 0)
    with span_limit(limit):
        if want.bits and want.degree > limit and not passed_through:
            with pytest.raises(ExponentOverflowError):
                run(a, b, k)
        else:
            assert run(a, b, k) == want


@st.composite
def exponent_lists(draw) -> list[int]:
    """Exponents with repeats, so that some cancel, in drawn order."""
    exps = draw(st.lists(st.integers(-40, 40), max_size=6))
    if exps:
        exps += draw(st.lists(st.sampled_from(exps), max_size=4))
    return draw(st.permutations(exps))


@PROPERTY
@given(exps=exponent_lists(), limit=st.sampled_from((None, 2, 8, 30)))
def test_from_exponents_matches_exponent_sets(exps, limit):
    """The one builder against the set reference: the same value, or the
    same overflow message, whether the exponents fit the limit (one body)
    or cancel through a set first."""
    with nullcontext() if limit is None else span_limit(limit):
        assert outcome(LaurentPoly.from_exponents, exps) == outcome(exponent_sum, exps)


# -- fused entry updates against the operators ---------------------------------


@st.composite
def fused_operands(draw) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, int]:
    """(d, g, e, k) for d + e*D^k and d + g*e.  Each operand may be zero,
    offsets run negative, and d may be aligned with the update so that
    their constant terms cancel, or equal to it so that the sum is zero."""
    operand = st.one_of(st.just(LaurentPoly.zero()), laurents())
    d, g, e = draw(operand), draw(operand), draw(operand)
    k = draw(st.integers(-20, 20))
    align = draw(st.sampled_from(("none", "shift", "product", "shift-equal", "product-equal")))
    if align == "shift" and e:
        d = LaurentPoly(e.offset + k, d.bits | 1)
    elif align == "product" and g and e:
        d = LaurentPoly(g.offset + e.offset, d.bits | 1)
    elif align == "shift-equal":
        d = e.shifted(k)
    elif align == "product-equal":
        d = g * e
    return d, g, e, k


# update name -> (the fused update, the same update through the operators,
# its reference on exponent sets)
FUSED_UPDATES = {
    "add_shifted": (
        lambda d, g, e, k: add_shifted(d, e, k),
        lambda d, g, e, k: d + e.shifted(k),
        lambda d, g, e, k: _reference(d.exponents() + tuple(x + k for x in e.exponents())),
    ),
    "add_product": (
        lambda d, g, e, k: add_product(d, g, e),
        lambda d, g, e, k: d + g * e,
        lambda d, g, e, k: _reference(d.exponents() + tuple(a + b for a in g.exponents() for b in e.exponents())),
    ),
}


def _outcome(update, case):
    try:
        return update(*case)
    except ExponentOverflowError as exc:
        return "raised", str(exc)


@pytest.mark.parametrize("update", sorted(FUSED_UPDATES))
@PROPERTY
@given(case=fused_operands(), limit=st.one_of(st.none(), st.integers(1, 30)))
def test_fused_updates_match_the_operators(update, case, limit):
    """Same value, or the same ExponentOverflowError text, at the default
    limit and under a lowered one; a value is the exponent-set sum, and one
    built anew, not an operand passed through, is within the limit."""
    fused, operators, reference = FUSED_UPDATES[update]
    value = reference(*case)
    with nullcontext() if limit is None else span_limit(limit):
        got, want = _outcome(fused, case), _outcome(operators, case)
        current = max_span()
    assert got == want
    if isinstance(got, LaurentPoly):
        assert got == value
        assert _normalized(got)
        if got.bits and all(got is not operand for operand in case[:3]):
            assert got.degree <= current


@pytest.mark.parametrize("update", ["add", *sorted(FUSED_UPDATES)])
def test_a_sum_wider_than_the_limit_raises_before_it_is_built(update):
    """Offsets 2^23 apart: the sum's nominal span is checked before a body
    of 2^23 bits (1 MiB) is allocated."""
    far = LaurentPoly.d(1 << 23)
    near = LaurentPoly.one()
    run = {
        "add": lambda: near + far,
        "add_shifted": lambda: add_shifted(near, near, 1 << 23),
        "add_product": lambda: add_product(near, far, near),
    }[update]
    tracemalloc.start()
    try:
        with pytest.raises(ExponentOverflowError, match=f"span {1 << 23} exceeds"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# -- fused template runs against their replay ----------------------------------


@st.composite
def template_runs(draw):
    """Random (X | Z) rows and a CNOT or CSIGN run kind(i, j, f) on them,
    f of one term or more, columns 0-based: a single term goes through
    `act`'s updates, two or more are fused."""
    n = draw(st.integers(2, 4))
    r = draw(st.integers(1, 3))
    entries = st.builds(LaurentPoly, st.integers(-6, 6), st.integers(0, (1 << 8) - 1))
    x, z = (draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r)) for _ in "xz")
    kind = draw(st.sampled_from((CNOT, CSIGN)))
    i, j = draw(st.permutations(range(n)))[:2]
    exps = draw(st.sets(st.integers(-5, 5), min_size=1, max_size=5))
    return StabilizerMatrix.from_rows(n, x, z), kind, i, j, LaurentPoly.from_exponents(exps)


def _fused_and_replayed(s, kind, i, j, f):
    """Each path's outcome: its rows and templates, or its exception.  A
    template is compared as its fields (kind, i, j, ell), and the fused
    path's templates are the terms of the one gate that `act_run` returns."""
    fused_x, fused_z, fused_run = thaw(s.x), thaw(s.z), []
    x, z = thaw(s.x), thaw(s.z)
    run = [GateTemplate(kind, i + 1, j + 1, e) for e in f.exponents()]
    outcomes = []
    for step in (
        lambda: fused_run.append(act_run(fused_x, fused_z, kind, i + 1, j + 1, f)),
        lambda: [act(x, z, g) for g in run],
    ):
        try:
            step()
        except ExponentOverflowError as exc:
            outcomes.append(("raised", str(exc)))
        else:
            outcomes.append(None)
    fused_terms = [(g.kind, g.i, g.j, ell) for g in fused_run for ell in g.ells]
    run_terms = [(g.kind, g.i, g.j, g.ell) for g in run]
    return outcomes, (fused_x, fused_z, fused_terms), (x, z, run_terms)


@PROPERTY
@given(template_runs())
def test_fused_run_leaves_the_rows_and_templates_of_its_replay(case):
    outcomes, fused, replayed = _fused_and_replayed(*case)
    assert outcomes == [None, None]
    assert fused == replayed


@PROPERTY
@given(template_runs(), st.integers(1, 24))
def test_fused_run_raises_exactly_as_its_replay_under_a_lowered_limit(case, limit):
    with span_limit(limit):
        outcomes, fused, replayed = _fused_and_replayed(*case)
    assert outcomes[0] == outcomes[1]
    if outcomes[0] is None:
        assert fused == replayed


# -- the gate push against the template push -----------------------------------


@st.composite
def gate_pushes(draw):
    """Random (X | Z) rows on n streams and the synthesis driver's steps on
    them: a CNOT or CSIGN gate from a list of offsets, one or more,
    repeats kept, or from a polynomial through `act_run`, either with
    CSIGN's qubits in either order; H, P and PL; and stream swaps."""
    n = draw(st.integers(2, 4))
    r = draw(st.integers(1, 3))
    entries = st.builds(LaurentPoly, st.integers(-6, 6), st.integers(0, (1 << 8) - 1))
    x, z = (draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r)) for _ in "xz")
    pairs = st.permutations(range(1, n + 1)).map(lambda p: p[:2])
    offsets = st.integers(-4, 4)
    step = st.one_of(
        st.tuples(
            st.just("gate"), st.sampled_from((CNOT, CSIGN)), pairs, st.lists(offsets, min_size=1, max_size=5)
        ),
        st.tuples(
            st.just("run"),
            st.sampled_from((CNOT, CSIGN)),
            pairs,
            st.sets(offsets, min_size=1, max_size=5).map(LaurentPoly.from_exponents),
        ),
        st.tuples(st.sampled_from((H, P)), st.integers(1, n)),
        st.tuples(st.just(PL), st.integers(1, n), offsets.filter(bool)),
        st.tuples(st.just("swap"), pairs),
    )
    return StabilizerMatrix.from_rows(n, x, z), draw(st.lists(step, min_size=1, max_size=6))


def _step_gates(step) -> list:
    """The gates one step emits, built without touching any rows."""
    if step[0] == "gate":
        _, kind, (i, j), ells = step
        return [_gate(kind, i, j, tuple(ells))]
    if step[0] == "run":
        _, kind, (i, j), f = step
        return [_gate(kind, i, j, f.exponents())]
    if step[0] == "swap":
        i, j = step[1]
        return [Gate(CNOT, i, j, (0,)), Gate(CNOT, j, i, (0,)), Gate(CNOT, i, j, (0,))]
    if step[0] == PL:
        return [_gate(PL, step[1], 0, (step[2],))]
    return [_gate(step[0], step[1])]


def _pushed(s, steps) -> list:
    """Each path's outcome, the rows it leaves or the text of its overflow:
    the driver's kernels step by step (`act_run`, `act_swap`, `act_gate`),
    the replay of `act_gate` gate by gate, and the circuit's templates one
    at a time through `act`."""
    gates = [g for step in steps for g in _step_gates(step)]

    def driver(x, z):
        for step in steps:
            if step[0] == "run":
                _, kind, (i, j), f = step
                assert act_run(x, z, kind, i, j, f) == _step_gates(step)[0]
            elif step[0] == "swap":
                assert list(act_swap(x, z, *step[1])) == _step_gates(step)
            else:
                act_gate(x, z, _step_gates(step)[0])

    def replay(x, z):
        for g in gates:
            act_gate(x, z, g)

    def templates(x, z):
        for g in _circuit(s.n, gates).templates:
            act(x, z, g)

    outcomes = []
    for path in (driver, replay, templates):
        x, z = thaw(s.x), thaw(s.z)
        try:
            path(x, z)
        except ExponentOverflowError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((x, z))
    return outcomes


@PROPERTY
@given(gate_pushes())
def test_gate_push_leaves_the_rows_of_the_template_push(case):
    outcomes = _pushed(*case)
    assert not isinstance(outcomes[0], str)
    assert outcomes[0] == outcomes[1] == outcomes[2]


@PROPERTY
@given(gate_pushes(), st.integers(1, 24))
# offsets 4, 4 cancel in the gate's polynomial, but the template push sums
# D^4 into x_2 first: the hull spans the repeated offset too
@example(
    (StabilizerMatrix.from_rows(2, [[L("1"), L("1")]], [[L("0"), L("0")]]), [("gate", CNOT, (1, 2), [4, 4, 0])]),
    3,
)
def test_gate_push_raises_exactly_as_the_template_push_under_a_lowered_limit(case, limit):
    with span_limit(limit):
        outcomes = _pushed(*case)
    assert outcomes[0] == outcomes[1] == outcomes[2]


# -- polynomial seed images against the window kernel --------------------------


@PROPERTY
@given(circuits())
def test_act_seed_images_match_the_window_kernel(c):
    """The X and Z unit seeds pushed through `act` (rows of the (X|Z)
    identity) against the same seeds conjugated by `_lane_images` at the
    centre of a window with R = the summed template reach blocks on either
    side: an image grows by at most one template's reach per template, so
    no gate instance that meets it is dropped and no image is clipped."""
    n, reach = c.n, sum(g.reach for g in c.templates)
    x = thaw(identity(n) + zeros(n, n))
    z = thaw(zeros(n, n) + identity(n))
    for g in c.templates:
        act(x, z, g)
    # block offset e of column q lands at window position (R + e) * n + q
    want = [
        tuple(
            sum(1 << (reach + e) * n + q for q, entry in enumerate(side[row]) for e in entry.exponents())
            for side in (x, z)
        )
        for row in range(2 * n)
    ]
    centre = reach * n
    seeds = [(1 << centre + q, 0) for q in range(n)] + [(0, 1 << centre + q) for q in range(n)]
    assert list(_lane_images(c, 2 * reach + 1, seeds)) == want


# -- packed seeds against the per-seed packing ---------------------------------


@st.composite
def seed_runs(draw) -> tuple[int, int, int, int]:
    """(n, lane_bytes, blocks, margin): a window, its lane width and an
    interior margin that leaves at least one block.  Memory-0 windows of a
    whole number of bytes have lanes with no guard."""
    n = draw(st.integers(1, 6))
    memory = draw(st.integers(0, 3))
    if memory == 0 and draw(st.booleans()):
        blocks = 8 // gcd(n, 8) * draw(st.integers(1, 3))
    else:
        blocks = draw(st.integers(memory + 1, memory + 12))
    c = Circuit(n, (GateTemplate(PL, 1, 0, memory),) if memory else ())
    margin = draw(st.integers(0, min(memory, (blocks - 1) // 2)))
    return n, _lane_bytes(c, blocks), blocks, margin


def _run(draw, lo: int, hi: int) -> tuple[int, int]:
    """(first, count): a run of positions in [lo, hi), often a single one or
    one that starts at lo or ends at hi."""
    count = draw(st.one_of(st.just(1), st.integers(1, hi - lo)))
    first = draw(st.one_of(st.just(lo), st.just(hi - count), st.integers(lo, hi - count)))
    return first, count


@PROPERTY
@given(seed_runs(), st.data())
def test_unit_seeds_pack_as_the_per_seed_lanes(window, data):
    """Lane 2k holds the X seed of qubit first + k and lane 2k + 1 its Z
    seed, bit for bit as `_pack` lays out the seeds one by one."""
    n, lane_bytes, blocks, margin = window
    first, count = _run(data.draw, margin * n, (blocks - margin) * n)
    seeds = [seed for q in range(first, first + count) for seed in ((1 << q, 0), (0, 1 << q))]
    assert _unit_seeds(lane_bytes, first, count) == _pack(seeds, lane_bytes)


@pytest.mark.parametrize(
    "n, blocks, memory",
    [(8, 3, 0), (4, 2, 0), (1, 8, 0), (3, 7, 2), (1, 1, 0)],
    ids=["n8-no-guard", "n4-no-guard", "n1-no-guard", "guarded", "one-qubit-window"],
)
def test_packed_seeds_at_the_interior_edges(n, blocks, memory):
    """Single-position runs at the first and last interior position, and the
    whole interior, on lanes with and without a guard."""
    c = Circuit(n, (GateTemplate(PL, 1, 0, memory),) if memory else ())
    lane_bytes = _lane_bytes(c, blocks)
    assert (8 * lane_bytes == n * blocks) == (memory == 0 and n * blocks % 8 == 0)
    lo, hi = memory * n, (blocks - memory) * n
    for first, count in ((lo, 1), (hi - 1, 1), (lo, hi - lo)):
        seeds = [seed for q in range(first, first + count) for seed in ((1 << q, 0), (0, 1 << q))]
        assert _unit_seeds(lane_bytes, first, count) == _pack(seeds, lane_bytes)


# -- Gamma against the code's Smith invariants ----------------------------------


def _gamma_bodies(s: StabilizerMatrix):
    """The bodies of `synthesize(s).gamma`, or None when it rejects s."""
    try:
        result = synthesize(s)
    except (NonClearableError, PreconditionError):
        return None
    return [g.bits for g in result.gamma]


def _smith_bodies(s: StabilizerMatrix) -> list[int]:
    """The bodies of the Smith invariants of (X | Z), in order."""
    return [g.bits for g in smith([x + z for x, z in zip(s.x, s.z)]).divisors]


def test_gamma_bodies_are_the_smith_invariants_of_the_code():
    """Every code that `synthesize` accepts ends with Gamma's bodies equal
    to the invariant factors of (X | Z): gate templates are unimodular, so
    they keep (X | Z)'s invariants.  Only bodies are compared; the shift
    exponents depend on the route.  The codes on the benchmark's four
    ladder rung shapes (n, r, templates, largest offset) must all
    synthesize."""
    rng = random.Random(17)
    codes = [random_valid_code(rng, max_n=5, max_r=4, max_gates=16) for _ in range(200)]
    for n, r in ((3, 2), (4, 2), (4, 3), (6, 4)):
        codes += [random_proper_code(rng, n, r) for _ in range(25)]
    accepted = 0
    for s in codes:
        bodies = _gamma_bodies(s)
        if bodies is not None:
            accepted += 1
            assert bodies == _smith_bodies(s), s
    # all 300 do today
    assert accepted >= 290
    # (n, r, templates, largest offset) -> codes drawn on that rung shape
    rungs = {(4, 3, 12, 2): 20, (6, 4, 30, 3): 20, (8, 6, 60, 3): 20, (12, 8, 120, 4): 10}
    rng = random.Random(31)
    for (n, r, count, max_off), draws in rungs.items():
        for _ in range(draws):
            s = apply_circuit(z_only_identity_code(n, r), random_circuit(rng, n, count, max_off))
            assert _gamma_bodies(s) == _smith_bodies(s), s


def test_golden_gamma_bodies_are_the_smith_invariants_of_the_code():
    """As above, on every golden stabilizer file that synthesizes."""
    accepted = 0
    for path in sorted(DATA.glob("*.stab")):
        try:
            s = parse_stabilizer(path.read_text(encoding="utf-8"))
        except ParseError:
            continue
        bodies = _gamma_bodies(s)
        if bodies is not None:
            accepted += 1
            assert bodies == _smith_bodies(s), path.name
    # rate_third, proper, ladder8, deep0111, low_span, primitive13,
    # span_fallback and wide_row synthesize at the default limit
    assert accepted >= 7
