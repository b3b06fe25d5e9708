import random
from pathlib import Path

import pytest

from helpers import (
    L,
    _regrouped,
    apply_poly,
    lrow,
    random_circuit,
    random_template,
    random_valid_code,
    rate_third_code,
    stab,
    z_only_identity_code,
)
from qconvenc import gates
from qconvenc.errors import ExponentOverflowError, NonClearableError, ParseError, PreconditionError
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
    act_run,
    apply,
    apply_circuit,
    depth_schedule,
    format_circuit,
    parse_circuit,
    reverse,
)
from qconvenc.matrix import thaw
from qconvenc.poly import LaurentPoly, span_limit
from qconvenc.stabilizer import StabilizerMatrix, check_symplectic, parse_stabilizer
from qconvenc.synthesis import synthesize

DATA = Path(__file__).parent / "data"


def eq5_intermediate() -> StabilizerMatrix:
    # the mid-reduction matrix with negative exponents in the Z part
    return stab(
        3,
        [
            (["1", "0", "0"], ["1", "D^-1", "1+D^-1+D"]),
            (["0", "D", "0"], ["D^2", "0", "D+D^2+D^3"]),
        ],
    )


class TestTemplateValidation:
    def test_two_qubit_same_stream_rejected(self):
        with pytest.raises(ValueError):
            GateTemplate(CNOT, 1, 1, 1)
        with pytest.raises(ValueError):
            GateTemplate(CSIGN, 2, 2, 0)

    def test_pl_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            GateTemplate(PL, 1, 0, 0)

    def test_pl_offset_canonicalized(self):
        assert GateTemplate(PL, 1, 0, -2) == GateTemplate(PL, 1, 0, 2)

    def test_csign_orientation_canonicalized(self):
        assert GateTemplate(CSIGN, 2, 1, 3) == GateTemplate(CSIGN, 1, 2, -3)

    def test_circuit_bounds(self):
        with pytest.raises(ValueError):
            Circuit(2, (GateTemplate(H, 3),))

    @pytest.mark.parametrize("n", [0, -3])
    def test_circuit_needs_a_stream(self, n):
        with pytest.raises(ValueError):
            Circuit(n)
        with pytest.raises(ParseError) as exc:
            parse_circuit(f"n={n}\n")
        assert str(exc.value) == f"need at least one qubit stream, got n={n}"


class TestApply:
    def test_cnot_column_action(self):
        # (x1, x2 | z1, z2) -> (x1, x2 + D^l x1 | z1 + D^-l z2, z2)
        s = stab(2, [(["1+D", "D^2"], ["D^-1", "1"])])
        got = apply(s, GateTemplate(CNOT, 1, 2, 3))
        assert got.x[0] == tuple(lrow("1+D", "D^2+D^3+D^4"))
        assert got.z[0] == tuple(lrow("D^-1+D^-3", "1"))

    @pytest.mark.parametrize(
        "g, want_x, want_z",
        [
            # (x1, x2 | z1, z2) -> (z1, x2 | x1, z2)
            (GateTemplate(H, 1), ("D^-1", "D^2"), ("1+D", "1")),
            # (x1, x2 | z1, z2) -> (x1, x2 | z1, z2 + x2)
            (GateTemplate(P, 2), ("1+D", "D^2"), ("D^-1", "1+D^2")),
            # (x1, x2 | z1, z2) -> (x1, x2 | z1 + (D^-l + D^l) x1, z2), where
            # D^-1 + (D^-2 + D^-1 + D^2 + D^3) = D^-2 + D^2 + D^3
            (GateTemplate(PL, 1, 0, 2), ("1+D", "D^2"), ("D^-2+D^2+D^3", "1")),
            # (x1, x2 | z1, z2) -> (x1, x2 | z1 + D^-l x2, z2 + D^l x1)
            (GateTemplate(CSIGN, 1, 2, 1), ("1+D", "D^2"), ("D^-1+D", "1+D+D^2")),
        ],
    )
    def test_single_qubit_and_csign_column_actions(self, g, want_x, want_z):
        s = stab(2, [(["1+D", "D^2"], ["D^-1", "1"])])
        got = apply(s, g)
        assert got.x[0] == tuple(lrow(*want_x))
        assert got.z[0] == tuple(lrow(*want_z))

    def test_h_involution(self):
        s = rate_third_code()
        g = GateTemplate(H, 2)
        assert apply(apply(s, g), g) == s

    def test_csign_clears_mirrored_pair(self):
        s = eq5_intermediate()
        got = apply(s, GateTemplate(CSIGN, 1, 2, -1))
        assert got.z[0][1].is_zero()
        assert got.z[1][0].is_zero()
        assert got.x == s.x

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply(rate_third_code(), GateTemplate(H, 4))
        # a CNOT target past n: the j half of the fit rule
        with pytest.raises(IndexError, match=r"qubit index 4 outside 1\.\.3"):
            apply(rate_third_code(), GateTemplate(CNOT, 1, 4, 0))
        # a run of two terms past n, which would be fused, raises as its
        # first template does
        s = rate_third_code()
        with pytest.raises(IndexError, match=r"qubit index 4 outside 1\.\.3"):
            act_run(thaw(s.x), thaw(s.z), CNOT, 1, 4, L("1+D"))


class TestApplyPoly:
    def test_csign_clears_second_row(self):
        s = eq5_intermediate()
        got, emitted = apply_poly(s, CSIGN, 2, 3, L("D^2+D+1"))
        assert got.z[1][2].is_zero()
        assert [g.ell for g in emitted] == [0, 1, 2]

    def test_single_monomial(self):
        s = rate_third_code()
        _, emitted = apply_poly(s, CNOT, 1, 2, L("1"))
        assert emitted == [GateTemplate(CNOT, 1, 2, 0)]

    def test_negative_offset_target_in_block_before(self):
        s = eq5_intermediate()
        got, emitted = apply_poly(s, CSIGN, 1, 2, L("D^-1"))
        assert emitted == [GateTemplate(CSIGN, 1, 2, -1)]
        assert got.z[0][1].is_zero()

    def test_matches_polynomial_action(self):
        rng = random.Random(601)
        for _ in range(60)        :
            s = random_valid_code(rng)
            if s.n < 2:
                continue
            i, j = rng.sample(range(1, s.n + 1), 2)
            f = LaurentPoly(rng.randint(-2, 2), rng.getrandbits(3) | 1)
            got, _ = apply_poly(s, CNOT, i, j, f)
            want_xj = tuple(
                s.x[r][j - 1] + f * s.x[r][i - 1] for r in range(s.r)
            )
            want_zi = tuple(
                s.z[r][i - 1] + f.reciprocal() * s.z[r][j - 1] for r in range(s.r)
            )
            assert tuple(row[j - 1] for row in got.x) == want_xj
            assert tuple(row[i - 1] for row in got.z) == want_zi

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            apply_poly(rate_third_code(), CNOT, 1, 2, LaurentPoly.zero())


class TestReverse:
    def test_empty(self):
        assert reverse(Circuit(2)) == Circuit(2)

    def test_list_reversal(self):
        c = Circuit(2, (GateTemplate(H, 1), GateTemplate(P, 2)))
        assert reverse(c).templates == (GateTemplate(P, 2), GateTemplate(H, 1))

    def test_round_trip_on_random_codes(self):
        rng = random.Random(602)
        for _ in range(40):
            s = random_valid_code(rng)
            c = Circuit(s.n, tuple(random_template(rng, s.n) for _ in range(8)))
            assert apply_circuit(apply_circuit(s, c), reverse(c)) == s


class TestSwap:
    def test_three_cnots_swap_columns(self):
        s = rate_third_code()
        for g in (GateTemplate(CNOT, 1, 3, 0), GateTemplate(CNOT, 3, 1, 0), GateTemplate(CNOT, 1, 3, 0)):
            s = apply(s, g)
        want = rate_third_code()
        for r in range(want.r):
            assert s.x[r][0] == want.x[r][2] and s.x[r][2] == want.x[r][0]
            assert s.z[r][0] == want.z[r][2] and s.z[r][2] == want.z[r][0]


class TestInvariants:
    def test_symplectic_preserved(self):
        rng = random.Random(603)
        for _ in range(80):
            s = random_valid_code(rng)
            g = random_template(rng, s.n)
            assert bool(check_symplectic(apply(s, g))) == bool(check_symplectic(s))

    def test_self_inverse(self):
        rng = random.Random(604)
        for _ in range(80):
            s = random_valid_code(rng)
            g = random_template(rng, s.n)
            assert apply(apply(s, g), g) == s


class TestSchedule:
    def test_csign_block_single_layer(self):
        c = Circuit(
            4,
            (
                GateTemplate(CSIGN, 1, 2, 0),
                GateTemplate(CSIGN, 3, 4, 5),
                GateTemplate(CSIGN, 1, 3, -2),
                GateTemplate(P, 2),
            ),
        )
        sched = depth_schedule(c)
        assert sched.layer_count == 1
        assert sched.memory == 5

    def test_single_cnot_layer(self):
        sched = depth_schedule(Circuit(2, (GateTemplate(CNOT, 1, 2, 1),)))
        assert sched.layer_count == 1
        assert sched.memory == 1

    def test_cnots_never_merge(self):
        c = Circuit(2, (GateTemplate(CNOT, 1, 2, 0), GateTemplate(CNOT, 2, 1, 1)))
        assert depth_schedule(c).layer_count == 2

    def test_h_layers_group_distinct_qubits(self):
        c = Circuit(3, (GateTemplate(H, 1), GateTemplate(H, 2), GateTemplate(H, 1)))
        assert depth_schedule(c).layer_count == 2

    def test_layer_count_independent_of_offsets(self):
        for off in (1, 3, 7):
            c = Circuit(
                4,
                (
                    GateTemplate(CSIGN, 1, 2, off),
                    GateTemplate(CSIGN, 3, 4, -off),
                ),
            )
            assert depth_schedule(c).layer_count == 1


class TestCircuitFormat:
    def test_round_trip(self):
        c = Circuit(
            3,
            (
                GateTemplate(CNOT, 2, 1, 1),
                GateTemplate(CSIGN, 1, 2, -1),
                GateTemplate(PL, 1, 0, 2),
                GateTemplate(P, 1),
                GateTemplate(H, 2),
            ),
        )
        assert parse_circuit(format_circuit(c)) == c

    def test_parse_with_comments(self):
        text = "n=2\n# encoder\nH q=1\nCNOT c=1 t=2 off=-1\n"
        c = parse_circuit(text)
        assert c.templates == (GateTemplate(H, 1), GateTemplate(CNOT, 1, 2, -1))

    def test_parse_errors(self):
        for bad in ["", "H q=1", "n=2\nQ q=1", "n=2\nH q=x", "n=2\nCNOT c=1 t=1 off=0",
                    "n=2\nH q=1 extra=2"]:
            with pytest.raises(ParseError):
                parse_circuit(bad)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("Q q=1", "bad template 'Q q=1': unknown gate 'Q'"),
            ("PL q=1", "bad template 'PL q=1': missing l= in 'PL q=1'"),
            ("CSIGN a=1 b=x off=2", "bad template 'CSIGN a=1 b=x off=2': bad integer for b= in 'CSIGN a=1 b=x off=2'"),
            ("PL q=1 l=0", "bad template 'PL q=1 l=0': PL requires a nonzero offset"),
            ("H q=1 off=0", "unexpected fields ['off'] in 'H q=1 off=0'"),
            ("H q=1 q=2", "duplicate field q= in 'H q=1 q=2'"),
        ],
    )
    def test_parse_error_text(self, line, message):
        with pytest.raises(ParseError) as exc:
            parse_circuit(f"n=2\n{line}\n")
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            # the first line past n opens a run of two lines
            (
                "n=2\nCNOT c=1 t=2 off=0\nCNOT c=1 t=3 off=4\nCNOT c=1 t=3 off=5\nH q=4\n",
                "template CNOT c=1 t=3 off=4 exceeds n=2",
            ),
            ("n=2\nCSIGN a=3 b=1 off=2\n", "template CSIGN a=1 b=3 off=-2 exceeds n=2"),
            # every line's own error wins over the fit rule, and n < 1 over a misfit
            ("n=2\nH q=4\nQ q=1\n", "bad template 'Q q=1': unknown gate 'Q'"),
            ("n=0\nH q=1\nPL q=1 l=0\n", "bad template 'PL q=1 l=0': PL requires a nonzero offset"),
            ("n=0\nH q=4\n", "need at least one qubit stream, got n=0"),
        ],
    )
    def test_fit_errors_come_after_every_line_is_checked(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_circuit(text)
        assert str(exc.value) == message


def golden_and_ladder_encoders() -> list[Circuit]:
    """The encoders of every golden stabilizer file that synthesizes, and of
    20 gate-built codes on each ladder rung (n, r, templates, largest
    offset) drawn at seed 31."""
    codes = []
    for path in sorted(DATA.glob("*.stab")):
        try:
            codes.append(parse_stabilizer(path.read_text(encoding="utf-8")))
        except ParseError:
            pass
    rng = random.Random(31)
    for n, r, count, max_off in ((4, 3, 12, 2), (6, 4, 30, 3), (8, 6, 60, 3), (12, 8, 120, 4)):
        for _ in range(20):
            codes.append(apply_circuit(z_only_identity_code(n, r), random_circuit(rng, n, count, max_off)))
    encoders = []
    for s in codes:
        try:
            encoders.append(synthesize(s).encoder)
        except (NonClearableError, PreconditionError):
            continue
    return encoders


class TestGateForm:
    def test_act_run_returns_one_gate_and_builds_no_template(self, monkeypatch):
        built = []
        unchecked = gates.unchecked

        def counted(cls, fields):
            built.append(cls)
            return unchecked(cls, fields)

        monkeypatch.setattr(gates, "unchecked", counted)
        s = eq5_intermediate()
        cases = [
            (CSIGN, 2, 3, L("1+D+D^2")),
            (CSIGN, 3, 1, L("D^-1+D^4")),
            (CNOT, 1, 2, L("D^3")),
            (CNOT, 2, 1, L("1+D^9")),
        ]
        outcomes = []
        # at span limit 4 the run of 1+D^9 replays template by template and overflows
        for limit in (1 << 16, 4):
            for kind, i, j, f in cases:
                x, z = thaw(s.x), thaw(s.z)
                try:
                    with span_limit(limit):
                        g = act_run(x, z, kind, i, j, f)
                except ExponentOverflowError:
                    outcomes.append("raised")
                    continue
                assert type(g) is Gate and len(g.ells) == len(f.exponents())
                outcomes.append("gate")
        assert outcomes == ["gate"] * 7 + ["raised"]
        assert GateTemplate not in built

    def test_ladder8_forward_holds_fewer_gates_than_templates(self):
        forward = synthesize(parse_stabilizer((DATA / "ladder8.stab").read_text(encoding="utf-8"))).forward
        assert all(type(g) is Gate for g in forward.gates)
        assert len(forward.gates) < len(forward) == len(forward.templates) == 76

    def test_every_circuit_holds_gates(self):
        forward = synthesize(parse_stabilizer((DATA / "ladder8.stab").read_text(encoding="utf-8"))).forward
        parsed = parse_circuit(format_circuit(forward))
        for c in (
            forward,
            reverse(forward),
            parsed,
            reverse(parsed),
            Circuit(forward.n, forward.templates),
            Circuit(forward.n, forward.gates),
        ):
            assert all(type(g) is Gate for g in c.gates)
        # parsed lines, and the templates or gates given to the constructor,
        # group into runs of CNOT or CSIGN terms on one stream pair; the
        # driver's circuit keeps one gate per column operation
        regrouped = _regrouped(forward).gates
        assert parsed.gates == Circuit(forward.n, forward.templates).gates == regrouped
        assert Circuit(forward.n, forward.gates).gates == regrouped
        assert len(regrouped) == len(forward.gates) == 42
        # proper's driver emits two gates of one kind on one pair in a row
        proper = synthesize(parse_stabilizer((DATA / "proper.stab").read_text(encoding="utf-8"))).forward
        assert Circuit(proper.n, proper.gates).gates == _regrouped(proper).gates
        assert len(_regrouped(proper).gates) == 10 < len(proper.gates) == 11
        # the constructor orients each term, and makes any other term a gate
        # of its own
        assert Circuit(3, [Gate(CSIGN, 3, 1, (2, 2)), Gate(H, 1, 0, (0, 0)), Gate(PL, 2, 0, (-1, 2))]).gates == (
            Gate(CSIGN, 1, 3, (-2, -2)),
            Gate(H, 1, 0, (0,)),
            Gate(H, 1, 0, (0,)),
            Gate(PL, 2, 0, (1,)),
            Gate(PL, 2, 0, (2,)),
        )

    def test_a_run_of_cnot_or_csign_terms_on_one_stream_pair_is_one_gate(self):
        terms = [
            GateTemplate(CNOT, 1, 2, 0),
            Gate(CNOT, 1, 2, (1, 1, -2)),
            GateTemplate(CNOT, 2, 1, 0),
            GateTemplate(CSIGN, 3, 1, 1),
            Gate(CSIGN, 1, 3, (0,)),
            GateTemplate(H, 1),
            GateTemplate(CSIGN, 1, 3, 2),
            GateTemplate(P, 2),
            GateTemplate(CSIGN, 1, 3, 2),
            GateTemplate(PL, 3, 0, 1),
            GateTemplate(PL, 3, 0, 1),
            GateTemplate(CSIGN, 1, 3, 2),
            GateTemplate(CNOT, 1, 3, 2),
        ]
        want = (
            Gate(CNOT, 1, 2, (0, 1, 1, -2)),
            Gate(CNOT, 2, 1, (0,)),
            Gate(CSIGN, 1, 3, (-1, 0)),
            Gate(H, 1, 0, (0,)),
            Gate(CSIGN, 1, 3, (2,)),
            Gate(P, 2, 0, (0,)),
            Gate(CSIGN, 1, 3, (2,)),
            Gate(PL, 3, 0, (1,)),
            Gate(PL, 3, 0, (1,)),
            Gate(CSIGN, 1, 3, (2,)),
            Gate(CNOT, 1, 3, (2,)),
        )
        c = Circuit(3, terms)
        assert c.gates == _regrouped(c).gates == want
        assert parse_circuit(format_circuit(c)).gates == want
        assert (len(c), c.memory, format_circuit(c).count("\n")) == (15, 2, 16)

    def test_circuits_with_the_same_templates_are_equal_however_grouped(self):
        c = synthesize(rate_third_code()).forward
        one_term = _circuit(c.n, [Gate(g.kind, g.i, g.j, (ell,)) for g in c.gates for ell in g.ells])
        for twin in (Circuit(c.n, c.templates), Circuit(c.n, c.gates), one_term):
            assert twin == c and not twin != c
            assert hash(twin) == hash(c) and repr(twin) == repr(c)
        changed = list(c.templates)
        changed[-1] = GateTemplate(H, 3)
        assert Circuit(c.n, changed) != c
        assert Circuit(c.n + 1, c.templates) != c

    def test_gates_given_to_the_constructor_are_checked_term_by_term(self):
        assert Circuit(3, [Gate(CSIGN, 2, 1, (3, -1))]).templates == (
            GateTemplate(CSIGN, 1, 2, -3),
            GateTemplate(CSIGN, 1, 2, 1),
        )
        for gate, message in [
            (Gate(CNOT, 1, 3, (0, 1)), "template CNOT c=1 t=3 off=0 exceeds n=2"),
            (Gate(CNOT, 1, 1, (0,)), "CNOT needs two distinct qubit streams"),
            (Gate(PL, 1, 0, (2, 0)), "PL requires a nonzero offset"),
            (Gate("Q", 1, 0, (0,)), "unknown gate kind 'Q'"),
        ]:
            with pytest.raises(ValueError) as exc:
                Circuit(2, [GateTemplate(H, 1), gate])
            assert str(exc.value) == message

    def test_encoders_round_trip_and_read_as_their_templates(self):
        encoders = golden_and_ladder_encoders()
        assert len(encoders) > 80
        for e in encoders:
            text = format_circuit(e)
            assert parse_circuit(text) == e
            rebuilt = Circuit(e.n, e.templates)
            assert (len(rebuilt), rebuilt.memory, depth_schedule(rebuilt), format_circuit(rebuilt)) == (
                len(e),
                e.memory,
                depth_schedule(e),
                text,
            )

    def test_templates_are_each_gates_oriented_terms(self):
        # a circuit's templates are built from its gates' fields, which are
        # already oriented: each equals the checked template of its term,
        # holds only its four fields, and reads as its line of the text
        circuits = [
            parse_circuit(path.read_text(encoding="utf-8"))
            for path in sorted(DATA.glob("*.enc"))
            if path.name != "duplicate_field.enc"
        ]
        # CSIGN gates given with a > b and PL gates with negative offsets
        # are flipped by the constructor, and gates oriented by `_gate`, as
        # synthesis builds them, are kept as given
        flipped = [Gate(CSIGN, 3, 1, (2, -1, 0)), Gate(PL, 2, 0, (-2,)), Gate(CSIGN, 2, 1, (1,)), Gate(PL, 1, 0, (3,))]
        circuits += [Circuit(3, flipped), _circuit(3, [gates._gate(*g) for g in flipped])]
        circuits += golden_and_ladder_encoders()[:30]
        for c in circuits:
            terms = [(g.kind, g.i, g.j, ell) for g in c.gates for ell in g.ells]
            assert c.templates == tuple(GateTemplate(*term) for term in terms)
            assert [vars(t) for t in c.templates] == [dict(zip(GateTemplate._fields, term)) for term in terms]
            assert [str(t) for t in c.templates] == format_circuit(c).splitlines()[1:]
        assert Circuit(3, flipped).templates == (
            GateTemplate(CSIGN, 1, 3, -2),
            GateTemplate(CSIGN, 1, 3, 1),
            GateTemplate(CSIGN, 1, 3, 0),
            GateTemplate(PL, 2, 0, 2),
            GateTemplate(CSIGN, 1, 2, -1),
            GateTemplate(PL, 1, 0, 3),
        )
