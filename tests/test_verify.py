import io
import random
import tracemalloc
from collections import Counter
from itertools import accumulate
from pathlib import Path
from typing import Optional

import pytest

from helpers import (
    _lane_images,
    _regrouped,
    chain_propagation_report,
    cnot_chain_conjugate,
    csign_cascade,
    edge_qubits,
    exact_round_trip,
    inner,
    ladder_codes,
    ladder_encoders,
    random_circuit,
    random_template,
    random_valid_code,
    rate_third_code,
    reference_conjugate,
    reference_image_reach,
    reference_interior_max,
    reference_prefix_reach,
    reference_seed_walk,
    row_envelope,
    single_pauli,
    stab,
    unroll,
    watch_kernel,
    z_only_identity_code,
)
from qconvenc import gates, verify
from qconvenc.cli import main
from qconvenc.errors import ExponentOverflowError, PreconditionError, WindowTooSmallError
from qconvenc.gates import (
    CNOT,
    CSIGN,
    Circuit,
    Gate,
    GateTemplate,
    H,
    P,
    PL,
    apply,
    apply_circuit,
    depth_schedule,
    format_circuit,
    parse_circuit,
)
from qconvenc.poly import LaurentPoly, span_limit
from qconvenc.stabilizer import StabilizerMatrix, params, parse_stabilizer, placement_bits, row_patterns
from qconvenc.synthesis import synthesize
from qconvenc.verify import (
    PauliVector,
    PropagationReport,
    RowCheck,
    _seed_walk,
    conjugate,
    image_reach,
    propagation_report,
    render_encoder_check,
    render_propagation,
    verify_encoder,
    verify_windows,
)

DATA = Path(__file__).parent / "data"


class TestConjugate:
    def test_csign_cascade_pattern(self):
        # X_i -> Z_{i-1} X_i Z_{i+1}
        p = single_pauli(1, 9, 4, 1, "X")
        img = conjugate(csign_cascade(), 9, p)
        assert sorted(img.support) == [3, 4, 5]
        assert img.support_size == 3

    def test_empty_circuit_identity(self):
        p = single_pauli(2, 6, 3, 2, "Y")
        assert conjugate(Circuit(2), 6, p) == p

    def test_chain_from_position_zero(self):
        p = single_pauli(1, 8, 0, 1, "X")
        img = cnot_chain_conjugate(p)
        assert img.support_size == 8
        assert sorted(img.support) == list(range(8))

    def test_window_too_small(self):
        c = Circuit(1, (GateTemplate(PL, 1, 0, 3),))
        with pytest.raises(WindowTooSmallError):
            conjugate(c, 3, single_pauli(1, 3, 0, 1, "X"))

    def test_bits_outside_the_window_rejected(self):
        # n=2 on 3 blocks holds 12 bits: a bit above them, or a negative
        # int, is a ValueError rather than an image of the masked seed
        c = Circuit(2, (GateTemplate(CNOT, 1, 2, 1),))
        for bits in (1 << 12, (1 << 13) - 1, 1 << 40, -1, -(1 << 40)):
            with pytest.raises(ValueError, match="does not match the window"):
                conjugate(c, 3, PauliVector(2, 3, bits))
        full = PauliVector(2, 3, (1 << 12) - 1)
        assert conjugate(c, 3, full) == reference_conjugate(c, 3, full)

    def test_matches_gate_by_gate_reference(self):
        # random full-window Paulis and single-qubit seeds in the first and
        # last block, so instances are clipped at either edge; offsets of
        # both signs
        rng = random.Random(805)
        kinds = set()
        for _ in range(400):
            n = rng.randint(1, 5)
            c = random_circuit(rng, n, rng.randint(0, 10), max_off=3)
            kinds.update(g.kind for g in c.templates)
            blocks = c.memory + 1 + rng.randint(0, 6)
            seeds = [PauliVector(n, blocks, rng.getrandbits(2 * n * blocks))]
            for block in (0, blocks - 1):
                seeds.append(single_pauli(n, blocks, block, rng.randint(1, n), rng.choice("XYZ")))
            for p in seeds:
                assert conjugate(c, blocks, p) == reference_conjugate(c, blocks, p)
        assert kinds == {H, P, PL, CNOT, CSIGN}

    def test_matches_polynomial_action_on_interior(self):
        # window conjugation of unrolled rows agrees with the exact column
        # action, compared on rows whose support stays away from the edges
        rng = random.Random(801)
        for _ in range(40):
            s = random_valid_code(rng, max_gates=6)
            m = params(s).memory
            g = random_template(rng, s.n)
            am = max(m, abs(g.ell))
            for blocks in (am + 2, am + 5):
                circ = Circuit(s.n, (g,))
                w_before = unroll(s, blocks)
                after = apply(s, g)
                try:
                    w_after = unroll(after, blocks)
                except WindowTooSmallError:
                    continue
                margin = abs(g.ell)
                lo_blk, hi_blk = margin, blocks - margin
                imgs = set()
                for bits in w_before.rows:
                    img = conjugate(circ, blocks, PauliVector(s.n, blocks, bits))
                    if _support_within(img, lo_blk, hi_blk):
                        imgs.add(img.bits)
                target = set()
                for bits in w_after.rows:
                    pv = PauliVector(s.n, blocks, bits)
                    if _support_within(pv, lo_blk, hi_blk):
                        target.add(bits)
                assert target <= imgs | target  # sanity
                for bits in target:
                    assert bits in imgs or _in_span(imgs, bits)

    def test_inner_product_preserved(self):
        rng = random.Random(802)
        for _ in range(40):
            n = rng.randint(2, 3)
            count = rng.randint(0, 6)
            c = Circuit(n, tuple(random_template(rng, n) for _ in range(count)))
            blocks = c.memory + 4
            margin = c.memory + 1
            interior = range(margin, blocks - margin)
            if not interior:
                continue
            b1 = rng.choice(list(interior))
            b2 = rng.choice(list(interior))
            p = single_pauli(n, blocks, b1, rng.randint(1, n), "X")
            q = single_pauli(n, blocks, b2, rng.randint(1, n), "Z")
            ip, iq = conjugate(c, blocks, p), conjugate(c, blocks, q)
            if _support_within(ip, 0, blocks) and _support_within(iq, 0, blocks):
                assert inner(ip, iq) == inner(p, q)


class TestLaneKernel:
    @staticmethod
    def _seeds(rng: random.Random, n: int, blocks: int, count: int) -> list[int]:
        # random full-window Paulis and single-qubit seeds in the first and
        # last block, so instances are clipped at either edge
        seeds = []
        for _ in range(count):
            if rng.random() < 0.5:
                seeds.append(rng.getrandbits(2 * n * blocks))
            else:
                block, qubit = rng.choice((0, blocks - 1)), rng.randint(1, n)
                seeds.append(single_pauli(n, blocks, block, qubit, rng.choice("XYZ")).bits)
        return seeds

    @staticmethod
    def _lanes(c: Circuit, blocks: int, seeds: list[int]) -> list[int]:
        # seeds and images as (x|z) window ints, passed as (x, z) pairs
        half = c.n * blocks
        pairs = [(s & ((1 << half) - 1), s >> half) for s in seeds]
        return [x | z << half for x, z in _lane_images(c, blocks, pairs)]

    @staticmethod
    def _reference(c: Circuit, blocks: int, seeds: list[int]) -> list[int]:
        return [reference_conjugate(c, blocks, PauliVector(c.n, blocks, s)).bits for s in seeds]

    def test_every_lane_matches_gate_by_gate_reference(self):
        rng = random.Random(808)
        kinds = set()
        for trial in range(240):
            n = rng.randint(1, 5)
            c = random_circuit(rng, n, rng.randint(0, 10), max_off=3)
            kinds.update(g.kind for g in c.templates)
            # windows below memory + 1 too: no shift can jump a guard
            blocks = rng.randint(1, c.memory + 6)
            count = (1, 2, rng.randint(3, 40))[trial % 3]
            seeds = self._seeds(rng, n, blocks, count)
            assert self._lanes(c, blocks, seeds) == self._reference(c, blocks, seeds)
        assert kinds == {H, P, PL, CNOT, CSIGN}

    def test_memory_zero_circuits(self):
        # no guard bits when n*blocks is a whole number of bytes
        rng = random.Random(810)
        for _ in range(60):
            n = rng.randint(1, 4)
            kinds = (H, P, CNOT, CSIGN) if n > 1 else (H, P)
            templates = []
            for _ in range(rng.randint(1, 8)):
                kind = rng.choice(kinds)
                if kind in (H, P):
                    templates.append(GateTemplate(kind, rng.randint(1, n)))
                else:
                    i, j = rng.sample(range(1, n + 1), 2)
                    templates.append(GateTemplate(kind, i, j, 0))
            c = Circuit(n, tuple(templates))
            assert c.memory == 0
            blocks = rng.choice((1, 2, 8, rng.randint(1, 12)))
            seeds = self._seeds(rng, n, blocks, rng.randint(1, 20))
            assert self._lanes(c, blocks, seeds) == self._reference(c, blocks, seeds)

    def test_batches_split_the_seed_stream(self, monkeypatch):
        # a batch width of a few lanes: many batches, the last one narrower
        rng = random.Random(811)
        for _ in range(40):
            n = rng.randint(1, 4)
            c = random_circuit(rng, n, rng.randint(1, 8), max_off=2)
            blocks = c.memory + 1 + rng.randint(0, 5)
            lane_bits = 8 * ((n * (blocks + c.memory) + 7) // 8)
            monkeypatch.setattr(verify, "_BATCH_BITS", lane_bits * rng.randint(1, 3))
            seeds = self._seeds(rng, n, blocks, rng.randint(4, 25))
            assert self._lanes(c, blocks, seeds) == self._reference(c, blocks, seeds)

    def test_interior_max_matches_per_seed_reference(self):
        rng = random.Random(812)
        for _ in range(120):
            c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 8), max_off=2)
            blocks = c.memory + 1 + rng.randint(0, 8)
            assert _table_max(c, blocks) == reference_interior_max(c, blocks, c.memory)

    def test_round_trip_rows_match_per_placement_reference(self):
        rng = random.Random(813)
        done = 0
        while done < 16:
            s = random_valid_code(rng, max_gates=8)
            encoder = synthesize(s).encoder
            if encoder.memory > 2:
                continue
            if done % 2 and encoder.templates:
                # a broken encoder, so some rows fail
                encoder = Circuit(s.n, encoder.templates[:-1])
            blocks = 2 * (encoder.memory + 1) + rng.randint(2, 8)
            margin = max(encoder.memory, *reference_image_reach(encoder))
            if blocks - 2 * margin < 1:
                continue
            chk = verify_encoder(s, encoder, blocks)
            assert chk.margin == margin
            assert chk.rows == _reference_rows(s, encoder, blocks, margin)
            done += 1

    def test_batches_of_one_to_three_lanes(self, monkeypatch):
        # a batch narrower than a seed pair still takes it whole: the
        # table's Y images fold each Z lane onto the X lane below
        calls = []

        def recording(c, blocks, lanes, x, z):
            calls.append(lanes)

        watch_kernel(monkeypatch, recording)
        rng = random.Random(814)
        for _ in range(40):
            c = random_circuit(rng, rng.randint(1, 4), rng.randint(0, 8), max_off=2)
            blocks = c.memory + 1 + rng.randint(0, 6)
            lanes = rng.randint(1, 3)
            monkeypatch.setattr(verify, "_BATCH_BITS", 8 * verify._lane_bytes(c, blocks) * lanes)
            calls.clear()
            assert _table_max(c, blocks) == reference_interior_max(c, blocks, c.memory)
            # one qubit a batch, for each seed that is still conjugated
            assert calls == [2] * len(edge_qubits(c, blocks))

    def test_wide_window_memory_is_bounded(self):
        # n=6 on 2,000 blocks: 24,000 interior X and Z seeds of 24,000 bits,
        # 72 MB if all were held at once; the window basis alone, 2,000
        # placements with Z bits above the half-width, peaks near 5 MB
        rng = random.Random(809)
        c = random_circuit(rng, 6, 6, max_off=2)
        s = apply_circuit(z_only_identity_code(6, 1), c)
        blocks = 2000
        tracemalloc.start()
        try:
            _table_max(c, blocks)
            interior_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            chk = verify_encoder(s, c, blocks)
            round_trip_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chk.ok and len(chk.rows) > 1900
        assert interior_peak < 4_000_000
        assert round_trip_peak < 10_000_000


class TestWindowBasis:
    """`stabilizer_window_basis` moves each row's packed pattern to every
    placement itself; its span must be that of the `placement_bits` set."""

    @staticmethod
    def _echelon(vectors) -> dict[int, int]:
        basis: dict[int, int] = {}
        for v in vectors:
            while v:
                top = v.bit_length() - 1
                if top not in basis:
                    basis[top] = v
                    break
                v ^= basis[top]
        return basis

    @staticmethod
    def _random_row(rng: random.Random, n: int) -> tuple[list[LaurentPoly], list[LaurentPoly]]:
        # exponents -4 .. 4: up to 9 blocks, wider than most windows below
        def entry():
            if rng.random() < 0.4:
                return LaurentPoly.zero()
            return LaurentPoly.from_exponents(rng.sample(range(-4, 5), rng.randint(1, 3)))

        return [entry() for _ in range(n)], [entry() for _ in range(n)]

    def _code(self, rng: random.Random, n: int, r: int, shared_top: bool) -> StabilizerMatrix:
        rows = [self._random_row(rng, n) for _ in range(r)]
        if shared_top:
            # generator 1 is generator 0 plus terms below generator 0's top
            # bit, so at every untruncated shift the two placements share it
            # (a Z bit is above every X bit of a placement)
            top = max(
                (
                    (side, e * n + q)
                    for side, part in enumerate(rows[0])
                    for q, poly in enumerate(part)
                    for e in poly.exponents()
                ),
                default=None,
            )
            below = [
                [
                    LaurentPoly.from_exponents(
                        e for e in poly.exponents() if top and (side, e * n + q) < top
                    )
                    for q, poly in enumerate(part)
                ]
                for side, part in enumerate(rows[1])
            ]
            rows[1] = tuple([a + b for a, b in zip(p0, p1)] for p0, p1 in zip(rows[0], below))
        return StabilizerMatrix.from_rows(n, [x for x, _ in rows], [z for _, z in rows])

    def test_spans_every_placement(self):
        rng = random.Random(815)
        shared = wider = 0
        for trial in range(200):
            n, r = rng.randint(1, 4), rng.randint(1, 3)
            shared_top = r >= 2 and trial % 2 == 0
            s = self._code(rng, n, r, shared_top)
            blocks = rng.randint(1, 6)
            placements = []
            patterns = row_patterns(s)
            for gen, pattern in enumerate(patterns):
                if pattern is None:
                    continue
                lo, hi = row_envelope(s, gen)
                wider += hi - lo + 1 > blocks
                # shifts -hi .. blocks - lo - 1 are all that reach the window
                assert placement_bits(s, blocks, gen, -hi - 1) is None
                assert placement_bits(s, blocks, gen, blocks - lo) is None
                for shift in range(-hi, blocks - lo):
                    bits = placement_bits(s, blocks, gen, shift)
                    if bits:
                        placements.append(bits)
            basis = verify.stabilizer_window_basis(patterns, s.n, blocks)
            assert all(top == vec.bit_length() - 1 for top, vec in basis.items())
            reference = self._echelon(placements)
            assert len(basis) == len(reference)
            assert all(verify._gf2_in_span(reference, v) for v in basis.values())
            assert all(verify._gf2_in_span(basis, v) for v in placements)
            if shared_top and patterns[0] is not None:
                tops: list[set[int]] = [set(), set()]
                for gen, found in enumerate(tops):
                    for shift in range(-8, blocks + 8):
                        bits = placement_bits(s, blocks, gen, shift)
                        if bits:
                            found.add(bits.bit_length() - 1)
                shared += bool(tops[0] & tops[1])
        assert wider > 100 and shared > 40

    def test_deep_0111_window_narrower_than_a_row(self):
        # row 4 spans D^-3 .. D^5, nine blocks, against a window of six: a
        # basis that leaves the mask off negative shifts lets bits past the
        # window's X half into its Z half, and generator 4 fails at shift 2
        s = parse_stabilizer((DATA / "deep0111.stab").read_text(encoding="utf-8"))
        encoder = parse_circuit((DATA / "deep0111.enc").read_text(encoding="utf-8"))
        assert row_envelope(s, 3) == (-3, 5)
        for blocks in (6, 12):
            margin = max(encoder.memory, *reference_image_reach(encoder))
            chk = verify_encoder(s, encoder, blocks)
            assert chk.ok and chk.rows == _reference_rows(s, encoder, blocks, margin)

    def test_cached_row_patterns_are_checked_under_each_limit(self):
        # s was verified under the default limit; under a lower one it raises
        # as an equal fresh stabilizer does, since each call packs the rows
        # afresh under the limit in force and nothing is kept on s
        text = "n=2 r=1\nrow: 0, 0 | 1+D^5, 0\n"
        s, t = parse_stabilizer(text), parse_stabilizer(text)
        assert verify_windows(Circuit(2), [12], s)[2] is None
        with span_limit(3):
            warm, cold = verify_windows(Circuit(2), [12], s)[2], verify_windows(Circuit(2), [12], t)[2]
            assert verify_windows(Circuit(2), [12], t)[1] == []
            for stab in (s, t):
                with pytest.raises(ExponentOverflowError, match="^polynomial span 5 exceeds limit 3$"):
                    placement_bits(stab, 12, 0, 0)
        assert isinstance(warm, ExponentOverflowError) and isinstance(cold, ExponentOverflowError)
        assert str(warm) == str(cold) == "polynomial span 5 exceeds limit 3"
        assert verify_windows(Circuit(2), [12], t)[2] is None

    def test_one_call_packs_the_rows_once(self, monkeypatch):
        calls = []

        def counted(s):
            calls.append(s)
            return row_patterns(s)

        monkeypatch.setattr(verify, "row_patterns", counted)
        s = rate_third_code()
        encoder = synthesize(s).encoder
        _, checks, error = verify_windows(encoder, [8, 16, 32], s)
        assert error is None and [chk.blocks for chk in checks] == [8, 16, 32]
        assert all(chk.ok for chk in checks)
        assert calls == [s]
        assert sorted(vars(s)) == ["n", "r", "x", "z"]


class TestRoundTripReuse:
    """The round trip reads its subcode images off the batches in which the
    propagation table conjugates the same window: placement (gen, t), a
    single Z on qubit t*n + gen, is that qubit's Z unit seed, so no window
    is conjugated twice."""

    @staticmethod
    def _cases(rng: random.Random, count: int):
        done = 0
        while done < count:
            s = random_valid_code(rng, max_gates=8)
            encoder = synthesize(s).encoder
            if encoder.memory > 2:
                continue
            if done % 2 and encoder.templates:
                encoder = Circuit(s.n, encoder.templates[:-1])
            blocks = 2 * (encoder.memory + 1) + rng.randint(2, 8)
            margin = max(encoder.memory, *reference_image_reach(encoder))
            if blocks - 2 * margin < 1:
                continue
            done += 1
            yield s, encoder, blocks, margin

    def test_batches_of_one_to_three_lanes(self, monkeypatch):
        # a batch of one qubit ends mid-block and splits the r placements
        # of a shift; the rows and maxima do not depend on the cap
        rng = random.Random(818)
        split = 0
        for s, encoder, blocks, margin in self._cases(rng, 16):
            lanes = rng.randint(1, 3)
            monkeypatch.setattr(verify, "_BATCH_BITS", 8 * verify._lane_bytes(encoder, blocks) * lanes)
            report, checks, error = verify_windows(encoder, [blocks], s)
            assert error is None
            assert report.max_supports == (reference_interior_max(encoder, blocks, encoder.memory),)
            assert [chk.rows for chk in checks] == [_reference_rows(s, encoder, blocks, margin)]
            assert verify_encoder(s, encoder, blocks) == checks[0]
            split += s.r > 1
        assert split >= 8

    def test_after_the_table_reads_its_batch(self, monkeypatch):
        # one verify conjugates the X and Z unit seeds of each window's
        # interior qubits within M = max(memory, P) blocks of an edge
        # exactly once and nothing else, also on the 20-block window that
        # the cap splits between generators 1 and 2 of shift 3
        seeds = Counter()

        def recording(c, blocks, lanes, x, z):
            lane_bytes = verify._lane_bytes(c, blocks)
            sides = (side.to_bytes(lanes * lane_bytes, "little") for side in (x, z))
            for xl, zl in zip(*(verify._slices(side, lane_bytes) for side in sides)):
                seeds[blocks, int.from_bytes(xl, "little"), int.from_bytes(zl, "little")] += 1

        watch_kernel(monkeypatch, recording)
        enc_path = DATA / "rate_third.enc"
        encoder = parse_circuit(enc_path.read_text(encoding="utf-8"))
        n, memory = encoder.n, encoder.memory
        # the lower edge zone is qubits 6 to 11, and 4 qubits a batch end
        # the first at qubit 9, generator 1 of shift 3
        assert (n, memory, reference_prefix_reach(encoder)) == (3, 2, 4)
        monkeypatch.setattr(verify, "_BATCH_BITS", 8 * verify._lane_bytes(encoder, 20) * 2 * 4)
        out = io.StringIO()
        argv = ["verify", "--windows", "5,10,20", str(DATA / "rate_third.stab"), str(enc_path)]
        assert main(argv, out=out) == 0
        assert out.getvalue() == (DATA / "verify.txt").read_text(encoding="utf-8")
        # window 5 is below 2*4 + 1, so its whole interior is an edge zone
        assert [edge_qubits(encoder, blocks) for blocks in (5, 10, 20)] == [
            [6, 7, 8],
            [*range(6, 12), *range(18, 24)],
            [*range(6, 12), *range(48, 54)],
        ]
        assert seeds == Counter(
            (blocks, *seed)
            for blocks in (5, 10, 20)
            for q in edge_qubits(encoder, blocks)
            for seed in ((1 << q, 0), (0, 1 << q))
        )

    def test_lane_masks_once_per_window(self, monkeypatch):
        # verify keeps nothing between calls, and a window that the cap
        # splits builds its masks once, for its first batch, the widest:
        # at memory 2, windows 3 and 4 hold no interior seed, window 5,
        # below 2*4 + 1 at prefix reach 4, conjugates its 3 interior qubits,
        # windows 10 and 20 the 6 qubits within 4 blocks of each edge, and
        # the cap splits each of window 20's into batches of 4 and 2 qubits
        assert [name for name, f in vars(verify).items() if hasattr(f, "cache_info")] == []
        batches, built = [], []

        def recording(c, blocks, lanes, x, z):
            batches.append((blocks, lanes))

        watch_kernel(monkeypatch, recording)
        lane_masks = verify._lane_masks

        def masking(n, blocks, lane_bytes, lanes):
            built.append((blocks, lanes))
            return lane_masks(n, blocks, lane_bytes, lanes)

        monkeypatch.setattr(verify, "_lane_masks", masking)
        s = parse_stabilizer((DATA / "rate_third.stab").read_text(encoding="utf-8"))
        encoder = parse_circuit((DATA / "rate_third.enc").read_text(encoding="utf-8"))
        monkeypatch.setattr(verify, "_BATCH_BITS", 8 * verify._lane_bytes(encoder, 20) * 2 * 4)
        report, checks, error = verify_windows(encoder, [3, 4, 5, 10, 20], s)
        assert error is None and all(chk.ok for chk in checks)
        assert batches == [(5, 6), (10, 12), (10, 12), (20, 8), (20, 4), (20, 8), (20, 4)]
        assert built == [(5, 6), (10, 12), (20, 8)]


class TestLargestWindowVouches:
    """The window row space W_N is the truncation of the span of all
    generator placements to the window, so a vector inside a smaller window
    that lies in a larger window's W lies in the smaller one's.  When
    M = max(memory, P) equals the margin, every round-trip row is a
    translate of a walk image, and the largest window's passing rows stand
    for the smaller windows' rows at the same shifts: those windows build no
    basis.  Every window's check is the one it gets on its own."""

    # (n, r, template count, max offset): an n=3 rung and the benchmark's
    # n=4 and n=6 rungs
    RUNGS = ((3, 2, 10, 2), (4, 3, 12, 2), (6, 4, 30, 3))

    @staticmethod
    def _counted(monkeypatch) -> list[int]:
        """The window of each `stabilizer_window_basis` call."""
        calls, basis = [], verify.stabilizer_window_basis

        def counting(patterns, n, blocks):
            calls.append(blocks)
            return basis(patterns, n, blocks)

        monkeypatch.setattr(verify, "stabilizer_window_basis", counting)
        return calls

    @staticmethod
    def _variants(encoder: Circuit, rng: random.Random) -> list[Circuit]:
        """The encoder, the encoder cut by its last gate, and the encoder with
        one gate dropped."""
        n, gates_ = encoder.n, encoder.gates
        k = rng.randrange(len(gates_))
        return [encoder, Circuit(n, gates_[:-1]), Circuit(n, gates_[:k] + gates_[k + 1 :])]

    def test_each_window_checks_as_on_its_own(self, monkeypatch):
        calls = self._counted(monkeypatch)
        rng = random.Random(4307)
        seen = Counter()
        for seed, rung in enumerate(self.RUNGS, 4311):
            for s in ladder_codes(rung, 16, seed):
                for c in self._variants(synthesize(s).encoder, rng):
                    m = c.memory
                    for sizes in ((m + 1, 2 * (m + 1), 4 * (m + 1)), (5, 10, 20)):
                        if sizes[-1] < m + 1:
                            continue
                        calls.clear()
                        report, checks, error = verify_windows(c, sizes, s)
                        built = len(calls)
                        for blocks, best in zip(report.sizes, report.max_supports):
                            alone = verify_windows(c, [blocks], s)
                            assert alone[0].max_supports == (best,)
                            if any(chk.blocks == blocks for chk in checks):
                                assert alone[1:] == ([next(chk for chk in checks if chk.blocks == blocks)], None)
                        if not checks:
                            continue
                        rows = [rc for chk in checks for rc in chk.rows]
                        vouching = max(m, _seed_walk(c)[3]) == checks[0].margin
                        seen["sets"] += 1
                        seen["deep = margin"] += vouching
                        seen["vouched"] += len(checks) - built
                        seen["failing rows"] += sum(not rc.ok for rc in rows)
                        # a failing row at the largest window: each builds its own
                        seen["failing, deep = margin"] += vouching and built == len(checks) > 1
        assert seen["sets"] > 200 and seen["deep = margin"] > 200
        assert seen["vouched"] > 100 and seen["failing rows"] > 2000 and seen["failing, deep = margin"] > 50

    def test_one_basis_a_call_where_p_is_the_margin(self, monkeypatch):
        calls = self._counted(monkeypatch)
        windows = {"ladder8": [11, 22, 44], "rate_third": [5, 10, 20]}
        for name, sizes in windows.items():
            s = parse_stabilizer((DATA / f"{name}.stab").read_text(encoding="utf-8"))
            encoder = parse_circuit((DATA / f"{name}.enc").read_text(encoding="utf-8"))
            calls.clear()
            _, checks, error = verify_windows(encoder, sizes, s)
            assert error is None and all(chk.ok for chk in checks)
            margin = checks[0].margin
            if name == "ladder8":
                # P = memory = margin = 10: the largest window vouches for 22
                assert (encoder.memory, _seed_walk(encoder)[3], margin) == (10, 10, 10)
                assert calls == [44]
            else:
                # P = 4 passes the margin 3: each round-trip window builds its own
                assert (encoder.memory, _seed_walk(encoder)[3], margin) == (2, 4, 3)
                assert calls == [10, 20]

    def test_flags_are_the_rows(self):
        # a check holds one tuple of flags a generator; its rows, its verdict
        # and its text are derived from them, whether every row of a
        # generator passes, none does, or some do
        s = parse_stabilizer((DATA / "rate_third.stab").read_text(encoding="utf-8"))
        encoders = [parse_circuit((DATA / name).read_text(encoding="utf-8")) for name in ("rate_third.enc", "rate_third_cut.enc")]
        checks = [verify_encoder(s, encoder, 20) for encoder in encoders]
        checks.append(verify.EncoderCheck(12, 3, ((True,) * 6, (True, False, True, True, True, False))))
        assert [chk.ok for chk in checks] == [True, False, False]
        for chk in checks:
            assert {len(flags) for flags in chk.flags} == {chk.blocks - 2 * chk.margin}
            assert chk.rows == tuple(
                RowCheck(gen, chk.margin + k, ok) for gen, flags in enumerate(chk.flags) for k, ok in enumerate(flags)
            )
            assert chk.ok == all(rc.ok for rc in chk.rows)
            lines = [f"encoder round-trip: N={chk.blocks} margin={chk.margin}"]
            lines += [f"  generator {rc.gen + 1} shift {rc.shift}: {'pass' if rc.ok else 'FAIL'}" for rc in chk.rows]
            lines.append(f"result: {'pass' if chk.ok else 'FAIL'}")
            assert render_encoder_check(chk) == "\n".join(lines) + "\n"


def _table_max(c: Circuit, blocks: int) -> int:
    """The propagation table's maximum on one window."""
    return propagation_report(c, [blocks]).max_supports[0]


def _reference_rows(s, encoder: Circuit, blocks: int, margin: int) -> tuple[RowCheck, ...]:
    """Round-trip rows with each subcode placement conjugated gate by gate on
    its own and tested against the span of every generator placement."""
    space = set()
    for gen in range(s.r):
        lo, hi = row_envelope(s, gen)
        for shift in range(-hi, blocks - lo):
            bits = placement_bits(s, blocks, gen, shift)
            if bits:
                space.add(bits)
    expected = []
    s0 = z_only_identity_code(s.n, s.r)
    for gen in range(s0.r):
        for shift in range(margin, blocks - margin):
            bits = placement_bits(s0, blocks, gen, shift)
            if bits is None:
                continue
            img = reference_conjugate(encoder, blocks, PauliVector(s.n, blocks, bits))
            expected.append(RowCheck(gen, shift, _in_span(space, img.bits)))
    return tuple(expected)


def _support_within(p: PauliVector, lo_blk: int, hi_blk: int) -> bool:
    return all(lo_blk <= pos // p.n < hi_blk for pos in p.support)


def _in_span(vectors: set[int], target: int) -> bool:
    basis: dict[int, int] = {}
    for v in vectors:
        v = int(v)
        while v:
            top = v.bit_length() - 1
            if top in basis:
                v ^= basis[top]
            else:
                basis[top] = v
                break
    while target:
        top = target.bit_length() - 1
        if top not in basis:
            return False
        target ^= basis[top]
    return True


class TestPropagation:
    def test_worked_example_encoder_bounded(self):
        res = synthesize(rate_third_code())
        rep = propagation_report(res.encoder, [5, 10, 20])
        assert rep.verdict == "bounded"
        # the six-block image cannot fit a five-block window; the interior
        # maximum saturates from N=10 on
        assert rep.max_supports == (12, 13, 13)
        assert rep.max_supports[-1] <= rep.bound
        # the verdict reads the unclipped images, which reach 13 qubits
        assert _seed_walk(res.encoder)[2] == 13

    def test_chain_negative_control(self):
        rep = chain_propagation_report(1, [5, 10, 20])
        assert rep.verdict == "growing"
        for blocks, got in zip(rep.sizes, rep.max_supports):
            seed_pos = 1  # leftmost interior block, single stream
            distance = blocks - 1 - seed_pos
            assert abs(got - distance) <= 1

    def test_cascade_bounded_support_three(self):
        rep = propagation_report(csign_cascade(), [5, 10, 20])
        assert rep.verdict == "bounded"
        assert rep.max_supports == (3, 3, 3)

    def test_empty_circuit(self):
        rep = propagation_report(Circuit(1), [5, 10, 20])
        assert rep.verdict == "bounded"
        assert rep.max_supports == (1, 1, 1)

    def test_synthesized_circuits_respect_ceiling(self):
        rng = random.Random(803)
        done = 0
        while done < 25:
            s = random_valid_code(rng, max_gates=8)
            res = synthesize(s)
            if res.encoder.memory > 3:
                continue
            sizes = [res.encoder.memory * 2 + 2, res.encoder.memory * 2 + 6]
            rep = propagation_report(res.encoder, sizes)
            assert rep.verdict == "bounded"
            assert all(m <= rep.bound for m in rep.max_supports)
            done += 1

    def test_unsorted_sizes_rejected(self):
        with pytest.raises(ValueError):
            propagation_report(Circuit(1), [10, 5])

    def test_verdict_max_is_the_unclipped_interior_max(self):
        # at a margin of the summed template reach no seed image is clipped,
        # so the window's interior maximum is the polynomial images' maximum
        rng = random.Random(806)
        circuits = [random_circuit(rng, rng.randint(1, 4), rng.randint(0, 10)) for _ in range(300)]
        while len(circuits) < 340:
            res = synthesize(random_valid_code(rng, max_n=3, max_gates=6, max_off=1))
            if sum(g.reach for g in res.encoder.templates) <= 20:
                circuits.append(res.encoder)
        for c in circuits:
            margin = sum(g.reach for g in c.templates)
            assert _seed_walk(c)[2] == reference_interior_max(c, 2 * margin + 1, margin)


def _fields(g: GateTemplate) -> tuple[str, int, int, int]:
    return g.kind, g.i, g.j, g.ell


def _watch_rows(monkeypatch) -> list[tuple[str, int, int, int]]:
    """The template fields that the walk's rows phase hands to `_act`."""
    calls = []
    act = verify._act

    def counting(x, z, *fields):
        calls.append(fields)
        act(x, z, *fields)

    monkeypatch.setattr(verify, "_act", counting)
    return calls


def _verified(c: Circuit, sizes: list[int], s: StabilizerMatrix) -> tuple:
    """`verify_windows`'s report, checks and error, the error as its type
    and text."""
    report, checks, error = verify_windows(c, sizes, s)
    return report, checks, error if error is None else (type(error), str(error))


def _no_seed_walk(c):
    raise AssertionError("the seed walk ran")


class TestWindowRules:
    """`verify_windows` states every window rule of `verify`: windows below
    memory + 1 are skipped, a PreconditionError is raised before the seed
    walk when none is left, and one is returned after the table when no
    window reaches 2(memory+1).  The round trip's rules read no window, so
    they are decided once, before the first window runs."""

    def test_windows_below_memory_plus_one_are_skipped(self):
        c = synthesize(rate_third_code()).encoder
        m = c.memory
        assert m >= 1
        rep = propagation_report(c, [m, m + 1, 2 * m + 2])
        assert rep.sizes == (m + 1, 2 * m + 2)
        assert rep == propagation_report(c, [m + 1, 2 * m + 2])

    def test_no_window_left_raises_before_the_seed_walk(self, monkeypatch):
        c = synthesize(rate_third_code()).encoder
        m = c.memory
        monkeypatch.setattr(verify, "_seed_walk", _no_seed_walk)
        with pytest.raises(PreconditionError, match=rf"^all window sizes are below circuit memory {m} \+ 1$"):
            propagation_report(c, [m])

    def test_no_round_trip_window_is_returned_beside_the_table(self):
        s = rate_third_code()
        c = synthesize(s).encoder
        m = c.memory
        report, checks, error = verify_windows(c, [m + 1], s)
        assert report == propagation_report(c, [m + 1])
        assert checks == []
        assert type(error) is PreconditionError
        assert str(error) == f"no window size reaches 2*(memory+1) = {2 * (m + 1)}"

    @staticmethod
    def _recording(monkeypatch) -> list[str]:
        calls = []
        patterns, window_pass = verify.row_patterns, verify._window_pass

        def rows(s):
            calls.append("rows")
            return patterns(s)

        def window(*args):
            calls.append("window")
            return window_pass(*args)

        monkeypatch.setattr(verify, "row_patterns", rows)
        monkeypatch.setattr(verify, "_window_pass", window)
        return calls

    def test_round_trip_rules_are_decided_before_the_first_window(self, monkeypatch):
        # the worked example's encoder (memory 2, round-trip margin 3): the
        # rows are packed before window m+1, which the round trip skips
        s = rate_third_code()
        c = synthesize(s).encoder
        m = c.memory
        assert m == 2
        calls = self._recording(monkeypatch)
        report, checks, error = verify_windows(c, [m + 1, 4 * (m + 1)], s)
        assert calls == ["rows", "window", "window"]
        assert error is None and [(chk.blocks, chk.margin) for chk in checks] == [(12, 3)]
        assert report == propagation_report(c, [m + 1, 4 * (m + 1)])

    def test_no_interior_is_returned_before_the_first_window(self, monkeypatch):
        # memory 1 but image reach 6: window 4 is the first to reach
        # 2(memory+1) and leaves no interior, so window 13, which would have
        # one, gets no check either, and the rows are never packed
        s = stab(2, [(["0", "0"], ["1", "0"])])
        c = Circuit(2, (GateTemplate(CNOT, 1, 2, 1), GateTemplate(CNOT, 2, 1, 1)) * 3)
        calls = self._recording(monkeypatch)
        report, checks, error = verify_windows(c, [2, 4, 13], s)
        assert calls == ["window"] * 3
        assert report.max_supports == (0, 4, 9)
        assert checks == []
        assert type(error) is WindowTooSmallError
        assert str(error) == "window 4 leaves no interior at margin 6"

    @pytest.mark.parametrize("entry", ["verify_windows", "verify_encoder", "cli"])
    def test_dimension_mismatch_raises_before_the_seed_walk(self, monkeypatch, tmp_path, entry):
        s = rate_third_code()
        c = Circuit(2, (GateTemplate(CNOT, 1, 2, 1),))
        monkeypatch.setattr(verify, "_seed_walk", _no_seed_walk)
        message = "dimension mismatch: circuit n=2, stabilizer n=3"
        if entry == "cli":
            circ = tmp_path / "c.circ"
            circ.write_text("n=2\nCNOT c=1 t=2 off=1\n", encoding="utf-8")
            out = io.StringIO()
            assert main(["verify", str(DATA / "rate_third.stab"), str(circ)], out=out) == 3
            assert out.getvalue() == f"precondition failed: {message}\n"
            return
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            if entry == "verify_windows":
                verify_windows(c, [10], s)
            else:
                verify_encoder(s, c, 10)


class TestImageReach:
    def test_matches_wide_window_reference(self):
        rng = random.Random(807)
        circuits = [random_circuit(rng, rng.randint(1, 5), rng.randint(0, 10), max_off=3) for _ in range(200)]
        circuits += [synthesize(random_valid_code(rng, max_gates=6)).encoder for _ in range(20)]
        circuits.append(synthesize(rate_third_code()).encoder)
        for c in circuits:
            assert image_reach(c) == reference_image_reach(c)

    def test_lowered_span_limit_misses_the_memo(self):
        # no push is kept between calls, so one that passed under the
        # default limit raises under a lower one, and passes again after
        c = synthesize(rate_third_code()).encoder
        assert image_reach(c) == (3, 2)
        with span_limit(4):
            with pytest.raises(ExponentOverflowError):
                image_reach(c)
            with pytest.raises(ExponentOverflowError):
                propagation_report(c, [5])
        assert _seed_walk(c)[2] == 13


def _below_memory(rng: random.Random, n: int) -> Circuit:
    """A circuit whose prefix reach is below its memory, unless its short
    tail reaches further: streams a and b trade places one block apart,
    which moves every term of stream a to D^-1 and of stream b to D^1, so a
    coupler from a to b of offset 3 writes terms at D^2 and D^-2 only.  A
    CSIGN with a > b is stored with offset -3."""
    a, b = rng.sample(range(1, n + 1), 2)
    swap = [GateTemplate(CNOT, a, b, 1), GateTemplate(CNOT, b, a, -1), GateTemplate(CNOT, a, b, 1)]
    coupler = GateTemplate(rng.choice((CNOT, CSIGN)), a, b, 3)
    tail = [random_template(rng, n, max_off=1) for _ in range(rng.randint(0, 3))]
    return Circuit(n, [*swap, coupler, *tail])


def _short_random(rng: random.Random, n: int) -> Circuit:
    return random_circuit(rng, n, rng.randint(1, 7))


def _out_and_back(rng: random.Random, n: int) -> Circuit:
    """A circuit whose prefix reach is often past its final image reach: a
    template of offset 2 applied twice, which cancels, inside a circuit of
    offsets up to 1, whose terms it moves further out in between."""
    templates = [random_template(rng, n, max_off=1) for _ in range(rng.randint(1, 5))]
    g = random_template(rng, n)
    at = rng.randint(1, len(templates))
    return Circuit(n, [*templates[:at], g, g, *templates[at:]])


class TestEdgeZone:
    """With M = max(memory, P), P the prefix reach, a seed at least M blocks
    from both edges of a window meets no dropped template instance, so
    `verify` reads its image off the seed walk and conjugates only the
    seeds within M of an edge.  The table and the rows must still equal the
    oracles that conjugate every seed gate by gate."""

    @pytest.mark.parametrize(
        "name, reach",
        [
            ("rate_third", 4),
            ("rate_third_cut", 4),
            ("proper", 6),
            ("ladder8", 10),
            ("deep0111", 2),
            ("false_failure_n4", 10),
            ("no_interior_n3", 2),
        ],
    )
    def test_prefix_reach_of_the_committed_encoders(self, name, reach):
        c = parse_circuit((DATA / f"{name}.enc").read_text(encoding="utf-8"))
        assert _seed_walk(c)[3] == reference_prefix_reach(c) == reach

    def test_prefix_reach_matches_a_full_scan(self):
        rng = random.Random(840)
        strata = Counter()
        for trial in range(300):
            n = rng.randint(1, 5)
            if trial % 4 == 0 and n > 1:
                c = _below_memory(rng, n)
            else:
                c = random_circuit(rng, n, rng.randint(0, 10), max_off=3)
            reach = reference_prefix_reach(c)
            assert _seed_walk(c)[3] == reach
            assert reach >= max(reference_image_reach(c))
            strata[(reach > c.memory) - (reach < c.memory)] += 1
        assert min(strata[k] for k in (-1, 0, 1)) >= 20

    def test_table_and_rows_match_the_lane_oracles(self, monkeypatch):
        rng = random.Random(841)
        full = verify._BATCH_BITS
        # 16 circuits each with P below, at and above the memory
        cases = {-1: [], 0: [], 1: []}
        while any(len(found) < 16 for found in cases.values()):
            n = rng.randint(2, 4)
            c = rng.choice((_below_memory, _out_and_back, _short_random))(rng, n)
            reach = reference_prefix_reach(c)
            stratum = cases[(reach > c.memory) - (reach < c.memory)]
            if max(c.memory, reach) <= 6 and len(stratum) < 16:
                stratum.append(c)
        kinds, rows, narrow = Counter(), Counter(), 0
        for k, c in enumerate(case for found in cases.values() for case in found):
            n, m = c.n, c.memory
            kinds.update("CSIGN-" if g.kind == CSIGN and g.ell < 0 else g.kind for g in c.templates)
            deep = max(m, reference_prefix_reach(c))
            margin = max(m, *reference_image_reach(c))
            # every other code is not the one c encodes, so rows fail
            coder = c if k % 2 == 0 else Circuit(n, c.templates[:-1])
            s = apply_circuit(z_only_identity_code(n, rng.randint(1, n)), coder)
            # windows below and at or above 2M + 1, from memory + 1 up: one
            # too small for the round trip, the first with a round trip,
            # 2M and 2M + 1, and one wider
            sizes = sorted(
                {rng.randint(m + 1, 2 * m + 1), max(2 * (m + 1), 2 * margin + 1), 2 * deep, 2 * deep + 1}
                | {2 * deep + 1 + rng.randint(1, 4)}
            )
            # on every third, batches of a few lanes split the edge zones
            lanes = 2 * rng.randint(1, 3)
            cap = 8 * verify._lane_bytes(c, sizes[-1]) * lanes if k % 3 == 0 else full
            monkeypatch.setattr(verify, "_BATCH_BITS", cap)
            report, checks, error = verify_windows(c, sizes, s)
            kept = [blocks for blocks in sizes if blocks >= m + 1]
            assert report.max_supports == tuple(reference_interior_max(c, blocks, m) for blocks in kept)
            round_trip = [blocks for blocks in kept if blocks >= 2 * (m + 1)]
            if round_trip[0] - 2 * margin < 1:
                assert type(error) is WindowTooSmallError and checks == []
                continue
            assert error is None
            expected = [_reference_rows(s, c, blocks, margin) for blocks in round_trip]
            assert [chk.rows for chk in checks] == expected
            rows.update(rc.ok for chk in checks for rc in chk.rows)
            # round trips on windows below 2M + 1, whose seeds are all
            # conjugated
            narrow += sum(blocks <= 2 * deep for blocks in round_trip)
        assert kinds[PL] and kinds["CSIGN-"]
        assert rows[True] and rows[False] and narrow >= 3

    def test_lowered_span_limit_stops_at_the_same_template(self, monkeypatch):
        # the walk raises the bare push's error text: its packed columns run
        # until 2(P + memory) passes the limit, and it goes on through
        # `_act` from there, so the last template `_act` sees is the
        # failing one
        calls = _watch_rows(monkeypatch)
        rng = random.Random(842)
        done = 0
        while done < 12:
            n = rng.randint(2, 4)
            if done % 3 == 0:
                c = _below_memory(rng, n)
            else:
                c = random_circuit(rng, n, rng.randint(2, 10), max_off=3)
            s = apply_circuit(z_only_identity_code(n, 1), c)
            limit = rng.randint(1, 4)
            # the push template by template through gates.act, unwatched,
            # and the first template before which 2(P + memory) passes the
            # limit, P read off every entry
            x = [[LaurentPoly(0, 1 if q == j else 0) for q in range(n)] for j in range(2 * n)]
            z = [[LaurentPoly(0, 1 if q + n == j else 0) for q in range(n)] for j in range(2 * n)]
            reach, switch = 0, None
            with span_limit(limit):
                try:
                    for at, g in enumerate(c.templates):
                        if switch is None and 2 * (reach + c.memory) > limit:
                            switch = at
                        gates.act(x, z, g)
                        for e in (e for row in x + z for e in row if e.bits):
                            reach = max(reach, -e.offset, e.offset + e.bits.bit_length() - 1)
                    continue
                except ExponentOverflowError as exc:
                    assert switch is not None
                    expected = ([_fields(g) for g in c.templates[switch : at + 1]], str(exc))
                calls.clear()
                with pytest.raises(ExponentOverflowError) as raised:
                    verify_windows(c, [c.memory + 1, 2 * c.memory + 9], s)
            assert (calls, str(raised.value)) == expected
            done += 1

    @pytest.mark.parametrize("name, windows", [("proper", "7,14,28"), ("ladder8", "11,22,44")])
    def test_no_lane_work_where_prefix_reach_is_memory(self, monkeypatch, name, windows):
        # at M = memory no interior seed lies within M of an edge: a window
        # has no interior or reads every seed off the push
        def refuse(*args):
            raise AssertionError("the lane kernel ran")

        encoder = parse_circuit((DATA / f"{name}.enc").read_text(encoding="utf-8"))
        assert reference_prefix_reach(encoder) == encoder.memory
        monkeypatch.setattr(verify, "_conjugate_lanes", refuse)
        monkeypatch.setattr(verify, "_lane_masks", refuse)
        out = io.StringIO()
        argv = ["verify", "--windows", windows, str(DATA / f"{name}.stab"), str(DATA / f"{name}.enc")]
        assert main(argv, out=out) == 0
        assert out.getvalue() == (DATA / f"{name}_verify.txt").read_text(encoding="utf-8")


class TestSeedWalk:
    """`_seed_walk` pushes the unit seeds on packed columns and goes on
    through `act` on polynomial rows once 2(P + memory) passes the span
    limit or a field would pass `_FIELD_BITS`.  Its result, and the error
    it raises, must equal `reference_seed_walk`'s, the push on rows alone,
    for every number of Z images."""

    @staticmethod
    def _outcome(walk, c: Circuit, streams: int):
        try:
            return walk(c, streams)
        except ExponentOverflowError as exc:
            return str(exc)

    def _assert_matches(self, c: Circuit) -> None:
        expected = reference_seed_walk(c, c.n)
        for streams in range(c.n + 1):
            assert _seed_walk(c, streams) == (*expected[:4], expected[4][:streams])

    def test_random_circuits_under_lowered_limits_and_caps(self, monkeypatch):
        calls = _watch_rows(monkeypatch)
        rng = random.Random(850)
        full = verify._FIELD_BITS
        circuits = [Circuit(n) for n in range(1, 6)]
        circuits += [random_circuit(rng, rng.randint(1, 5), rng.randint(0, 12), rng.randint(1, 4)) for _ in range(400)]
        # longer circuits, whose P passes the first field's room
        circuits += [random_circuit(rng, rng.randint(1, 5), rng.randint(30, 80), 4) for _ in range(100)]
        kinds, switched = Counter(), Counter()
        for c in circuits:
            kinds.update("CSIGN-" if g.kind == CSIGN and g.ell < 0 else g.kind for g in c.templates)
            self._assert_matches(c)
            # under a lowered span limit both raise the same text, or the
            # walk switches to rows where 2(P + memory) passes the limit
            calls.clear()
            with span_limit(rng.randint(1, 24)):
                got = self._outcome(_seed_walk, c, c.n)
                assert got == self._outcome(reference_seed_walk, c, c.n)
            if not isinstance(got, str) and 0 < len(calls) < len(c):
                switched["span"] += 1
            # under a lowered width cap the walk switches to rows once a
            # field would pass it
            monkeypatch.setattr(verify, "_FIELD_BITS", 16 * rng.randint(2, 4))
            calls.clear()
            assert _seed_walk(c, c.n) == reference_seed_walk(c, c.n)
            if 0 < len(calls) < len(c):
                switched["width"] += 1
            monkeypatch.setattr(verify, "_FIELD_BITS", full)
        assert kinds[PL] and kinds["CSIGN-"] and kinds[H] and kinds[P]
        # each kind of switch, after the walk's first template
        assert switched["span"] >= 20 and switched["width"] >= 20

    @pytest.mark.parametrize(
        "name",
        ["rate_third", "rate_third_cut", "proper", "ladder8", "deep0111", "false_failure_n4", "no_interior_n3"],
    )
    def test_committed_encoders(self, name):
        self._assert_matches(parse_circuit((DATA / f"{name}.enc").read_text(encoding="utf-8")))

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_ladder_encoders(self, n):
        for c in ladder_encoders(n):
            self._assert_matches(c)

    @pytest.mark.parametrize("name", ["ladder8", "rate_third"])
    def test_verify_never_reads_templates(self, monkeypatch, name):
        # the walk, the lane kernel and the coupler count read the gates of
        # a synthesized circuit and of a parsed one alike
        def refuse(c):
            raise AssertionError("verify read Circuit.templates")

        lanes = []
        watch_kernel(monkeypatch, lambda c, blocks, count, x, z: lanes.append(blocks))
        s = parse_stabilizer((DATA / f"{name}.stab").read_text(encoding="utf-8"))
        encoder = synthesize(s).encoder
        parsed = parse_circuit(format_circuit(encoder))
        m = encoder.memory
        sizes = [m + 1, 2 * (m + 1), 4 * (m + 1)]
        expected = _verified(encoder, sizes, s)
        deep = reference_prefix_reach(encoder) > m
        monkeypatch.setattr(Circuit, "templates", property(refuse))
        for c in (encoder, parsed):
            lanes.clear()
            assert _verified(c, sizes, s) == expected
            # seeds within P of an edge are conjugated where P passes memory
            assert bool(lanes) == deep


def _switch_point(c: Circuit, limit: int) -> Optional[int]:
    """The first template before which 2(P + memory) passes `limit`, P the
    prefix reach of the templates before it read off every entry of the
    push template by template through `gates.act`, or None."""
    n = c.n
    x = [[LaurentPoly(0, 1 if q == j else 0) for q in range(n)] for j in range(2 * n)]
    z = [[LaurentPoly(0, 1 if q + n == j else 0) for q in range(n)] for j in range(2 * n)]
    reach = 0
    for at, g in enumerate(c.templates):
        if 2 * (reach + c.memory) > limit:
            return at
        gates.act(x, z, g)
        for e in (e for row in x + z for e in row if e.bits):
            reach = max(reach, -e.offset, e.offset + e.bits.bit_length() - 1)
    return None


def _random_gates(rng: random.Random, n: int) -> list[Gate]:
    """Up to 8 gates on n >= 2 streams: CNOT and CSIGN gates of two to five
    terms, offsets -3 .. 3 with repeats, in either stream order."""
    out = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice((H, P, PL, CNOT, CSIGN, CNOT, CSIGN))
        if kind in (CNOT, CSIGN):
            i, j = rng.sample(range(1, n + 1), 2)
            out.append(Gate(kind, i, j, tuple(rng.choices(range(-3, 4), k=rng.randint(2, 5)))))
        else:
            out.append(Gate(kind, rng.randint(1, n), 0, (rng.choice((-2, -1, 1, 2)) if kind == PL else 0,)))
    return out


class TestGateGrouping:
    """A circuit parsed from text, or built by the constructor, groups its
    terms as `_regrouped` does, and nothing depends on how gates group
    templates: a circuit of several-term gates, its text parsed back, the
    circuit the constructor builds from its templates and the circuit of
    its templates as one-term gates have the same value, length, memory,
    schedule, text and seed walk (P included), and `verify_windows`
    returns the same report, checks and error, on windows where the lane
    kernel runs, and under lowered span limits, where the walk may switch
    to rows inside a gate."""

    @pytest.fixture
    def walked(self, monkeypatch) -> list[tuple[str, int, int, int]]:
        return _watch_rows(monkeypatch)

    @staticmethod
    def _outcome(c: Circuit, sizes: list[int], s: StabilizerMatrix):
        try:
            return _verified(c, sizes, s)
        except ExponentOverflowError as exc:
            return str(exc)

    @staticmethod
    def _walk(c: Circuit):
        """`_seed_walk`'s output with every stream's Z images, or the text
        of its error."""
        try:
            return _seed_walk(c, c.n)
        except ExponentOverflowError as exc:
            return str(exc)

    def _check(self, c: Circuit, s: StabilizerMatrix, rng: random.Random, walked: list, seen: Counter) -> None:
        one_term = gates._circuit(c.n, [Gate(g.kind, g.i, g.j, (g.ell,)) for g in c.templates])
        forms = (c, parse_circuit(format_circuit(c)), Circuit(c.n, c.templates), one_term)
        runs = _regrouped(c).gates
        assert forms[1].gates == forms[2].gates == runs and len(one_term.gates) == len(c)
        m, reach = c.memory, reference_prefix_reach(c)
        facts = (c, len(c), m, depth_schedule(c), format_circuit(c), self._walk(c))
        assert facts[-1][3] == reach
        for f in forms[1:]:
            assert (f, len(f), f.memory, depth_schedule(f), format_circuit(f), self._walk(f)) == facts
        deep = max(m, reach)
        # the window of 2(memory + 1) conjugates every seed where P passes
        # memory, and one past 2M reads the walk for its interior; up to
        # M = 64, since the edge seeds of a deeper one take seconds
        sizes = [m + 1, 2 * (m + 1)]
        if 2 * m + 2 < 2 * deep + 1 <= 129:
            sizes.append(2 * deep + 1)
        expected = _verified(c, sizes, s)
        assert [_verified(f, sizes, s) for f in forms[1:]] == [expected] * 3
        seen["lanes"] += reach > m
        seen["multi"] += len(runs) < len(c)
        # under a lowered limit the walk switches to rows at the same
        # template in every form, and all raise the same text or none
        limit = rng.randint(max(1, 2 * m), 2 * (m + reach) + 1)
        with span_limit(limit):
            walked.clear()
            expected = self._outcome(c, sizes[:2], s)
            calls = list(walked)
            assert [self._outcome(f, sizes[:2], s) for f in forms[1:]] == [expected] * 3
            walk = self._walk(c)
            assert [self._walk(f) for f in forms[1:]] == [walk] * 3
        switch = _switch_point(c, limit)
        if switch is None:
            assert calls == []
            return
        assert calls == [_fields(g) for g in c.templates[switch : switch + len(calls)]]
        # the index of each run's first template
        if switch not in {0, *accumulate(len(g.ells) for g in runs)}:
            seen["raised inside" if isinstance(expected, str) else "inside"] += 1

    def test_committed_encoders(self, walked):
        seen = Counter()
        for name in ["rate_third", "rate_third_cut", "proper", "ladder8", "deep0111", "false_failure_n4", "no_interior_n3"]:
            c = parse_circuit((DATA / f"{name}.enc").read_text(encoding="utf-8"))
            code = "rate_third" if name == "rate_third_cut" else name
            s = parse_stabilizer((DATA / f"{code}.stab").read_text(encoding="utf-8"))
            for k in range(3):
                self._check(c, s, random.Random(f"{name}{k}"), walked, seen)
        assert seen["multi"] == 3 * 5 and seen["lanes"] == 3 * 4

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_ladder_encoders(self, walked, n):
        rng, seen = random.Random(n), Counter()
        for c in ladder_encoders(n):
            s = apply_circuit(z_only_identity_code(c.n, rng.randint(1, c.n)), c)
            self._check(c, s, rng, walked, seen)
        assert seen["multi"] >= 5

    def test_random_gate_circuits(self, walked):
        rng, seen, drawn = random.Random(860), Counter(), Counter()
        for _ in range(100):
            n = rng.randint(2, 5)
            parts = _random_gates(rng, n)
            drawn.update(g.kind for g in parts if g.kind == CSIGN and g.j < g.i)
            drawn.update("repeat" for g in parts if len(set(g.ells)) < len(g.ells))
            c = Circuit(n, parts)
            s = apply_circuit(z_only_identity_code(n, rng.randint(1, n)), c)
            self._check(c, s, rng, walked, seen)
        assert drawn[CSIGN] >= 20 and drawn["repeat"] >= 20
        assert seen["lanes"] >= 20 and seen["multi"] >= 80
        assert seen["inside"] >= 20 and seen["raised inside"] >= 5


class TestExactRoundTrip:
    """The oracle `exact_round_trip` pushes S through the encoder inverse's
    gates: the committed encoders pass, parsed or synthesized, and each cut
    by its last gate gives a witness."""

    @pytest.mark.parametrize("name", ["rate_third", "proper", "ladder8", "deep0111", "false_failure_n4", "no_interior_n3"])
    def test_committed_encoders_pass_and_their_cuts_fail(self, name):
        s = parse_stabilizer((DATA / f"{name}.stab").read_text(encoding="utf-8"))
        parsed = parse_circuit((DATA / f"{name}.enc").read_text(encoding="utf-8"))
        synthesized = synthesize(s).encoder
        assert parsed == synthesized
        for c in (parsed, synthesized):
            assert exact_round_trip(s, c) is None
            assert exact_round_trip(s, gates._circuit(c.n, c.gates[:-1])) is not None

    def test_cut_worked_example_fails(self):
        s = rate_third_code()
        cut = parse_circuit((DATA / "rate_third_cut.enc").read_text(encoding="utf-8"))
        assert exact_round_trip(s, cut) == "X entry (1,2) = D+D^2"


class TestVerifyEncoder:
    def test_worked_example_round_trip(self):
        s = rate_third_code()
        res = synthesize(s)
        for blocks in (10, 20):
            chk = verify_encoder(s, res.encoder, blocks)
            assert chk.ok
            assert len(chk.rows) > 0

    def test_identity_encoder_against_subcode(self):
        s = stab(3, [(["0", "0", "0"], ["1", "0", "0"]),
                     (["0", "0", "0"], ["0", "1", "0"])])
        chk = verify_encoder(s, Circuit(3), 6)
        assert chk.ok

    def test_mutated_encoder_fails(self):
        s = rate_third_code()
        res = synthesize(s)
        mutated = Circuit(3, res.encoder.templates[:-1])
        chk = verify_encoder(s, mutated, 10)
        assert not chk.ok

    def test_dimension_mismatch(self):
        s = rate_third_code()
        with pytest.raises(PreconditionError):
            verify_encoder(s, Circuit(2), 10)

    def test_more_generators_than_streams(self):
        # the subcode (0 | I 0) has no stream for generator 2: its seeds
        # would land in the next block, or past the window
        s = stab(1, [(["1"], ["0"]), (["0"], ["1"])])
        with pytest.raises(PreconditionError, match="r=2, n=1"):
            verify_encoder(s, Circuit(1), 40)

    def test_window_too_small(self):
        s = rate_third_code()
        res = synthesize(s)
        with pytest.raises(WindowTooSmallError):
            verify_encoder(s, res.encoder, 4)

    def test_randomized_round_trips(self):
        rng = random.Random(804)
        done = 0
        while done < 20:
            s = random_valid_code(rng, max_gates=8)
            res = synthesize(s)
            if res.encoder.memory > 2:
                continue
            chk = verify_encoder(s, res.encoder, 12)
            assert chk.ok
            done += 1


class TestRendering:
    def test_propagation_formats(self):
        rep = propagation_report(csign_cascade(), [5, 10])
        table = render_propagation(rep)
        assert "verdict bounded" in table
        assert "5   3\n10  3\n" in table

    def test_propagation_window_column_at_four_digits(self):
        rep = PropagationReport((999, 1000), (1, 1), 1, "bounded", 0)
        assert render_propagation(rep).splitlines()[1:3] == ["999 1", "1000 1"]

    def test_encoder_check_format(self):
        s = rate_third_code()
        res = synthesize(s)
        text = render_encoder_check(verify_encoder(s, res.encoder, 10))
        assert "result: pass" in text
