"""Finite-window verification: Pauli conjugation through unrolled circuits,
the error-propagation analyzer, and the encoder round-trip check.

Windows hold N blocks of n qubits in (x|z) bit layout.  Every template is
applied at every in-window block shift; gate instances that would reach
outside the window are dropped (open boundary, matching a stream that
starts at block 0).

One rule decides which seeds are conjugated.  The seed walk pushes the
unit seeds through the exact polynomial action, on packed columns with one
field per seed (`_seed_walk`), and measures P, the prefix reach: the
furthest block offset any image reaches after any template.
With M = max(memory, P), a seed at least M blocks from both edges meets no
dropped instance, since one that acted would put a term past P, so its
window image is the walk's, translated.  Only the seeds within M of an
edge go through the lane kernel.

The round trip tests each placement of the subcode's generators at least
the margin from both edges against the window row space, the truncation
of the span of all generator placements to the window.  A vector inside a
smaller window that lies in a larger window's row space lies in the
smaller one's, so when M equals the margin, and every row is a translate
of a walk image, the largest window's passing rows vouch for the smaller
windows' (`verify_windows`).
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import ExponentOverflowError, PreconditionError, WindowTooSmallError
from .gates import CNOT, COLUMN_ACTIONS, CSIGN, Circuit, PL, _act
from .poly import LaurentPoly, max_span
# verify.placement_bits stays importable, though the basis inlines it
from .stabilizer import StabilizerMatrix, placement_bits, row_patterns  # noqa: F401


class PauliVector(NamedTuple):
    """A Pauli operator on a finite window, (x|z) bits of width 2*n*blocks."""

    n: int
    blocks: int
    bits: int

    @property
    def half(self) -> int:
        return self.n * self.blocks

    @property
    def support(self) -> frozenset[int]:
        """Qubit positions acted on non-trivially; derived, never stored."""
        half = self.half
        mask = (1 << half) - 1
        occupied = (self.bits & mask) | (self.bits >> half)
        return frozenset(p for p in range(half) if (occupied >> p) & 1)

    @property
    def support_size(self) -> int:
        half = self.half
        mask = (1 << half) - 1
        return int.bit_count((self.bits & mask) | (self.bits >> half))


# packed width of one side of a conjugation batch: lanes are added until it
# would pass about 1 Mbit, so a wide window never holds seeds x window bits
_BATCH_BITS = 1 << 20


def _lane_bytes(c: Circuit, blocks: int) -> int:
    """Bytes per lane: the window's n*blocks bits followed by a guard of at
    least n*memory bits, padded to whole bytes."""
    return (c.n * (blocks + c.memory) + 7) // 8


def _batch_lanes(lane_bytes: int) -> int:
    """Lanes in a full batch."""
    return max(1, _BATCH_BITS // (8 * lane_bytes))


def _conjugate_lanes(c: Circuit, masks: tuple[tuple[int, ...], int], x: int, z: int) -> tuple[int, int]:
    """Conjugate one packed batch of window seeds through c's gates: lanes
    of `_lane_bytes` each, lane j at bit 8*lane_bytes*j of one X int and
    one Z int, under the window's `_lane_masks` over at least as many
    lanes.  Returns the images packed the same way.

    Each column update of a template moves all its in-window instances in
    every lane at once: the source column's bits are masked out of one
    side, shifted by k blocks onto the destination column and XORed in.  No
    update shifts by more than memory blocks, so a bit that leaves its
    window lands in a guard (its own lane's, or the lane below's).  Source
    masks never read a guard, and guards are cleared before the images are
    returned, so what lands there is dropped: the open boundary.  Gates,
    and each gate's terms, apply in list order; the instances of one
    template commute, so their order is immaterial.  The map is
    GF(2)-linear, boundary included.
    """
    n = c.n
    columns, windows = masks
    sides = [x, z]
    for kind, i, j, ells in c.gates:
        # columns are 0-based; a shift of k blocks moves a bit k*n places
        cols, updates = (i - 1, j - 1), COLUMN_ACTIONS[kind]
        for ell in ells:
            shift = ell * n
            for dst_side, dst, src_side, src, sign in updates:
                moved = sides[src_side] & columns[cols[src]]
                step = sign * shift + cols[dst] - cols[src]
                sides[dst_side] ^= moved << step if step >= 0 else moved >> -step
    return sides[0] & windows, sides[1] & windows


def _lane_masks(n: int, blocks: int, lane_bytes: int, lanes: int) -> tuple[tuple[int, ...], int]:
    """Column masks and the window mask over `lanes` lanes, n + 1 batch
    widths of bits.  A batch of fewer lanes runs under them too: it holds
    no bit past its last lane's guard, so the masks of the lanes above it
    read only zeros."""
    window = (1 << n * blocks) - 1
    # column q of every lane is the first column's mask shifted by q
    first_column = int.from_bytes(
        (window // ((1 << n) - 1)).to_bytes(lane_bytes, "little") * lanes, "little"
    )
    windows = int.from_bytes(window.to_bytes(lane_bytes, "little") * lanes, "little")
    return tuple(first_column << q for q in range(n)), windows


def _slices(packed: bytes, lane_bytes: int, every: int = 1, first: int = 0) -> Iterator[bytes]:
    """Every `every`-th lane of a packed side's bytes, from lane `first` on;
    the loop runs in C."""
    stride = every * lane_bytes
    start = first * lane_bytes
    starts = range(start, len(packed), stride)
    stops = range(start + lane_bytes, len(packed) + lane_bytes, stride)
    return map(packed.__getitem__, map(slice, starts, stops))


def _series(unit: int, count: int, step: int) -> int:
    """`count` copies of `unit`, `step` bits apart, for a unit narrower than
    step: unit * ((1 << count*step) - 1) // ((1 << step) - 1), built by
    doubling from the top bit of count down, since the long division costs
    the product of the two widths."""
    bits, terms = unit, 1
    for digit in bin(count)[3:]:
        bits |= bits << terms * step
        terms <<= 1
        if digit == "1":
            bits = bits << step | unit
            terms += 1
    return bits


def _unit_seeds(lane_bytes: int, first: int, count: int) -> tuple[int, int]:
    """The X and Z unit seeds of window qubits first .. first + count - 1,
    packed one lane each in the order X, Z of each qubit: lane 2k holds the
    X seed of qubit first + k at bit (2*lane_bits + 1)*k + first, and lane
    2k + 1 its Z seed, one lane higher."""
    lane_bits = 8 * lane_bytes
    x = _series(1, count, 2 * lane_bits + 1) << first
    return x, x << lane_bits


def conjugate(c: Circuit, blocks: int, p: PauliVector) -> PauliVector:
    """Propagate a Pauli through every in-window instance of every template:
    the lane kernel `_conjugate_lanes` on a batch of one lane, the seed."""
    half = p.half
    if p.n != c.n or p.blocks != blocks or not 0 <= p.bits < 1 << 2 * half:
        raise ValueError("Pauli vector does not match the window")
    if blocks < c.memory + 1:
        raise WindowTooSmallError(f"window {blocks} < circuit memory {c.memory} + 1")
    masks = _lane_masks(c.n, blocks, _lane_bytes(c, blocks), 1)
    x, z = _conjugate_lanes(c, masks, p.bits & ((1 << half) - 1), p.bits >> half)
    return PauliVector(c.n, blocks, x | z << half)


# ---------------------------------------------------------------------------
# propagation analysis


class PropagationReport(NamedTuple):
    """Max output support over single-qubit interior inputs, per window size.

    The verdict is bounded exactly when every single-qubit seed's polynomial
    image, the image no boundary clips, respects the bound, a
    window-independent ceiling derived from the template count and memory.
    """

    sizes: tuple[int, ...]
    max_supports: tuple[int, ...]
    bound: int
    verdict: str  # "bounded" | "growing"
    margin: int


def _pair_max(x: int, z: int, lane_bytes: int, pairs: int) -> int:
    """Max X, Z or Y support over packed seed pairs, guards cleared: lane 2k
    holds the image of an X seed and lane 2k + 1 that of the Z seed on the
    same qubit.  The Y image is their XOR (conjugation is linear), so one
    fold of every lane onto the lane below gives all Y images at once, in
    the even lanes."""
    lane_bits = 8 * lane_bytes
    size = 2 * pairs * lane_bytes
    either = (x | z).to_bytes(size, "little")
    y = ((x ^ x >> lane_bits) | (z ^ z >> lane_bits)).to_bytes(size, "little")
    # a lane's support is its bit count, in either byte order
    counts = (
        map(int.bit_count, map(int.from_bytes, lanes, repeat("big")))
        for lanes in (_slices(either, lane_bytes), _slices(y, lane_bytes, 2))
    )
    return max(max(side, default=0) for side in counts)


# kind -> the (side, qubit) columns its updates write, each once
_WRITTEN = {kind: tuple(dict.fromkeys(u[:2] for u in updates)) for kind, updates in COLUMN_ACTIONS.items()}

# widest field of the seed walk's packed columns, in bits, past which the
# walk goes on polynomial rows (`_seed_walk`): placed by timing the walk on
# ladder encoders, whose n=12 rung ran fastest under caps of 2048 to 4096
# bits and slower from 8192 on; uncapped, depth-240's took 4x as long
_FIELD_BITS = 2048

# byte -> its bit count
_BIT_COUNTS = bytes(map(int.bit_count, range(256)))


def _field_width(room: int) -> int:
    """The width of a seed-walk field, a multiple of 16 bits, whose middle
    bit, exponent 0, leaves room for exponents -room .. room."""
    return 16 * (room // 8 + 1)


def _fold(bits: int, fields: int, width: int) -> int:
    """The OR of the `fields` fields of `width` bits packed in `bits`."""
    while fields > 1:
        fields = (fields + 1) // 2
        bits = bits & (1 << fields * width) - 1 | bits >> fields * width
    return bits


def _rebase(col: int, rows: int, width: int, wider: int) -> int:
    """A packed column with its fields widened, each kept at its middle."""
    mask, step = (1 << width) - 1, (wider - width) // 2
    return sum((col >> r * width & mask) << r * wider + step for r in range(rows))


def _seed_walk(c: Circuit, streams: int = 0) -> tuple[int, int, int, int, list[tuple[int, int]]]:
    """Backward reach, forward reach and max X, Z or Y support of the
    single-qubit seed images, their prefix reach P, and the images of the Z
    seeds on the first `streams` streams: the rows of the (X|Z) identity,
    the X and Z unit seeds, pushed once through the exact polynomial action
    of c's gates, a template (one term of a gate) at a time.  Each row is
    the image of one seed that no boundary clips (exponent e is block
    offset e).  P is the furthest block offset, in either direction, that
    any image reaches after any template, read off the columns it writes;
    an offset-0 template adds no term beyond those it reads.  A Z image is
    an (x, z) pair packed block-major, as a window holds it from block -P:
    term D^e of column j at bit (e + P)*n + j.

    The push runs on packed columns: one int per (side, column) holds the
    2n rows as fields of one width, row r's exponent e at bit r*width +
    width/2 + e, so an update "dst += D^k src" is one shift and one XOR for
    every row.  No entry passes P + memory within a template, so a field
    widens by about a quarter when that reaches its edge, and P is read by
    masking a written column to the bits outside -P .. P, its fields folded
    only when that mask hits.  Before a template that could raise, when
    2(P + memory) passes the span limit, or once a field would pass
    `_FIELD_BITS`, the walk goes on through `gates._act` on polynomial
    rows, from the next template, inside a gate or not: it raises at the
    template and with the message of a bare push, and a deep encoder, whose
    fields would each span its whole envelope, keeps the rows' speed.  No
    walk is kept between calls: each runs under the span limit of its own
    call."""
    n, memory, limit = c.n, c.memory, max_span()
    rows = 2 * n
    # the rows phase goes on after the packed phase's last term: the rest
    # of its gate's `terms`, then the gates after it
    gates, kind, i, j, terms = iter(c.gates), None, 0, 0, ()
    width, reach = _field_width(2 * memory + 8), 0
    base = width // 2
    # row q < n is the X seed on stream q, and row n + q its Z seed
    sides = ([1 << q * width + base for q in range(n)], [1 << (n + q) * width + base for q in range(n)])
    if 2 * memory <= limit and width <= _FIELD_BITS:
        outside = _series((1 << width) - 1 ^ 1 << base, rows, width)
        for kind, i, j, ells in gates:
            cols, updates, terms = (i - 1, j - 1), COLUMN_ACTIONS[kind], iter(ells)
            for ell in terms:
                for dst_side, dst, src_side, src, sign in updates:
                    moved, k = sides[src_side][cols[src]], sign * ell
                    sides[dst_side][cols[dst]] ^= moved << k if k >= 0 else moved >> -k
                if not ell:
                    continue
                seen = reach
                for side, dst in _WRITTEN[kind]:
                    col = sides[side][cols[dst]]
                    if col & outside:
                        col = _fold(col, rows, width)
                        seen = max(seen, base + 1 - (col & -col).bit_length(), col.bit_length() - 1 - base)
                if seen == reach:
                    continue
                reach = seen
                if 2 * (reach + memory) > limit:
                    break
                if reach + memory >= base:
                    wider = _field_width(max(reach + memory, 5 * width // 8))
                    if wider > _FIELD_BITS:
                        break
                    sides = tuple([_rebase(col, rows, width, wider) for col in side] for side in sides)
                    width, base = wider, wider // 2
                inside = (1 << 2 * reach + 1) - 1 << base - reach
                outside = _series((1 << width) - 1 ^ inside, rows, width)
            else:
                continue
            break
        else:
            return _read_columns(n, sides, width, reach, streams)
    mask = (1 << width) - 1
    sides = x, z = tuple(
        [[LaurentPoly(-base, col >> r * width & mask) for col in side] for r in range(rows)] for side in sides
    )
    for kind, i, j, ells in chain([(kind, i, j, terms)], gates):
        for ell in ells:
            _act(x, z, kind, i, j, ell)
            if ell:
                cols = (i - 1, j - 1)
                for side, dst in _WRITTEN[kind]:
                    col = cols[dst]
                    for row in sides[side]:
                        e = row[col]
                        if e.bits:
                            at = e.offset
                            if -at > reach:
                                reach = -at
                            at += e.bits.bit_length() - 1
                            if at > reach:
                                reach = at
    width = _field_width(reach)
    base = width // 2
    sides = tuple(
        [sum(e.bits << r * width + base + e.offset for r, e in enumerate(col)) for col in zip(*side)]
        for side in sides
    )
    return _read_columns(n, sides, width, reach, streams)


def _read_columns(
    n: int, sides: tuple[list[int], list[int]], width: int, reach: int, streams: int
) -> tuple[int, int, int, int, list[tuple[int, int]]]:
    """`_seed_walk`'s result, read off its packed columns: fields of
    `width` bits, a multiple of 16, that hold no term beyond `reach`."""
    rows, base, low = 2 * n, width // 2, n * width
    size, every, union = 3 * low // 8, 0, []
    for x, z in zip(*sides):
        every |= x | z
        # rows q and n + q are the images of qubit q's X and Z seeds, and
        # its Y image is their sum, since conjugation is linear
        union.append(x | z | (((x ^ x >> low) | (z ^ z >> low)) & (1 << low) - 1) << rows * width)
    every = _fold(every, rows, width)
    lo, hi = (every & -every).bit_length() - 1 - base, every.bit_length() - 1 - base
    # a support is the sum of its fields' byte bit counts over the columns;
    # a byte's count is at most 8, so 31 columns add up without a carry
    supports, fields = [0] * (3 * n), range(0, size, width // 8)
    for at in range(0, n, 31):
        counts = sum(
            int.from_bytes(v.to_bytes(size, "little").translate(_BIT_COUNTS), "little") for v in union[at : at + 31]
        ).to_bytes(size, "little")
        supports = [s + sum(counts[k : k + width // 8]) for s, k in zip(supports, fields)]
    # the Z seeds' fields, X side then Z side, one string of bits a column
    # (a leading 1 keeps the leading zeros), interleaved so that column j's
    # bit b is the images' bit b*n + j: a window's block-major layout
    length, chunk = 2 * streams * width, (1 << streams * width) - 1
    interleaved = bytearray(length * n)
    for j, (x, z) in enumerate(zip(*sides)):
        bits = format(1 << length | (z >> low & chunk) << streams * width | x >> low & chunk, "b")
        interleaved[n - 1 - j :: n] = bits[1:].encode()
    # each field's terms -P .. P, the string's first char the top bit
    images = [
        int(interleaved[(length - at - 2 * reach - 1) * n : (length - at) * n], 2)
        for at in range(base - reach, length, width)
    ]
    return max(0, -lo), max(0, hi), max(supports), reach, list(zip(images[:streams], images[streams:]))


def image_reach(c: Circuit) -> tuple[int, int]:
    """Backward and forward block reach of single-qubit seed images, for
    every interior seed on any window.  A Y image is the sum of two seed
    rows, so its support lies in their union."""
    return _seed_walk(c)[:2]


def propagation_report(c: Circuit, sizes: Sequence[int]) -> PropagationReport:
    """The propagation table alone: `verify_windows` without a code."""
    return verify_windows(c, sizes)[0]


# ---------------------------------------------------------------------------
# encoder round-trip


class RowCheck(NamedTuple):
    gen: int
    shift: int
    ok: bool


class EncoderCheck(NamedTuple):
    """The round trip on one window: `flags[gen][k]` tells whether the
    placement of generator gen at shift margin + k lies in the window row
    space, for shifts margin .. blocks - margin - 1."""

    blocks: int
    margin: int
    flags: tuple[tuple[bool, ...], ...]

    @property
    def rows(self) -> tuple[RowCheck, ...]:
        """One record a placement, generator by generator, shifts ascending."""
        shifts = range(self.margin, self.blocks - self.margin)
        return tuple(
            RowCheck(gen, shift, ok) for gen, flags in enumerate(self.flags) for shift, ok in zip(shifts, flags)
        )

    @property
    def ok(self) -> bool:
        return all(map(all, self.flags))


def _gf2_in_span(basis: dict[int, int], vec: int) -> bool:
    while vec:
        top = vec.bit_length() - 1
        if top not in basis:
            return False
        vec ^= basis[top]
    return True


def stabilizer_window_basis(
    patterns: Sequence[Optional[tuple[int, int, int, int]]], n: int, blocks: int
) -> dict[int, int]:
    """GF(2) basis of all generator placements over the window, including the
    boundary-truncated ones, keyed by top bit, from the rows' packed
    `patterns` (`row_patterns`) on n streams.  Placement (gen, shift) is
    `placement_bits` inline: the row's pattern moved by (shift + lo)*n bits
    and masked to the window on both sides, since a pattern can be wider
    than the window."""
    half = n * blocks
    window = (1 << half) - 1
    basis: dict[int, int] = {}
    pivot = basis.get
    for pattern in patterns:
        if pattern is None:
            continue
        lo, hi, x, z = pattern
        whole = x | z << half
        # shifts -hi .. blocks - lo - 1 each leave some bit in the window;
        # from 0 to `inner` the pattern fits, so no mask is needed
        inner = half - (hi - lo + 1) * n
        for at in range((lo - hi) * n, half, n):
            if 0 <= at <= inner:
                vec = whole << at
            elif at >= 0:
                vec = x << at & window | (z << at & window) << half
            else:
                vec = x >> -at & window | (z >> -at & window) << half
            while vec:
                top = vec.bit_length() - 1
                row = pivot(top)
                if row is None:
                    basis[top] = vec
                    break
                vec ^= row
    return basis


def check_pair(s: StabilizerMatrix, encoder: Circuit) -> None:
    """Raise PreconditionError unless `encoder` can be checked against `s`:
    both on the same n streams, and no more generators than streams, since
    the subcode (0 | I 0) places generator i as a Z on stream i."""
    if encoder.n != s.n:
        raise PreconditionError(
            f"dimension mismatch: circuit n={encoder.n}, stabilizer n={s.n}"
        )
    if s.r > s.n:
        raise PreconditionError(f"more generators than qubit streams: r={s.r}, n={s.n}")


def verify_encoder(s: StabilizerMatrix, encoder: Circuit, blocks: int) -> EncoderCheck:
    """Conjugate the unrolled subcode generators by the unrolled encoder and
    check membership in the window row space of the input stabilizer
    (boundary-truncated placements joined): `verify_windows` on one window,
    its round-trip error raised.

    Only interior shifts are tested: the open boundary truncates the
    circuit, so results within the larger of the memory and the seeds'
    image reach (`image_reach`) of either edge are not meaningful.
    """
    check_pair(s, encoder)
    memory = encoder.memory
    if blocks < 2 * (memory + 1):
        raise WindowTooSmallError(
            f"window {blocks} < 2*(memory+1) = {2 * (memory + 1)}"
        )
    _, checks, error = verify_windows(encoder, [blocks], s)
    if error is not None:
        raise error
    return checks[0]


# ---------------------------------------------------------------------------
# one pass per window


def verify_windows(
    c: Circuit, sizes: Sequence[int], s: Optional[StabilizerMatrix] = None
) -> tuple[PropagationReport, list[EncoderCheck], Optional[Exception]]:
    """The propagation table on every window in `sizes` of at least
    memory + 1 blocks and, given a code `s` that `check_pair` accepts, the
    encoder round trip on every window of at least 2(memory+1) blocks, from
    one seed walk and one pass over each window (`_window_pass`), which
    conjugates only the seeds near its edges.  A smaller window holds no
    interior seed and is skipped; PreconditionError if no window is left.

    The round trip's window row space W_N is P_N(C), the truncation to
    blocks 0 .. N - 1 of the span C of all generator placements, so a
    vector supported in blocks 0 .. N1 - 1 that lies in W_N2, N2 > N1, lies
    in W_N1: if P_N2(c) = v, then P_N1(c) = v.  When M = max(memory, P)
    equals the margin, every round-trip row is a translate of a walk image
    that lies inside each window, the same vector on every window that holds
    its shift.  The largest round-trip window is then decided first, and a
    smaller one whose shifts all passed there builds no basis and runs no
    span test; it still runs its pass for the table.  Otherwise (P above the
    margin, or a row that failed at the largest window) each window builds
    its own basis, in window order.

    Returns the report, the round-trip checks in window order, and the
    error that stopped the round trip, or None: no window reaches
    2(memory+1) (`PreconditionError`), the margin leaves the first such
    window no interior (`WindowTooSmallError`), or a row of `s` spans past
    the limit (`ExponentOverflowError`).  No rule reads a window, so all are
    decided once, in that order, before the first window; the error is
    returned, not raised, so that a caller can print the table first.
    """
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("window sizes must be sorted ascending")
    if s is not None:
        check_pair(s, c)
    memory = c.memory
    sizes = tuple(blocks for blocks in sizes if blocks >= memory + 1)
    if not sizes:
        raise PreconditionError(f"all window sizes are below circuit memory {memory} + 1")
    back, forward, image_max, reach, z_images = _seed_walk(c, 0 if s is None else s.r)
    # the round trip's margin: seeds nearer an edge may have clipped images
    margin = max(memory, back, forward)
    maxima, checks, error, patterns = [], [], None, None
    if s is not None:
        first = next((blocks for blocks in sizes if blocks >= 2 * (memory + 1)), None)
        if first is None:
            error = PreconditionError(f"no window size reaches 2*(memory+1) = {2 * (memory + 1)}")
        elif first - 2 * margin < 1:
            error = WindowTooSmallError(f"window {first} leaves no interior at margin {margin}")
        else:
            try:
                patterns = row_patterns(s)
            except ExponentOverflowError as exc:
                error = exc
    # at M = margin every row is a translate of a walk image, and the
    # largest round-trip window goes first to vouch for the smaller ones
    vouching = patterns is not None and max(memory, reach) == margin
    if vouching:
        top = sizes[-1]
        basis = stabilizer_window_basis(patterns, s.n, top)
        top_pass = _window_pass(c, top, margin, reach, image_max, basis, z_images)
    for blocks in sizes:
        # patterns are packed only once `first` holds an interior
        checked = patterns is not None and blocks >= first
        if vouching and blocks == top:
            best, spans = top_pass
        else:
            spans = None
            if vouching and checked:
                spans = [span[: blocks - 2 * margin] for span in top_pass[1]]
                if not all(map(all, spans)):
                    spans = None
            basis = stabilizer_window_basis(patterns, s.n, blocks) if checked and spans is None else None
            best, found = _window_pass(c, blocks, margin, reach, image_max, basis, () if basis is None else z_images)
            if basis is not None:
                spans = found
        maxima.append(best)
        if checked:
            checks.append(EncoderCheck(blocks, margin, tuple(map(tuple, spans))))
    couplers = sum(len(g.ells) for g in c.gates if g.kind in (CNOT, CSIGN, PL))
    bound = (couplers + 1) * (2 * memory + 1)
    verdict = "bounded" if image_max <= bound else "growing"
    return PropagationReport(sizes, tuple(maxima), bound, verdict, memory), checks, error


def _window_pass(
    c: Circuit,
    blocks: int,
    margin: int,
    reach: int,
    image_max: int,
    basis: Optional[dict[int, int]],
    images: Sequence[tuple[int, int]],
) -> tuple[int, list[list[bool]]]:
    """The table's max X, Z or Y image support over a window's qubits at
    least memory blocks from either edge and, for each generator with a
    Z seed image in `images` (the seed walk's, packed from block -reach),
    whether the image of each of its placements at least `margin` blocks in
    lies in the span of `basis`.

    On a window of 2M + 1 blocks or more, M = max(memory, reach), the seeds
    at least M blocks from both edges read the walk (module docstring):
    their maximum is `image_max`, and placement (gen, t) is image gen moved
    t - reach blocks up.  The seeds within M of an edge go through the lane
    kernel, batch by batch as `_unit_seeds` packs them, and their
    placements are tested as their batch goes by: (gen, t), a single Z on
    qubit q = t*n + gen, is the Z seed in lane 2(q - first) + 1 of the
    batch that starts at qubit `first`."""
    n, memory = c.n, c.memory
    deep = max(memory, reach)
    lane_bytes = _lane_bytes(c, blocks)
    # the X and Z seeds of one qubit share a batch
    per_batch = max(1, _batch_lanes(lane_bytes) // 2)
    half = n * blocks
    spans = [[None] * (blocks - 2 * margin) for _ in images]
    if blocks > 2 * deep:
        best, edges = image_max, ((memory, deep), (blocks - deep, blocks - memory))
        # placement (gen, t) for deep <= t < blocks - deep
        shifts = range((deep - reach) * n, (blocks - deep - reach) * n, n)
        for span, (x, z) in zip(spans, images):
            whole = x | z << half
            span[deep - margin : blocks - deep - margin] = [_gf2_in_span(basis, whole << at) for at in shifts]
    else:
        best, edges = 0, ((memory, blocks - memory),)
    batches = [
        (first, min(per_batch, stop * n - first))
        for start, stop in edges
        for first in range(start * n, stop * n, per_batch)
    ]
    if batches:
        # the first batch is the widest, and every later one fits its masks
        masks = _lane_masks(n, blocks, lane_bytes, 2 * batches[0][1])
    for first, count in batches:
        x, z = _conjugate_lanes(c, masks, *_unit_seeds(lane_bytes, first, count))
        best = max(best, _pair_max(x, z, lane_bytes, count))
        # the batch's qubits from a up to b hold placements
        a, b = max(first, margin * n), min(first + count, (blocks - margin) * n)
        if not spans or a >= b:
            continue
        # every Z lane from qubit a on, unpacked once per side
        size = 2 * count * lane_bytes
        lane = 2 * (a - first) + 1
        xs, zs = (_slices(side.to_bytes(size, "little"), lane_bytes, 2, lane) for side in (x, z))
        for q, xl, zl in zip(range(a, b), xs, zs):
            t, gen = divmod(q, n)
            if gen < len(spans):
                vec = int.from_bytes(xl, "little") | int.from_bytes(zl, "little") << half
                spans[gen][t - margin] = _gf2_in_span(basis, vec)
    return best, spans


# ---------------------------------------------------------------------------
# report rendering


def render_propagation(report: PropagationReport) -> str:
    lines = ["N   max-interior-support"]
    for n_, m in zip(report.sizes, report.max_supports):
        lines.append(f"{n_:<3} {m}")
    lines.append(f"bound {report.bound}  margin {report.margin}  verdict {report.verdict}")
    return "\n".join(lines) + "\n"


_STATUS = {True: "pass", False: "FAIL"}


def render_encoder_check(check: EncoderCheck) -> str:
    """The check's rows, read straight off its flags: the rows of a
    generator that passes at every shift are one join."""
    shifts = range(check.margin, check.blocks - check.margin)
    lines = [f"encoder round-trip: N={check.blocks} margin={check.margin}"]
    for gen, flags in enumerate(check.flags, 1):
        head = f"  generator {gen} shift "
        if all(flags):
            lines.append(head + f": pass\n{head}".join(map(str, shifts)) + ": pass")
        else:
            lines += [f"{head}{shift}: {_STATUS[ok]}" for shift, ok in zip(shifts, flags)]
    lines.append(f"result: {_STATUS[check.ok]}")
    return "\n".join(lines) + "\n"
