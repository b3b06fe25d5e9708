"""Finite-window verification: Pauli conjugation through unrolled circuits,
the error-propagation analyzer, and the encoder round-trip check.

Windows hold N blocks of n qubits in (x|z) bit layout.  Every template is
applied at every in-window block shift; gate instances that would reach
outside the window are dropped (open boundary, matching a stream that
starts at block 0).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import PreconditionError, WindowTooSmallError
from .gates import CNOT, CSIGN, Circuit, PL, act
from .matrix import identity, thaw, zeros
from .poly import max_span
from .stabilizer import StabilizerMatrix, placement_bits


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


def _lane_images(
    c: Circuit, blocks: int, seeds: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, int]]:
    """Conjugate a stream of window seeds, each an (x, z) pair of n*blocks
    bits, yielding each image in order as the same kind of pair.

    A batch of seeds is packed into one X int and one Z int, one lane per
    seed.  A lane is the window's n*blocks bits followed by a guard of at
    least n*memory bits, padded to whole bytes.  Each column update of a
    template then moves all its in-window instances in every lane at once:
    the source column's bits are masked out of one side, shifted by k blocks
    onto the destination column and XORed in.  No update shifts by more
    than memory blocks, so a bit that leaves its window lands in a guard
    (its own lane's, or the lane below's).  Source masks never read a
    guard, and guards are cleared before unpacking, so what lands there is
    dropped: the open boundary.  Templates apply in list order; the
    instances of one template commute, so their order is immaterial.  The
    map is GF(2)-linear, boundary included.
    """
    n = c.n
    lane_bytes = (n * (blocks + c.memory) + 7) // 8
    lanes = max(1, _BATCH_BITS // (8 * lane_bytes))
    window = (1 << n * blocks) - 1
    first_column = window // ((1 << n) - 1)
    lane_window = window.to_bytes(lane_bytes, "little")
    lane_columns = [(first_column << q).to_bytes(lane_bytes, "little") for q in range(n)]
    columns: list[int] = []
    seeds = iter(seeds)
    while batch := list(islice(seeds, lanes)):
        if not columns:
            # masks sized by the first batch, the widest
            windows = int.from_bytes(lane_window * len(batch), "little")
            columns = [int.from_bytes(col * len(batch), "little") for col in lane_columns]
        sides = [
            int.from_bytes(b"".join(bits.to_bytes(lane_bytes, "little") for bits in part), "little")
            for part in zip(*batch)
        ]
        for g in c.templates:
            for dst_side, dst, src_side, src, k in g.updates:
                moved = sides[src_side] & columns[src]
                step = k * n + dst - src
                sides[dst_side] ^= moved << step if step >= 0 else moved >> -step
        size = len(batch) * lane_bytes
        xs, zs = (memoryview((side & windows).to_bytes(size, "little")) for side in sides)
        for at in range(0, size, lane_bytes):
            lane = slice(at, at + lane_bytes)
            yield int.from_bytes(xs[lane], "little"), int.from_bytes(zs[lane], "little")


def conjugate(c: Circuit, blocks: int, p: PauliVector) -> PauliVector:
    """Propagate a Pauli through every in-window instance of every template:
    the lane kernel `_lane_images` on one lane."""
    if p.n != c.n or p.blocks != blocks:
        raise ValueError("Pauli vector does not match the window")
    if blocks < c.memory + 1:
        raise WindowTooSmallError(f"window {blocks} < circuit memory {c.memory} + 1")
    half = p.half
    ((x, z),) = _lane_images(c, blocks, [(p.bits & ((1 << half) - 1), p.bits >> half)])
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


def _seed_max(images: Iterator[tuple[int, int]]) -> int:
    """Max support over consecutive (X image, Z image) pairs of one seed
    position and their XOR, the Y image: conjugation is linear."""
    best = 0
    for (xx, xz), (zx, zz) in zip(images, images):
        y = (xx ^ zx) | (xz ^ zz)
        best = max(best, int.bit_count(xx | xz), int.bit_count(zx | zz), int.bit_count(y))
    return best


def _interior_max(c: Circuit, blocks: int, margin: int) -> int:
    """Max image support over the X, Z and Y seeds of the interior qubits;
    only the X and Z seeds are conjugated."""
    seeds = (
        seed
        for pos in range(margin * c.n, (blocks - margin) * c.n)
        for seed in ((1 << pos, 0), (0, 1 << pos))
    )
    return _seed_max(_lane_images(c, blocks, seeds))


@lru_cache(maxsize=1)
def _seed_walk(c: Circuit, limit: int) -> tuple[int, int, int]:
    """Backward reach, forward reach and max X, Z or Y support of the
    single-qubit seed images: the rows of the (X|Z) identity, the X and Z
    unit seeds, pushed once through the exact polynomial action.  Each row
    is the image of one seed that no boundary clips (exponent e is block
    offset e); it packs into one int per side, column q at q times the
    images' common width.  `limit` is the span limit the push runs under,
    so a lowered limit misses the memo and raises again."""
    x = thaw(identity(c.n) + zeros(c.n, c.n))
    z = thaw(zeros(c.n, c.n) + identity(c.n))
    for g in c.templates:
        act(x, z, g)
    entries = [e for row in x + z for e in row if e]
    lo = min((e.min_exp for e in entries), default=0)
    hi = max((e.max_exp for e in entries), default=0)
    width = hi + 1 - lo
    xs, zs = (
        [sum(e.bits << e.offset - lo + q * width for q, e in enumerate(row) if e) for row in side]
        for side in (x, z)
    )
    best = _seed_max((xs[j], zs[j]) for q in range(c.n) for j in (q, c.n + q))
    return max(0, -lo), max(0, hi), best


def image_reach(c: Circuit) -> tuple[int, int]:
    """Backward and forward block reach of single-qubit seed images, for
    every interior seed on any window.  A Y image is the sum of two seed
    rows, so its support lies in their union."""
    return _seed_walk(c, max_span())[:2]


def _image_max(c: Circuit) -> int:
    """Max support over the X, Z and Y seed images: the interior maximum of
    any window on which no seed image is clipped."""
    return _seed_walk(c, max_span())[2]


def interior_margin(c: Circuit) -> int:
    """Blocks at either window edge whose seeds may have clipped images: the
    measured image reach, which may exceed the template memory through
    composition."""
    return max(c.memory, *image_reach(c))


def propagation_report(c: Circuit, sizes: Sequence[int]) -> PropagationReport:
    sizes = tuple(sizes)
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("window sizes must be sorted ascending")
    margin = c.memory
    maxima = []
    for blocks in sizes:
        if blocks < c.memory + 1:
            raise WindowTooSmallError(
                f"window {blocks} < circuit memory {c.memory} + 1"
            )
        maxima.append(_interior_max(c, blocks, margin))
    couplers = sum(1 for g in c.templates if g.kind in (CNOT, CSIGN, PL))
    bound = (couplers + 1) * (2 * c.memory + 1)
    verdict = "bounded" if _image_max(c) <= bound else "growing"
    return PropagationReport(sizes, tuple(maxima), bound, verdict, margin)


# ---------------------------------------------------------------------------
# encoder round-trip


class RowCheck(NamedTuple):
    gen: int
    shift: int
    ok: bool


class EncoderCheck(NamedTuple):
    blocks: int
    margin: int
    rows: tuple[RowCheck, ...]

    @property
    def ok(self) -> bool:
        return all(rc.ok for rc in self.rows)


def _gf2_insert(basis: dict[int, int], vec: int) -> None:
    while vec:
        top = vec.bit_length() - 1
        if top in basis:
            vec ^= basis[top]
        else:
            basis[top] = vec
            return


def _gf2_in_span(basis: dict[int, int], vec: int) -> bool:
    while vec:
        top = vec.bit_length() - 1
        if top not in basis:
            return False
        vec ^= basis[top]
    return True


def stabilizer_window_basis(s: StabilizerMatrix, blocks: int) -> dict[int, int]:
    """GF(2) basis of all generator placements over the window, including the
    boundary-truncated ones."""
    basis: dict[int, int] = {}
    # each row's envelope is read off its packed pattern, span-checked once
    for gen, pattern in enumerate(s._row_patterns):
        if pattern is None:
            continue
        lo, hi = pattern[:2]
        for shift in range(-hi, blocks - lo):
            bits = placement_bits(s, blocks, gen, shift)
            if bits:
                _gf2_insert(basis, bits)
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
    (boundary-truncated placements joined).

    Only interior shifts are tested: the open boundary truncates the
    circuit, so results within `interior_margin(encoder)` blocks of either
    edge are not meaningful.
    """
    check_pair(s, encoder)
    memory = encoder.memory
    if blocks < 2 * (memory + 1):
        raise WindowTooSmallError(
            f"window {blocks} < 2*(memory+1) = {2 * (memory + 1)}"
        )
    margin = interior_margin(encoder)
    if blocks - 2 * margin < 1:
        raise WindowTooSmallError(
            f"window {blocks} leaves no interior at margin {margin}"
        )
    basis = stabilizer_window_basis(s, blocks)
    # the subcode (0 | I 0) places generator gen at shift as a single Z
    placements = [(gen, t) for gen in range(s.r) for t in range(margin, blocks - margin)]
    images = _lane_images(encoder, blocks, ((0, 1 << t * s.n + gen) for gen, t in placements))
    half = s.n * blocks
    rows = tuple(
        RowCheck(gen, shift, _gf2_in_span(basis, x | z << half))
        for (gen, shift), (x, z) in zip(placements, images)
    )
    return EncoderCheck(blocks, margin, rows)


# ---------------------------------------------------------------------------
# report rendering


def render_propagation(report: PropagationReport) -> str:
    lines = ["N   max-interior-support"]
    for n_, m in zip(report.sizes, report.max_supports):
        lines.append(f"{n_:<3} {m}")
    lines.append(f"bound {report.bound}  margin {report.margin}  verdict {report.verdict}")
    return "\n".join(lines) + "\n"


def render_encoder_check(check: EncoderCheck) -> str:
    lines = [f"encoder round-trip: N={check.blocks} margin={check.margin}"]
    for rc in check.rows:
        status = "pass" if rc.ok else "FAIL"
        lines.append(f"  generator {rc.gen + 1} shift {rc.shift}: {status}")
    lines.append(f"result: {'pass' if check.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"
