"""qconvenc benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload synth-ladder --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` of that checkout and nothing is installed.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report.  See
bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
from tracing import AGGREGATED, SPANNED, Tracer, leftover_wrappers, span_name  # noqa: E402

# a traced op's span self times must cover its wall time to within this share
TRACE_COVERAGE_TOLERANCE = 0.05
SUBPROCESS_TIMEOUT_S = 60
DOCUMENTED_EXITS = (0, 2, 3, 4, 5)
# inputs a slot may try before it is left empty
MAX_ALTERNATIVES = 4
# host speed probes timed around each set-up round
SETUP_PROBES = 16

GAMMA_RE = re.compile(r"^gamma: diag\((.*)\)$", re.M)
ENCODER_RE = re.compile(r"^encoder: (\d+) templates, memory (\d+), (\d+) layers$", re.M)
PROPAGATION_RE = re.compile(r"^(\d+)\s+(\d+)$", re.M)
POWER_OF_D_RE = re.compile(r"^(1|D|D\^\d+)$")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package source, bad corpus)."""


# ---------------------------------------------------------------------------
# ops and their known answers


@dataclass
class Op:
    kind: str  # "synth" | "verify"
    argv: list[str]
    expect_exit: int
    # output check against the known answer: returns a reason or None
    check: Callable[[str], Optional[str]]
    windows: frozenset = frozenset()


@dataclass
class Input:
    name: str
    stratum: str  # inputs are summarised per stratum, then across strata
    ops: list[Op]
    # (path, text) of files to write before the input first runs
    pending: tuple = ()


@dataclass
class Outcome:
    ns: int
    failed: bool
    wrong: bool
    reason: str = ""
    text: str = ""


def laurent_body(text: str) -> int:
    """A polynomial in the CLI grammar with its power of D stripped, as bits."""
    exps = []
    for term in text.split("+"):
        term = term.strip()
        if term == "1":
            exps.append(0)
        elif term == "D":
            exps.append(1)
        elif term.startswith("D^"):
            exps.append(int(term[2:]))
        else:
            raise ValueError(f"bad term {term!r}")
    lo = min(exps)
    bits = 0
    for e in exps:
        bits ^= 1 << (e - lo)
    return bits


def gamma_entries(text: str) -> Optional[list[str]]:
    m = GAMMA_RE.search(text)
    return None if m is None else [e.strip() for e in m.group(1).split(",")]


def check_ladder(text: str) -> Optional[str]:
    entries = gamma_entries(text)
    if entries is None:
        return "no gamma line"
    bad = [e for e in entries if not POWER_OF_D_RE.match(e)]
    return f"divisors {bad} are not powers of D" if bad else None


def check_proper(product: int) -> Callable[[str], Optional[str]]:
    def check(text: str) -> Optional[str]:
        entries = gamma_entries(text)
        if entries is None:
            return "no gamma line"
        got = 1
        try:
            for e in entries:
                got = corpus.clmul(got, laurent_body(e))
        except ValueError as exc:
            return f"unreadable divisor: {exc}"
        if got != product:
            return f"product of divisors {bin(got)} != product of g_i {bin(product)}"
        return None

    return check


def check_worked_synth(text: str) -> Optional[str]:
    m = ENCODER_RE.search(text)
    if corpus.WORKED_GAMMA not in text.splitlines():
        return "gamma line differs from diag(1, D)"
    if m is None or int(m.group(2)) != corpus.WORKED_MEMORY:
        return f"encoder memory is not {corpus.WORKED_MEMORY}"
    return None


def check_worked_verify(text: str) -> Optional[str]:
    rows = tuple(int(m.group(2)) for m in PROPAGATION_RE.finditer(text))
    if rows != corpus.WORKED_PROPAGATION:
        return f"propagation row {rows} != {corpus.WORKED_PROPAGATION}"
    if "verdict bounded" not in text:
        return "verdict is not bounded"
    return None


def check_verified(text: str) -> Optional[str]:
    if "verdict bounded" not in text:
        return "verdict is not bounded"
    if "result: FAIL" in text or "result: pass" not in text:
        return "round trip did not pass"
    return None


def no_check(text: str) -> Optional[str]:
    return None


def judge(op: Op, code: Optional[int], text: str, error: str) -> tuple[bool, bool, str]:
    """(failed, wrong, reason) of one op.

    An op fails when it raises, exits with another code than its known
    answer, or prints output that contradicts the known answer.  It is
    also wrong when the program reported success on such output, or
    accepted an input whose known answer is a verification failure.
    """
    if code is None:
        return True, False, error
    if code != op.expect_exit:
        return True, code == 0, f"exit {code}, expected {op.expect_exit}"
    reason = op.check(text)
    return (reason is not None), (reason is not None), reason or ""


# ---------------------------------------------------------------------------
# workloads


def write_code(directory: Path, code: corpus.Code) -> Path:
    path = directory / f"{code.name}.stab"
    path.write_text(code.text, encoding="utf-8")
    return path


def synth_op(stab: Path, circ: Path, check) -> Op:
    return Op("synth", ["synth", str(stab), "--out", str(circ)], 0, check)


def synth_slot(directory: Path, codes: list[corpus.Code], stratum: str, check_of) -> list[Input]:
    """A slot of `synth --out` inputs; only the first alternative's file is
    written now, a fallback's when the screen first runs it."""
    slot = []
    for rank, code in enumerate(codes):
        stab = directory / f"{code.name}.stab"
        if rank == 0:
            stab.write_text(code.text, encoding="utf-8")
        op = synth_op(stab, directory / f"{code.name}.circ", check_of(code))
        slot.append(Input(code.name, stratum, [op], pending=() if rank == 0 else ((stab, code.text),)))
    return slot


class Workload:
    """Makes a run's inputs as slots: each slot is filled by the first of its
    alternative inputs that does not hit a known defect (see `screen`)."""

    name = ""
    subprocess = False
    # set-ups a run makes; setup_s is their median
    setup_repeats = 3

    def __init__(self, scale: int):
        self.scale = scale
        self.notes: list[str] = []  # set-up facts for the report
        # synth reports of the encoders made during set-up (verify-deep)
        self.setup_reports: list[str] = []

    def prepare(self, seed: int, directory: Path, cli) -> list[list[Input]]:
        raise NotImplementedError


def segments(ordered: list, k: int) -> list[list]:
    """`k` slots over `ordered`, each a run of neighbouring items, its
    alternatives ordered by distance from the middle of the run.

    The first alternatives form a systematic sample of `ordered`: it keeps
    the distribution of the draw while making each seed's mix of small and
    large inputs alike.  A fallback is the first choice's neighbour in that
    order, so filling a slot with it keeps the mix.
    """
    step = len(ordered) / k
    slots = []
    for i in range(k):
        lo, hi = int(i * step), int((i + 1) * step)
        middle = (lo + hi - 1) / 2
        members = sorted(range(lo, hi), key=lambda j: (abs(j - middle), j))
        slots.append([ordered[j] for j in members[:MAX_ALTERNATIVES]])
    return slots


def by_size(codes: list[corpus.Code]) -> list[corpus.Code]:
    """Codes ordered by size (polynomial terms)."""
    return sorted(codes, key=lambda c: (c.text.count("D") + c.text.count("1"), c.name))


class SynthLadder(Workload):
    name = "synth-ladder"
    # slots of each rung, in multiples of the scale: an n=12 code costs
    # about fifty times an n=4 one, so the cheaper rungs get more slots
    RUNG_SLOTS = (2, 2, 2, 1)

    def prepare(self, seed, directory, cli):
        rng = random.Random(seed)
        slots = []
        for rung, weight in zip(corpus.LADDER_RUNGS, self.RUNG_SLOTS):
            count = weight * self.scale
            drawn = [
                corpus.ladder_code(rng, rung, f"ladder-n{rung[0]}-{k:03d}")
                for k in range(3 * count)
            ]
            for codes in segments(by_size(drawn), count):
                slots.append(synth_slot(directory, codes, f"n{rung[0]}", lambda code: check_ladder))
        random.Random(seed + 1).shuffle(slots)
        return slots


class SynthProper(Workload):
    """Z-only codes (0 | diag(g_1, g_2) 0), one stratum per kind of g_i.

    Classifying a divisor walks the multiplicative order of D modulo it.
    For random g of degree 7 and up that order, and with it the cost of a
    code, spreads over orders of magnitude between draws.  Random g stay
    at degree 5 (order below 2^10); an irreducible g of a degree d with
    2^d - 1 prime has order exactly 2^d - 1, so those strata cost alike on
    every seed, and degree 13 (8191 steps) makes the search the main cost.
    """

    name = "synth-proper"
    N, R, TEMPLATES, MAX_OFF = 3, 2, 12, 2
    # (stratum, degree of each g_i, irreducible g_i only)
    STRATA = (("deg5", 5, False), ("deg7-irreducible", 7, True), ("deg13-irreducible", 13, True))

    def prepare(self, seed, directory, cli):
        rng = random.Random(seed)
        slots = []
        for stratum, deg, irreducible in self.STRATA:
            drawn = [
                corpus.proper_code(
                    rng, self.N, self.R, deg, irreducible, self.TEMPLATES, self.MAX_OFF,
                    f"proper-{stratum}-{k:03d}",
                )
                for k in range(3 * self.scale)
            ]
            for codes in segments(by_size(drawn), self.scale):
                slots.append(synth_slot(directory, codes, stratum, lambda code: check_proper(code.divisor_product)))
        random.Random(seed + 1).shuffle(slots)
        return slots


def verify_block_steps(n: int, templates: list[corpus.Template]) -> int:
    """Predicted conjugation work (templates x blocks, summed over seeds) of
    `verify` with windows m+1, 2(m+1), 4(m+1): the interior seeds of each
    window and of the two verdict probes past the saturation window.  A
    cost estimate for stratifying inputs; round trips are left out."""
    t = len(templates)
    m = max((g.reach() for g in templates), default=0)
    spread = sum(g.reach() for g in templates)
    probe = max(2 * max(spread, m) + m + 2, 4 * (m + 1))
    windows = (m + 1, 2 * (m + 1), 4 * (m + 1), probe, probe + m + 1)
    return sum(max(0, w - 2 * m) * 3 * n * t * w for w in windows)


class VerifyDeep(Workload):
    """Encoders of n=6 ladder codes, synthesized during set-up.

    Codes are kept by the predicted cost of verifying their encoder: the
    same number of slots in each fixed stratum, evenly spaced by that cost,
    so every seed verifies the same mix of sizes.  Set-up always synthesizes
    DRAWS codes (more only if a stratum holds fewer than two codes a slot;
    the lowest one held 17 to 27 of 600 draws), so its time does not depend
    on the seed.  n=8
    encoders are not drawn: in 60 draws the smallest composed reach was 33,
    which predicts about 4M steps, twice the top stratum, and verifying
    such a code takes seconds to minutes.
    """

    name = "verify-deep"
    RUNG = corpus.LADDER_RUNGS[1]
    # predicted block steps, in millions: each stratum doubles the last
    STRATA = ((0.125, 0.25), (0.25, 0.5), (0.5, 1.0), (1.0, 2.0))
    DRAWS = 400
    MAX_DRAWS = 4000

    def prepare(self, seed, directory, cli):
        rng = random.Random(seed)
        # stratum -> candidates (predicted steps, code name, memory)
        found: dict[tuple, list] = {s: [] for s in self.STRATA}
        self.setup_reports = []
        rejected = draw = 0
        while draw < self.DRAWS or min(len(v) for v in found.values()) < 2 * self.scale:
            if draw == self.MAX_DRAWS:
                raise SetupError("verify-deep strata not filled")
            code = corpus.ladder_code(rng, self.RUNG, f"deep-{draw:04d}")
            draw += 1
            stab = write_code(directory, code)
            circ = directory / f"{code.name}.circ"
            out = io.StringIO()
            # codes that synth rejects are counted on synth-ladder; here they
            # have no encoder to verify
            if cli.main(["synth", str(stab), "--out", str(circ)], out=out) != 0:
                rejected += 1
                stab.unlink()
                continue
            self.setup_reports.append(out.getvalue())
            templates = corpus.parse_templates(circ.read_text(encoding="utf-8"))
            steps = verify_block_steps(code.n, templates) / 1e6
            stratum = next((s for s in self.STRATA if s[0] <= steps < s[1]), None)
            if stratum is None:
                stab.unlink()
                circ.unlink()
                continue
            memory = max(t.reach() for t in templates)
            found[stratum].append((steps, code.name, memory))
        self.notes = [f"set-up synth rejected {rejected} of {draw} drawn codes"]
        slots = []
        for stratum, candidates in found.items():
            label = f"steps{stratum[0]}-{stratum[1]}M"
            for members in segments(sorted(candidates), self.scale):
                slot = []
                for _, name, m in members:
                    stab, circ = directory / f"{name}.stab", directory / f"{name}.circ"
                    windows = (m + 1, 2 * (m + 1), 4 * (m + 1))
                    argv = ["verify", str(stab), str(circ), "--windows", ",".join(map(str, windows))]
                    op = Op("verify", argv, 0, check_verified, frozenset(windows))
                    slot.append(Input(name, label, [op]))
                slots.append(slot)
        random.Random(seed + 1).shuffle(slots)
        return slots


class CliCold(Workload):
    name = "cli-cold"
    subprocess = True
    # a set-up takes about 50 ms, most of it the import
    setup_repeats = 9

    def prepare(self, seed, directory, cli):
        stab = directory / "rate-third.stab"
        stab.write_text(corpus.WORKED_EXAMPLE, encoding="utf-8")
        circ = directory / "rate-third.circ"
        mutated = directory / "rate-third-mutated.circ"
        windows = frozenset(int(w) for w in corpus.WORKED_WINDOWS.split(","))
        # negative control: the synthesized encoder without its last template
        if cli.main(["synth", str(stab), "--out", str(circ)], out=io.StringIO()) != 0:
            raise SetupError("the worked example does not synthesize")
        lines = circ.read_text(encoding="utf-8").splitlines(keepends=True)
        mutated.write_text("".join(lines[:-1]), encoding="utf-8")
        return [[
            Input(
                "rate-third",
                "all",
                [
                    synth_op(stab, circ, check_worked_synth),
                    Op("verify", ["verify", str(stab), str(circ)], 0, check_worked_verify, windows),
                    Op("verify", ["verify", str(stab), str(mutated)], 5, no_check, windows),
                ],
            )
        ]]


WORKLOADS = {w.name: w for w in (SynthLadder, SynthProper, VerifyDeep, CliCold)}
# codes per stratum (or per rung) in one run's corpus
DEFAULT_SCALE = {"synth-ladder": 64, "synth-proper": 160, "verify-deep": 8, "cli-cold": 1}


# ---------------------------------------------------------------------------
# running ops


class Runner:
    """Runs ops in-process through `cli.main`, or as `python -m qconvenc`."""

    def __init__(self, cli, directory: Path, tracer: Optional[Tracer] = None):
        self.cli = cli
        self.directory = directory
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # op id -> wall ns of traced ops, for the coverage check
        self.walls: dict[str, int] = {}
        self.serial = 0

    def _op_id(self, op: Op) -> str:
        self.serial += 1
        return f"{self.serial}:{op.kind}"

    def in_process(self, op: Op) -> Outcome:
        out = io.StringIO()
        code, error = None, ""
        op_id = self._op_id(op)
        if self.tracer is not None:
            self.tracer.op = op_id
            self.tracer.user_windows = op.windows
        start = time.perf_counter_ns()
        try:
            code = self.cli.main(op.argv, out=out)
        except Exception as exc:  # a raising op is a failed op, not a crash of the run
            error = f"raised {type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - start
        if self.tracer is not None:
            self.walls[op_id] = ns
        text = out.getvalue()
        failed, wrong, reason = judge(op, code, text, error)
        return Outcome(ns, failed, wrong, reason, text)

    def child(self, op: Op) -> Outcome:
        op_id = self._op_id(op)
        if self.tracer is None:
            argv = [sys.executable, "-m", "qconvenc", *op.argv]
        else:
            spans_path = self.directory / "child-trace.json"
            argv = [sys.executable, str(BENCH / "child.py"), str(spans_path), *op.argv]
        env = dict(self.env, BENCH_USER_WINDOWS=",".join(map(str, sorted(op.windows))))
        start = time.perf_counter_ns()
        try:
            proc = subprocess.run(
                argv, cwd=self.directory, env=env, capture_output=True,
                text=True, timeout=SUBPROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            ns = time.perf_counter_ns() - start
            return Outcome(ns, True, False, f"timed out after {SUBPROCESS_TIMEOUT_S} s")
        end = time.perf_counter_ns()
        code, error = proc.returncode, ""
        if code not in DOCUMENTED_EXITS:
            lines = proc.stderr.strip().splitlines() or [f"exit {code}"]
            code, error = None, lines[-1]
        if self.tracer is not None and spans_path.exists():
            self.walls[op_id] = end - start
            data = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            self.tracer.merge_child(data, start, end, op_id)
        failed, wrong, reason = judge(op, code, proc.stdout, error)
        return Outcome(end - start, failed, wrong, reason, proc.stdout)

    def run(self, op: Op, subprocess_mode: bool) -> Outcome:
        return self.child(op) if subprocess_mode else self.in_process(op)


def known_defect(op: Op, outcome: Outcome) -> Optional[str]:
    """The known defect of the program an op's failure shows, if any.

    - synth: a valid code ends in `reduction failed: ...` (exit 4), for
      example `Z entry ... is not divisible by gamma`, although every
      generated code has a reduction;
    - verify: `verify_encoder` sizes its margin from the measured image
      reach, which can exceed the memory that `cmd_verify` sized the
      windows from, and raises `WindowTooSmallError` uncaught.
    """
    if not outcome.failed:
        return None
    if op.kind == "synth" and outcome.reason.startswith("exit 4,") and "reduction failed" in outcome.text:
        return "reduction failed (exit 4)"
    if op.kind == "verify" and outcome.reason.startswith("raised WindowTooSmallError"):
        return "uncaught WindowTooSmallError"
    return None


@dataclass
class Screened:
    inputs: list[Input]  # one per filled slot, in slot order
    tried: int  # inputs run
    defects: list[str]  # "<input>: <command> -> <defect>"


def screen(slots: list[list[Input]], runner: "Runner", subprocess_mode: bool) -> Screened:
    """Untimed warm-up pass that fills every slot.

    Runs the ops of each slot's first alternative once.  An input that hits
    a known defect of the program (`known_defect`) is reported by name and
    the slot tries its next alternative, so that the timed loop measures
    only ops that succeed while the defects still show in every run.  Any
    other outcome, another failure included, fills the slot: such a failure
    is then counted by the timed loop.
    """
    done = Screened([], 0, [])
    for slot in slots:
        for inp in slot:
            done.tried += 1
            for path, text in inp.pending:
                path.write_text(text, encoding="utf-8")
            hit = None
            for op in inp.ops:
                hit = known_defect(op, runner.run(op, subprocess_mode))
                if hit is not None:
                    command = " ".join(Path(a).name for a in op.argv)
                    done.defects.append(f"{inp.name}: {command} -> {hit}")
                    break
            if hit is None:
                done.inputs.append(inp)
                break
    if not done.inputs:
        raise SetupError("every input hit a known defect")
    return done


def reference_work() -> int:
    """A fixed piece of pure-Python work in the package's idiom (small
    frozensets of exponents, dict updates, sorting)."""
    acc: frozenset = frozenset()
    counts: dict = {}
    for k in range(400):
        acc = acc ^ frozenset((k % 53, k * 7 % 31 + 3, k * 13 % 29 - 5))
        counts[k % 37] = counts.get(k % 37, 0) + len(acc)
    return len(sorted(acc)) + sum(counts.values())


def reference_ns() -> int:
    """Wall time of one `reference_work`: the host speed probe."""
    start = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - start


@dataclass
class PassResult:
    wall_ns: int = 0
    op_ns: dict = field(default_factory=dict)  # kind -> [ns]
    codes: list = field(default_factory=list)  # (input, stratum, ns of all ops, all ok)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    completed_inputs: int = 0
    passes: int = 0
    reference_ns: list = field(default_factory=list)  # host speed probes
    failures: dict = field(default_factory=dict)  # "input op" -> reason
    outputs: dict = field(default_factory=dict)  # input name -> synth report text


def run_passes(
    inputs: list[Input], runner: Runner, subprocess_mode: bool,
    seconds: float, min_passes: int, max_passes: Optional[int] = None,
) -> PassResult:
    """Closed loop, one client: inputs in order, cycling until the deadline
    has passed and at least `min_passes` whole passes are done."""
    res = PassResult()
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        for inp in inputs:
            if res.passes >= min_passes and time.perf_counter_ns() >= deadline:
                break
            total, ok = 0, True
            for op in inp.ops:
                outcome = runner.run(op, subprocess_mode)
                res.reference_ns.append(reference_ns())
                res.op_ns.setdefault(op.kind, []).append(outcome.ns)
                res.attempted += 1
                total += outcome.ns
                if outcome.failed:
                    ok = False
                    res.failed += 1
                    res.wrong += outcome.wrong
                    command = " ".join(Path(a).name for a in op.argv)
                    res.failures.setdefault(f"{inp.name}: {command}", outcome.reason)
                elif op.kind == "synth":
                    res.outputs.setdefault(inp.name, (inp.stratum, outcome.text))
            res.codes.append((inp.name, inp.stratum, total, ok))
            res.completed_inputs += ok
        else:
            res.passes += 1
            if max_passes is not None and res.passes >= max_passes:
                break
            continue
        break
    res.wall_ns = time.perf_counter_ns() - start
    return res


# ---------------------------------------------------------------------------
# metrics


def median_ms(values: list[int]) -> float:
    return statistics.median(values) / 1e6


def percentile_ms(values: list[int], q: int) -> float:
    """The q-th percentile (nearest rank) in ms."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, (q * len(ordered) + 99) // 100 - 1)] / 1e6


def geomean(values: list[float]) -> float:
    return statistics.geometric_mean(values) if values and min(values) > 0 else 0.0


def shifted_gmean(values: list[int]) -> float:
    """Geometric mean of values + 1, minus 1: encoder sizes have long tails,
    and an encoder's memory may be 0."""
    return statistics.geometric_mean([v + 1 for v in values]) - 1


def encoder_sizes(outputs: dict) -> dict[str, dict[str, list[int]]]:
    """Stratum -> encoder field -> values, from synth reports."""
    sizes: dict[str, dict[str, list[int]]] = {}
    for stratum, text in outputs.values():
        m = ENCODER_RE.search(text)
        if m is not None:
            slot = sizes.setdefault(stratum, {"templates": [], "memory": [], "layers": []})
            slot["templates"].append(int(m.group(1)))
            slot["memory"].append(int(m.group(2)))
            slot["layers"].append(int(m.group(3)))
    return sizes


def layer_metrics(tracer: Tracer, walls: dict[str, int], passes: int) -> dict[str, float]:
    """Per-layer counts and times per pass over the inputs, and each
    layer's share of the traced ops' wall time."""
    wall_ns = sum(walls.values())
    self_ns = tracer.self_times()
    per_name: dict[str, list[int]] = {}
    for name, start, end, sid, _, _ in tracer.spans:
        slot = per_name.setdefault(name, [0, 0, 0])
        slot[0] += 1
        slot[1] += end - start
        slot[2] += self_ns[sid]
    totals: dict[str, int] = {}  # summed over the traced passes, divided by their count below
    shares: dict[str, float] = {}
    for module, attr in SPANNED:
        name = span_name(module, attr)
        calls, busy_ns, own_ns = per_name.get(name, (0, 0, 0))
        totals.update({f"{name}.calls": calls, f"{name}.busy_ms": busy_ns / 1e6,
                       f"{name}.self_ms": own_ns / 1e6})
        shares[f"{name}.busy_share"] = busy_ns / wall_ns
        shares[f"{name}.self_share"] = own_ns / wall_ns
    for _, _, _, name in AGGREGATED:
        calls, ns = tracer.aggregates.get(name, (0, 0))
        totals.update({f"{name}.calls": calls, f"{name}.busy_ms": ns / 1e6})
        shares[f"{name}.busy_share"] = ns / wall_ns
    counts = tracer.counts
    for key in (
        "smith.col_ops", "smith.row_ops", "synthesis.step2_passes",
        "verify.conjugate.block_steps", "verify.roundtrip_rows",
    ):
        totals[key] = counts.get(key, 0)
    out = {k: v / passes for k, v in totals.items()}
    out.update(shares)
    budget = counts.get("synthesis.step2_budget", 0)
    out["synthesis.step2_budget_used"] = counts.get("synthesis.step2_passes", 0) / budget if budget else 0.0
    steps = counts.get("verify.conjugate.block_steps", 0)
    user = counts.get("verify.conjugate.user_block_steps", 0)
    out["verify.user_window_share"] = user / steps if steps else 0.0
    out["verify.conjugate.max_blocks"] = counts.get("verify.conjugate.max_blocks", 0)
    return out


# counters that must repeat exactly between two traced passes
EXACT_COUNTERS = (
    "gates.apply.calls", "smith.col_ops", "smith.row_ops", "synthesis.step2_passes",
    "verify.conjugate.calls", "verify.conjugate.block_steps", "verify.roundtrip_rows",
    "poly.laurent_mul.calls", "poly.poly_divmod.calls",
)


def coverage(tracer: Tracer, walls: dict[str, int]) -> tuple[float, list[str]]:
    """Lowest share of an op's wall time covered by its spans' self times,
    and the ops outside the tolerance (or with a negative self time)."""
    self_ns = tracer.self_times()
    covered: dict[str, int] = {}
    negative = set()
    for _, _, _, sid, _, op in tracer.spans:
        covered[op] = covered.get(op, 0) + self_ns[sid]
        if self_ns[sid] < 0:
            negative.add(op)
    lowest, bad = 1.0, []
    for op, wall in walls.items():
        share = covered.get(op, 0) / wall
        lowest = min(lowest, share)
        if abs(1 - share) > TRACE_COVERAGE_TOLERANCE or op in negative:
            bad.append(f"{op} covers {share:.3f}")
    return lowest, bad


def interpreter_costs(repeats: int = 7) -> tuple[float, float]:
    """Median ms of a bare `python -c pass` and of `import qconvenc.cli` beyond it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def timed(code: str) -> int:
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=SUBPROCESS_TIMEOUT_S)
        return time.perf_counter_ns() - start

    # interleaved, so that the host's drift falls on both alike
    pairs = [(timed("pass"), timed("import qconvenc.cli")) for _ in range(repeats)]
    return median_ms([bare for bare, _ in pairs]), median_ms([imported - bare for bare, imported in pairs])


def digest(inputs: list[Input]) -> str:
    """sha256 over the stabilizer and circuit files the inputs' ops read."""
    paths = set()
    for inp in inputs:
        for op in inp.ops:
            out = op.argv[op.argv.index("--out") + 1] if "--out" in op.argv else None
            paths.update(a for a in op.argv if a.endswith((".stab", ".circ")) and a != out)
    h = hashlib.sha256()
    for path in sorted(map(Path, paths)):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# entry point


def check_source() -> None:
    if not (SRC / "qconvenc" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'qconvenc'}")


def import_package():
    """Import `qconvenc.cli` afresh from the checkout's `src/`."""
    check_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [k for k in sys.modules if k.split(".")[0] == "qconvenc"]:
        del sys.modules[name]
    import qconvenc
    import qconvenc.cli

    where = Path(qconvenc.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"qconvenc imported from {where}, not from {SRC}")
    return qconvenc.cli


def set_up(workload: Workload, seed: int, work: Path):
    """Import the package and build the corpus, `setup_repeats` times.

    Returns the cli module and the slots of the last round, the inputs'
    directory, the time of each round in seconds and the median ms of the
    host speed probe, timed before every round and after the last.
    """
    times, probes = [], []
    for rep in range(workload.setup_repeats):
        probes += [reference_ns() for _ in range(SETUP_PROBES)]
        directory = work / f"inputs-{rep}"
        if rep:
            shutil.rmtree(work / f"inputs-{rep - 1}")
        directory.mkdir(parents=True)
        start = time.perf_counter_ns()
        cli = import_package()
        slots = workload.prepare(seed, directory, cli)
        times.append((time.perf_counter_ns() - start) / 1e9)
    probes += [reference_ns() for _ in range(SETUP_PROBES)]
    return cli, slots, directory, times, statistics.median(probes) / 1e6


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: Optional[int] = None):
    """One benchmark run; returns (result dict, report lines)."""
    workload = WORKLOADS[workload_name](scale or DEFAULT_SCALE[workload_name])
    report = [f"workload {workload_name} seed {seed} seconds {seconds} trace {int(trace)}"]
    check_source()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=ROOT / ".bench_work"))
    try:
        cli, slots, directory, setup_times, setup_probe_ms = set_up(workload, seed, work)
        report += workload.notes
        runner = Runner(cli, directory)
        screened = screen(slots, runner, workload.subprocess)
        inputs = screened.inputs
        report.append(f"inputs {len(inputs)} sha256 {digest(inputs)}")
        report.append(
            f"screen: {len(inputs)} of {len(slots)} slots filled; {len(screened.defects)} of "
            f"{screened.tried} inputs tried hit a known defect "
            f"(known_defect_share {len(screened.defects) / screened.tried:.4f})"
        )
        report += [f"KNOWN DEFECT {line}" for line in screened.defects]
        # a fresh import, so nothing the package cached while screening
        # carries over into the timed ops
        cli = import_package()
        runner = Runner(cli, directory)
        if not trace:
            res = run_passes(inputs, runner, workload.subprocess, seconds, min_passes=1)
            metrics, extra = end_to_end(workload, res, setup_times, setup_probe_ms)
        else:
            metrics, extra, res = traced(workload, inputs, cli, directory)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, reason in sorted(res.failures.items()):
        report.append(f"FAIL {key} -> {reason}")
    for key, value in extra:
        report.append(key if value is None else f"{key} {value}")
    result = {
        "correct": res.wrong == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }
    return result, report


def end_to_end(workload: Workload, res: PassResult, setup_times: list[float], setup_probe_ms: float):
    """End-to-end metrics of an untraced run.

    Inputs of different strata differ in cost by orders of magnitude, so
    each figure is taken per stratum and combined by geometric mean; the
    plain totals are printed too.
    """
    wall_s = res.wall_ns / 1e9
    who = resource.RUSAGE_CHILDREN if workload.subprocess else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    # an input met more than once counts once, by its median, so every
    # seed is summarised over the same set of inputs
    per_input: dict[str, tuple[str, list[int], bool]] = {}
    for name, stratum, ns, ok in res.codes:
        per_input.setdefault(name, (stratum, [], ok))[1].append(ns)
    strata = sorted({v[0] for v in per_input.values()})
    medians, rates = [], []
    extra = []
    for stratum in strata:
        rows = [v for v in per_input.values() if v[0] == stratum]
        ns = [statistics.median(v[1]) for v in rows]
        ok = sum(v[2] for v in rows)
        medians.append(median_ms(ns))
        rates.append(ok / (sum(ns) / 1e9))
        extra.append((f"stratum {stratum}", f"codes {len(ns)} ok {ok} passes {min(len(v[1]) for v in rows)}"
                      f"-{max(len(v[1]) for v in rows)} p50 {medians[-1]:.3f} ms rate {rates[-1]:.4f} 1/s"))
    # on verify-deep: every encoder set-up made, verified or not
    set_up_reports = {f"set-up {k}": ("set-up", r) for k, r in enumerate(workload.setup_reports)}
    sizes = encoder_sizes({**set_up_reports, **res.outputs})
    reference_ms = statistics.median(res.reference_ns) / 1e6
    metrics = {
        "code_p50_scaled_ms": (geomean(medians) / reference_ms, "ms"),
        "setup_s": (statistics.median(setup_times) / setup_probe_ms, "s"),
    }
    for field_name in ("templates", "memory", "layers"):
        per = [shifted_gmean(v[field_name]) for v in sizes.values()]
        total = sum(sum(v[field_name]) for v in sizes.values())
        metrics[f"encoder_{field_name}"] = (geomean(per), "count")
        extra.append((f"encoder_{field_name} sum", total))
    # report only: these spread too widely across seeds to gate on
    extra += [
        ("code_p50_ms", f"{geomean(medians):.4f} ms"),
        ("reference_ms", f"{reference_ms:.5f} ms (n={len(res.reference_ns)})"),
        ("codes_per_s", f"{geomean(rates):.4f} 1/s"),
        ("peak_rss_mb", f"{rss_mb:.2f} MB"),
        (f"passes {res.passes} wall {wall_s:.3f} s codes {len(res.codes)} "
         f"completed {res.completed_inputs} ({res.completed_inputs / wall_s:.4f} 1/s)", None),
        ("setup_s runs " + " ".join(f"{t:.4f}" for t in setup_times)
         + f" (unscaled s), probe {setup_probe_ms:.5f} ms", None),
        ("failed_share", f"{res.failed / res.attempted:.4f} ({res.failed}/{res.attempted})"),
    ]
    for kind in ("synth", "verify"):
        samples = res.op_ns.get(kind, [])
        if samples:
            extra.append((f"{kind}_p50_ms", f"{median_ms(samples):.3f} ms (n={len(samples)})"))
        if len(samples) >= 100:
            extra.append((f"{kind}_p90_ms", f"{percentile_ms(samples, 90):.3f} ms (n={len(samples)})"))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def traced(workload: Workload, inputs: list[Input], cli, directory: Path):
    """One untraced pass, then two traced passes over the same inputs:
    every third screened input, which keeps the mix of strata (the inputs
    are in shuffled order) and a traced run within about three untraced
    ones.

    Layer metrics are per pass, so the two traced passes must agree
    exactly on every deterministic counter.
    """
    inputs = inputs[::3]
    plain = run_passes(inputs, Runner(cli, directory), workload.subprocess, 0, 1, max_passes=1)
    passes = []
    total = PassResult()
    for _ in range(2):
        tracer = Tracer()
        runner = Runner(cli, directory, tracer)
        tracer.install()
        try:
            res = run_passes(inputs, runner, workload.subprocess, 0, 1, max_passes=1)
        finally:
            tracer.restore()
        passes.append((tracer, runner, res))
        total.attempted += res.attempted
        total.failed += res.failed
        total.wrong += res.wrong
        total.failures.update(res.failures)
    per_pass = [layer_metrics(t, runner.walls, r.passes) for t, runner, r in passes]
    metrics = {k: (per_pass[0][k] + per_pass[1][k]) / 2 for k in per_pass[0]}
    traced_ns = sum(r.wall_ns for _, _, r in passes) / sum(r.passes for _, _, r in passes)
    metrics["trace.overhead_share"] = traced_ns / (plain.wall_ns / plain.passes) - 1
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = interpreter_costs()
    extra = []
    for key in EXACT_COUNTERS:
        a, b = per_pass[0][key], per_pass[1][key]
        extra.append((f"counter {key}", f"{a:.10g} {b:.10g}" + ("" if a == b else "  NONDETERMINISTIC")))
    for t, runner, _ in passes:
        lowest, bad = coverage(t, runner.walls)
        extra.append(("trace coverage", f"lowest {lowest:.4f} tolerance {TRACE_COVERAGE_TOLERANCE}"
                      + (f" outside: {', '.join(bad[:5])}" if bad else " ok")))
    left = leftover_wrappers()
    extra.append(("wrappers left after restore", ", ".join(left) or "none"))
    for key in sorted(metrics):
        extra.append((f"layer {key}", f"{metrics[key]:.6g}"))
    return {k: {"value": metrics[k], "unit": layer_unit(k)} for k in PER_LAYER}, extra, total


def layer_unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_share") or key.endswith("_used"):
        return "share"
    return "count"


# The per-layer metrics of the result line.  Layer times appear as shares
# of the traced ops' wall time: a layer idle on a workload reads 0 there.
# Times in ms (all of them are in the report) only for the layers that
# run on every workload.
PER_LAYER = (
    [f"{span_name(m, a)}.{k}" for m, a in SPANNED for k in ("calls", "busy_share", "self_share")]
    + [f"{name}.{k}" for _, _, _, name in AGGREGATED for k in ("calls", "busy_share")]
    + [
        "smith.col_ops", "smith.row_ops", "synthesis.step2_passes",
        "synthesis.step2_budget_used", "verify.conjugate.block_steps",
        "verify.conjugate.max_blocks", "verify.user_window_share", "verify.roundtrip_rows",
        "cli.main.self_ms", "stabilizer.parse_stabilizer.busy_ms",
        "cli.interpreter_ms", "cli.import_ms", "trace.overhead_share",
    ]
)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the host
    speed probe runs where the ops run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
