"""One sha256 over the CLI's results on a seeded corpus, to check that a
change leaves every output byte-identical.

    PYTHONPATH=src python tests/cli_digest.py

Run it once on each of two checkouts (pointing PYTHONPATH at each one's
`src/`) and compare the digests, or diff its output against the committed
`tests/data/cli_digest.txt`, as CI does.  pytest does not collect this
file.

The corpus is 75 ladder codes (`bench/corpus.ladder_code`, 25 on each of
the first three rungs, seed 31) and 40 proper codes (`corpus.proper_code`,
n=3, r=2, degree 4, seed 5).  Every code goes through `synth
--checkpoints`, `--max-span 8 synth`, `info` and `synth --out`.  Every
encoder that `synth` writes, of memory m, goes through `verify` at the
default windows and at m+1,2(m+1),4(m+1), and so does the encoder cut by
its last template; the encoder also goes through `--max-span m+1 verify
--windows m+1`.  Each call adds its argv (file names without their
directory), its exit code or the text of the exception it raised, and its
output to the digest.  The script prints the digest and the number of calls
per exit code or exception type.

A second section does the same for four invalid mutants of every corpus
code (seed 37): one term added to one entry, which breaks commutation; a
row replaced by a multiple of another, which breaks rank; both at once; and
rows added until r = n.  Each goes through `synth` and `--max-span 8
synth`, and the section prints its own counts and digest.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import corpus  # noqa: E402
from qconvenc.cli import main  # noqa: E402
from qconvenc.gates import parse_circuit  # noqa: E402

LADDER_SEED, LADDER_PER_RUNG = 31, 25
MUTANT_SEED = 37
PROPER_SEED, PROPER_COUNT = 5, 40
# n, r, degree, irreducible, templates, max offset
PROPER_SHAPE = (3, 2, 4, False, 12, 2)


def codes() -> list[corpus.Code]:
    rng = random.Random(LADDER_SEED)
    drawn = [
        corpus.ladder_code(rng, rung, f"ladder{rung[0]}-{k:02d}")
        for rung in corpus.LADDER_RUNGS[:3]
        for k in range(LADDER_PER_RUNG)
    ]
    rng = random.Random(PROPER_SEED)
    drawn += [
        corpus.proper_code(rng, *PROPER_SHAPE, f"proper-{k:02d}") for k in range(PROPER_COUNT)
    ]
    return drawn


class Digest:
    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.results: Counter = Counter()

    def call(self, argv: list[str]) -> int | None:
        out = io.StringIO()
        try:
            result = code = main(argv, out=out)
            self.results[f"exit {code}"] += 1
        except Exception as exc:  # an uncaught error is a result to compare
            result, code = f"{type(exc).__name__}: {exc}", None
            self.results[type(exc).__name__] += 1
        names = [Path(a).name if "/" in a else a for a in argv]
        self.sha.update(repr((names, result, out.getvalue())).encode("utf-8"))
        return code


def parse_code(text: str) -> tuple[int, list, list]:
    """n and the X and Z rows of a binary stabilizer file, entries as
    frozensets of exponents."""
    lines = text.splitlines()
    n = int(lines[0].split()[0][2:])
    x, z = [], []
    for line in lines[1:]:
        left, right = line[len("row:"):].split("|")
        for side, half in ((x, left), (z, right)):
            row = []
            for entry in half.split(","):
                exps: set[int] = set()
                for term in entry.strip().split("+"):
                    if term != "0":
                        exps ^= {0 if term == "1" else 1 if term == "D" else int(term[2:])}
                row.append(frozenset(exps))
            side.append(row)
    return n, x, z


def multiple(rng: random.Random, x_row: list, z_row: list) -> tuple[list, list]:
    """Both sides of a row times D^k or D^k + D^(k+1)."""
    k = rng.randint(-2, 2)
    shifts = (k,) if rng.random() < 0.5 else (k, k + 1)
    sides = []
    for row in (x_row, z_row):
        out = []
        for e in row:
            acc = frozenset()
            for s in shifts:
                acc = acc ^ frozenset(t + s for t in e)
            out.append(acc)
        sides.append(out)
    return sides[0], sides[1]


def mutants(code: corpus.Code, rng: random.Random) -> list[tuple[str, str]]:
    """(name, text) of the code's four invalid mutants."""
    n, x, z = parse_code(code.text)
    r = len(x)
    out = []
    for kind in ("term", "multiple", "both", "wide"):
        mx, mz = [list(row) for row in x], [list(row) for row in z]
        if kind in ("multiple", "both"):
            i, j = rng.sample(range(r), 2)
            mx[i], mz[i] = multiple(rng, x[j], z[j])
        if kind in ("term", "both"):
            # a term on X[i][c] (Z[i][c]) breaks commutation with row j when
            # Z[j][c] (X[j][c]) is nonzero
            spots = [
                (side, i, c)
                for side, other in ((mx, mz), (mz, mx))
                for i in range(r)
                for c in range(n)
                if any(other[j][c] for j in range(r) if j != i)
            ]
            side, i, c = rng.choice(spots)
            exps = [t for row in (mx[i], mz[i]) for e in row for t in e] or [0]
            side[i][c] = side[i][c] ^ {rng.randint(min(exps), max(exps))}
        if kind == "wide":
            for _ in range(n - r):
                row_x, row_z = multiple(rng, *rng.choice(list(zip(x, z))))
                mx.append(row_x)
                mz.append(row_z)
        out.append((f"{code.name}-{kind}", corpus.format_code(n, mx, mz)))
    return out


def run_mutants(directory: Path) -> Digest:
    digest = Digest()
    rng = random.Random(MUTANT_SEED)
    for code in codes():
        for name, text in mutants(code, rng):
            stab = directory / f"{name}.stab"
            stab.write_text(text, encoding="utf-8")
            digest.call(["synth", str(stab)])
            digest.call(["--max-span", "8", "synth", str(stab)])
    return digest


def run(directory: Path) -> Digest:
    digest = Digest()
    for code in codes():
        stab = directory / f"{code.name}.stab"
        stab.write_text(code.text, encoding="utf-8")
        digest.call(["synth", "--checkpoints", str(stab)])
        digest.call(["--max-span", "8", "synth", str(stab)])
        digest.call(["info", str(stab)])
        enc = directory / f"{code.name}.enc"
        if digest.call(["synth", str(stab), "--out", str(enc)]) != 0:
            continue
        text = enc.read_text(encoding="utf-8")
        m = parse_circuit(text).memory
        cut = directory / f"{code.name}_cut.enc"
        cut.write_text("".join(text.splitlines(keepends=True)[:-1]) or text, encoding="utf-8")
        windows = f"{m + 1},{2 * (m + 1)},{4 * (m + 1)}"
        for circuit in (enc, cut):
            digest.call(["verify", str(stab), str(circuit)])
            digest.call(["verify", str(stab), str(circuit), "--windows", windows])
        narrow = str(m + 1)
        digest.call(["--max-span", narrow, "verify", str(stab), str(enc), "--windows", narrow])
    return digest


def report(digest: Digest, label: str) -> None:
    for result, count in sorted(digest.results.items()):
        print(f"{count:5d}  {result}")
    print(f"{sum(digest.results.values())} {label}, sha256 {digest.sha.hexdigest()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        report(run(Path(tmp)), "calls")
        report(run_mutants(Path(tmp)), "invalid-mutant calls")
