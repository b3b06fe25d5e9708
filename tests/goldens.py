"""The golden CLI transcripts: one row per command, `(argv, golden,
exit code)`, whose output must match `tests/data/<golden>` byte for byte.
Files in argv ending in .stab or .enc are read from tests/data.

rate_third is the worked example, and rate_third_cut.enc its encoder without
the last template.  proper is a Z-only code with divisors of period 4 and
24, whose synthesis takes step-2 Hadamard swaps, the step-5 symmetric
reduction, PL gates and CNOT/CSIGN runs; proper.enc is its encoder.
ladder8 is a gate-built n=8 code whose synthesis applies multi-term CNOT
and CSIGN runs as single polynomial updates and reuses Smith pivots;
ladder8.enc is its encoder (76 templates, memory 10), verified at windows
11, 22 and 44 with a round-trip margin of 10, so the table's first row has
no interior and the round trip checks all six generators on two windows.
span_fallback, under --max-span 12, has a CSIGN run whose update would span
past the limit: the run replays template by template and stops with the
span of the first template to overflow (13; the fused product would report
14).  primitive13 has one primitive divisor of degree 13: its period of
8191 is found without walking it, and its ignored periodic states are
printed as a head of 128 digits.  deep0111 is an n=6 ladder code (the 112th
draw of `bench/corpus.ladder_code` on the second rung from
`random.Random(2101)`) whose fourth row spans nine blocks, D^-3 .. D^5: on
the 6-block window the round-trip basis holds placements truncated at both
edges at once.  noncommuting is the worked example with one term added,
which breaks commutation, and rank_deficient has one row a multiple of the
other: synth reduces each first, and validation reports the failure.
low_span (memory 7), under --max-span 8, synthesizes with its default-limit
transcript: the reduction fits the limit, where validation's commutation
products would span 10.  duplicate_field.enc has a line with a bad integer
and, after it, a repeated field: the repeat is reported.  bad_term.stab has
spaces inside terms and then a bad term in its second row.
bad_f4_term.stab is the worked example's GF(4) form with an empty last term
in its first entry, which every command reports as a bad GF(4) term.
verify returns two errors beside its table: at window 3 no window of the
worked example reaches 2*(memory+1), and under --max-span 8 the row of
wide_row.stab spans 9, though each of its entries is a monomial that
parses, so the rows fail when they are packed for the round trip of
two_streams.enc (n=2, no templates).  help.txt and <command>_help.txt are
the help texts, as argparse printed them at 80 columns before the command
line was read from `cli`'s command table.

`tests/test_cli.py` runs every row in process through `cli.main`.  Run as a
script, this file runs every row through a command, the installed console
script by default, and compares its stdout and exit status:

    python tests/goldens.py
    PYTHONPATH=src python tests/goldens.py python -m qconvenc

It then runs the checks that have no golden file: info and verify on
wide_f4.stab (more generators than qubit streams) exit 3 without a
traceback, verify without its circuit operand exits 2 with nothing on
stdout, synth with `--out /dev/null` exits 0 (the file is written over in
place, and a device takes no truncate), synth into a pipe whose reader
has closed exits 1 with nothing on stderr, and synth into /dev/full (where
there is one) exits 2 with one line on stderr.  It prints each failure and
exits 1 if there was one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"

ROWS = [
    (["synth", "rate_third.stab"], "synth.txt", 0),
    (["synth", "--checkpoints", "rate_third.stab"], "synth_checkpoints.txt", 0),
    (["verify", "--windows", "5,10,20", "rate_third.stab", "rate_third.enc"], "verify.txt", 0),
    (["verify", "--windows", "5,10,20", "rate_third.stab", "rate_third_cut.enc"], "verify_cut.txt", 5),
    (["synth", "--checkpoints", "proper.stab"], "proper_synth_checkpoints.txt", 0),
    (["verify", "--windows", "7,14,28", "proper.stab", "proper.enc"], "proper_verify.txt", 0),
    (["synth", "--checkpoints", "ladder8.stab"], "ladder8_synth_checkpoints.txt", 0),
    (["--max-span", "12", "synth", "span_fallback.stab"], "span_fallback_synth.txt", 4),
    (["synth", "primitive13.stab"], "primitive13_synth.txt", 0),
    (["verify", "--windows", "11,22,44", "ladder8.stab", "ladder8.enc"], "ladder8_verify.txt", 0),
    (["verify", "--windows", "3,6,12", "deep0111.stab", "deep0111.enc"], "deep0111_verify.txt", 0),
    (["synth", "noncommuting.stab"], "noncommuting_synth.txt", 3),
    (["synth", "rank_deficient.stab"], "rank_deficient_synth.txt", 3),
    (["verify", "rate_third.stab", "duplicate_field.enc"], "duplicate_field_verify.txt", 2),
    (["verify", "bad_term.stab", "rate_third.enc"], "bad_term_verify.txt", 2),
    (["--max-span", "8", "synth", "low_span.stab"], "low_span_synth.txt", 0),
    (["info", "bad_f4_term.stab"], "bad_f4_term.txt", 2),
    (["synth", "bad_f4_term.stab"], "bad_f4_term.txt", 2),
    (["verify", "bad_f4_term.stab", "rate_third.enc"], "bad_f4_term.txt", 2),
    (["verify", "--windows", "3", "rate_third.stab", "rate_third.enc"], "verify_no_round_trip.txt", 3),
    (["--max-span", "8", "verify", "--windows", "1,2", "wide_row.stab", "two_streams.enc"],
     "wide_row_verify.txt", 4),
    (["--help"], "help.txt", 0),
    (["-h"], "help.txt", 0),
    (["synth", "--help"], "synth_help.txt", 0),
    (["verify", "--help"], "verify_help.txt", 0),
    (["info", "--help"], "info_help.txt", 0),
]


def data_paths(argv: list[str]) -> list[str]:
    """`argv` with its .stab and .enc operands as paths under tests/data."""
    return [str(DATA / a) if a.endswith((".stab", ".enc")) else a for a in argv]


def main(command: list[str]) -> int:
    failures = []

    def run(argv: list[str], exit_code: int) -> subprocess.CompletedProcess:
        done = subprocess.run(command + data_paths(argv), capture_output=True)
        if done.returncode != exit_code:
            failures.append(f"{' '.join(argv)}: exit {done.returncode}, want {exit_code}")
        return done

    for argv, golden, exit_code in ROWS:
        if run(argv, exit_code).stdout != (DATA / golden).read_bytes():
            failures.append(f"{' '.join(argv)}: stdout differs from {golden}")
    for argv in (["info", "wide_f4.stab"], ["verify", "wide_f4.stab", "one_stream.enc"]):
        done = run(argv, 3)
        if b"Traceback" in done.stdout + done.stderr:
            failures.append(f"{' '.join(argv)}: traceback")
    if run(["verify", "rate_third.stab"], 2).stdout:
        failures.append("verify without a circuit: output on stdout")
    run(["synth", "rate_third.stab", "--out", "/dev/null"], 0)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(command + data_paths(["synth", "rate_third.stab"]),
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    if (done.returncode, done.stderr) != (1, b""):
        failures.append(f"synth into a closed pipe: exit {done.returncode}, stderr {done.stderr[-200:]!r}")
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            done = subprocess.run(command + data_paths(["synth", "rate_third.stab"]),
                                  stdout=full, stderr=subprocess.PIPE)
        if done.returncode != 2 or done.stderr.count(b"\n") != 1:
            failures.append(f"synth into /dev/full: exit {done.returncode}, stderr {done.stderr[-200:]!r}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["qconvenc"]))
