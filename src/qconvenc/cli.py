"""Batch command-line front end: synth, verify, info.

Exit codes: 0 ok, 1 stdout closed by its reader before the output was
written, 2 parse error (also an unreadable input, an unwritable --out path
or a bad option value), 3 precondition failure, 4 non-clearable reduction
(or an internal degree-growth guard), 5 verification failure.
All numeric output uses the polynomial grammar; identical input and
configuration produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    ExponentOverflowError,
    LoopLimitError,
    NonClearableError,
    ParseError,
    PreconditionError,
)
from .gates import format_circuit, parse_circuit
from .poly import max_span, parse_int, span_limit
from .stabilizer import check_symplectic, is_systematic, params, parse_stabilizer
from .synthesis import build_report, format_checkpoints, synthesize
from .verify import render_encoder_check, render_propagation, verify_windows

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NONCLEARABLE = 4
EXIT_VERIFICATION = 5


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    """Write `text` over the file at `path`, creating it if missing.

    No O_TRUNC: on ext4 (`auto_da_alloc`), closing a file truncated while
    it held data starts writeback, which costs more than the write. The
    file is cut to the new end only when it held more bytes; a pipe or a
    character device reports size 0, so `/dev/null` and a piped
    `/dev/stdout`, which cannot be truncated, are not. Links are followed;
    an existing file keeps its inode and mode. Nothing is synced."""
    data = text.encode("utf-8")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.write(data)
            if os.fstat(f.fileno()).st_size > len(data):
                f.truncate(len(data))
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def _windows(text: str) -> list[int]:
    try:
        sizes = [parse_int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError(f"bad window list {text!r}") from None
    if not sizes or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ParseError("window sizes must be ascending and non-empty")
    return sizes


def cmd_synth(args: argparse.Namespace, out) -> int:
    s = parse_stabilizer(_read(args.input))
    result = synthesize(s)
    circuit_text = format_circuit(result.encoder)
    if args.out:
        _write(args.out, circuit_text)
    else:
        out.write(circuit_text)
        out.write("\n")
    if args.checkpoints:
        out.write(format_checkpoints(s, result))
        out.write("\n")
    out.write(build_report(s, result))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out) -> int:
    # verification cost grows faster than the window size, and windows must
    # cover the circuit memory, so this caps template offsets as well
    limit = max_span()
    if args.window_sizes[-1] > limit:
        raise PreconditionError(
            f"window size {args.window_sizes[-1]} exceeds the span limit {limit}"
        )
    s = parse_stabilizer(_read(args.stabilizer))
    circuit = parse_circuit(_read(args.circuit))
    report, checks, error = verify_windows(circuit, args.window_sizes, s)
    out.write(render_propagation(report))
    if error is not None:
        raise error
    for chk in checks:
        out.write(render_encoder_check(chk))
    ok = report.verdict == "bounded" and all(chk.ok for chk in checks)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_info(args: argparse.Namespace, out) -> int:
    s = parse_stabilizer(_read(args.input))
    p = params(s)
    chk = check_symplectic(s)
    fields = [f"n={p.n}", f"k={p.k}", f"r={p.r}", f"m={p.memory}"]
    fields.append("symplectic=ok" if chk else "symplectic=violated")
    if is_systematic(s):
        # for X = (I | 0) entry (i, j) of the commutation matrix is
        # Z_ij + Z_ji(1/D): Z's leading block is self-dual iff S commutes
        fields.append("selfdual=ok" if chk else "selfdual=violated")
    out.write(" ".join(fields) + "\n")
    if not chk:
        out.write(
            f"violation witness at ({chk.row_i + 1},{chk.row_j + 1}): {chk.value}\n"
        )
        return EXIT_PRECONDITION
    if s.r >= s.n:
        out.write(f"rejected: r < n violated (r={s.r}, n={s.n})\n")
        return EXIT_PRECONDITION
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so in-process callers reuse it."""
    parser = argparse.ArgumentParser(
        prog="qconvenc",
        description=(
            "Compile quantum convolutional stabilizer codes into "
            "shift-invariant finite-depth Clifford encoders, and verify them "
            "on finite windows."
        ),
    )
    parser.add_argument(
        "--max-span",
        metavar="INT",
        help="exponent span limit for polynomial arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize an encoder circuit")
    p_synth.add_argument("input", help="stabilizer file")
    p_synth.add_argument("--out", help="write the encoder circuit to this path")
    p_synth.add_argument(
        "--checkpoints",
        action="store_true",
        help="print the matrix after each reduction step",
    )
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="verify a circuit against a code")
    p_verify.add_argument("stabilizer", help="stabilizer file")
    p_verify.add_argument("circuit", help="circuit file")
    p_verify.add_argument(
        "--windows",
        default="5,10,20",
        metavar="CSV",
        help="comma-separated window sizes (default 5,10,20)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_info = sub.add_parser("info", help="print code parameters and checks")
    p_info.add_argument("input", help="stabilizer file")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    if out is not None:
        return _main(argv, out)
    # the process's stdout, closed early by its reader (`| head`): as in
    # the Note on SIGPIPE of the `signal` docs, exit 1 without a traceback,
    # and point stdout at devnull so that the flush at exit cannot fail
    try:
        code = _main(argv, None)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


def _main(argv: Optional[Sequence[str]], out) -> int:
    parser = build_parser()
    try:
        if out is None:
            args, out = parser.parse_args(argv), sys.stdout
        else:
            # argparse prints to the process's streams; a caller's `out`
            # takes its help and its usage errors
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has written its usage, or the help, and would exit
        return exc.code
    # option values: a rejected one runs nothing and leaves the caller's
    # span limit as it was
    try:
        if getattr(args, "windows", None) is not None:
            args.window_sizes = _windows(args.windows)
        scope = contextlib.nullcontext()
        if args.max_span is not None:
            try:
                limit = parse_int(args.max_span)
            except ValueError:
                raise ValueError(f"bad span limit {args.max_span!r}") from None
            scope = span_limit(limit)
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return EXIT_PARSE
    try:
        with scope:
            return args.func(args, out)
    except ParseError as exc:
        out.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except PreconditionError as exc:
        out.write(f"precondition failed: {exc}\n")
        return EXIT_PRECONDITION
    except (NonClearableError, LoopLimitError, ExponentOverflowError) as exc:
        out.write(f"reduction failed: {exc}\n")
        return EXIT_NONCLEARABLE


if __name__ == "__main__":
    sys.exit(main())
