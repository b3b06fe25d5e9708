"""Batch command-line front end: synth, verify, info.

Exit codes: 0 ok, 1 stdout closed by its reader before the output was
written, 2 parse error (also an unreadable or non-UTF-8 input, an
unwritable --out path or standard output, a bad option value or a
malformed command line), 3 precondition failure, 4 non-clearable reduction
(or an internal degree-growth guard), 5 verification failure.
All numeric output uses the polynomial grammar; identical input and
configuration produce byte-identical output.
"""

from __future__ import annotations

import contextlib
import os
import re
import sys
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
    """The file at `path`, decoded as UTF-8. Its line ends stay as they
    are: the parsers split lines with `str.splitlines`, which reads CRLF
    and CR as LF."""
    try:
        with open(path, "rb") as f:
            return f.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def cmd_synth(args: dict, out) -> int:
    s = parse_stabilizer(_read(args["input"]))
    result = synthesize(s)
    circuit_text = format_circuit(result.encoder)
    if args["out"]:
        _write(args["out"], circuit_text)
    else:
        out.write(circuit_text)
        out.write("\n")
    if args["checkpoints"]:
        out.write(format_checkpoints(s, result))
        out.write("\n")
    out.write(build_report(s, result))
    return EXIT_OK


def cmd_verify(args: dict, out) -> int:
    # verification cost grows faster than the window size, and windows must
    # cover the circuit memory, so this caps template offsets as well
    limit = max_span()
    sizes = args["window_sizes"]
    if sizes[-1] > limit:
        raise PreconditionError(f"window size {sizes[-1]} exceeds the span limit {limit}")
    s = parse_stabilizer(_read(args["stabilizer"]))
    circuit = parse_circuit(_read(args["circuit"]))
    report, checks, error = verify_windows(circuit, sizes, s)
    out.write(render_propagation(report))
    if error is not None:
        raise error
    for chk in checks:
        out.write(render_encoder_check(chk))
    ok = report.verdict == "bounded" and all(chk.ok for chk in checks)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_info(args: dict, out) -> int:
    s = parse_stabilizer(_read(args["input"]))
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


# The command table: argv is read from it, and the usage lines and help
# texts are built from it. An option is (flags, dest, metavar, default,
# help), where a switch has no metavar and sets True; a command is (help,
# positionals as (name, help), options, function).
HELP = (("-h", "--help"), None, None, None, "show this help message and exit")
OPTIONS = (HELP, (("--max-span",), "max_span", "INT", None, "exponent span limit for polynomial arithmetic"))
COMMANDS = {
    "synth": (
        "synthesize an encoder circuit",
        (("input", "stabilizer file"),),
        (
            HELP,
            (("--out",), "out", "OUT", None, "write the encoder circuit to this path"),
            (("--checkpoints",), "checkpoints", None, False, "print the matrix after each reduction step"),
        ),
        cmd_synth,
    ),
    "verify": (
        "verify a circuit against a code",
        (("stabilizer", "stabilizer file"), ("circuit", "circuit file")),
        (HELP, (("--windows",), "windows", "CSV", "5,10,20", "comma-separated window sizes (default 5,10,20)")),
        cmd_verify,
    ),
    "info": ("print code parameters and checks", (("input", "stabilizer file"),), (HELP,), cmd_info),
}
# wrapped as at 80 columns
DESCRIPTION = (
    "Compile quantum convolutional stabilizer codes into shift-invariant finite-\n"
    "depth Clifford encoders, and verify them on finite windows."
)
# a level of the command line is (prog, positionals, options); the
# program's level has no positionals: its first one is the command, whose
# level reads the tokens after it
_PROGRAM = ("qconvenc", None, OPTIONS)
_END = "--"


class UsageExit(Exception):
    """The command line asks for help (code 0) or is malformed (code 2);
    `text` is what to print."""

    def __init__(self, code: int, text: str):
        super().__init__(code, text)
        self.code, self.text = code, text


def _usage(level) -> str:
    prog, positionals, options = level
    words = [f"[{o[0][0]}]" if o[2] is None else f"[{o[0][0]} {o[2]}]" for o in options]
    words += [name for name, _ in positionals] if positionals else ["{%s} ..." % ",".join(COMMANDS)]
    return f"usage: {prog} {' '.join(words)}"


def _help(level) -> str:
    """The help text, laid out as argparse lays it out: the help of every
    row starts in one column, two past the widest row and at most 24."""
    _, positionals, options = level
    if positionals:
        rows = [(2, name, text) for name, text in positionals]
    else:
        rows = [(2, "{%s}" % ",".join(COMMANDS), "")] + [(4, name, c[0]) for name, c in COMMANDS.items()]
    rows += [(2, ", ".join(f if o[2] is None else f"{f} {o[2]}" for f in o[0]), o[4]) for o in options]
    column = min(24, 2 + max(indent + len(head) for indent, head, _ in rows))
    lines = [f"{' ' * indent + head:<{column}}{text}".rstrip() for indent, head, text in rows]
    cut = len(rows) - len(options)
    head = [_usage(level), ""] + ([] if positionals else [DESCRIPTION, ""])
    body = ["positional arguments:", *lines[:cut], "", "options:", *lines[cut:]]
    return "\n".join(head + body) + "\n"


def _fail(level, message: str):
    raise UsageExit(EXIT_PARSE, f"{_usage(level)}\n{level[0]}: error: {message}\n")


def _token(level, flags: dict, token: str):
    """How `token` reads at `level`: None for a positional, else (option,
    flag, the value given with it or None), the option None for a flag
    that the level does not know."""
    if token in flags:
        return flags[token], token, None
    if token[:1] != "-" or len(token) == 1:
        return None
    flag, eq, value = token.partition("=")
    if eq and flag in flags:
        return flags[flag], flag, value
    if token[1] == "-":
        # a unique prefix of a long flag
        found = [(o, f, value if eq else None) for f, o in flags.items() if f.startswith(flag)]
    else:
        # a short flag with its value attached
        found = [(o, f, token[2:]) for f, o in flags.items() if f == token[:2]]
    if len(found) > 1:
        _fail(level, f"ambiguous option: {token} could match {', '.join(f for _, f, _ in found)}")
    if found:
        return found[0]
    # a negative number, or a token with a space, is a positional
    if " " in token or re.match(r"^-\d+$|^-\d*\.\d+$", token):
        return None
    return None, token, None


def _scan(level, tokens: list, args: dict) -> list:
    """Read `tokens` at `level` into `args`, and return those it does not
    know. At the program level the first positional is the command, and
    the command's level reads the tokens after it."""
    prog, positionals, options = level
    flags = {f: o for o in options for f in o[0]}
    # every token is read before any acts, so an ambiguous flag fails even
    # after -h; after `--` every token is a positional
    end = tokens.index(_END) if _END in tokens else len(tokens)
    kinds = [_token(level, flags, t) for t in tokens[:end]] + [_END] + [None] * (len(tokens) - end - 1)
    pending = [name for name, _ in positionals] if positionals else ["command"]
    unknown, k, filled = [], 0, False
    while k < len(tokens):
        kind, token = kinds[k], tokens[k]
        k += 1
        if not positionals and (kind is None or kind is _END and k < len(tokens)):
            if token not in COMMANDS:
                choices = ", ".join(map(repr, COMMANDS))
                _fail(level, f"argument command: invalid choice: {token!r} (choose from {choices})")
            command = (f"{prog} {token}", *COMMANDS[token][1:3])
            args["command"] = token
            args.update((o[1], o[3]) for o in command[2] if o[1])
            return unknown + _scan(command, tokens[k:], args)
        if kind is None:
            filled = bool(pending)
            if filled:
                args[pending.pop(0)] = token
            else:
                unknown.append(token)
            continue
        if kind is _END:
            # a positional next to `--` takes it; a stray one is unknown
            if not (pending or filled):
                unknown.append(token)
            continue
        (opt, flag, value), filled = kind, False
        if opt is None:
            unknown.append(token)
        elif opt[2] is None:
            if value is not None:
                # a switch takes no value, but -hh is -h -h (-h is the only
                # short flag)
                rest = value if flag[1] == "-" else value.lstrip(flag[1])
                if rest or not value:
                    _fail(level, f"argument {'/'.join(opt[0])}: ignored explicit argument {rest!r}")
            if opt is HELP:
                raise UsageExit(EXIT_OK, _help(level))
            args[opt[1]] = True
        else:
            if value is None:
                if k == len(tokens) or kinds[k] is not None:
                    _fail(level, f"argument {'/'.join(opt[0])}: expected one argument")
                value, k = tokens[k], k + 1
            args[opt[1]] = value
    if pending:
        _fail(level, "the following arguments are required: " + ", ".join(pending))
    return unknown


def parse_args(argv: Sequence[str]) -> dict:
    """The command line `argv` (without the program name) as a dict of
    option and positional values, with `command` naming the command.
    Raises `UsageExit` for help or a malformed command line, with the
    usage and the error as argparse printed them."""
    args = {"max_span": None}
    unknown = _scan(_PROGRAM, list(argv), args)
    if unknown:
        _fail(_PROGRAM, "unrecognized arguments: " + " ".join(unknown))
    return args


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    if out is not None:
        return _main(argv, out)
    # the process's stdout, closed early by its reader (`| head`): as in
    # the Note on SIGPIPE of the `signal` docs, exit 1 without a traceback,
    # and point stdout at devnull so that the flush at exit cannot fail.
    # Any other OSError here is stdout's too (`> /dev/full`): commands
    # turn their own file errors into parse errors
    try:
        code = _main(argv, None)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: cannot write standard output: {exc}\n")
        return EXIT_PARSE
    return code


def _main(argv: Optional[Sequence[str]], out) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageExit as exc:
        # help on stdout and usage errors on stderr, or both on the
        # caller's `out`
        (out or (sys.stderr if exc.code else sys.stdout)).write(exc.text)
        return exc.code
    if out is None:
        out = sys.stdout
    # option values: a rejected one runs nothing and leaves the caller's
    # span limit as it was
    try:
        if "windows" in args:
            args["window_sizes"] = _windows(args["windows"])
        scope = contextlib.nullcontext()
        if args["max_span"] is not None:
            try:
                limit = parse_int(args["max_span"])
            except ValueError:
                raise ValueError(f"bad span limit {args['max_span']!r}") from None
            scope = span_limit(limit)
    except ValueError as exc:
        out.write(f"error: {exc}\n")
        return EXIT_PARSE
    try:
        with scope:
            return COMMANDS[args["command"]][3](args, out)
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
