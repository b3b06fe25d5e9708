import contextlib
import io
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldens import DATA, ROWS, data_paths
from helpers import RATE_THIRD_F4, bounded, build_parser, mutations, watch_kernel
from qconvenc import gates, verify
from qconvenc.cli import COMMANDS, UsageExit, _read, main, parse_args
from qconvenc.errors import WindowTooSmallError
from qconvenc.gates import Circuit, Gate, GateTemplate, parse_circuit
from qconvenc.matrix import unchecked
from qconvenc.poly import max_span
from qconvenc.stabilizer import parse_stabilizer
from qconvenc.synthesis import replay, synthesize

RATE_THIRD = """\
# rate 1/3 example
n=3 r=2
row: 1+D, 1, 1+D | 0, D, D
row: 0, D, D | 1+D, 1+D, 1
"""

BROKEN = """\
n=3 r=2
row: 1+D, 0, 1+D | 0, D, D
row: 0, D, D | 1+D, 1+D, 1
"""

RATE_ZERO = """\
n=1 r=1
row: 0 | 1+D
"""


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestInfo:
    def test_rate_third(self, tmp_path):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        code, text = run(["info", path])
        assert code == 0
        assert text.splitlines()[0] == "n=3 k=1 r=2 m=1 symplectic=ok"

    def test_f4_matches_binary_image(self, tmp_path):
        p1 = write(tmp_path, "bin.stab", RATE_THIRD)
        p2 = write(tmp_path, "f4.stab", RATE_THIRD_F4)
        assert run(["info", p1]) == run(["info", p2])

    def test_rate_zero_rejected(self, tmp_path):
        path = write(tmp_path, "zero.stab", RATE_ZERO)
        code, text = run(["info", path])
        assert code == 3
        assert "r < n violated" in text

    def test_symplectic_violation_reported(self, tmp_path):
        path = write(tmp_path, "bad.stab", BROKEN)
        code, text = run(["info", path])
        assert code == 3
        assert "symplectic=violated" in text
        assert "witness" in text

    def test_systematic_selfdual_status(self, tmp_path):
        systematic = "n=2 r=2\nrow: 1, 0 | 1+D^-1+D, D\nrow: 0, 1 | D^-1, 0\n"
        path = write(tmp_path, "sys.stab", systematic)
        code, text = run(["info", path])
        assert "selfdual=ok" in text
        assert code == 3  # r < n still fails for a square matrix


class TestSynth:
    def test_writes_circuit_and_report(self, tmp_path):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        out_path = tmp_path / "encoder.circ"
        code, text = run(["synth", path, "--out", str(out_path)])
        assert code == 0
        assert "gamma: diag(1, D)" in text
        assert "memory 2" in text
        circuit = parse_circuit(out_path.read_text(encoding="utf-8"))
        assert circuit.n == 3 and circuit.memory == 2

    def test_checkpoints_flag(self, tmp_path):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        code, text = run(["synth", path, "--checkpoints"])
        assert code == 0
        assert "step1 column ops" in text
        assert "step4 csign row 1" in text

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        assert run(["synth", path]) == run(["synth", path])

    def test_precondition_exit(self, tmp_path):
        path = write(tmp_path, "bad.stab", BROKEN)
        code, text = run(["synth", path])
        assert code == 3
        assert "(1,1)" in text  # witness position

    def test_parse_exit(self, tmp_path):
        path = write(tmp_path, "empty.stab", "")
        code, _ = run(["synth", path])
        assert code == 2

    def test_missing_file(self):
        code, _ = run(["synth", "/nonexistent/file.stab"])
        assert code == 2

    def test_shape_error_is_parse_error(self, tmp_path):
        path = write(tmp_path, "shape.stab", "n=0 r=0\n")
        code, text = run(["info", path])
        assert code == 2
        assert "parse error" in text

    def test_max_span_guard(self, tmp_path):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        code, text = run(["--max-span", "3", "synth", path])
        assert code == 4
        assert "span" in text

    # validation runs only after the reduction raises, so neither its
    # commutation products nor a Smith reduction of (X | Z) can overflow
    # first: these spans are the first overflow in synthesis (the full
    # reduction stopped at span 7 on the first code), and the second code,
    # whose full reduction stopped at span 5, synthesizes within the limit
    SPAN_AFTER_CERTIFICATE = "n=3 r=2\nrow: 0, 0, D^-3+D^-2 | D^-5+D^-4+D^-3+D^-2+1, D^-2+D^-1, 0\nrow: 0, 0, D^-1+D^3 | D^-3+D^-1+D^3, 1, 0\n"
    PASSES_AFTER_CERTIFICATE = "n=3 r=2\nrow: D^-4+1, D^-3+D^-2+D, 0 | 0, 0, 0\nrow: D^-2, D^-1+1, 0 | 0, 0, 0\n"

    def test_max_span_overflow_is_the_first_in_synthesis(self, tmp_path):
        path = write(tmp_path, "code.stab", self.SPAN_AFTER_CERTIFICATE)
        assert run(["--max-span", "6", "synth", path]) == (4, "reduction failed: polynomial span 8 exceeds limit 6\n")
        path = write(tmp_path, "passes.stab", self.PASSES_AFTER_CERTIFICATE)
        code, text = run(["--max-span", "4", "synth", path])
        assert code == 0
        assert "gamma: diag(1, D^6)" in text

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_nonpositive_max_span(self, tmp_path, limit):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        assert run(["--max-span", limit, "synth", path]) == (2, "error: span limit must be positive\n")

    def test_unwritable_out(self, tmp_path):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        out_path = tmp_path / "missing" / "encoder.circ"
        code, text = run(["synth", path, "--out", str(out_path)])
        assert code == 2
        assert text.startswith(f"parse error: cannot write {out_path}: ")
        assert text.count("\n") == 1

    def test_out_rewrites_a_longer_file_in_place(self, tmp_path):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        out_path = tmp_path / "encoder.circ"
        out_path.write_text("x" * 4096 + "\n", encoding="utf-8")
        out_path.chmod(0o600)
        inode = out_path.stat().st_ino
        code, report = run(["synth", path, "--out", str(out_path)])
        assert code == 0
        _, full = run(["synth", path])
        assert full == out_path.read_text(encoding="utf-8") + "\n" + report
        assert out_path.stat().st_ino == inode
        assert out_path.stat().st_mode & 0o777 == 0o600

    def test_out_through_a_symlink_writes_its_target(self, tmp_path):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        target = tmp_path / "target.circ"
        (tmp_path / "link.circ").symlink_to(target)
        assert run(["synth", path, "--out", str(tmp_path / "link.circ")])[0] == 0
        assert (tmp_path / "link.circ").is_symlink()
        assert parse_circuit(target.read_text(encoding="utf-8")).memory == 2

    @pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
    def test_out_to_dev_null(self, tmp_path):
        """A character device reports size 0, so nothing truncates it."""
        path = write(tmp_path, "code.stab", RATE_THIRD)
        code, report = run(["synth", path, "--out", "/dev/null"])
        _, full = run(["synth", path])
        assert code == 0
        assert full.endswith("\n" + report) and report.startswith("code: ")

    def test_out_naming_a_directory(self, tmp_path):
        path = write(tmp_path, "code.stab", RATE_THIRD)
        code, text = run(["synth", path, "--out", str(tmp_path)])
        assert code == 2
        assert text.startswith(f"parse error: cannot write {tmp_path}: [Errno 21]")
        assert text.count("\n") == 1

    @pytest.mark.skipif(os.name != "posix", reason="needs os.pipe semantics of POSIX")
    def test_closed_stdout_exits_1_without_a_traceback(self):
        """The process's stdout is a pipe whose reader has gone: the first
        writes fail, and `main` exits 1 with nothing on stderr."""
        read, write_end = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "qconvenc", "synth", str(DATA / "rate_third.stab")],
                stdout=write_end, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_stdout_exits_2_with_one_line(self):
        """Writing stdout fails with ENOSPC: exit 2 and one `error:` line on
        stderr, and the flush at exit stays quiet."""
        with open("/dev/full", "wb") as full:
            done = subprocess.run(
                [sys.executable, "-m", "qconvenc", "synth", str(DATA / "rate_third.stab")],
                stdout=full, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            )
        assert done.returncode == 2
        assert done.stderr.startswith(b"error: cannot write standard output: [Errno 28]")
        assert done.stderr.count(b"\n") == 1


class TestVerify:
    def test_round_trip_exit_zero(self, tmp_path):
        stab_path = write(tmp_path, "code.stab", RATE_THIRD)
        out_path = tmp_path / "encoder.circ"
        assert run(["synth", stab_path, "--out", str(out_path)])[0] == 0
        code, text = run(["verify", stab_path, str(out_path)])
        assert code == 0
        assert "verdict bounded" in text
        assert "result: pass" in text

    def test_mutated_circuit_fails(self, tmp_path):
        stab_path = write(tmp_path, "code.stab", RATE_THIRD)
        out_path = tmp_path / "encoder.circ"
        run(["synth", stab_path, "--out", str(out_path)])
        lines = out_path.read_text(encoding="utf-8").splitlines()
        (tmp_path / "mutated.circ").write_text(
            "\n".join(lines[:-1]) + "\n", encoding="utf-8"
        )
        code, text = run(["verify", stab_path, str(tmp_path / "mutated.circ")])
        assert code == 5
        assert "FAIL" in text

    def test_dimension_mismatch(self, tmp_path):
        stab_path = write(tmp_path, "code.stab", RATE_THIRD)
        (tmp_path / "wrong.circ").write_text("n=2\nH q=1\n", encoding="utf-8")
        code, text = run(["verify", stab_path, str(tmp_path / "wrong.circ")])
        assert code == 3
        assert "dimension mismatch" in text

    @pytest.mark.parametrize(
        "circuit, message",
        [
            ("n=3\nH q=1 q=2\n", "duplicate field q= in 'H q=1 q=2'"),
            ("n=0\n", "need at least one qubit stream, got n=0"),
            ("n=-3\n", "need at least one qubit stream, got n=-3"),
        ],
        ids=["duplicate-field", "zero-streams", "negative-streams"],
    )
    def test_circuit_parse_errors(self, tmp_path, circuit, message):
        stab_path = write(tmp_path, "code.stab", RATE_THIRD)
        circ_path = write(tmp_path, "c.circ", circuit)
        assert run(["verify", stab_path, circ_path]) == (2, f"parse error: {message}\n")

    def test_bad_windows(self, tmp_path):
        stab_path = write(tmp_path, "code.stab", RATE_THIRD)
        (tmp_path / "c.circ").write_text("n=3\n", encoding="utf-8")
        code, _ = run(["verify", stab_path, str(tmp_path / "c.circ"), "--windows", "9,3"])
        assert code == 2

    def test_repeated_window_size(self, tmp_path):
        stab_path = write(tmp_path, "code.stab", RATE_THIRD)
        circ_path = write(tmp_path, "c.circ", "n=3\n")
        code, text = run(["verify", stab_path, circ_path, "--windows", "5,5"])
        assert (code, text) == (2, "error: window sizes must be ascending and non-empty\n")

    def test_rejected_windows_keep_the_span_limit(self, tmp_path):
        stab_path = write(tmp_path, "code.stab", RATE_THIRD)
        circ_path = write(tmp_path, "c.circ", "n=3\n")
        before = max_span()
        assert run(["--max-span", "8", "verify", stab_path, circ_path, "--windows", "9,3"])[0] == 2
        assert max_span() == before

    @pytest.mark.parametrize(
        "options, circuit, windows, message",
        [
            ([], "H q=1", "5,10,10000000", "window size 10000000 exceeds the span limit 65536"),
            # windows must reach memory + 1, so the cap bounds offsets too
            ([], "CNOT c=1 t=2 off=100000", "100001", "window size 100001 exceeds the span limit 65536"),
            (["--max-span", "8"], "H q=1", "5,10", "window size 10 exceeds the span limit 8"),
        ],
    )
    def test_window_above_span_limit(self, tmp_path, options, circuit, windows, message):
        stab_path = write(tmp_path, "code.stab", RATE_THIRD)
        circ_path = write(tmp_path, "c.circ", f"n=3\n{circuit}\n")
        tracemalloc.start()
        try:
            code, text = run([*options, "verify", stab_path, circ_path, "--windows", windows])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, text) == (3, f"precondition failed: {message}\n")
        assert peak < 1 << 20

    def test_windows_are_only_the_given_sizes(self, tmp_path, monkeypatch):
        # the verdict reads polynomial images: verify builds no window of its own
        seen = []

        def recording(c, blocks, lanes, x, z):
            seen.append(blocks)

        watch_kernel(monkeypatch, recording)
        stab_path = str(DATA / "rate_third.stab")
        assert run(["verify", "--windows", "5,10,20", stab_path, str(DATA / "rate_third.enc")])[0] == 0
        # X on stream 2 at D^7 reaches stream 3 at D^8 and back: prefix
        # reach 8 at memory 7, so the 16-block window, below 2*8 + 1, has
        # no seed far enough from both edges to read the push
        circuit = "CNOT c=1 t=2 off=7\n" + "CNOT c=2 t=3 off=1\n" * 2 + "CNOT c=1 t=2 off=7\n" * 39
        circ_path = write(tmp_path, "c.circ", "n=3\n" + circuit)
        assert run(["verify", "--windows", "8,16", stab_path, circ_path])[0] == 5
        # at memory 7 the 8-block window has no interior: no seed to conjugate
        assert set(seen) == {5, 10, 20, 16}

    @pytest.mark.parametrize(
        "options, stabilizer, circuit, windows, message",
        [
            # the verdict overflows before the table prints
            (["--max-span", "5"], "n=2 r=1\nrow: 0, 0 | 1, 0\n",
             "n=2\n" + "CNOT c=1 t=2 off=1\nCNOT c=2 t=1 off=1\n" * 3, "4",
             "polynomial span 6 exceeds limit 5"),
            # no window reaches 2*(memory+1), but the verdict overflows first
            (["--max-span", "4"], RATE_THIRD, (DATA / "rate_third.enc").read_text(encoding="utf-8"), "4",
             "polynomial span 5 exceeds limit 4"),
        ],
        ids=["table-dropped", "no-round-trip-window"],
    )
    def test_seed_images_above_span_limit(self, tmp_path, options, stabilizer, circuit, windows, message):
        stab_path = write(tmp_path, "code.stab", stabilizer)
        circ_path = write(tmp_path, "c.circ", circuit)
        code, text = run([*options, "verify", stab_path, circ_path, "--windows", windows])
        assert (code, text) == (4, f"reduction failed: {message}\n")

    def test_stabilizer_row_above_span_limit(self, tmp_path):
        # the row's exponent envelope is checked before it is packed, so
        # the round trip fails at once instead of walking every shift
        stab_path = write(tmp_path, "code.stab", "n=2 r=1\nrow: 1, D^200000 | 0, 0\n")
        circ_path = write(tmp_path, "c.circ", "n=2\n")
        code, text = run(["verify", "--windows", "1,2", stab_path, circ_path])
        assert code == 4
        assert text.endswith("verdict bounded\nreduction failed: polynomial span 200000 exceeds limit 65536\n")

    def test_one_seed_push_per_command(self, monkeypatch):
        # the verdict and the round-trip margin read one push of the seeds,
        # one walk over every term of every gate, and nothing is kept for
        # the next command on an equal circuit
        calls = []
        seed_walk = verify._seed_walk

        def counting(c, streams):
            def terms(g):
                for ell in g.ells:
                    calls.append((g.kind, g.i, g.j, ell))
                    yield ell

            # the walk's circuit hands out each gate's terms as it reads them
            watched = unchecked(Circuit, {**vars(c), "gates": (Gate(*g[:3], terms(g)) for g in c.gates)})
            calls.append("walk")
            return seed_walk(watched, streams)

        monkeypatch.setattr(verify, "_seed_walk", counting)
        enc_path = DATA / "rate_third.enc"
        templates = [(g.kind, g.i, g.j, g.ell) for g in parse_circuit(enc_path.read_text(encoding="utf-8")).templates]
        argv = ["verify", "--windows", "5,10,20", str(DATA / "rate_third.stab"), str(enc_path)]
        for _ in range(2):
            calls.clear()
            assert run(argv)[0] == 0
            assert calls == ["walk", *templates]

    def test_lowered_span_limit_after_a_default_verify(self):
        # a push that passed under the default limit does not carry over:
        # at --max-span m+1 the same encoder's seed images overflow again
        argv = ["verify", "--windows", "3", str(DATA / "rate_third.stab"), str(DATA / "rate_third.enc")]
        assert run(argv[:2] + ["5,10,20"] + argv[3:])[0] == 0
        assert run(["--max-span", "3", *argv]) == (4, "reduction failed: polynomial span 4 exceeds limit 3\n")

    def test_no_interior_raises_after_the_table(self, tmp_path):
        # memory 1 but image reach 6: window 4 reaches 2*(memory+1) and
        # leaves no interior, so the round trip stops after the whole table
        stab_path = write(tmp_path, "code.stab", "n=2 r=1\nrow: 0, 0 | 1, 0\n")
        circ_path = write(tmp_path, "c.circ", "n=2\n" + "CNOT c=1 t=2 off=1\nCNOT c=2 t=1 off=1\n" * 3)
        out = io.StringIO()
        with pytest.raises(WindowTooSmallError, match="^window 4 leaves no interior at margin 6$"):
            main(["verify", "--windows", "2,4,13", stab_path, circ_path], out=out)
        assert out.getvalue() == "N   max-interior-support\n2   0\n4   4\n13  9\nbound 21  margin 1  verdict bounded\n"

    def test_uncaught_error_leaves_the_span_limit(self, tmp_path):
        # the --max-span scope ends with main, also when the command raises
        # past its handlers
        stab_path = write(tmp_path, "code.stab", "n=2 r=1\nrow: 0, 0 | 1, 0\n")
        circ_path = write(tmp_path, "c.circ", "n=2\n" + "CNOT c=1 t=2 off=1\nCNOT c=2 t=1 off=1\n" * 3)
        before = max_span()
        with pytest.raises(WindowTooSmallError):
            main(["--max-span", "20", "verify", "--windows", "2,4,13", stab_path, circ_path], out=io.StringIO())
        assert max_span() == before


    @pytest.mark.parametrize("name, windows", [("rate_third", "5,10,20"), ("ladder8", "11,22,44")])
    def test_synth_and_verify_build_no_template(self, monkeypatch, tmp_path, name, windows):
        # circuits hold gates: synth writes its encoder from them, and verify
        # parses a gate per line and walks and conjugates the gates, so
        # neither builds a GateTemplate, through its constructor or unchecked
        built = []
        make, new = gates.unchecked, GateTemplate.__new__

        def making(cls, fields):
            built.append(cls)
            return make(cls, fields)

        def constructing(cls, *args):
            built.append("GateTemplate()")
            return new(cls, *args)

        monkeypatch.setattr(gates, "unchecked", making)
        monkeypatch.setattr(GateTemplate, "__new__", constructing)
        stab_path, enc_path = str(DATA / f"{name}.stab"), str(tmp_path / f"{name}.enc")
        assert run(["synth", "--checkpoints", "--out", enc_path, stab_path])[0] == 0
        assert Path(enc_path).read_text(encoding="utf-8") == (DATA / f"{name}.enc").read_text(encoding="utf-8")
        assert run(["verify", "--windows", windows, stab_path, enc_path]) == (
            0,
            (DATA / f"{name}_verify.txt" if name == "ladder8" else DATA / "verify.txt").read_text(encoding="utf-8"),
        )
        assert Circuit in built
        assert GateTemplate not in built and "GateTemplate()" not in built


class TestMoreGeneratorsThanStreams:
    """Codes with r > n.  wide_f4.stab is `f4 n=1` with the row 1, whose
    binary image has r = 2 generators on n = 1 stream, and a symplectic
    violation; SQUARE_FIRST commutes and its first n rows are systematic.
    verify exits 3 before the table, instead of passing on generator 2's
    placements outside the window or overflowing on wide windows; info
    reports them in its exit-3 path instead of raising IndexError."""

    SQUARE_FIRST = "n=1 r=2\nrow: 1 | 0\nrow: 0 | 0\n"
    REJECTED = "precondition failed: more generators than qubit streams: r=2, n=1\n"

    @pytest.mark.parametrize("windows", ["5,10,20", "5,10,40"])
    def test_verify(self, tmp_path, windows):
        for stab_path in (str(DATA / "wide_f4.stab"), write(tmp_path, "square.stab", self.SQUARE_FIRST)):
            argv = ["verify", "--windows", windows, stab_path, str(DATA / "one_stream.enc")]
            assert run(argv) == (3, self.REJECTED)

    def test_info(self, tmp_path):
        assert run(["info", str(DATA / "wide_f4.stab")]) == (
            3,
            "n=1 k=-1 r=2 m=0 symplectic=violated\nviolation witness at (1,2): 1\n",
        )
        assert run(["info", write(tmp_path, "square.stab", self.SQUARE_FIRST)]) == (
            3,
            "n=1 k=-1 r=2 m=0 symplectic=ok\nrejected: r < n violated (r=2, n=1)\n",
        )


# an integer with a digit separator, one in non-ASCII digits, and one that
# was never read: each reader rejects all three with the same message
BAD_INTEGERS = ("1_0", "\u0663", "1x")


class TestIntegerRule:
    """Every integer the CLI reads is ASCII text without digit separators
    (`poly.parse_int`), and a bad one exits 2 with its reader's message."""

    @pytest.mark.parametrize("value", BAD_INTEGERS)
    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=2 r=1\nrow: 0, 0 | 1+D^{}, 0\n", "bad exponent in term 'D^{}'"),
            ("f4 n=2\nrow: wD^{}, 1\n", "bad exponent in GF(4) term 'wD^{}'"),
        ],
        ids=["binary", "f4"],
    )
    def test_exponent(self, tmp_path, text, message, value):
        path = write(tmp_path, "code.stab", text.format(value))
        assert run(["info", path]) == (2, f"parse error: {message.format(value)}\n")

    @pytest.mark.parametrize("value", BAD_INTEGERS)
    @pytest.mark.parametrize(
        "text, field",
        [("n={} r=1\nrow: 0, 0 | 1, 0\n", "n={}"), ("n=2 r={}\nrow: 0, 0 | 1, 0\n", "r={}"), ("f4 n={}\nrow: 1\n", "n={}")],
        ids=["n", "r", "f4"],
    )
    def test_stabilizer_header(self, tmp_path, text, field, value):
        path = write(tmp_path, "code.stab", text.format(value))
        expected = f"parse error: bad integer in header field {field.format(value)!r}\n"
        assert run(["info", path]) == (2, expected)

    @pytest.mark.parametrize("value", BAD_INTEGERS)
    @pytest.mark.parametrize(
        "line, message",
        [
            ("n={}", "bad circuit header 'n={}'"),
            ("n=3\nCNOT c=1 t=2 off={}", "bad template 'CNOT c=1 t=2 off={0}': bad integer for off= in 'CNOT c=1 t=2 off={0}'"),
            ("n=3\nH q={}", "bad template 'H q={0}': bad integer for q= in 'H q={0}'"),
        ],
        ids=["header", "off", "q"],
    )
    def test_circuit(self, tmp_path, line, message, value):
        path = write(tmp_path, "code.enc", line.format(value) + "\n")
        argv = ["verify", str(DATA / "rate_third.stab"), path]
        assert run(argv) == (2, f"parse error: {message.format(value)}\n")

    @pytest.mark.parametrize("value", BAD_INTEGERS)
    def test_windows(self, value):
        windows = f"5,{value},20"
        argv = ["verify", "--windows", windows, str(DATA / "rate_third.stab"), str(DATA / "rate_third.enc")]
        assert run(argv) == (2, f"error: bad window list {windows!r}\n")

    @pytest.mark.parametrize("value", BAD_INTEGERS)
    def test_max_span(self, capsys, value):
        assert run(["--max-span", value, "info", str(DATA / "rate_third.stab")]) == (
            2,
            f"error: bad span limit {value!r}\n",
        )
        assert capsys.readouterr() == ("", "")


MAIN_USAGE = "usage: qconvenc [-h] [--max-span INT] {synth,verify,info} ...\n"
SYNTH_USAGE = "usage: qconvenc synth [-h] [--out OUT] [--checkpoints] input\n"
VERIFY_USAGE = "usage: qconvenc verify [-h] [--windows CSV] stabilizer circuit\n"


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["verify"], 2,
         VERIFY_USAGE + "qconvenc verify: error: the following arguments are required: stabilizer, circuit\n"),
        (["bogus"], 2,
         MAIN_USAGE + "qconvenc: error: argument command: invalid choice: 'bogus' "
         "(choose from 'synth', 'verify', 'info')\n"),
        (["synth", "x.stab", "--nope"], 2, MAIN_USAGE + "qconvenc: error: unrecognized arguments: --nope\n"),
        (["verify", "a", "b", "--windows"], 2,
         VERIFY_USAGE + "qconvenc verify: error: argument --windows: expected one argument\n"),
        (["--help"], 0, (DATA / "help.txt").read_text(encoding="utf-8")),
        (["synth", "--checkpoints=1", "x.stab"], 2,
         SYNTH_USAGE + "qconvenc synth: error: argument --checkpoints: ignored explicit argument '1'\n"),
    ],
    ids=["missing-operands", "unknown-command", "unknown-option", "missing-value", "help", "switch-value"],
)
def test_argparse_exits_become_exit_codes(capsys, argv, code, text):
    # in-process callers get argparse's status, and its usage or help text
    # (as argparse printed it under Python 3.11) on their own `out`, none
    # of it on the process's streams
    assert run(argv) == (code, text)
    assert capsys.readouterr() == ("", "")


# tokens of the differential test: `--` stays out, since argparse's reading
# of it changed between Python 3.10 and 3.13
ARGV_TOKENS = (
    "synth verify info --out --out=o --checkpoints --chec --windows --windows=5,10 --win "
    "--max-span --max-span=8 --max -5 8 -h --help --nope a.stab b.enc 5,10,20"
).split()


class TestCommandLine:
    """The command table's parser reads argv as argparse read it."""

    @staticmethod
    def oracle(argv):
        """argparse's exit code and, for a parse, its values; else the text
        it printed (help on stdout, usage errors on stderr)."""
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                namespace = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, printed.getvalue()
        return 0, vars(namespace)

    @staticmethod
    def table(argv):
        try:
            args = parse_args(argv)
        except UsageExit as exc:
            return exc.code, exc.text
        return 0, {**args, "func": COMMANDS[args["command"]][3]}

    @given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
    @settings(derandomize=True, database=None, deadline=None, max_examples=2000)
    def test_argv_reads_as_argparse_read_it(self, argv):
        (code, got), (want_code, want) = self.table(argv), self.oracle(argv)
        assert code == want_code
        if isinstance(want, dict):
            assert got == want
        else:
            # help texts and the messages are pinned elsewhere
            # (goldens.ROWS, test_argparse_exits_become_exit_codes): the
            # oracle's own wording differs between Python versions
            assert got.partition("\n")[0] == want.partition("\n")[0]

    def test_double_dash_ends_options(self, tmp_path, monkeypatch):
        """After `--` every token is a positional; as in argparse 3.11, a
        positional next to the `--` takes it, and a stray one is unknown."""
        assert parse_args(["synth", "--", "-odd.stab"])["input"] == "-odd.stab"
        args = parse_args(["verify", "a.stab", "--", "-b.enc"])
        assert (args["stabilizer"], args["circuit"]) == ("a.stab", "-b.enc")
        assert run(["synth", "a.stab", "b.stab", "--"]) == (
            2, MAIN_USAGE + "qconvenc: error: unrecognized arguments: b.stab --\n"
        )
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "-odd.stab", RATE_THIRD)
        code, text = run(["synth", "--", "-odd.stab"])
        assert code == 0
        assert text == run(["synth", str(tmp_path / "-odd.stab")])[1]

    @pytest.mark.parametrize(
        "argv, same",
        [
            (["--max=8", "synth", "--chec", "{stab}"], ["--max-span", "8", "synth", "--checkpoints", "{stab}"]),
            (["verify", "{stab}", "--win", "5,10", "{enc}"], ["verify", "--windows", "5,10", "{stab}", "{enc}"]),
            (["verify", "--windows=5,10", "{stab}", "{enc}"], ["verify", "{stab}", "{enc}", "--windows", "5,10"]),
        ],
        ids=["prefixes", "interleaved", "equals"],
    )
    def test_spellings_of_one_command(self, argv, same):
        paths = {"stab": DATA / "rate_third.stab", "enc": DATA / "rate_third.enc"}
        first, second = ([a.format(**paths) for a in v] for v in (argv, same))
        assert run(first) == run(second)
        assert run(first)[0] == 0

    def test_process_streams(self, capsys):
        """Without `out`, help goes to stdout and usage errors to stderr."""
        assert main(["info", "-h"]) == 0
        assert capsys.readouterr() == ((DATA / "info_help.txt").read_text(encoding="utf-8"), "")
        assert main(["synth"]) == 2
        assert capsys.readouterr() == (
            "", SYNTH_USAGE + "qconvenc synth: error: the following arguments are required: input\n"
        )


class TestInputBytes:
    """Inputs are read as bytes and decoded as UTF-8."""

    @pytest.mark.parametrize(
        "command",
        [["info", "{bad}"], ["synth", "{bad}"], ["verify", "{bad}", "{enc}"], ["verify", "{stab}", "{bad}"]],
        ids=["info", "synth", "verify-stabilizer", "verify-circuit"],
    )
    def test_non_utf8_input_is_a_parse_error(self, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"n=3 r=2\xff")
        paths = {"bad": bad, "stab": DATA / "rate_third.stab", "enc": DATA / "rate_third.enc"}
        assert run([a.format(**paths) for a in command]) == (
            2,
            f"parse error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 7: "
            "invalid start byte\n",
        )

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_read_as_lf(self, tmp_path, ending):
        twins = {}
        for name in ("rate_third.stab", "rate_third.enc"):
            twins[name] = tmp_path / name
            twins[name].write_bytes((DATA / name).read_bytes().replace(b"\n", ending))
        stab, enc = str(twins["rate_third.stab"]), str(twins["rate_third.enc"])
        assert parse_stabilizer(_read(stab)) == parse_stabilizer(_read(str(DATA / "rate_third.stab")))
        assert parse_circuit(_read(enc)) == parse_circuit(_read(str(DATA / "rate_third.enc")))
        assert run(["synth", stab]) == run(["synth", str(DATA / "rate_third.stab")])
        assert run(["verify", stab, enc]) == run(data_paths(["verify", "rate_third.stab", "rate_third.enc"]))


class TestReductionGap:
    """Valid ladder codes that `synth` cannot reduce yet: step 4 finds an
    off-diagonal Z entry inside the r x r block that its divisor does not
    divide (ROADMAP item 3; each file's header says how it was drawn)."""

    WITNESSES = ["reduction_gap_n3.stab", "reduction_gap_n8.stab", "reduction_gap_n12.stab"]

    @pytest.mark.parametrize("name", WITNESSES)
    def test_info_accepts_the_code(self, name):
        code, out = run(["info", str(DATA / name)])
        assert code == 0 and "symplectic=ok" in out

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    @pytest.mark.parametrize("name", WITNESSES)
    def test_synth_reduces_the_code(self, name):
        assert run(["synth", str(DATA / name)])[0] == 0


class TestVerifyWitnesses:
    """Codes whose encoders `synth` writes correctly and `verify` mishandles
    (ROADMAP item 4; each file's header says how it was derived): a false
    failure at the default windows, and an uncaught WindowTooSmallError
    when the first window of at least 2(memory+1) blocks holds no shift at
    the round trip's margin."""

    @pytest.mark.parametrize(
        "name, templates, memory", [("false_failure_n4", 36, 9), ("no_interior_n3", 6, 1)]
    )
    def test_synth_writes_the_committed_encoder(self, tmp_path, name, templates, memory):
        stab_path, enc_path = DATA / f"{name}.stab", tmp_path / f"{name}.enc"
        assert run(["synth", str(stab_path), "--out", str(enc_path)])[0] == 0
        assert enc_path.read_bytes() == (DATA / f"{name}.enc").read_bytes()
        encoder = parse_circuit(enc_path.read_text(encoding="utf-8"))
        assert (len(encoder), encoder.memory) == (templates, memory)
        s = parse_stabilizer(stab_path.read_text(encoding="utf-8"))
        result = synthesize(s)
        assert replay(s, result) == result.normal_form

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_verify_passes_the_correct_encoder(self):
        # exits 5 today: generator 1 fails at shift 10, the last interior
        # shift at N=20
        argv = ["verify", str(DATA / "false_failure_n4.stab"), str(DATA / "false_failure_n4.enc")]
        assert run(argv)[0] == 0

    @pytest.mark.xfail(strict=True, raises=WindowTooSmallError, reason="ROADMAP item 4")
    def test_verify_without_an_interior_exits_with_a_documented_code(self):
        # raises today: window 4 leaves no interior at margin 2
        argv = [
            "verify", "--windows", "2,4,8",
            str(DATA / "no_interior_n3.stab"), str(DATA / "no_interior_n3.enc"),
        ]
        assert run(argv)[0] in (0, 2, 3, 4, 5)


class TestGoldenTranscripts:
    """Output byte for byte as committed in tests/data, for each row of
    `goldens.ROWS` (its docstring says what each golden shows)."""

    @pytest.mark.parametrize("argv, golden, exit_code", ROWS)
    def test_transcript(self, argv, golden, exit_code):
        code, text = run(data_paths(argv))
        assert code == exit_code
        assert text.encode("utf-8") == (DATA / golden).read_bytes()


def run_bounded(argv, seconds: float):
    """`run(argv)`, stopped by a real-time alarm after `seconds`."""
    return bounded(seconds, run, argv)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.stab")))
def test_mutated_goldens_exit_with_documented_codes(tmp_path, name):
    """Seeded one-character mutations of every golden stabilizer file, and
    for primitive13 the exponent 13 read as 113 (a divisor of degree 113
    whose period no walk could reach): `synth` and `info`
    each return within 5 s, with exit code 0, 2, 3 or 4 (`cli`'s docstring)
    and no uncaught exception."""
    text = (DATA / name).read_text(encoding="utf-8")
    mutants = list(mutations(text, 2000 + len(name), 150))
    if name == "primitive13.stab":
        mutants.append(text.replace("D^13", "D^113"))
    for k, mutant in enumerate(mutants):
        path = write(tmp_path, f"mutant{k}.stab", mutant)
        for command in ("synth", "info"):
            code, out = run_bounded([command, path], 5.0)
            assert code in (0, 2, 3, 4), (command, mutant, out)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_divisor_near_the_span_limit_prints_the_budget_text(tmp_path):
    """A proper divisor of degree 65,535, just inside the default span
    limit: the order's work budget runs out, and `synth` prints the
    128-digit head with what the head proves, within 5 s (about 0.5 s on
    2 shared vCPUs) and in under 1 KB."""
    path = write(tmp_path, "wide.stab", "n=2 r=1\nrow: 0, 0 | 1+D^5+D^7+D^65535, 0\n")
    code, out = run_bounded(["synth", path], 5.0)
    assert code == 0
    assert ",... (period above 128)\n" in out
    assert len(out) < 1024


def test_deep_code_report_line():
    """tests/data/depth240.stab is draw 0 of Random(5) on the depth-240
    ladder shape (n, r, templates, largest offset) = (12, 8, 240, 4) of
    `bench/corpus.ladder_code`: its encoder's size, memory and depth stay
    as they are.  CI also runs it through `python -m qconvenc synth` under
    a 5 s timeout."""
    code, text = run(["synth", str(DATA / "depth240.stab"), "--out", os.devnull])
    assert code == 0
    assert "\nencoder: 53633 templates, memory 1743, 4673 layers\n" in text


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Start-up: `import qconvenc.cli` adds no `dataclasses` (whose import
    pulls in `inspect`, `ast`, `dis` and `tokenize`, and whose decorator
    generates code per class), no `inspect`, and none of `argparse`,
    `gettext` (which argparse imports) and `pathlib` to the modules a bare
    interpreter, started the same way, already holds."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": "src"}

    def loaded(statement: str) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        return set(proc.stdout.split())

    added = loaded("import qconvenc.cli") - loaded("pass")
    assert "qconvenc.cli" in added
    assert not {"dataclasses", "inspect", "argparse", "gettext", "pathlib"} & added
