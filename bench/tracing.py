"""Layer tracing from outside the package.

`Tracer.install()` replaces every module-level binding of the traced
functions in the loaded `qconvenc` modules (and the traced class
attributes) with wrappers; `Tracer.restore()` puts the originals back.
Spans are kept in memory as tuples; the hot polynomial dunders only
aggregate a call count and busy time.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (module, attribute) of each function traced with one span per call
SPANNED = (
    ("qconvenc.cli", "main"),
    ("qconvenc.stabilizer", "parse_stabilizer"),
    ("qconvenc.stabilizer", "validate_code"),
    ("qconvenc.stabilizer", "placement_bits"),
    ("qconvenc.gates", "parse_circuit"),
    ("qconvenc.gates", "format_circuit"),
    ("qconvenc.gates", "apply"),
    ("qconvenc.gates", "depth_schedule"),
    ("qconvenc.smith", "smith"),
    ("qconvenc.synthesis", "synthesize"),
    ("qconvenc.synthesis", "classify"),
    ("qconvenc.synthesis", "build_report"),
    ("qconvenc.verify", "propagation_report"),
    ("qconvenc.verify", "image_reach"),
    ("qconvenc.verify", "conjugate"),
    ("qconvenc.verify", "verify_encoder"),
    ("qconvenc.verify", "stabilizer_window_basis"),
)

# (module, class or None, attribute, metric name) of aggregated functions
AGGREGATED = (
    ("qconvenc.poly", "LaurentPoly", "__mul__", "poly.laurent_mul"),
    ("qconvenc.poly", "LaurentPoly", "__add__", "poly.laurent_add"),
    ("qconvenc.poly", None, "laurent_div", "poly.laurent_div"),
    # Poly.__divmod__ also serves // and %
    ("qconvenc.poly", "Poly", "__divmod__", "poly.poly_divmod"),
    ("qconvenc.matrix", None, "freeze", "matrix.freeze"),
    ("qconvenc.stabilizer", "StabilizerMatrix", "from_rows", "stabilizer.from_rows"),
)

MARK = "__bench_trace__"


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    """Collects spans (name, start_ns, end_ns, span id, parent id, op id)
    and per-function aggregates while installed."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int, str]] = []
        self.aggregates: dict[str, list[int]] = {}
        # counters read from call arguments and results
        self.counts: dict[str, int] = {}
        self.user_windows: frozenset[int] = frozenset()
        self.op = ""
        self._stack: list[int] = [0]
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _observe(self, name: str, args, result) -> None:
        if name == "smith.smith":
            self.count("smith.col_ops", len(result.col_ops))
            self.count("smith.row_ops", len(result.row_ops))
        elif name == "synthesis.synthesize":
            self.count("synthesis.step2_passes", len(result.step2_log) - 1)
            self.count("synthesis.step2_budget", result.step2_budget)
        elif name == "verify.conjugate":
            circuit, blocks = args[0], args[1]
            steps = len(circuit.templates) * blocks
            self.count("verify.conjugate.block_steps", steps)
            if blocks in self.user_windows:
                self.count("verify.conjugate.user_block_steps", steps)
            self.counts["verify.conjugate.max_blocks"] = max(
                self.counts.get("verify.conjugate.max_blocks", 0), blocks
            )
        elif name == "verify.verify_encoder":
            self.count("verify.roundtrip_rows", len(result.rows))

    def _spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._new_id()
            parent = tracer._stack[-1]
            tracer._stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((name, start, end, span_id, parent, tracer.op))
            tracer._observe(name, args, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _aggregated(self, name: str, fn):
        slot = self.aggregates.setdefault(name, [0, 0])

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += perf_counter_ns() - start
                slot[0] += 1

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, modules: list, original, wrapper) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded qconvenc modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "qconvenc"]
        for mod_name, attr in SPANNED:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(modules, original, self._spanned(span_name(mod_name, attr), original))
        for mod_name, cls_name, attr, name in AGGREGATED:
            mod = sys.modules[mod_name]
            if cls_name is None:
                original = getattr(mod, attr)
                self._rebind(modules, original, self._aggregated(name, original))
                continue
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._aggregated(name, raw.__func__)))
            else:
                self._replace(cls, attr, self._aggregated(name, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def merge_child(self, data: dict, spawned: int, done: int, op: str) -> None:
        """Add a traced child process's record as the spans of one op.

        The child's spans hang under `child.run`; process start-up, the
        child's imports and process exit become spans of their own, so the
        op's spans tile its wall time.
        """
        root, run = self._new_id(), self._new_id()
        started, imported, finished = data["started"], data["imported"], data["finished"]
        self.spans.append(("cli.process", spawned, done, root, 0, op))
        self.spans.append(("process.start", spawned, started, self._new_id(), root, op))
        self.spans.append(("child.import", started, imported, self._new_id(), root, op))
        self.spans.append(("child.run", imported, finished, run, root, op))
        self.spans.append(("process.exit", finished, done, self._new_id(), root, op))
        ids = {0: run}
        for span in data["spans"]:
            ids[span[3]] = self._new_id()
        for name, start, end, sid, parent, _ in data["spans"]:
            self.spans.append((name, start, end, ids[sid], ids[parent], op))
        for name, (calls, ns) in data["aggregates"].items():
            slot = self.aggregates.setdefault(name, [0, 0])
            slot[0] += calls
            slot[1] += ns
        for key, value in data["counts"].items():
            if key == "verify.conjugate.max_blocks":
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.count(key, value)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[int, int]:
        """Span id -> self time: duration minus the children's durations."""
        child_ns: dict[int, int] = {}
        for _, start, end, _, parent, _ in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        return {sid: (end - start) - child_ns.get(sid, 0) for _, start, end, sid, _, _ in self.spans}


def leftover_wrappers() -> list[str]:
    """Names of traced bindings that still hold a wrapper (empty after restore)."""
    found = []
    for key, mod in sorted(sys.modules.items()):
        if key.split(".")[0] != "qconvenc":
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{key}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    inner = cvalue.__func__ if isinstance(cvalue, classmethod) else cvalue
                    if hasattr(inner, MARK):
                        found.append(f"{key}.{attr}.{cattr}")
    return found
