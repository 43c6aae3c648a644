"""The traced run: per-layer counts and self times of ``dbase dbase``.

Each instance goes through ``dbase.cli.main([...])`` in-process with stdout
captured, first untraced and then traced.  Tracing wraps the public calls of
each module, the layers: ``cli``, ``model``, ``closure``, ``traversal``,
``dualization`` and ``lattice``.  A function is wrapped in the namespace of
the module that calls it (``dbase.traversal.build_reduced_base``,
``dbase.dualization.dualize_distributive``), because modules bind imported
names at import time; methods are wrapped on their class.  The private
absorption step ``lattice._minimal_masks`` runs inside the dualizer and is
not wrapped, so its time counts toward the dualizer.

A span is (trace id, span id, parent id, name, start, end), with one trace id
per invocation.  Spans stay in memory and are written out, one JSON array per
line, when the run ends.  A span's self time is its duration minus the
durations of its children; calls nest strictly, so children never overlap.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import dbase.cli
import dbase.dualization
import dbase.traversal
from dbase.closure import ClosureContext
from dbase.model import Implication

# (unit, better) of every per-layer metric, in report order.  README.md lists
# the end-to-end metric each should move, and on which workload.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "model.parse_s": ("s", "lower"),
    "model.format.calls": ("count", "lower"),
    "model.format_s": ("s", "lower"),
    "closure.ib.calls": ("count", "lower"),
    "closure.ib.self_s": ("s", "lower"),
    "closure.ib.us_per_call": ("us", "lower"),
    "closure.mi.calls": ("count", "lower"),
    "closure.mi.us_per_call": ("us", "lower"),
    "closure.binary.calls": ("count", "lower"),
    "closure.ctx.builds": ("count", "lower"),
    "closure.ctx.build_s": ("s", "lower"),
    "closure.is_standard.calls": ("count", "lower"),
    "closure.is_standard_s": ("s", "lower"),
    "traversal.reduced_bases": ("count", "lower"),
    "traversal.build_reduced_base_s": ("s", "lower"),
    "traversal.sigma_c_ratio": ("ratio", "lower"),
    "traversal.closure_calls_per_row": ("count", "lower"),
    "traversal.is_d_generator.calls": ("count", "lower"),
    "traversal.dgen_hit_ratio": ("ratio", "higher"),
    "traversal.self_s": ("s", "lower"),
    "dualization.dualize.calls": ("count", "lower"),
    "dualization.dualize.self_s": ("s", "lower"),
    "dualization.dual_size": ("count", "lower"),
    "dualization.self_s": ("s", "lower"),
    "lattice.up_arrow.calls": ("count", "lower"),
    "lattice.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Span recorder for one thread; calls must nest."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.trace_id = 0
        self.sigma = [0, 0]  # sum of |Sigma_c| and of |Sigma| over reduced bases
        self.dual_size = 0

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int | None, name: str, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[sid] = (self.trace_id, sid, parent, name, start, end)

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call's first argument (for methods whose layer depends on self)."""
        def traced(*args, **kwargs):
            label = name(args[0]) if callable(name) else name
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, label, start)
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def wrap_stream(self, name, fn):
        """Wrap a function that returns an iterator: one span for the call,
        then one span named ``name + ".next"`` per item drawn from it."""
        call = self.wrap(name, fn)

        def traced(*args, **kwargs):
            it = iter(call(*args, **kwargs))
            while True:
                sid, parent = self._open()
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, parent, name + ".next", start)
                yield item
        return traced

    def _on_reduced_base(self, args, rb) -> None:
        self.sigma[0] += len(rb.base)
        self.sigma[1] += len(args[0])

    def _on_dual(self, args, dual) -> None:
        self.dual_size += len(dual)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        cli, trav, dual = dbase.cli, dbase.traversal, dbase.dualization
        targets = [
            (cli, "parse_ib", self.wrap("model.parse", cli.parse_ib)),
            (cli, "parse_set_family", self.wrap("model.parse", cli.parse_set_family)),
            (cli, "iter_d_base", self.wrap_stream("traversal.iter_d_base", cli.iter_d_base)),
            (cli, "iter_d_base_from_mi",
             self.wrap_stream("dualization.iter_d_base_from_mi", cli.iter_d_base_from_mi)),
            (trav, "build_reduced_base",
             self.wrap("traversal.build_reduced_base", trav.build_reduced_base,
                       self._on_reduced_base)),
            (trav, "is_d_generator", self.wrap("traversal.is_d_generator", trav.is_d_generator)),
            (trav, "is_standard", self.wrap("closure.is_standard", trav.is_standard)),
            (trav, "binary_part", self.wrap("closure.binary_part", trav.binary_part)),
            (dual, "d_generators_from_mi",
             self.wrap("dualization.d_generators_from_mi", dual.d_generators_from_mi)),
            (dual, "dualize_distributive",
             self.wrap("dualization.dualize", dual.dualize_distributive, self._on_dual)),
            (dual, "up_arrow", self.wrap("lattice.up_arrow", dual.up_arrow)),
            (dual, "is_standard", self.wrap("closure.is_standard", dual.is_standard)),
            (dual, "binary_part", self.wrap("closure.binary_part", dual.binary_part)),
            (dual, "min_spanning_set",
             self.wrap("closure.min_spanning_set", dual.min_spanning_set)),
            (ClosureContext, "__init__",
             self.wrap("closure.ctx.build", ClosureContext.__init__)),
            (ClosureContext, "close_bits",
             self.wrap(lambda ctx: f"closure.{ctx.mode}.close_bits", ClosureContext.close_bits)),
            (ClosureContext, "close_binary_bits",
             self.wrap("closure.binary.close_binary_bits", ClosureContext.close_binary_bits)),
            (Implication, "format", self.wrap("model.format", Implication.format)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total duration, self time)."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, sid, _, name, start, end in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[sid]
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _cli_main(path: Path, source: str) -> tuple[list[str], int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dbase.cli.main(["dbase", str(path), "--from", source])
    return out.getvalue().splitlines(), code


def import_seconds(repeats: int = 5) -> float:
    """Median wall time of ``python -c "import dbase.cli"``."""
    env = dict(os.environ, PYTHONPATH=str(Path(dbase.__file__).parent.parent))
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dbase.cli"], env=env, check=True)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, rows: int, nonbinary: int, ratio: float) -> dict:
    s = tracer.summary()

    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return s.get(name, (0, 0.0, 0.0))[1]

    def self_time(prefix):
        return sum(v[2] for k, v in s.items() if k.startswith(prefix))

    def per_call_us(name):
        return s[name][2] / s[name][0] * 1e6 if name in s else 0.0

    ib_calls, mi_calls = calls("closure.ib.close_bits"), calls("closure.mi.close_bits")
    dgen_calls = calls("traversal.is_d_generator")
    return {
        "model.parse_s": total("model.parse"),
        "model.format.calls": calls("model.format"),
        "model.format_s": total("model.format"),
        "closure.ib.calls": ib_calls,
        "closure.ib.self_s": s.get("closure.ib.close_bits", (0, 0.0, 0.0))[2],
        "closure.ib.us_per_call": per_call_us("closure.ib.close_bits"),
        "closure.mi.calls": mi_calls,
        "closure.mi.us_per_call": per_call_us("closure.mi.close_bits"),
        "closure.binary.calls": calls("closure.binary.close_binary_bits"),
        "closure.ctx.builds": calls("closure.ctx.build"),
        "closure.ctx.build_s": total("closure.ctx.build"),
        "closure.is_standard.calls": calls("closure.is_standard"),
        "closure.is_standard_s": total("closure.is_standard"),
        "traversal.reduced_bases": calls("traversal.build_reduced_base"),
        "traversal.build_reduced_base_s": total("traversal.build_reduced_base"),
        "traversal.sigma_c_ratio": (tracer.sigma[0] / tracer.sigma[1]
                                    if tracer.sigma[1] else 0.0),
        "traversal.closure_calls_per_row": (ib_calls + mi_calls) / rows,
        "traversal.is_d_generator.calls": dgen_calls,
        "traversal.dgen_hit_ratio": nonbinary / dgen_calls if dgen_calls else 0.0,
        "traversal.self_s": self_time("traversal."),
        "dualization.dualize.calls": calls("dualization.dualize"),
        "dualization.dualize.self_s": s.get("dualization.dualize", (0, 0.0, 0.0))[2],
        "dualization.dual_size": tracer.dual_size,
        "dualization.self_s": self_time("dualization."),
        "lattice.up_arrow.calls": calls("lattice.up_arrow"),
        "lattice.self_s": self_time("lattice."),
        "trace.overhead_ratio": ratio,
    }


def traced_run(pool, paths, out_dir: Path, args) -> dict:
    """Untraced then traced in-process invocations of every instance given."""
    tracer = Tracer()
    plain = traced = 0.0
    rows = nonbinary = failed = 0
    for inst, path in zip(pool, paths):
        began = time.perf_counter()
        lines, code = _cli_main(path, inst.source)
        plain += time.perf_counter() - began
        tracer.trace_id += 1
        with tracer.installed():
            began = time.perf_counter()
            traced_lines, traced_code = _cli_main(path, inst.source)
            traced += time.perf_counter() - began
        ok = code == traced_code == 0 and lines == traced_lines and inst.check(lines)
        failed += not ok
        rows += len(traced_lines)
        nonbinary += sum(" " in line.partition(" -> ")[0] for line in traced_lines)
    metrics = {"cli.import_s": import_seconds()}
    metrics.update(layer_metrics(tracer, max(rows, 1), nonbinary, traced / plain))
    spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans)
    print(f"traced invocations: {len(pool)}  spans: {len(tracer.spans)} -> {spans}")
    result = {}
    for name, (unit, _) in PER_LAYER.items():
        value = metrics[name]
        print(f"{name}: {value:.6g} {unit}")
        result[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": len(pool), "failed": failed,
            "metrics": result}
