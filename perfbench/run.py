"""Benchmark of ``dbase dbase FILE --from ib|mi``, run from the repository root.

    python3 perfbench/run.py --workload ib-lb --seed 1 --seconds 24 --trace 0

``--trace 0`` drives the real CLI as a closed loop with one client: each
invocation starts when the previous one has exited, cycling over the
workload's corpus in as many whole passes as fit in ``--seconds`` (at least
three; see ``loop.py``).  Every streamed row is timestamped as it comes off
the pipe, and every output is checked against an independent reference (see
``workloads.py``).

``--trace 1`` runs ``dbase.cli.main`` in-process instead, once untraced and
once traced, and reports per-layer counts and self times (see ``layers.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give every metric with its
unit and sample count, and ``failed_frac``.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACED_INSTANCES = 2
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Invocation:
    """One CLI run as ``loop.py`` recorded it."""

    def __init__(self, record: dict):
        self.code = record["code"]
        self.timed_out = record["timed_out"]
        self.wall = record["wall"]
        self.times = record["times"]
        self.rss_mb = record["rss_mb"]
        self.speed = record["speed"]
        self.output = Path(record["output"])
        self.ok = False

    @property
    def gaps(self) -> list[float]:
        return [b - a for a, b in zip(self.times, self.times[1:])]


def closed_loop(pool, paths, seconds: float) -> list[list[Invocation]]:
    """Each instance's invocations, timed by ``loop.py`` in a process of its own."""
    spec = {
        "src": str(SRC),
        "seconds": seconds,
        "min_passes": MIN_PASSES,
        "jobs": [[str(path), inst.source, str(path.with_suffix(""))]
                 for inst, path in zip(pool, paths)],
    }
    proc = subprocess.run([sys.executable, str(HERE / "loop.py")], input=json.dumps(spec),
                          capture_output=True, text=True, check=True)
    return [[Invocation(r) for r in mine] for mine in json.loads(proc.stdout)]


def check(pool, runs) -> None:
    """Set ``ok`` on every invocation; each distinct output is checked once."""
    for inst, mine in zip(pool, runs):
        verdicts = {}
        for inv in mine:
            text = inv.output.read_text(encoding="utf-8")
            if text not in verdicts:
                verdicts[text] = inst.check(text.splitlines())
            inv.ok = inv.code == 0 and not inv.timed_out and verdicts[text]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median_of(get):
    return lambda mine: statistics.median(map(get, mine))


def _delay_max_ms(mine) -> float:
    # Rows come in the same order on every pass, so each gap is taken as its
    # median over the passes before the worst one is picked: one stall of the
    # host during one pass cannot become the instance's delay.
    per_row = zip(*([g / r.speed for g in r.gaps] for r in mine))
    return max(map(statistics.median, per_row)) * 1e3


# name -> (unit, value from one instance's correct invocations); a metric is
# the mean of that value over the corpus.  Instances differ in cost, so a
# plain median over all invocations would sit on the boundary between two
# instances and jump with the noise of single samples.  Times are divided by
# the invocation's ``speed`` (see ``loop.py``): they read as seconds on a host
# running the calibration kernel in KERNEL_REF_S.  Raw times are printed next
# to them.
PER_INSTANCE = {
    "wall_s": ("s", _median_of(lambda r: r.wall / r.speed)),
    "setup_s": ("s", _median_of(lambda r: r.times[0] / r.speed)),
    "delay_max_ms": ("ms", _delay_max_ms),
    "peak_rss_mb": ("MB", _median_of(lambda r: r.rss_mb)),
    "raw_wall_s": ("s", _median_of(lambda r: r.wall)),
    "raw_setup_s": ("s", _median_of(lambda r: r.times[0])),
    "host_slowdown": ("x", _median_of(lambda r: r.speed)),
}


END_TO_END = ("wall_s", "setup_s", "delay_max_ms", "peak_rss_mb")


def end_to_end(runs) -> dict[str, tuple[float, str, int]]:
    """Each metric's value, unit and sample count, over correct invocations."""
    done = [[r for r in mine if r.ok] for mine in runs]
    count = sum(map(len, done))
    out = {
        name: (statistics.fmean(map(value, done)), unit, count)
        for name, (unit, value) in PER_INSTANCE.items()
    }
    gaps = [g for mine in done for r in mine for g in r.gaps]
    # Reported only where at least ten gaps lie beyond the 90th percentile.
    if len(gaps) >= 100:
        out["delay_p90_ms"] = (percentile(gaps, 90) * 1e3, "ms", len(gaps))
    return out


def report(runs) -> dict:
    flat = [r for mine in runs for r in mine]
    failed = sum(not r.ok for r in flat)
    print(f"invocations: {len(flat)}  failed: {failed}  failed_frac: {failed / len(flat):.4f}")
    metrics = {}
    if all(any(r.ok for r in mine) for mine in runs):
        for name, (value, unit, count) in end_to_end(runs).items():
            print(f"{name}: {value:.6g} {unit}  (n={count})")
            if name in END_TO_END:
                metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": len(flat), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dbase" / "cli.py").is_file():
        print(f"perfbench: no dbase sources under {SRC}", file=sys.stderr)
        return 2
    # Users run from compiled bytecode, even where this environment would not
    # write it.
    compileall.compile_dir(SRC / "dbase", quiet=1)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    pool = workloads.make_pool(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for inst in pool:
            path = work / f"{inst.name}.txt"
            path.write_text(inst.text, encoding="utf-8")
            paths.append(path)
        if args.trace:
            import layers
            result = layers.traced_run(pool[:TRACED_INSTANCES], paths, WORK, args)
        else:
            runs = closed_loop(pool, paths, args.seconds)
            check(pool, runs)
            result = report(runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
