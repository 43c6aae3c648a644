"""The closed loop that times ``dbase dbase`` invocations; stdlib only.

    python3 perfbench/loop.py < spec.json > records.json

``run.py`` starts this script as a small process of its own, because a child
process's peak RSS, as ``os.wait4`` reports it, also counts the memory of the
process it was forked from; forked from here, the CLI's figure is its own.

The spec holds ``src`` (put on the CLI's ``PYTHONPATH``), ``seconds``,
``min_passes`` and ``jobs``: one ``[input path, --from value, output stem]``
per corpus instance.  Whole passes over the jobs run, one invocation at a
time, as many as fit in ``seconds`` but at least ``min_passes``.  Each
invocation's stdout goes to ``<stem>.<pass>.out``; its record holds its exit
status, wall time, the arrival times of its rows relative to the launch (a
row's time is when the read that brought it returned), its peak RSS and the
host's slowdown around it.
"""
from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import time

TIMEOUT_S = 60.0
KERNEL_REF_S = 0.046

# The host's slowdowns differ between its virtual CPUs, so the CLI and the
# calibration kernel share one CPU and this process reads the pipe from
# another.
_CPUS = sorted(os.sched_getaffinity(0))
CHILD_CPU, LOOP_CPU = {_CPUS[-1]}, {_CPUS[0]}


def _on_child_cpu() -> None:
    os.sched_setaffinity(0, CHILD_CPU)


def _calibration_base(n: int = 24, m: int = 60) -> list[tuple[int, int]]:
    rng = random.Random("perfbench-calibration")
    imps = []
    for _ in range(m):
        premise = rng.sample(range(n), rng.choice((1, 2, 2, 3)))
        imps.append((sum(1 << i for i in premise),
                     rng.choice([x for x in range(n) if x not in premise])))
    return imps


CALIBRATION_BASE = _calibration_base()


def calibration_kernel(rounds: int = 2000) -> float:
    """Seconds taken, on the CLI's CPU, by a fixed pure-Python closure
    computation that shares no code with dbase: the yardstick for the host's
    current speed, which on shared virtual machines drifts by up to 1.6x over
    tens of seconds.  About KERNEL_REF_S on an idle 2-vCPU Xeon VM."""
    _on_child_cpu()
    began = time.perf_counter()
    for s in range(rounds):
        bits = 1 << s % 24 | 1 << s * 7 % 24 | 1 << s * 13 % 24
        changed = True
        while changed:
            changed = False
            for premise, concl in CALIBRATION_BASE:
                if premise & ~bits == 0 and not bits >> concl & 1:
                    bits |= 1 << concl
                    changed = True
    elapsed = time.perf_counter() - began
    os.sched_setaffinity(0, LOOP_CPU)
    return elapsed


def invoke(src: str, path: str, source: str, out_path: str) -> dict:
    """One CLI run, timed from launch; its stdout is written to ``out_path``."""
    cmd = [sys.executable, "-m", "dbase.cli", "dbase", path, "--from", source]
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)  # it splits each printed row into two writes
    times, chunks = [], []
    timed_out = False
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, preexec_fn=_on_child_cpu)
    fd = proc.stdout.fileno()
    try:
        while True:
            left = start + TIMEOUT_S - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                timed_out = True
                break
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter() - start
            if not chunk:
                break
            chunks.append(chunk)
            times.extend([now] * chunk.count(b"\n"))
    finally:
        proc.stdout.close()
        if timed_out:
            os.kill(proc.pid, signal.SIGKILL)
        # Reaped here rather than through Popen, to get the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path, "wb") as f:
        f.write(b"".join(chunks))
    return {"code": code, "timed_out": timed_out, "wall": wall, "times": times,
            "rss_mb": usage.ru_maxrss / 1024, "output": out_path}


def closed_loop(spec: dict) -> list[list[dict]]:
    """Each job's invocation records, one per pass.  A record's ``speed`` is
    the mean of the kernel times before and after it over KERNEL_REF_S, so
    1.3 means the host ran 1.3x slower than the reference."""
    jobs, seconds, min_passes = spec["jobs"], spec["seconds"], spec["min_passes"]
    records: list[list[dict]] = [[] for _ in jobs]
    began = time.perf_counter()
    passes = 0
    before = calibration_kernel()
    while passes < min_passes or (time.perf_counter() - began) * (passes + 1) / passes <= seconds:
        for (path, source, stem), mine in zip(jobs, records):
            rec = invoke(spec["src"], path, source, f"{stem}.{passes}.out")
            after = calibration_kernel()
            rec["speed"] = (before + after) / 2 / KERNEL_REF_S
            before = after
            mine.append(rec)
        passes += 1
    return records


if __name__ == "__main__":
    os.sched_setaffinity(0, LOOP_CPU)
    json.dump(closed_loop(json.load(sys.stdin)), sys.stdout)
