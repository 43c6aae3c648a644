"""Checks of the benchmark's own inputs, references and tracing.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from dbase import ClosureContext, meet_irreducibles  # noqa: E402
from dbase.cli import main as cli_main  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def first_instance(workload: str, seed: int):
    gen, _ = workloads.WORKLOADS[workload]
    return gen(0, random.Random(f"{workload}/{seed}"))


def cli_rows(inst, tmp_path: Path) -> list[str]:
    path = tmp_path / f"{inst.name}.txt"
    path.write_text(inst.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["dbase", str(path), "--from", inst.source]) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    a, b = first_instance(workload, 3), first_instance(workload, 3)
    assert a.text == b.text and a.expected == b.expected
    assert first_instance(workload, 4).text != a.text


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gap_family_is_its_own_meet_irreducibles(n):
    family = workloads.gap_mi(n)
    mi = meet_irreducibles(ClosureContext.from_mi(family))
    assert set(mi.bit_list()) == set(family.bit_list())
    assert len(family) == 3 * n


@pytest.mark.parametrize("seed", range(5))
def test_random_mi_keeps_exactly_the_meet_irreducibles(seed):
    family = workloads.random_mi(random.Random(seed), 10, 14, 0.7)
    mi = meet_irreducibles(ClosureContext.from_mi(family))
    assert set(mi.bit_list()) == set(family.bit_list())


def test_meet_irreducible_members_drops_meets_and_the_ground():
    full = 0b1111
    # 0b0011 is the meet of 0b0111 and 0b1011; the ground is never kept.
    kept = workloads.meet_irreducible_members([0b0111, 0b1011, 0b0011, full, 0b0111], full)
    assert kept == [0b0111, 0b1011]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_accepts_the_cli_and_rejects_tampering(workload, tmp_path):
    inst = first_instance(workload, 1)
    rows = cli_rows(inst, tmp_path)
    assert inst.check(rows)
    assert inst.check(list(reversed(rows)))
    for k in (0, len(rows) - 1):
        assert not inst.check(rows[:k] + rows[k + 1:]), f"row {k} dropped"
        assert not inst.check(rows + [rows[k]]), f"row {k} duplicated"
    assert not inst.check(rows[:-1] + ["not a row"])


def test_traced_counts_repeat_exactly(tmp_path):
    inst = workloads.mi_gap(0, random.Random(0))
    path = tmp_path / "gap.txt"
    path.write_text(inst.text)
    counts = []
    for _ in range(2):
        tracer = layers.Tracer()
        with tracer.installed():
            lines, code = layers._cli_main(path, inst.source)
        assert code == 0 and inst.check(lines)
        counts.append({name: v[0] for name, v in tracer.summary().items()})
    assert counts[0] == counts[1]
    assert counts[0]["dualization.dualize"] == 2 * workloads.GAP_N + 1  # one per element


def test_tracer_self_time_excludes_children():
    tracer = layers.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summary()
    calls, total, self_time = summary["outer"]
    assert calls == 1 and summary["inner"][0] == 3
    assert self_time == pytest.approx(total - summary["inner"][1])


def test_runner_refuses_a_tree_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mi-gap",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
