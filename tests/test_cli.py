"""End-to-end CLI behavior: formats, exit codes, streaming."""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dbase
from dbase import (
    iter_d_base,
    iter_d_base_from_mi,
    parse_ib,
    parse_set_family,
    serialize_ib,
    serialize_set_family,
)
from dbase.cli import build_parser, main
from dbase.gadgets import (
    ReductionReport,
    gen_acyclic_instance,
    gen_lower_bounded_instance,
    random_cnf,
)

from conftest import (
    EX1_MI,
    EX2_IB,
    EX4_DBASE,
    EX5_IB,
    EX6_CNF,
    EX8_MI,
    EX9_IB,
    gap_mi_text,
    random_mi,
)


@pytest.fixture
def ex2_file(tmp_path):
    path = tmp_path / "ex2.ib"
    path.write_text(EX2_IB)
    return str(path)


@pytest.fixture
def ex8_mi_file(tmp_path):
    path = tmp_path / "ex8.mi"
    path.write_text(EX8_MI)
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestClose:
    def test_paper_example(self, capsys, ex2_file):
        code, out = run_main(capsys, "close", ex2_file, "--set", "2 5")
        assert code == 0 and out.strip() == "2 4 5 6"

    def test_from_mi(self, capsys, tmp_path):
        path = tmp_path / "ex1.mi"
        path.write_text(EX1_MI)
        code, out = run_main(capsys, "close", str(path), "--set", "2 5", "--from", "mi")
        assert code == 0 and out.strip() == "2 4 5 6"

    def test_closeb(self, capsys, ex2_file):
        code, out = run_main(capsys, "closeb", ex2_file, "--set", "2 5")
        assert code == 0 and out.strip() == "2 4 5"

    @pytest.mark.parametrize("command", ["close", "closeb"])
    def test_empty_closure_prints_the_empty_set_token(self, capsys, tmp_path, command):
        # As `mi` and the set-family format print it; not an empty line.
        path = tmp_path / "t.ib"
        path.write_text("ground: a b c\na b -> c\n")
        assert run_main(capsys, command, str(path), "--set", "") == (0, ".\n")


class TestDBase:
    def test_sorted_stream_equals_canonical_file(self, capsys, ex2_file):
        code, out = run_main(capsys, "dbase", ex2_file, "--from", "ib")
        assert code == 0
        expected_lines = EX4_DBASE.strip().splitlines()[1:]  # drop ground line
        assert sorted(out.strip().splitlines()) == sorted(expected_lines)

    def test_from_mi_fourteen_implications(self, capsys, ex8_mi_file):
        code, out = run_main(capsys, "dbase", ex8_mi_file, "--from", "mi")
        assert code == 0
        assert len(out.strip().splitlines()) == 14

    def test_max_states_zero_exits_1(self, capsys, tmp_path):
        path = tmp_path / "one.ib"
        path.write_text("ground: 1 2 3\n1 2 -> 3\n")
        code, _ = run_main(capsys, "dbase", str(path), "--max-states", "0")
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [["--order", "size-label"], ["--max-states", "0"], ["--allow-empty-premise"]],
    )
    def test_from_mi_rejects_ib_route_options(self, capsys, ex8_mi_file, flags):
        with pytest.raises(SystemExit) as exc:
            main(["dbase", ex8_mi_file, "--from", "mi", *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_both_routes_agree_canonicalized(self, capsys, tmp_path, ex2_file):
        _, from_ib = run_main(capsys, "dbase", ex2_file, "--from", "ib")
        mi_path = tmp_path / "ex1.mi"
        mi_path.write_text(EX1_MI)
        _, from_mi = run_main(capsys, "dbase", str(mi_path), "--from", "mi")
        assert sorted(from_ib.splitlines()) == sorted(from_mi.splitlines())

    @pytest.mark.parametrize(
        "argv",
        [
            ["dbase", "--max-states", "-1"],
            ["dbase", "--max-ground", "-5"],
            ["cdb", "--max-oracle", "-1"],
            ["oracle", "dbase", "--max-oracle", "-1"],
            ["mi", "--max-desk", "-1"],
            ["classify", "--max-desk", "-1"],
        ],
    )
    def test_negative_cap_is_usage_error(self, capsys, ex2_file, argv):
        # ex2 has a non-binary target, so a negative visited-set cap used to
        # be reached; the ground caps used to reject every input.
        with pytest.raises(SystemExit) as exc:
            main([*argv[:-2], ex2_file, *argv[-2:]])
        assert exc.value.code == 2
        assert f"{argv[-2]}: must not be negative" in capsys.readouterr().err


_GADGET_CNF = random_cnf(random.Random(1), 9, 7)
_PINNED_INPUTS = {
    "ex9": EX9_IB,
    "lb": serialize_ib(gen_lower_bounded_instance(_GADGET_CNF)[0]),
    "acg": serialize_ib(gen_acyclic_instance(_GADGET_CNF)[0]),
    "ex1-mi": EX1_MI,
}

# SHA-256 of the exact ``dbase dbase`` stdout, rows in emitted order.
PINNED_STDOUT = [
    ("ex9", ["--order", "size-label"],
     "71397b1535efa0a25946619889bbdc4f0ab13d2c5f9ad647d9ae52bf1ab1e4b2"),
    ("ex9", ["--order", "natural"],
     "150e261aa404a51184274f8ae5dfc16f6091924250f058f8f6d58f63e8ff515d"),
    ("lb", ["--order", "size-label"],
     "db4c87ca5fc7c00a0ca100ecf16a70acadee3a274dede30f82d9fc4cfe81eec2"),
    ("lb", ["--order", "natural"],
     "db4c87ca5fc7c00a0ca100ecf16a70acadee3a274dede30f82d9fc4cfe81eec2"),
    ("acg", ["--order", "size-label"],
     "9d0889c20e902a7a9b32d4375b705503ee8108d9534ada3054a9c6c4b2591327"),
    ("acg", ["--order", "natural"],
     "9d0889c20e902a7a9b32d4375b705503ee8108d9534ada3054a9c6c4b2591327"),
    ("ex1-mi", ["--from", "mi"],
     "3cbcd5e4abf2e92dc8ab4ab830a69ebeb49c14a2fdaaea4791b8588d3ef1b156"),
]


@pytest.mark.parametrize(
    "name, flags, digest", PINNED_STDOUT, ids=[f"{n}-{f[-1]}" for n, f, _ in PINNED_STDOUT]
)
def test_dbase_stdout_is_pinned(capsys, tmp_path, name, flags, digest):
    path = tmp_path / f"{name}.txt"
    path.write_text(_PINNED_INPUTS[name])
    code, out = run_main(capsys, "dbase", str(path), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The same six IB runs with their rows sorted: the set of rows, which a
# change of traversal order keeps.
PINNED_ROW_SETS = [
    ("ex9", ["--order", "size-label"],
     "fbbbd0146d3fb09854a52ea24d0f1c76a9428c77b192320eb7675a4fac542da1"),
    ("ex9", ["--order", "natural"],
     "fbbbd0146d3fb09854a52ea24d0f1c76a9428c77b192320eb7675a4fac542da1"),
    ("lb", ["--order", "size-label"],
     "992dd8d8a9bb16b445b0fc3e80ebb4dab47b773e3d5c860475c30a2c3e0c9247"),
    ("lb", ["--order", "natural"],
     "992dd8d8a9bb16b445b0fc3e80ebb4dab47b773e3d5c860475c30a2c3e0c9247"),
    ("acg", ["--order", "size-label"],
     "1a2cf80760b6011be21a00b93bef185826f18b673633f61a769f9c69ed266627"),
    ("acg", ["--order", "natural"],
     "1a2cf80760b6011be21a00b93bef185826f18b673633f61a769f9c69ed266627"),
]


@pytest.mark.parametrize(
    "name, flags, digest", PINNED_ROW_SETS, ids=[f"{n}-{f[-1]}" for n, f, _ in PINNED_ROW_SETS]
)
def test_dbase_row_set_is_pinned(capsys, tmp_path, name, flags, digest):
    path = tmp_path / f"{name}.txt"
    path.write_text(_PINNED_INPUTS[name])
    code, out = run_main(capsys, "dbase", str(path), *flags)
    assert code == 0
    rows = "\n".join(sorted(out.splitlines()))
    assert hashlib.sha256(rows.encode()).hexdigest() == digest


class TestOtherCommands:
    def test_mi(self, capsys, ex2_file):
        code, out = run_main(capsys, "mi", ex2_file)
        assert code == 0
        body = {line for line in out.strip().splitlines()[1:]}
        assert "3 5 6" in body and len(body) == 8

    def test_binary_part(self, capsys, ex2_file):
        code, out = run_main(capsys, "binary-part", ex2_file)
        assert code == 0
        assert out.strip().splitlines()[1:] == ["2 -> 4", "6 -> 5"]

    def test_cdb(self, capsys, ex2_file):
        code, out = run_main(capsys, "cdb", ex2_file)
        assert code == 0 and len(out.strip().splitlines()) == 13  # ground + 12

    def test_cdb_prints_an_empty_premise_as_a_bare_arrow(self, capsys, tmp_path):
        path = tmp_path / "f.ib"
        path.write_text("ground: a b c\n-> a\na b -> c\n")
        code, out = run_main(capsys, "cdb", str(path), "--allow-empty-premise")
        assert code == 0
        assert out == "ground: a b c\nb -> c\n-> a\n"

    def test_dualize(self, capsys, tmp_path):
        ib = tmp_path / "ex5.ib"
        ib.write_text(EX5_IB)
        fam = tmp_path / "bplus.sf"
        fam.write_text("ground: 1 2 3 4 5\n1 2\n1 4\n4 5\n")
        code, out = run_main(capsys, "dualize", str(ib), str(fam))
        assert code == 0
        assert out.strip().splitlines()[1:] == ["1 2 3", "1 2 4", "1 4 5"]

    @pytest.mark.parametrize(
        "ib_text, b_plus",
        [
            (EX5_IB, "ground: 1 2 3 4 5\n1 2\n1 4\n4 5\n"),
            ("ground: 1 2 3 4\n1 -> 2\n2 -> 1\n3 -> 4\n", "ground: 1 2 3 4\n1 2\n3 4\n"),
        ],
        ids=["ex5", "cyclic"],
    )
    def test_oracle_dual_prints_what_dualize_prints(self, capsys, tmp_path, ib_text, b_plus):
        ib = tmp_path / "base.ib"
        ib.write_text(ib_text)
        fam = tmp_path / "bplus.sf"
        fam.write_text(b_plus)
        code, want = run_main(capsys, "dualize", str(ib), str(fam))
        assert code == 0 and len(want.splitlines()) > 1
        assert run_main(capsys, "oracle", "dual", str(ib), str(fam)) == (0, want)

    @pytest.mark.parametrize("command", [["dualize"], ["oracle", "dual"]])
    @pytest.mark.parametrize(
        "names, member", [("x y z", "x y"), ("1 2 3 4 5", "4 5"), ("3 2 1", "3")]
    )
    def test_dual_of_antichain_over_other_ground_is_1(
        self, capsys, tmp_path, command, names, member
    ):
        # Masks were read by position, so these printed a dual, crashed or
        # blamed the wrong set.
        ib = tmp_path / "chain.ib"
        ib.write_text("ground: 1 2 3\n1 -> 2\n")
        fam = tmp_path / "bplus.sf"
        fam.write_text(f"ground: {names}\n{member}\n")
        code = main([*command, str(ib), str(fam)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert names in captured.err

    @pytest.mark.parametrize(
        "family, message",
        [
            ("a b\na\n", "{a} is not closed"),
            ("a b\na b c d\n", "{a b} and {a b c d} are comparable"),
        ],
        ids=["not-closed", "not-antichain"],
    )
    def test_dual_commands_reject_the_same_b_plus(self, capsys, tmp_path, family, message):
        # The oracle used to dualize a B+ that ``dualize`` rejects.
        ib = tmp_path / "two.ib"
        ib.write_text("ground: a b c d\na -> b\nc -> d\n")
        fam = tmp_path / "bplus.sf"
        fam.write_text("ground: a b c d\n" + family)
        errors = []
        for command in (["dualize"], ["oracle", "dual"]):
            code = main([*command, str(ib), str(fam)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == f"dbase: error: {message}\n"

    def test_relations(self, capsys, tmp_path):
        path = tmp_path / "ex1.mi"
        path.write_text(EX1_MI)
        code, out = run_main(capsys, "relations", str(path), "--d")
        assert code == 0
        lines = out.strip().splitlines()
        assert "6 -> 5" in lines and len(lines) == 9
        code, out = run_main(capsys, "relations", str(path), "--delta")
        assert code == 0 and len(out.strip().splitlines()) == 14

    def test_classify(self, capsys, ex2_file):
        code, out = run_main(capsys, "classify", ex2_file)
        assert code == 0
        assert out == (
            "is_acyclic: false\nis_lower_bounded: true\ngraph_acyclic: false\n"
        )

    def test_oracle_dgens(self, capsys, ex2_file):
        code, out = run_main(capsys, "oracle", "dgens", ex2_file, "-c", "6")
        assert code == 0
        assert out.strip().splitlines() == ["3 4", "3 5", "4 5"]

    def test_oracle_dbase_from_both_sources(self, capsys, ex2_file, tmp_path):
        mi = tmp_path / "ex1.mi"
        mi.write_text(EX1_MI)
        assert run_main(capsys, "oracle", "dbase", ex2_file) == (0, EX4_DBASE)
        assert run_main(capsys, "oracle", "dbase", str(mi), "--from", "mi") == (
            0, EX4_DBASE,
        )

    def test_oracle_drel_equals_relations_d(self, capsys, tmp_path):
        mi = tmp_path / "ex1.mi"
        mi.write_text(EX1_MI)
        code, expected = run_main(capsys, "relations", str(mi), "--d")
        assert code == 0 and len(expected.splitlines()) == 9
        assert run_main(capsys, "oracle", "drel", str(mi), "--from", "mi") == (
            0, expected,
        )

    def test_one_in_three(self, capsys, tmp_path):
        path = tmp_path / "ex6.cnf"
        path.write_text(EX6_CNF)
        code, out = run_main(capsys, "one-in-three", str(path))
        assert code == 0
        assert sorted(out.split()) == ["1", "2", "3", "4", "5"]  # {3},{1 4},{2 5}


class TestGenVerifySat:
    def test_gen_sat_writes_sidecar(self, capsys, tmp_path):
        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        out_ib = tmp_path / "gadget.ib"
        code, _ = run_main(
            capsys, "gen-sat", str(cnf), "--reduction", "acg", "-o", str(out_ib)
        )
        assert code == 0
        meta = json.loads((tmp_path / "gadget.json").read_text())
        assert meta == {
            "reduction": "acg",
            "source": "_c1",
            "target": "_c4",
            "question": "target D source",
        }
        text = out_ib.read_text()
        assert text.startswith("ground: _c1 _c2 _c3 _c4 1 2 3 4 5")
        assert len(text.strip().splitlines()) == 1 + 16

    def test_gen_sat_output_named_like_its_sidecar_is_1(self, capsys, tmp_path):
        # The sidecar used to overwrite the IB it was written next to.
        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        out_json = tmp_path / "inst.json"
        code = main(["gen-sat", str(cnf), "--reduction", "lb", "-o", str(out_json)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "sidecar would overwrite it" in captured.err
        assert not out_json.exists()

    def test_gen_sat_stdout_has_comment_sidecar(self, capsys, tmp_path):
        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        code, out = run_main(capsys, "gen-sat", str(cnf), "--reduction", "lb")
        assert code == 0
        assert "# sidecar: " in out
        meta = json.loads(out.rsplit("# sidecar: ", 1)[1])
        assert meta["source"] == "_a" and meta["target"] == "_b"

    def test_gen_sat_output_dash_is_stdout(self, capsys, tmp_path, monkeypatch):
        # ``-o -`` used to write files named ``-`` and ``-.json``.
        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        monkeypatch.chdir(tmp_path)
        code, want = run_main(capsys, "gen-sat", str(cnf), "--reduction", "lb")
        assert code == 0
        code, out = run_main(capsys, "gen-sat", str(cnf), "--reduction", "lb", "-o", "-")
        assert code == 0 and out == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ex6.cnf"]

    def test_verify_sat_ok(self, capsys, tmp_path):
        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        code, out = run_main(capsys, "verify-sat", str(cnf), "--reduction", "acg")
        assert code == 0 and "biconditional: true" in out

    @pytest.mark.parametrize("reduction", ["lb", "acg"])
    def test_verify_sat_honours_max_oracle(self, capsys, tmp_path, reduction):
        # Both gadgets of this 9-variable formula exceed the default cap of 16.
        cnf = tmp_path / "x.cnf"
        cnf.write_text(
            "vars: a b c d e f g h i\n"
            "a b c\nc d e\ne f g\ng h i\na d g\nb e h\nc f i\n"
        )
        code, out = run_main(
            capsys, "verify-sat", str(cnf), "--reduction", reduction, "--max-oracle", "18"
        )
        assert code == 0 and "biconditional: true" in out

    def test_verify_sat_random(self, capsys):
        code, out = run_main(
            capsys, "verify-sat", "--reduction", "lb", "--random", "5",
            "--vars", "5", "--clauses", "3", "--seed", "1",
        )
        assert code == 0 and "5/5 random instances ok" in out

    def test_verify_sat_needs_a_file_or_random(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-sat", "--reduction", "lb"])
        assert exc.value.code == 2
        assert "needs a CNF file or --random COUNT" in capsys.readouterr().err

    def test_verify_sat_random_reports_a_failing_instance(self, capsys, monkeypatch):
        def failing(cnf, which, *, max_ground):
            return ReductionReport(which, True, True, {"structure": False})

        monkeypatch.setattr("dbase.cli.verify_reduction", failing)
        code, out = run_main(
            capsys, "verify-sat", "--reduction", "lb", "--random", "1", "--seed", "1",
        )
        assert code == 1
        assert out.startswith("FAIL on instance 0:\n")
        assert out.endswith("0/1 random instances ok\n")

    @pytest.mark.parametrize(
        "flags",
        [["--random", "-3"], ["--random", "2", "--vars", "2"],
         ["--random", "2", "--clauses", "0"]],
    )
    def test_verify_sat_random_rejects_bad_counts(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["verify-sat", "--reduction", "lb", *flags])
        assert exc.value.code == 2
        assert flags[-2] in capsys.readouterr().err


class TestExitCodes:
    def test_domain_error_is_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.ib"
        bad.write_text("ground: a b\na -> c\n")
        code = main(["close", str(bad), "--set", "a"])
        captured = capsys.readouterr()
        assert code == 1 and "error" in captured.err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("dbase", "ground: a .\n", "invalid element label '.'"),
            ("dbase", "ground: a a->b\n", "invalid element label 'a->b'"),
            ("dbase", "# only a comment\n", "missing ground line"),
            ("dbase", "ground:\n", "ground line declares no elements"),
            ("dbase", "ground: a b\na ->b\n", "malformed arrow in line 'a ->b'"),
            ("dbase", "ground: a b\na b ->\n", "missing conclusion in line 'a b ->'"),
            ("one-in-three", "1 2 3\n", "first line must start with 'vars:'"),
            ("one-in-three", "vars:\n1 2 3\n", "vars line declares no variables"),
        ],
    )
    def test_rejected_input_is_1(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        code = main([command, str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"dbase: error: {message}\n"

    def test_verify_sat_random_past_the_assignment_cap_is_1(self, capsys):
        # Seed 0's first instance draws 27 of the 40 allowed variables.
        code = main(
            ["verify-sat", "--reduction", "lb", "--random", "2", "--vars", "40", "--seed", "0"]
        )
        assert code == 1
        assert capsys.readouterr().err == "dbase: error: 27 variables exceeds maximum 16\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--vars", "1000000000"], "variables exceeds maximum 16"),
            (["--vars", "3", "--clauses", "1000000000"], "elements exceeds oracle maximum 16"),
            (["--clauses", "40", "--max-oracle", "64"], "elements exceeds oracle maximum 24"),
        ],
    )
    def test_verify_sat_random_checks_sizes_before_building(
        self, capsys, monkeypatch, flags, message
    ):
        # random_cnf is never asked for a formula past a cap: a huge count
        # would exhaust memory before any check inside verify_reduction.
        real = random_cnf

        def spy(rng, n_vars, n_clauses):
            if n_vars > 16 or n_vars + n_clauses + 2 > 24:
                pytest.fail(f"asked for {n_vars} variables and {n_clauses} clauses")
            return real(rng, n_vars, n_clauses)

        monkeypatch.setattr("dbase.cli.random_cnf", spy)
        code = main(["verify-sat", "--reduction", "lb", "--random", "3", *flags])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_oracle_ceiling_is_1(self, capsys, tmp_path):
        big = tmp_path / "big.ib"
        big.write_text("ground: " + " ".join(f"x{i}" for i in range(33)) + "\n")
        code = main(["cdb", str(big), "--max-oracle", "64"])
        captured = capsys.readouterr()
        assert code == 1 and "33 elements exceeds oracle maximum 24" in captured.err

    @pytest.mark.parametrize("descriptor", [False, True], ids=["in-memory", "pipe"])
    def test_broken_pipe_is_0(self, monkeypatch, ex2_file, descriptor):
        # Given a descriptor, main points it at the null device, so what is
        # still buffered flushes at exit without a second broken pipe.
        read_end, write_end = os.pipe()

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        if descriptor:
            ClosedPipe.fileno = lambda self: write_end
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["dbase", ex2_file]) == 0
            nulled = os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
            assert nulled == descriptor
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_broken_pipe_on_the_mi_route_is_0(self, monkeypatch, ex8_mi_file):
        # The first batch, the binary part, meets a closed pipe in its one write.
        writes = []

        class ClosedPipe:
            def write(self, text):
                writes.append(text)
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["dbase", ex8_mi_file, "--from", "mi"]) == 0
        assert writes == ["3 -> 2\n4 -> 2\n"]

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["close"])  # missing file and --set
        assert exc.value.code == 2

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [([], "the following arguments are required: command"),
         (["nope"], "argument command: invalid choice: 'nope' (choose from 'close',")],
    )
    def test_top_level_errors_name_the_command_argument(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"dbase: error: {message}" in capsys.readouterr().err

    UNUSABLE = {
        "missing": "cannot read '{p}': No such file or directory",
        "directory": "cannot read '{p}': Is a directory",
        "bad-bytes": "cannot read '{p}': not UTF-8 text (invalid start byte)",
        "bad-stdin": "cannot read '-': not UTF-8 text (invalid start byte)",
        "gen-sat-output": "cannot write '{p}': No such file or directory",
        "gen-sat-sidecar": "cannot write '{p}': Is a directory",
    }

    @pytest.mark.parametrize("case", UNUSABLE)
    def test_unusable_file_is_1(self, capsys, monkeypatch, tmp_path, case):
        import io

        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        gen_sat = ["gen-sat", str(cnf), "--reduction", "lb", "-o"]
        if case == "missing":
            path = tmp_path / "missing.ib"
            argv = ["dbase", str(path)]
        elif case == "directory":
            path = tmp_path
            argv = ["dbase", str(path)]
        elif case == "bad-bytes":
            path = tmp_path / "bytes.ib"
            path.write_bytes(b"ground: a\n\xff\n")
            argv = ["dbase", str(path)]
        elif case == "bad-stdin":
            path = "-"
            stdin = io.TextIOWrapper(io.BytesIO(b"ground: a\n\xff\n"), encoding="utf-8")
            monkeypatch.setattr(sys, "stdin", stdin)
            argv = ["dbase", path]
        elif case == "gen-sat-output":
            path = tmp_path / "no" / "dir" / "x.ib"
            argv = gen_sat + [str(path)]
        else:
            path = tmp_path / "x.json"
            path.mkdir()
            argv = gen_sat + [str(tmp_path / "x.ib")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "dbase: error: " + self.UNUSABLE[case].format(p=path) + "\n"

    def test_gadget_generation_roundtrips_through_cli(self, capsys, tmp_path):
        # gen-sat output must be consumable by the other subcommands.
        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        out_ib = tmp_path / "gadget.ib"
        run_main(capsys, "gen-sat", str(cnf), "--reduction", "acg", "-o", str(out_ib))
        code, out = run_main(capsys, "classify", str(out_ib))
        assert code == 0 and "graph_acyclic: true" in out


_IB_INPUT = {"--max-ground", "--allow-empty-premise"}
_ORACLE_INPUT = _IB_INPUT | {"--from", "--max-oracle"}

# The long options each parser accepts: exactly those its handler reads.
OPTIONS = {
    "close": _IB_INPUT | {"--from", "--set"},
    "closeb": _IB_INPUT | {"--from", "--set"},
    "binary-part": _IB_INPUT | {"--from"},
    "mi": _IB_INPUT | {"--max-desk"},
    "cdb": _IB_INPUT | {"--max-oracle"},
    "dbase": _IB_INPUT | {"--from", "--order", "--max-states"},
    "dualize": _IB_INPUT,
    "relations": {"--max-ground", "--delta", "--d"},
    "classify": _IB_INPUT | {"--max-desk"},
    "gen-sat": {"--reduction", "--output", "--quiet"},
    "verify-sat": {
        "--reduction", "--random", "--vars", "--clauses", "--seed",
        "--max-oracle", "--quiet",
    },
    "one-in-three": set(),
    "oracle": set(),
    "oracle gens": _ORACLE_INPUT | {"--element"},
    "oracle dgens": _ORACLE_INPUT | {"--element"},
    "oracle cdb": _ORACLE_INPUT,
    "oracle dbase": _ORACLE_INPUT,
    "oracle drel": _ORACLE_INPUT,
    "oracle dual": _IB_INPUT | {"--max-oracle"},
}


def _parsers(parser, prefix=""):
    """Every subcommand parser below ``parser``, groups included."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                path = f"{prefix}{name}"
                out[path] = child
                out.update(_parsers(child, path + " "))
    return out


def _long_options(parser) -> set[str]:
    return {
        flag
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


class TestOptionSurface:
    def test_every_parser_is_listed(self):
        assert set(_parsers(build_parser())) == set(OPTIONS)

    @pytest.mark.parametrize("path", sorted(OPTIONS))
    def test_parser_takes_only_the_options_it_reads(self, path):
        assert _long_options(_parsers(build_parser())[path]) == OPTIONS[path]

    def test_oracle_flag_before_subcommand_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--max-oracle", "18", "cdb", str(tmp_path / "f.ib")])
        assert exc.value.code == 2

    def test_unread_flag_is_usage_error(self, ex2_file):
        with pytest.raises(SystemExit) as exc:
            main(["close", ex2_file, "--set", "2 5", "--max-states", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["close", "--set", "2"],
            ["closeb", "--set", "2"],
            ["binary-part"],
            ["oracle", "gens", "-c", "2"],
            ["oracle", "dgens", "-c", "2"],
            ["oracle", "cdb"],
            ["oracle", "dbase"],
            ["oracle", "drel"],
        ],
    )
    def test_from_mi_rejects_empty_premise_flag(self, capsys, ex8_mi_file, argv):
        # The flag tunes the IB loader, which an Mi family never reaches.
        with pytest.raises(SystemExit) as exc:
            main([*argv, ex8_mi_file, "--from", "mi", "--allow-empty-premise"])
        assert exc.value.code == 2
        assert "--allow-empty-premise" in capsys.readouterr().err

    def test_verify_sat_file_with_random_is_usage_error(self, capsys, tmp_path):
        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        with pytest.raises(SystemExit) as exc:
            main(["verify-sat", str(cnf), "--reduction", "lb", "--random", "2"])
        assert exc.value.code == 2
        assert "--random" in capsys.readouterr().err

    def test_oracle_cdb_honours_max_oracle(self, capsys, tmp_path):
        # 18 elements exceed the default cap of 16.
        names = " ".join(f"e{i}" for i in range(18))
        path = tmp_path / "ib18.ib"
        path.write_text(f"ground: {names}\ne0 e1 -> e2\ne2 -> e3\n")
        code, out = run_main(capsys, "oracle", "cdb", str(path), "--max-oracle", "18")
        assert code == 0
        assert out == f"ground: {names}\ne2 -> e3\ne0 e1 -> e2\ne0 e1 -> e3\n"


def _option_strings(parser) -> set[str]:
    return {flag for action in parser._actions for flag in action.option_strings}


class TestLazyParser:
    """``main`` builds only the named subcommand's parser; it must read the
    same options and print the same texts as the full parser."""

    @pytest.mark.parametrize("name", sorted(p for p in OPTIONS if " " not in p))
    def test_lazy_parser_matches_the_full_one(self, name):
        full = _parsers(build_parser())
        lazy = _parsers(build_parser(name))
        assert set(lazy) == {p for p in full if p == name or p.startswith(name + " ")}
        for path, child in lazy.items():
            assert _option_strings(child) == _option_strings(full[path])
            assert child.format_help() == full[path].format_help()
        # Top-level errors print this usage line.
        assert build_parser(name).format_usage() == build_parser().format_usage()

    @pytest.mark.parametrize(
        "argv",
        [["dbase", "--help"], ["oracle", "gens", "--help"], ["dbase", "f", "--bogus"],
         ["close", "f"], ["oracle", "nope", "f"]],
    )
    def test_help_and_usage_errors_read_as_from_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as lazy:
            main(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        assert lazy.value.code == full.value.code
        assert (got.out, got.err) == (want.out, want.err)


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(EX2_IB))
        code, out = run_main(capsys, "close", "-", "--set", "2 5")
        assert code == 0 and out.strip() == "2 4 5 6"


def arrival_times(path: Path, *flags: str) -> tuple[list[float], float]:
    """Run ``dbase dbase path flags`` and time, from its start, the arrival
    of each row and the end of its output."""
    argv = [sys.executable, "-m", "dbase.cli", "dbase", str(path), *flags]
    start = time.monotonic()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        arrivals = [time.monotonic() - start for _ in iter(proc.stdout.readline, "")]
        end = time.monotonic() - start
        assert proc.wait(timeout=60) == 0
    return arrivals, end


class TestStreaming:
    # Each input does more work after its first row than before it, start-up
    # included, so a first row that arrives in the first half of the run was
    # written while the rest was still being computed.  Output written at the
    # end arrives within a few milliseconds of its end.

    def test_output_is_incremental(self, tmp_path):
        # The binary part, then about 0.6 s of traversals for 401 rows.
        ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 15, 12))
        path = tmp_path / "lb.ib"
        path.write_text(serialize_ib(ib))
        arrivals, end = arrival_times(path)
        assert len(arrivals) == 401
        assert arrivals[0] < end / 2, "no output while still enumerating"

    def test_mi_route_output_is_incremental(self, tmp_path):
        # The binary part at about 0.06 s, start-up included, then about
        # 0.4 s of dualizations for 96,386 rows.
        path = tmp_path / "random.mi"
        path.write_text(serialize_set_family(random_mi(random.Random(1), 36, 60, 0.85)))
        arrivals, end = arrival_times(path, "--from", "mi")
        assert len(arrivals) == 96386
        assert arrivals[0] < end / 2, "binary part not written before the dualizations"


class RecordingStdout:
    """A stdout that counts its writes and records what each flush sends."""

    def __init__(self):
        self.writes = 0
        self.pending = ""
        self.flushed: list[str] = []

    def write(self, text: str) -> int:
        self.writes += 1
        self.pending += text
        return len(text)

    def flush(self) -> None:
        self.flushed.append(self.pending)
        self.pending = ""


def lines_of(rows) -> str:
    return "".join(f"{imp.format()}\n" for imp in rows)


class TestWritePattern:
    @pytest.mark.parametrize("text", [EX1_MI, EX8_MI, gap_mi_text(5)],
                             ids=["ex1", "ex8", "gap5"])
    def test_mi_route_flushes_once_per_element(self, monkeypatch, tmp_path, text):
        # The binary part goes out before the first dualization, then each
        # element's rows in one write and one flush before the next one's.
        mi = parse_set_family(text)
        rows = list(iter_d_base_from_mi(mi))
        binary = [imp for imp in rows if imp.is_binary]
        batches = [lines_of(binary)]
        flushes = []  # flushes due before each element's dualization
        for c in range(len(mi.ground)):
            flushes.append(len(batches))
            found = [imp for imp in rows[len(binary):] if imp.conclusion == c]
            if found:
                batches.append(lines_of(found))
        path = tmp_path / "in.mi"
        path.write_text(text)
        out = RecordingStdout()
        flushed_before = []  # flushes made before each element's dualization
        dualize = dbase.dualization.dualize_distributive

        def recording_dualize(*args):
            flushed_before.append(len(out.flushed))
            return dualize(*args)

        monkeypatch.setattr(dbase.dualization, "dualize_distributive", recording_dualize)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["dbase", str(path), "--from", "mi"]) == 0
        assert out.flushed == batches and out.pending == ""
        assert out.writes == len(batches)
        assert "".join(out.flushed) == lines_of(rows)
        assert flushed_before == flushes

    def test_ib_route_flushes_once_per_row(self, monkeypatch, ex2_file):
        # Each row goes out in one write and one flush.
        out = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["dbase", ex2_file]) == 0
        assert out.flushed == [lines_of([imp]) for imp in iter_d_base(parse_ib(EX2_IB))]
        assert out.pending == ""
        assert out.writes == len(out.flushed)


def chain_text(n: int) -> str:
    """The chain 1 -> 2 -> ... -> n, whose D-base holds every i -> j, i < j."""
    labels = [str(i) for i in range(1, n + 1)]
    rules = "".join(f"{a} -> {b}\n" for a, b in zip(labels, labels[1:]))
    return "ground: " + " ".join(labels) + "\n" + rules


def chain_mi_text(n: int) -> str:
    """The Mi family of :func:`chain_text`'s chain: {k..n} for k = 2..n and
    the empty set."""
    labels = [str(i) for i in range(1, n + 1)]
    sets = [" ".join(labels[k:]) for k in range(1, n)]
    return "ground: " + " ".join(labels) + "\n" + "".join(f"{s}\n" for s in sets) + ".\n"


# Mi families with multi-character labels (e1, e2, ...) over grounds that
# end inside, at and past the label table's 8-bit chunks, and the chain.
_MI_TEXT_INPUTS = {
    **{
        f"random{n}-{seed}": (
            serialize_set_family(random_mi(random.Random(seed), n, 2 * n, 0.85)), []
        )
        for n in (1, 7, 8, 9, 17, 30)
        for seed in (0, 1)
    },
    "chain200": (chain_mi_text(200), ["--max-ground", "200"]),
}


class TestMiRouteText:
    """The Mi route writes each element's rows as text joined straight from
    its D-generator masks; the library streams build the same rows as
    objects from the same masks."""

    @pytest.mark.parametrize("name", sorted(_MI_TEXT_INPUTS))
    def test_stdout_is_the_library_stream_formatted(self, capsys, tmp_path, name):
        text, flags = _MI_TEXT_INPUTS[name]
        mi = parse_set_family(text, max_ground=200)
        path = tmp_path / "in.mi"
        path.write_text(text)
        code, out = run_main(capsys, "dbase", str(path), "--from", "mi", *flags)
        assert code == 0
        # Lines compared as lists (each keeps its newline, so the bytes are
        # compared too): a failure names the first differing row rather than
        # diffing two strings of up to 20,000 rows.
        want = lines_of(iter_d_base_from_mi(mi)).splitlines(keepends=True)
        assert out.splitlines(keepends=True) == want

    @pytest.mark.parametrize("text", [EX1_MI, EX8_MI, gap_mi_text(5),
                                      _MI_TEXT_INPUTS["random17-1"][0]],
                             ids=["ex1", "ex8", "gap5", "random17"])
    def test_no_object_per_element_row(self, monkeypatch, capsys, tmp_path, text):
        # Only the binary part, which binary_part builds as an
        # ImplicationalBase, makes Implication objects; every element row is
        # text from its mask.
        binary = sum(imp.is_binary for imp in iter_d_base_from_mi(parse_set_family(text)))
        assert binary
        inits = []
        kernels = []
        init = dbase.model.Implication.__init__
        batches = dbase.cli._d_base_batches_from_mi

        def counting_init(self, *args):
            inits.append(1)
            init(self, *args)

        def recording_batches(mi):
            stream = batches(mi)
            yield next(stream)
            for c, found in stream:
                kernels.extend(found)
                yield c, found

        monkeypatch.setattr(dbase.model.Implication, "__init__", counting_init)
        monkeypatch.setattr(dbase.cli, "_d_base_batches_from_mi", recording_batches)
        path = tmp_path / "in.mi"
        path.write_text(text)
        code, out = run_main(capsys, "dbase", str(path), "--from", "mi")
        assert code == 0 and out.count("\n") > binary
        assert len(inits) == binary
        # A standard system has cl(empty) = empty, so no row has an empty
        # premise, and the "-> c" form of Implication.format, which the
        # joined text could not produce, never arises on this path.
        assert kernels and all(kernels)


class TestConsoleEntryPoint:
    """``run()``, the entry point of ``dbase`` and ``python -m dbase.cli``,
    in a fresh interpreter."""

    # Without PYTHONUNBUFFERED, stdout is block-buffered, as for most users.
    ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    ENV["PYTHONPATH"] = str(Path(dbase.__file__).resolve().parents[1])

    def test_run_freezes_the_import_time_heap(self, ex2_file):
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "import dbase.cli\n"
            f"sys.argv = ['dbase', 'dbase', {ex2_file!r}]\n"
            "dbase.cli.run()\n"
        )
        done = subprocess.run([sys.executable, "-S", "-c", code], env=self.ENV,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert sorted(done.stdout.splitlines()) == sorted(EX4_DBASE.splitlines()[1:])
        assert int(done.stderr) > 0

    def test_main_leaves_the_collector_alone(self, capsys, ex2_file):
        before = gc.get_freeze_count()
        code, out = run_main(capsys, "dbase", ex2_file)
        assert code == 0 and out
        assert gc.get_freeze_count() == before

    def test_reader_closing_the_pipe_is_0(self, tmp_path):
        # 197 KB of rows: more than the pipe holds after the first read, so
        # the stream is still writing when the reader closes its end.
        path = tmp_path / "chain.ib"
        path.write_text(chain_text(200))
        argv = ["dbase", str(path), "--max-ground", "200"]
        with subprocess.Popen([sys.executable, "-m", "dbase.cli", *argv], env=self.ENV,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            assert proc.stdout.readline() == "1 -> 2\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == ""

    @pytest.mark.parametrize("argv, code, err", [
        (["dbase", "missing.ib"], 1,
         "dbase: error: cannot read 'missing.ib': No such file or directory\n"),
        (["nope"], 2, "dbase: error: argument command: invalid choice: 'nope'"),
    ], ids=["missing-file", "unknown-subcommand"])
    def test_exit_codes(self, tmp_path, argv, code, err):
        done = subprocess.run([sys.executable, "-m", "dbase.cli", *argv], cwd=tmp_path,
                              env=self.ENV, capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (code, "")
        assert err in done.stderr
