"""End-to-end CLI behavior: formats, exit codes, streaming."""
from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from dbase.cli import main

from conftest import EX1_MI, EX2_IB, EX4_DBASE, EX5_IB, EX6_CNF, EX8_MI


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

    def test_both_routes_agree_canonicalized(self, capsys, tmp_path, ex2_file):
        _, from_ib = run_main(capsys, "dbase", ex2_file, "--from", "ib")
        mi_path = tmp_path / "ex1.mi"
        mi_path.write_text(EX1_MI)
        _, from_mi = run_main(capsys, "dbase", str(mi_path), "--from", "mi")
        assert sorted(from_ib.splitlines()) == sorted(from_mi.splitlines())


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

    def test_dualize(self, capsys, tmp_path):
        ib = tmp_path / "ex5.ib"
        ib.write_text(EX5_IB)
        fam = tmp_path / "bplus.sf"
        fam.write_text("ground: 1 2 3 4 5\n1 2\n1 4\n4 5\n")
        code, out = run_main(capsys, "dualize", str(ib), str(fam))
        assert code == 0
        assert out.strip().splitlines()[1:] == ["1 2 3", "1 2 4", "1 4 5"]

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

    def test_gen_sat_stdout_has_comment_sidecar(self, capsys, tmp_path):
        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        code, out = run_main(capsys, "gen-sat", str(cnf), "--reduction", "lb")
        assert code == 0
        assert "# sidecar: " in out
        meta = json.loads(out.rsplit("# sidecar: ", 1)[1])
        assert meta["source"] == "_a" and meta["target"] == "_b"

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


class TestExitCodes:
    def test_domain_error_is_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.ib"
        bad.write_text("ground: a b\na -> c\n")
        code = main(["close", str(bad), "--set", "a"])
        captured = capsys.readouterr()
        assert code == 1 and "error" in captured.err

    def test_oracle_ceiling_is_1(self, capsys, tmp_path):
        big = tmp_path / "big.ib"
        big.write_text("ground: " + " ".join(f"x{i}" for i in range(33)) + "\n")
        code = main(["cdb", str(big), "--max-oracle", "64"])
        captured = capsys.readouterr()
        assert code == 1 and "33 elements exceeds oracle maximum 24" in captured.err

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["close"])  # missing file and --set
        assert exc.value.code == 2

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_gadget_generation_roundtrips_through_cli(self, capsys, tmp_path):
        # gen-sat output must be consumable by the other subcommands.
        cnf = tmp_path / "ex6.cnf"
        cnf.write_text(EX6_CNF)
        out_ib = tmp_path / "gadget.ib"
        run_main(capsys, "gen-sat", str(cnf), "--reduction", "acg", "-o", str(out_ib))
        code, out = run_main(capsys, "classify", str(out_ib))
        assert code == 0 and "graph_acyclic: true" in out


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(EX2_IB))
        code, out = run_main(capsys, "close", "-", "--set", "2 5")
        assert code == 0 and out.strip() == "2 4 5 6"


def block_system_text(blocks: int, size: int = 4) -> str:
    labels = []
    lines = []
    for b in range(blocks):
        xs = [f"b{b}x{i}" for i in range(size)]
        labels += xs + [f"b{b}y"]
        for i in range(size):
            for j in range(i + 1, size):
                lines.append(f"{xs[i]} {xs[j]} -> b{b}y")
    return "ground: " + " ".join(labels) + "\n" + "\n".join(lines) + "\n"


class TestStreaming:
    def test_output_is_incremental(self, tmp_path):
        # A 10-block instance takes around a second in total; the first
        # implications must arrive on the pipe while the process still runs.
        path = tmp_path / "blocks.ib"
        path.write_text(block_system_text(10))
        proc = subprocess.Popen(
            [sys.executable, "-m", "dbase.cli", "dbase", str(path), "--from", "ib"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            lines_before_exit = 0
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if proc.poll() is None:
                    lines_before_exit += 1
                    if lines_before_exit >= 3:
                        break
            assert lines_before_exit >= 3, "no output while still enumerating"
        finally:
            proc.kill()
            proc.wait()
