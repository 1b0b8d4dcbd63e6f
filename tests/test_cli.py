"""The script interface: parsing, execution, output shape, exit codes."""

import io
import json
import re
from pathlib import Path

import pytest

from simphom import cli
from simphom.cli import ScriptError, main, parse_script, run
from simphom.simpset import delta, from_json_dict, is_isomorphic, quotient


GOLDEN = Path(__file__).resolve().parent / "cli_golden"


def run_text(text, **kw):
    return run(parse_script(text), **kw)


class TestParsing:
    def test_bindings_and_commands(self):
        script = parse_script(
            """
            # build a couple of spaces
            set D = delta 2
            set B = boundary 2
            set H = horn 3 1
            set P = product D B
            set S = sum D D
            set U = union B H
            set Q = quotient D by 0 2
            set T = sub D by 0 1; 1 2
            set N = nerve { a<b b<c }
            check regular Q
            check strongly-regular D
            check P 2 Q cap 5
            homdim D target D
            homcount 1 1 target D
            dump N
            example tight 1 2
            example lurie 3 1 4
            """
        )
        kinds = [s.kind for s in script.statements]
        assert kinds.count("set") == 9
        assert kinds[-8:] == [
            "check-regular",
            "check-strongly-regular",
            "check-P",
            "homdim",
            "homcount",
            "dump",
            "example-tight",
            "example-lurie",
        ]

    def test_error_position(self):
        with pytest.raises(ScriptError) as err:
            parse_script("set D = delta 2\nset = delta 1\n")
        assert err.value.line == 2

    def test_unknown_command(self):
        with pytest.raises(ScriptError):
            parse_script("frobnicate D\n")

    def test_malformed_cells(self):
        with pytest.raises(ScriptError):
            parse_script("set D = delta 2\nset Q = quotient D by\n")

    def test_nerve_relation_syntax(self):
        with pytest.raises(ScriptError):
            parse_script("set N = nerve { a<<b }\n")

    def test_missing_integer(self):
        with pytest.raises(ScriptError):
            parse_script("set D = delta x\n")

    @pytest.mark.parametrize(
        "text, column",
        [("homdim A target B cap 3 extra", 25), ("check P 1 A cap 2 extra", 19)],
    )
    def test_trailing_input_after_a_cap(self, text, column):
        with pytest.raises(ScriptError) as err:
            parse_script(text + "\n")
        assert str(err.value) == "line 1, column %d: unexpected trailing input 'extra'" % (
            column,
        )


class TestExecution:
    def test_regular_check_on_quotient(self):
        results, ok = run_text(
            "set D = delta 2\nset Q = quotient D by 0 2\ncheck regular Q\n"
        )
        assert ok
        (res,) = results
        assert res["verdict"] is True
        assert "witness" not in res

    def test_strong_regularity_witness(self):
        results, ok = run_text(
            "set D = delta 2\nset Q = quotient D by 0 2\ncheck strongly-regular Q\n"
        )
        assert ok
        (res,) = results
        assert res["verdict"] is False
        assert res["witness"] == ["0,1,2", 1]

    def test_collapsed_boundary_is_irregular(self):
        results, ok = run_text(
            "set D = delta 3\n"
            "set X = quotient D by 0 1 2; 0 1 3; 0 2 3; 1 2 3\n"
            "check regular X\n"
        )
        assert ok
        (res,) = results
        assert res["verdict"] is False

    def test_homdim_exact(self):
        results, ok = run_text(
            "set I = delta 1\nhomdim I target I\n"
        )
        assert ok
        assert results[0]["value"] == 2

    def test_homdim_capped_lower_bound(self):
        results, ok = run_text(
            "set I = delta 1\n"
            "set D = delta 3\n"
            "set X = quotient D by 0 1 2; 0 1 3; 0 2 3; 1 2 3\n"
            "homdim I target X cap 8\n"
        )
        assert ok
        assert results[0]["value"] == "≥ 8"

    def test_homcount_over_more_paths_than_the_recursion_limit(self):
        results, ok = run_text("set P = delta 0\nhomcount 2 44 target P\n")
        assert ok
        (res,) = results
        assert "error" not in res
        assert res["counts"]["total"] == 1

    def test_homdim_needs_cap_on_irregular(self):
        results, ok = run_text(
            "set I = delta 1\n"
            "set D = delta 2\n"
            "set X = quotient D by 0 1; 0 2; 1 2\n"
            "homdim I target X\n"
        )
        assert not ok
        assert "error" in results[0]

    def test_max_degree_fallback(self):
        results, ok = run_text(
            "set I = delta 1\n"
            "set D = delta 2\n"
            "set X = quotient D by 0 1; 0 2; 1 2\n"
            "homdim I target X\n",
            max_degree=3,
        )
        assert ok
        assert results[0]["value"] == "≥ 3"

    def test_homdim_routes_a_simplex_source_by_its_cells(self):
        results, ok = run_text(
            "set T = delta 2\n"
            "set A = delta 3\n"
            "set B = sub A by 0 1 2 3\n"
            "set N = nerve { a<b a<c a<d b<c b<d c<d }\n"
            "homdim A target T\n"
            "homdim B target T\n"
            "homdim N target T\n"
        )
        assert ok
        assert [res["value"] for res in results] == [8, 8, 8]
        assert all(res["elapsed_ms"] < 5000 for res in results)

    def test_homdim_adds_the_pieces_of_a_disconnected_source(self):
        results, ok = run_text(
            "set A = delta 3\n"
            "set P = delta 0\n"
            "set S = sum A P\n"
            "set T = delta 2\n"
            "homdim S target T\n"
        )
        assert ok
        assert [res["value"] for res in results] == [10]

    def test_homdim_general_source(self):
        results, ok = run_text(
            "set B = boundary 2\nset I = delta 1\nhomdim B target I\n"
        )
        assert ok
        assert isinstance(results[0]["value"], int)

    def test_homcount(self):
        results, ok = run_text("set I = delta 1\nhomcount 1 1 target I\n")
        assert ok
        assert results[0]["counts"] == {"total": 6, "nondegenerate": 3}

    def test_homcount_dump(self):
        results, ok = run_text(
            "set I = delta 1\nhomcount 1 1 target I\n", dump_hom=True
        )
        assignments = results[0]["assignments"]
        assert len(assignments) == 6
        assert all(set(a) == {"HV", "VH"} for a in assignments)

    def test_check_p_width_two(self):
        results, ok = run_text(
            "set D = delta 2\nset Q = quotient D by 0 2\ncheck P 2 Q\n"
        )
        assert ok
        assert results[0]["verdict"] is False
        assert results[0]["witness"][0] == "0,1,2"

    def test_check_p_at_a_huge_width(self):
        results, ok = run_text("set T = delta 2\ncheck P 1000000 T\n")
        assert ok and results[0]["verdict"] is True

    def test_dump_round_trip(self):
        results, ok = run_text("set D = delta 2\nset Q = quotient D by 0 2\ndump Q\n")
        assert ok
        rebuilt = from_json_dict(results[0]["value"])
        assert is_isomorphic(rebuilt, quotient(delta(2), ["0,2"]))

    def test_example_tight(self):
        results, ok = run_text("example tight 1 1\n")
        assert ok
        res = results[0]
        assert res["verdict"] is True
        assert res["value"]["columns"] == [[0, 0], [0, 1], [1, 1]]
        assert res["value"]["column_sums"] == [0, 1, 2]

    def test_example_lurie(self):
        results, ok = run_text("example lurie 3 1 4\n")
        assert ok
        res = results[0]
        assert res["verdict"] is True
        assert len(res["value"]["components"]) == 5

    def test_nerve_binding_closes_transitively(self):
        results, ok = run_text(
            "set N = nerve { a<b b<c }\ncheck strongly-regular N\n"
        )
        assert ok
        assert results[0]["verdict"] is True

    def test_rebinding_is_an_error(self):
        results, ok = run_text("set D = delta 1\nset D = delta 2\ncheck regular D\n")
        assert not ok
        assert any("error" in r for r in results)

    def test_unknown_name(self):
        results, ok = run_text("check regular Z\n")
        assert not ok
        assert "error" in results[0]

    def test_deterministic_modulo_timing(self):
        text = "set D = delta 2\ncheck regular D\nhomcount 1 1 target D\n"
        first, _ = run_text(text)
        second, _ = run_text(text)
        for a, b in zip(first, second):
            a = {k: v for k, v in a.items() if k != "elapsed_ms"}
            b = {k: v for k, v in b.items() if k != "elapsed_ms"}
            assert a == b


class TestMain:
    def write(self, tmp_path, text):
        path = tmp_path / "script.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_success_exit_and_json_lines(self, tmp_path, capsys):
        path = self.write(tmp_path, "set D = delta 2\ncheck regular D\n")
        code = main([path])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        parsed = [json.loads(line) for line in out]
        assert parsed[0]["verdict"] is True
        assert "elapsed_ms" in parsed[0]

    def test_parse_error_exit(self, tmp_path, capsys):
        path = self.write(tmp_path, "set = delta 2\n")
        code = main([path])
        err = capsys.readouterr().err
        assert code == 2
        assert "parse error" in err

    def test_command_error_exit(self, tmp_path, capsys):
        path = self.write(tmp_path, "check regular Z\n")
        code = main([path])
        assert code == 1

    def test_unexpected_exception_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "enumerate_hom_simplices", boom)
        monkeypatch.setattr(cli, "boundary_delta", boom)
        path = self.write(
            tmp_path,
            "set B = boundary 2\nset D = delta 1\nhomcount 1 1 target D\ndump D\n",
        )
        code = main([path])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [r["command"] for r in lines] == ["set", "homcount", "dump"]
        assert lines[0]["error"] == "RuntimeError: boom"
        assert lines[1]["error"] == "RuntimeError: boom"
        assert "error" not in lines[2]

    def test_golden_transcript(self, capsys):
        """Every binding form and command, a cap on the line, the
        --max-degree fallback and three failures, as recorded JSON text
        with the timing dropped, so key order is pinned too."""
        code = main([str(GOLDEN / "transcript.txt"), "--max-degree", "2", "--dump-hom"])
        lines = []
        for line in capsys.readouterr().out.splitlines():
            line, timed = re.subn(r', "elapsed_ms": \d+\}$', "}", line)
            assert timed == 1
            lines.append(line)
        assert code == 1
        assert lines == (GOLDEN / "transcript.jsonl").read_text(encoding="utf-8").splitlines()

    def test_negative_max_degree_is_an_error_line(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "set I = delta 1\n"
            "set D = delta 2\n"
            "set X = quotient D by 0 1; 0 2; 1 2\n"
            "homdim I target X\n"
            "check P 1 X\n",
        )
        code = main([path, "--max-degree", "-2"])
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [r["command"] for r in lines] == ["homdim", "check P"]
        assert lines[0]["error"] == "degree_cap must be non-negative, got -2"
        assert all("error" in r for r in lines)

    def test_script_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "script.txt"
        path.write_bytes(b"set D = delta 2\n\xff\n")
        code = main([str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("cannot read script: ")

    def test_stdin_that_is_not_utf8(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main([])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("cannot read script: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("homdim A", "line 1, column 9: expected 'target'"),
            ("homdim A to B", "line 1, column 10: expected 'target', got 'to'"),
            ("set A = nerve a<b", "line 1, column 9: nerve needs a braced relation block"),
            ("set A = foo 1", "line 1, column 9: unknown constructor 'foo'"),
            ("check Q A", "line 1, column 7: unknown property 'Q'"),
            ("example foo", "line 1, column 9: unknown example 'foo'"),
            (
                "set A = delta 2\nset S = sub A by 0 1; x y",
                "line 2, column 18: cell 'x y' is neither a vertex list nor a single cell name",
            ),
        ],
    )
    def test_parse_error_message(self, tmp_path, capsys, text, message):
        code = main([self.write(tmp_path, text + "\n")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "parse error: %s\n" % (message,)

    def test_a_raw_cell_name_in_a_cell_list(self, tmp_path, capsys):
        path = self.write(tmp_path, "set A = delta 2\nset S = sub A by 0,1\ndump S\n")
        code = main([path])
        (line,) = capsys.readouterr().out.splitlines()
        assert code == 0
        cells = json.loads(line)["value"]["cells"]
        assert [c["id"] for c in cells] == ["0", "1", "0,1"]

    def test_pretty_error_line(self, tmp_path, capsys):
        path = self.write(
            tmp_path, "set A = delta 2\nset B = quotient A by 0 1; 0 2; 1 2\nhomdim A target B\n"
        )
        code = main([path, "--pretty"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[0].startswith("== homdim ")
        assert out[1:] == [
            "   error: the target is not regular: an explicit degree cap is needed"
        ]

    def test_missing_file(self, capsys):
        code = main(["/nonexistent/script.txt"])
        assert code == 2

    def test_pretty_output(self, tmp_path, capsys):
        path = self.write(tmp_path, "set D = delta 1\nhomcount 1 0 target D\n")
        code = main([path, "--pretty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== homcount" in out and "counts" in out

    def test_stdin_script(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("set D = delta 1\ndump D\n"))
        code = main([])
        assert code == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["command"] == "dump"
