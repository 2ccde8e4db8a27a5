import io
import json
from collections import Counter

import pytest

from cospec.census import CensusSpec, Domain, run_census
from cospec.cli import (
    census_rows_to_csv,
    census_rows_to_json,
    format_factors,
    format_matrix,
    main,
)
from cospec.graphs import connected_graph6_lines, parse_graph6
from cospec.intlinalg import charpoly_coeffs, smith_normal_form
from cospec.invariants import Flavor, fingerprint
from cospec.matrices import MatrixKind, build_matrix

K = MatrixKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_snf_golden(capsys):
    code, out, _ = run_cli(capsys, "snf", "--kind", "l", "A_")
    want = format_factors(smith_normal_form(build_matrix(parse_graph6("A_"), K.LAPLACIAN)))
    assert code == 0 and out == want + "\n"
    assert out == "1 0\n"


def test_matrix_golden(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--kind", "atrs", "Bw")
    g = parse_graph6("Bw")
    want = format_matrix(build_matrix(g, K.TRANSMISSION_ADJACENCY))
    assert code == 0 and out == want + "\n"


def test_charpoly_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--kind", "a", "Bw")
    assert code == 0 and out == "x^3 - 3*x - 2\n"
    code, out, _ = run_cli(capsys, "charpoly", "--kind", "a", "--format", "json", "Bw")
    assert json.loads(out) == {"coeffs": [-2, -3, 0, 1]}


def test_cof_command(capsys):
    code, out, _ = run_cli(capsys, "cof", "--kind", "a", "A_")
    assert code == 0 and out == "2*x + 2\n"


def test_fingerprint_hex(capsys):
    code, out, _ = run_cli(capsys, "fingerprint", "--kind", "a", "--flavor", "spectral", "Bw")
    want = fingerprint(parse_graph6("Bw"), K.ADJACENCY, Flavor.SPECTRAL).hex()
    assert code == 0 and out == want + "\n"


def test_fingerprint_describe(capsys):
    code, out, _ = run_cli(
        capsys, "fingerprint", "--kind", "a", "--flavor", "spectral", "--describe", "Bw"
    )
    assert code == 0 and "x^3 - 3*x - 2" in out


def test_relate_and_codet(capsys):
    from cospec.graphs import complete, cycle, disjoint_union, star, write_graph6

    a = write_graph6(star(4))
    b = write_graph6(disjoint_union(cycle(4), complete(1)))
    ga, gb = parse_graph6(a), parse_graph6(b)
    pa, pb = (charpoly_coeffs(build_matrix(g, K.ADJACENCY)) for g in (ga, gb))
    assert pa == pb
    code, out, _ = run_cli(capsys, "relate", "--kind", "a", "--flavor", "spectral", a, b)
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(capsys, "relate", "--kind", "a", "--flavor", "gen-spectral", a, b)
    assert code == 0 and out == "false\n"
    code, out, _ = run_cli(capsys, "codet", "--kind", "a", a, b)
    assert code == 0 and out == "true\n"


def test_pair_commands_name_the_bad_literal(capsys):
    # relate and codet say which of their two literals does not parse
    first = "cospec: first graph: header byte 33 outside [63, 126] (byte offset 0)\n"
    second = "cospec: second graph: trailing garbage after graph6 data (byte offset 2)\n"
    for command in (("relate", "--kind", "a", "--flavor", "spectral"), ("codet", "--kind", "a")):
        assert run_cli(capsys, *command, "!!", "A_") == (1, "", first)
        assert run_cli(capsys, *command, "A_", "A_x") == (1, "", second)
        assert run_cli(capsys, *command, "!!", "A_x") == (1, "", first)


def test_closed_form_commands(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "star", "--leaves", "3")
    assert code == 0 and out == "1 1 5 60\n"
    code, out, _ = run_cli(capsys, "closed-form", "multipartite", "-m", "2", "-s", "2")
    assert code == 0 and out == "1 1 8 24\n"
    code, out, _ = run_cli(capsys, "closed-form", "tree", "Ch")
    assert code == 0 and out == "1 1 1 493\n"
    # more than 64 vertices: one line, exit 1, before any chain is built
    err = "cospec: closed forms cover graphs of at most 64 vertices (got 65)\n"
    for argv in (["star", "--leaves", "64"], ["multipartite", "-m", "5", "-s", "13"]):
        assert run_cli(capsys, "closed-form", *argv) == (1, "", err)


def test_census_csv_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "census", "--n", "5", "--domain", "connected",
        "--kind", "a,q", "--flavor", "gen-spectral",
    )
    spec = CensusSpec(
        5, Domain.CONNECTED, (K.ADJACENCY, K.SIGNLESS_LAPLACIAN), Flavor.GEN_SPECTRAL
    )
    want = census_rows_to_csv(run_census(spec))
    assert code == 0 and out == want + "\n"
    assert "q,gen-spectral,5,21,2,2/21" in out


def test_census_json_mirror(capsys):
    code, out, _ = run_cli(
        capsys,
        "census", "--n", "4", "--domain", "connected",
        "--kind", "l", "--flavor", "invariant", "--format", "json",
    )
    spec = CensusSpec(4, Domain.CONNECTED, (K.LAPLACIAN,), Flavor.INVARIANT)
    assert code == 0 and out == census_rows_to_json(run_census(spec)) + "\n"
    data = json.loads(out)
    assert data["rows"][0]["domain_size"] == 6


def test_census_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "census", "--n", "4", "--domain", "connected",
        "--kind", "a", "--flavor", "spectral", "--format", "text",
    )
    assert code == 0 and out.startswith("kind=a flavor=spectral n=4 domain_size=6")


def test_census_from_stdin_file(tmp_path, capsys):
    src = tmp_path / "g5.g6"
    src.write_text("\n".join(connected_graph6_lines(5)) + "\n", encoding="ascii")
    code, out, _ = run_cli(
        capsys,
        "census", "--n", "5", "--domain", "connected",
        "--kind", "q", "--flavor", "gen-spectral", "--input", str(src),
    )
    assert code == 0 and out.endswith("q,gen-spectral,5,21,2,2/21\n")


def test_census_input_dash_reads_stdin(tmp_path, monkeypatch, capsys):
    # census --input - gives the same CSV as the same lines in a file
    data = ("\n".join(connected_graph6_lines(5)) + "\n").encode("ascii")
    src = tmp_path / "g5.g6"
    src.write_bytes(data)
    argv = ["census", "--n", "5", "--domain", "connected", "--kind", "a,q",
            "--flavor", "gen-spectral", "--input"]
    from_file = run_cli(capsys, *argv, str(src))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
    from_stdin = run_cli(capsys, *argv, "-")
    assert from_stdin == from_file
    assert from_file[0] == 0 and from_file[1].endswith("q,gen-spectral,5,21,2,2/21\n")


def test_batch_input_file(tmp_path, monkeypatch, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text(">>graph6<<\nA_\nBw\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "snf", "--kind", "l", "--input", str(src))
    assert code == 0 and out == "1 0\n1 3 0\n"
    # every per-graph command prints the same bytes for the literals, for
    # --input FILE and for --input -
    trees = ["Bg", "Ch", "CF", "DqG", "Ds_"]
    data = (">>graph6<<\n" + "\n".join(trees) + "\n").encode("ascii")
    src.write_bytes(data)
    for argv in [
        ("matrix", "--kind", "atrs"),
        ("charpoly", "--kind", "q"),
        ("charpoly", "--kind", "dl", "--format", "json"),
        ("cof", "--kind", "a"),
        ("cof", "--kind", "ddeg", "--format", "json"),
        ("snf", "--kind", "d"),
        ("fingerprint", "--kind", "l", "--flavor", "r-spectral"),
        ("fingerprint", "--kind", "q", "--flavor", "gen-invariant", "--describe"),
        ("closed-form", "tree"),
    ]:
        literals = [run_cli(capsys, *argv, t) for t in trees]
        assert all(code == 0 and out and err == "" for code, out, err in literals)
        want = (0, "".join(out for _, out, _ in literals), "")
        assert run_cli(capsys, *argv, "--input", str(src)) == want
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
        assert run_cli(capsys, *argv, "--input", "-") == want


def test_help_of_every_subcommand(capsys):
    for command in ["matrix", "charpoly", "cof", "snf", "fingerprint", "relate", "codet",
                    "closed-form", "closed-form star", "closed-form multipartite",
                    "closed-form tree", "census", "diff-paper"]:
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--help"])
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith(f"usage: cospec {command} [-h]")


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "snf", "--kind", "d", "A?")
    assert code == 1 and out == "" and "connected" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "snf", "--kind", "a", "!!")
    assert code == 1 and "cospec:" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["snf", "--kind", "bogus", "A_"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "5"])
    assert exc.value.code == 2


def test_usage_errors_name_their_subcommand(capsys):
    required = "a graph6 literal or --input FILE is required"
    cases = [
        (["matrix", "--kind", "a"], "matrix", required),
        (["closed-form", "tree"], "closed-form tree", required),
        (["snf", "--kind", "a", "Bw", "--input", "F"], "snf",
         "give a graph6 literal or --input, not both"),
        (["diff-paper", "--graphs", "5"], "diff-paper", "--graphs expects N=FILE"),
        (["census", "--n", "5", "--domain", "connected", "--kind", "a", "--flavor",
          "spectral", "--input", ""], "census", "--input needs a graph6 file, or - for stdin"),
        (["diff-paper", "--graphs", "5=a", "--graphs", "5=b"], "diff-paper",
         "--graphs names n = 5 more than once"),
    ]
    for argv, command, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == ""
        assert lines[0].startswith(f"usage: cospec {command} [-h]")
        assert lines[-1] == f"cospec {command}: error: {message}"


def test_bad_tokens_are_usage_errors(capsys):
    # exit 2, and the message lists every accepted token
    cases = [
        (["matrix", "--kind", "zz", "Ch"], MatrixKind),
        (["fingerprint", "--kind", "a", "--flavor", "zz", "Ch"], Flavor),
        (["census", "--n", "4", "--domain", "bogus", "--kind", "a",
          "--flavor", "spectral"], Domain),
        (["census", "--n", "4", "--domain", "connected", "--kind", "a,zz",
          "--flavor", "spectral"], MatrixKind),
    ]
    for argv, enum in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected one of " + ", ".join(m.value for m in enum) in err
    code, out, _ = run_cli(
        capsys, "census", "--n", "4", "--domain", "CONNECTED", "--kind", "A,q",
        "--kind", "l", "--flavor", "spectral",
    )
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["a", "q", "l"]


def test_diff_paper_cli(capsys):
    code, out, _ = run_cli(capsys, "diff-paper", "--max-n", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 mismatches")


def test_diff_paper_graphs_needs_integer_n(capsys):
    for item in ("x=graphs9.g6", "9"):
        with pytest.raises(SystemExit) as exc:
            main(["diff-paper", "--graphs", item])
        assert exc.value.code == 2
        assert "--graphs expects N=FILE" in capsys.readouterr().err


def test_diff_paper_graphs_dash_reads_stdin(tmp_path, monkeypatch, capsys):
    # --graphs N=- reads stdin by the same rule as census --input -
    data = ("\n".join(connected_graph6_lines(4)) + "\n").encode("ascii")
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, "diff-paper", "--max-n", "4", "--graphs", "4=-")
    assert code == 0 and err == "" and out.endswith("\n24 cells, 0 mismatches\n")
    assert stdin.buffer.read() == b"" and not stdin.buffer.closed
    # a missing file still fails before the first sweep
    swept = []
    monkeypatch.setattr("cospec.census.sweep", lambda *args, **kw: swept.append(args))
    missing = tmp_path / "missing.g6"
    code, out, err = run_cli(capsys, "diff-paper", "--max-n", "5", "--graphs", f"5={missing}")
    assert (code, out, err, swept) == (1, "", f"cospec: {missing}: No such file or directory\n", [])


def test_unreadable_input_is_one_line_error(tmp_path, capsys):
    missing = tmp_path / "missing.g6"
    census = ("census", "--n", "4", "--domain", "connected", "--kind", "a", "--flavor", "spectral")
    fingerprint = ("fingerprint", "--kind", "a", "--flavor", "spectral")
    for argv, path, reason in [
        (census + ("--input", str(missing)), missing, "No such file or directory"),
        (fingerprint + ("--input", str(missing)), missing, "No such file or directory"),
        (fingerprint + ("--input", str(tmp_path)), tmp_path, "Is a directory"),
        (("snf", "--kind", "a", "--input", str(tmp_path)), tmp_path, "Is a directory"),
        (("diff-paper", "--max-n", "9", "--graphs", f"9={missing}"), missing,
         "No such file or directory"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"cospec: {path}: {reason}\n")


def test_non_ascii_byte_reports_line_number(tmp_path, capsys):
    src = tmp_path / "bad.g6"
    src.write_bytes(b">>graph6<<\nC~\nC\xe9\n")
    want = "cospec: line 3: data byte 233 outside [63, 126] (byte offset 1)\n"
    code, out, err = run_cli(
        capsys,
        "census", "--n", "4", "--domain", "connected",
        "--kind", "a", "--flavor", "spectral", "--input", str(src),
    )
    assert (code, out, err) == (1, "", want)
    code, out, err = run_cli(
        capsys, "fingerprint", "--kind", "a", "--flavor", "spectral", "--input", str(src)
    )
    assert (code, out, err) == (1, "", want)


def test_non_ascii_byte_on_stdin_reports_byte_value(monkeypatch, capsys):
    # --input - decodes stdin's bytes by the same latin-1 rule as a file
    stdin = io.TextIOWrapper(io.BytesIO(b"C~\nC\xe9\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(
        capsys, "fingerprint", "--kind", "a", "--flavor", "spectral", "--input", "-"
    )
    want = "cospec: line 2: data byte 233 outside [63, 126] (byte offset 1)\n"
    assert (code, out, err) == (1, "", want)
    assert not stdin.buffer.closed


def test_indented_header_and_crlf_agree_across_commands(tmp_path, capsys):
    # the same line rule in census and fingerprint --input: lines are
    # stripped, then blank and '>' lines are skipped
    lines = connected_graph6_lines(5)
    src = tmp_path / "crlf.g6"
    src.write_bytes(("  >>graph6<<\r\n\r\n" + "\r\n".join(lines) + "\r\n").encode("ascii"))
    argv = ("--kind", "q", "--flavor", "gen-spectral", "--input", str(src))
    code, out, _ = run_cli(capsys, "census", "--n", "5", "--domain", "connected", *argv)
    assert code == 0 and out.endswith("q,gen-spectral,5,21,2,2/21\n")
    code, out, _ = run_cli(capsys, "fingerprint", *argv)
    keys = out.split()
    assert code == 0 and keys == [
        fingerprint(parse_graph6(line), K.SIGNLESS_LAPLACIAN, Flavor.GEN_SPECTRAL).hex()
        for line in lines
    ]
    counts = Counter(keys)
    assert len(keys) == 21 and sum(c for c in counts.values() if c >= 2) == 2


def test_diff_paper_must_check_something(tmp_path, capsys):
    # a bound below the smallest table and a source no selected cell uses
    # are one-line errors; the unused file is never opened
    missing = tmp_path / "missing.g6"
    for argv, want in [
        (("--max-n", "3"), "cospec: no table cell has n <= 3 (the smallest is n = 4)\n"),
        (("--max-n", "4", "--graphs", f"11={missing}"),
         "cospec: no table cell with n <= 4 uses the source for n = 11\n"),
    ]:
        code, out, err = run_cli(capsys, "diff-paper", *argv)
        assert (code, out, err) == (1, "", want)


def test_diff_paper_repeated_graphs_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diff-paper", "--max-n", "4", "--graphs", "4=a", "--graphs", "4=b"])
    assert exc.value.code == 2
    assert "--graphs names n = 4 more than once" in capsys.readouterr().err


def test_diff_paper_refuses_cells_without_a_source(tmp_path, monkeypatch, capsys):
    # above n = 9 every selected n needs a --graphs N=FILE; the refusal is
    # one line, before any file is opened or swept
    swept = []
    monkeypatch.setattr("cospec.census.sweep", lambda *args, **kw: swept.append(args))
    missing = tmp_path / "missing.g6"
    for argv, n in [(("--max-n", "10"), 10), (("--max-n", "11", "--graphs", f"10={missing}"), 11)]:
        code, out, err = run_cli(capsys, "diff-paper", *argv)
        want = f"cospec: no source for the n = {n} cells; the bundled generator stops at n = 9\n"
        assert (code, out, err, swept) == (1, "", want, [])


def test_diff_paper_with_a_source_above_the_generator_runs(tmp_path, monkeypatch, capsys):
    # the README's --max-n 10 --graphs 10=FILE: every cell with n <= 10
    # runs; the inputs are stubbed empty, so only the zero cells pass
    read = []
    monkeypatch.setattr("cospec.census._source_lines", lambda n, source: read.append((n, source)) or [])
    src = tmp_path / "graphs10.g6"
    src.write_bytes(b"")
    code, out, err = run_cli(capsys, "diff-paper", "--max-n", "10", "--graphs", f"10={src}", "--jobs", "1")
    lines = out.splitlines()
    assert (code, err) == (1, "") and len(lines) == 239
    assert lines[-1] == f"238 cells, {sum(line.startswith('FAIL') for line in lines)} mismatches"
    assert read == [(n, None) for n in range(4, 10)] + [(10, str(src))]


def test_job_count_is_checked_before_the_input_is_read(tmp_path, capsys):
    missing = tmp_path / "missing.g6"
    want = (1, "", "cospec: jobs must be at least 1 (got 0)\n")
    census = ("census", "--n", "4", "--domain", "connected", "--kind", "a", "--flavor", "spectral")
    assert run_cli(capsys, *census, "--input", str(missing), "--jobs", "0") == want
    diff = ("diff-paper", "--max-n", "10", "--graphs", f"10={missing}")
    assert run_cli(capsys, *diff, "--jobs", "0") == want


def test_job_count_below_one_is_one_line_error(capsys):
    census = ("census", "--n", "4", "--domain", "connected", "--kind", "a", "--flavor", "spectral")
    for jobs in ("0", "-4"):
        code, out, err = run_cli(capsys, *census, "--jobs", jobs)
        assert (code, out, err) == (1, "", f"cospec: jobs must be at least 1 (got {jobs})\n")


def test_census_refuses_n_above_the_graph_limit(capsys):
    # no graph6 line holds more than 64 vertices, so an empty input is not
    # a census of domain size 0
    census = ("census", "--domain", "connected", "--kind", "a", "--flavor", "spectral",
              "--input", "/dev/null")
    want = (1, "", "cospec: census needs 2 <= n <= 64 (got 70)\n")
    assert run_cli(capsys, *census, "--n", "70") == want
    code, out, err = run_cli(capsys, *census, "--n", "64")
    assert (code, out.splitlines()[-1], err) == (0, "a,spectral,64,0,0,0", "")


def test_per_graph_input_errors_name_their_line(tmp_path, capsys):
    # the lines before the bad graph are printed; the literal's message is unchanged
    src = tmp_path / "graphs.g6"
    src.write_text("Bw\nCh\nA?\n", encoding="ascii")
    matrices = "0 1 1\n1 0 1\n1 1 0\n0 1 2 3\n1 0 1 2\n2 1 0 1\n3 2 1 0\n"
    for argv, out, err in [
        (("matrix", "--kind", "d"), matrices, "line 3: matrix kind 'd' needs a connected graph"),
        (("closed-form", "tree"), "", "line 1: not a tree: edge count differs from n - 1"),
        (("fingerprint", "--kind", "dl", "--flavor", "gen-spectral"), "",
         "line 1: generalized 'dl' fingerprints need a connected complement"),
    ]:
        assert run_cli(capsys, *argv, "--input", str(src)) == (1, out, f"cospec: {err}\n")
    want = (1, "", "cospec: matrix kind 'd' needs a connected graph\n")
    assert run_cli(capsys, "matrix", "--kind", "d", "A?") == want


def test_disconnected_graph_has_one_message(capsys):
    # fingerprint and relate report a disconnected graph as matrix does;
    # relate also names the graph
    want = (1, "", "cospec: matrix kind 'd' needs a connected graph\n")
    for argv in (
        ("matrix", "--kind", "d", "A?"),
        ("fingerprint", "--kind", "d", "--flavor", "spectral", "A?"),
        ("fingerprint", "--kind", "d", "--flavor", "gen-invariant", "--describe", "A?"),
    ):
        assert run_cli(capsys, *argv) == want
    want = (1, "", "cospec: first graph: matrix kind 'd' needs a connected graph\n")
    assert run_cli(capsys, "relate", "--kind", "d", "--flavor", "invariant", "A?", "A_") == want


def test_pair_commands_name_the_failing_graph(capsys):
    # a graph that parses but has no value is named by its position; the
    # vertex counts are compared first
    message = "matrix kind 'd' needs a connected graph\n"
    for command in (("relate", "--kind", "d", "--flavor", "spectral"), ("codet", "--kind", "d")):
        assert run_cli(capsys, *command, "A?", "A_") == (1, "", f"cospec: first graph: {message}")
        assert run_cli(capsys, *command, "A_", "A?") == (1, "", f"cospec: second graph: {message}")
        assert run_cli(capsys, *command, "A?", "Bw") == (1, "", "cospec: vertex counts differ (2 vs 3)\n")
        assert run_cli(capsys, *command, "Bw", "Bw") == (0, "true\n", "")
    # the star K_1,3 (CF) has a disconnected complement, P_4 (Ch) does not
    relate = ("relate", "--kind", "d", "--flavor", "gen-invariant")
    want = "cospec: second graph: generalized 'd' fingerprints need a connected complement\n"
    assert run_cli(capsys, *relate, "Ch", "CF") == (1, "", want)


def test_diff_paper_names_the_source_of_a_bad_line(tmp_path, monkeypatch, capsys):
    # with two sources, the message says which one holds the bad line
    g4, g5 = tmp_path / "g4.g6", tmp_path / "g5.g6"
    g4.write_text("\n".join(connected_graph6_lines(4)) + "\n", encoding="ascii")
    lines = list(connected_graph6_lines(5))
    g5.write_text("\n".join(lines[:3] + ["Ch"] + lines[3:]) + "\n", encoding="ascii")
    diff = ("diff-paper", "--max-n", "5", "--jobs", "1", "--graphs", f"4={g4}")
    want = (1, "", f"cospec: {g5}: line 4: expected 5 vertices, got 4\n")
    assert run_cli(capsys, *diff, "--graphs", f"5={g5}") == want
    stdin = io.TextIOWrapper(io.BytesIO(g5.read_bytes()), encoding="ascii")
    monkeypatch.setattr("sys.stdin", stdin)
    want = (1, "", "cospec: stdin: line 4: expected 5 vertices, got 4\n")
    assert run_cli(capsys, *diff, "--graphs", "5=-") == want
    # census --input names only the line, as before
    census = ("census", "--n", "5", "--domain", "connected", "--kind", "a", "--flavor", "spectral")
    want = (1, "", "cospec: line 4: expected 5 vertices, got 4\n")
    assert run_cli(capsys, *census, "--jobs", "1", "--input", str(g5)) == want


def test_census_refuses_a_repeated_kind(capsys):
    census = ("census", "--n", "5", "--domain", "connected", "--flavor", "spectral")
    want = (1, "", "cospec: census names kind 'a' more than once\n")
    assert run_cli(capsys, *census, "--kind", "a,A", "--kind", "a") == want


def test_diff_paper_refuses_stdin_for_two_n(monkeypatch, capsys):
    # stdin can be read once, so a second n would sweep what is left of it
    swept = []
    monkeypatch.setattr("cospec.census.sweep", lambda *args, **kw: swept.append(args))
    stdin = io.TextIOWrapper(io.BytesIO(b"C~\n"), encoding="ascii")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, "diff-paper", "--max-n", "5", "--graphs", "4=-", "--graphs", "5=-")
    want = "cospec: stdin (-) can be the source of one n only (got n = 4, 5)\n"
    assert (code, out, err, swept) == (1, "", want, [])
    assert stdin.buffer.read() == b"C~\n"
