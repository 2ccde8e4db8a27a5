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
from cospec.intlinalg import charpoly, smith_normal_form
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
    assert charpoly(build_matrix(ga, K.ADJACENCY)) == charpoly(build_matrix(gb, K.ADJACENCY))
    code, out, _ = run_cli(capsys, "relate", "--kind", "a", "--flavor", "spectral", a, b)
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(capsys, "relate", "--kind", "a", "--flavor", "gen-spectral", a, b)
    assert code == 0 and out == "false\n"
    code, out, _ = run_cli(capsys, "codet", "--kind", "a", a, b)
    assert code == 0 and out == "true\n"


def test_closed_form_commands(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "star", "--leaves", "3")
    assert code == 0 and out == "1 1 5 60\n"
    code, out, _ = run_cli(capsys, "closed-form", "multipartite", "-m", "2", "-s", "2")
    assert code == 0 and out == "1 1 8 24\n"
    code, out, _ = run_cli(capsys, "closed-form", "tree", "Ch")
    assert code == 0 and out == "1 1 1 493\n"


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


def test_batch_input_file(tmp_path, capsys):
    src = tmp_path / "graphs.g6"
    src.write_text(">>graph6<<\nA_\nBw\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "snf", "--kind", "l", "--input", str(src))
    assert code == 0 and out == "1 0\n1 3 0\n"


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


def test_bad_cospec_jobs_is_one_line_error(capsys, monkeypatch):
    monkeypatch.setenv("COSPEC_JOBS", "abc")
    code, out, err = run_cli(
        capsys,
        "census", "--n", "4", "--domain", "connected",
        "--kind", "a", "--flavor", "spectral",
    )
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert "COSPEC_JOBS" in err and "'abc'" in err


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


def test_job_count_below_one_is_one_line_error(capsys, monkeypatch):
    census = ("census", "--n", "4", "--domain", "connected", "--kind", "a", "--flavor", "spectral")
    for jobs in ("0", "-4"):
        code, out, err = run_cli(capsys, *census, "--jobs", jobs)
        assert (code, out, err) == (1, "", f"cospec: jobs must be at least 1 (got {jobs})\n")
    monkeypatch.setenv("COSPEC_JOBS", "0")
    code, out, err = run_cli(capsys, *census)
    assert (code, out, err) == (1, "", "cospec: COSPEC_JOBS must be a positive integer (got '0')\n")
