import dataclasses
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import secdom
from secdom import (
    _pykernel,
    build_graph,
    cli,
    experiments,
    graph_to_text,
    parse_graph,
)
from secdom.cli import main
from secdom.graphio import GraphParseError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("4 3\n0 1\n0 2\n0 3\n")
    return str(path)


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.txt"
    path.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    return str(path)


def run_or_exit(capsys, argv):
    """(exit code, stdout, stderr) of one `main` call, argparse exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraphFile:
    def test_round_trip(self):
        G = build_graph(5, [(4, 0), (1, 3), (0, 1)])
        assert parse_graph(io.StringIO(graph_to_text(G))) == G

    @given(st.integers(1, 7), st.data())
    def test_round_trip_property(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        G = build_graph(n, chosen)
        text = graph_to_text(G)
        assert parse_graph(io.StringIO(text)) == G
        # canonical form is itself a fixed point
        assert graph_to_text(parse_graph(io.StringIO(text))) == text

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("3 1\n0 0\n", "self-loop"),
            ("3 2\n0 1\n1 0\n", "duplicate"),
            ("3 1\n0 7\n", "outside"),
            ("3 2\n0 1\n", "announces 2"),
            ("nope\n", "header"),
            ("", "missing header"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphParseError, match=fragment):
            parse_graph(io.StringIO(text))

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n3 1\n\n# another\n0 2\n"
        assert parse_graph(io.StringIO(text)).edges == ((0, 2),)


class TestGen:
    def test_path(self, capsys, tmp_path):
        out = str(tmp_path / "g.txt")
        code, _, _ = run(capsys, "gen", "path", "5", "-o", out)
        assert code == 0
        assert open(out).read().splitlines()[0] == "5 4"

    def test_comb(self, capsys, tmp_path):
        out = str(tmp_path / "g.txt")
        code, _, _ = run(capsys, "gen", "comb", "3", "-o", out)
        assert code == 0
        assert open(out).read().splitlines()[0] == "6 5"

    def test_seeded_generation_is_byte_identical(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        for out in (a, b):
            code, _, _ = run(
                capsys, "gen", "random-connected", "8", "0.3", "--seed", "7", "-o", out
            )
            assert code == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_bad_family_is_input_error(self, capsys):
        code, _, err = run(capsys, "gen", "petersen", "5")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("size", ["inf", "1e400", "nan"])
    def test_non_finite_size_is_input_error(self, capsys, size):
        code, out, err = run(capsys, "gen", "path", size)
        assert (code, out) == (2, "")
        assert err == "error: size parameter must be finite\n"


class TestVerify:
    def test_positive(self, capsys, p3_file):
        code, out, _ = run(capsys, "verify", p3_file, "0", "2")
        assert code == 0
        assert "verified=yes" in out

    def test_negative_names_pair(self, capsys, star_file):
        code, out, _ = run(capsys, "verify", star_file, "0", "1")
        assert code == 1
        assert "failing_pair=1,2" in out

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 0\n")
        code, _, err = run(capsys, "verify", str(bad), "0")
        assert code == 2

    def test_certificate_output(self, capsys, p3_file):
        code, out, _ = run(capsys, "verify", p3_file, "0", "2", "--certificate")
        assert code == 0
        assert "defend.0,1=" in out


class TestParserReuse:
    CALLS = [
        ["verify", "{g}", "0", "1", "3", "4", "--certificate"],
        ["verify", "{g}", "1", "3"],
        ["solve", "{g}", "--problem", "2sds"],
        ["solve", "{g}", "--problem", "nope"],
        ["verify", "{g}", "0", "1", "3", "4"],
    ]

    def test_same_output_as_a_fresh_parser(self, capsys, monkeypatch, p5_file):
        argvs = [[a.format(g=p5_file) for a in argv] for argv in self.CALLS]
        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run_or_exit(capsys, argv))
        assert [code for code, _, _ in fresh] == [0, 1, 0, 2, 0]
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        assert [run_or_exit(capsys, argv) for argv in argvs] == fresh
        assert len(builds) == 1

    def test_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(secdom.__file__))
        code = "import secdom.cli as c; assert c._parser is None"
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestOneDefenceScan:
    """Each command that checks a set runs one defence scan, and builds the
    defender table only when the certificate is printed."""

    @pytest.fixture
    def scans(self, monkeypatch):
        tables = []
        scan = _pykernel.first_undefended

        def counting(masks, smask, layered, table=None):
            tables.append(table)
            return scan(masks, smask, layered, table)

        monkeypatch.setattr(_pykernel, "first_undefended", counting)
        return tables

    @pytest.mark.parametrize("certificate", [False, True])
    @pytest.mark.parametrize(
        "vertices,expected", [(["1", "3"], 1), (["0", "1", "3", "4"], 0)]
    )
    def test_verify(self, capsys, p5_file, scans, vertices, expected, certificate):
        flags = ["--certificate"] * certificate
        code, out, _ = run(capsys, "verify", p5_file, *vertices, *flags)
        assert code == expected
        if expected:
            assert "reason=no-defenders failing_pair=0,1" in out.splitlines()
        assert len(scans) == 1
        assert (scans[0] is not None) == certificate

    def test_approx(self, capsys, p5_file, scans):
        code, out, _ = run(capsys, "approx", p5_file, "--algorithm", "approx-2sds")
        assert code == 0
        assert "verified=yes" in out.splitlines()
        assert scans == [None]


class TestSolve:
    def test_2sds_c4(self, capsys, tmp_path):
        f = tmp_path / "c4.txt"
        f.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(capsys, "solve", str(f), "--problem", "2sds")
        assert code == 0
        assert "gamma2s=2" in out
        assert "set=0,1" in out

    def test_dom_star(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("5 4\n0 1\n0 2\n0 3\n0 4\n")
        code, out, _ = run(capsys, "solve", str(f), "--problem", "dom")
        assert code == 0
        assert "gamma=1" in out

    def test_gs_of_k2(self, capsys, tmp_path):
        from secdom import gs_graph, write_graph
        from util import K2

        f = str(tmp_path / "gs.txt")
        write_graph(gs_graph(K2).graph, f)
        code, out, _ = run(capsys, "solve", f, "--problem", "2sds")
        assert code == 0
        assert "gamma2s=6" in out

    def test_budget_exit_code(self, capsys, tmp_path):
        f = tmp_path / "p20.txt"
        f.write_text("20 19\n" + "".join(f"{i} {i + 1}\n" for i in range(19)))
        code, _, err = run(capsys, "solve", str(f), "--problem", "2sds")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize(
        "family,size,problem,examined",
        [
            ("comb", "8", "2sds", 58648),
            ("cycle", "16", "2sds", 30398),
            ("comb", "10", "dom", 431911),
            ("cycle", "22", "dom", 304584),
        ],
    )
    def test_subsets_examined_counts_flat_scan(
        self, capsys, tmp_path, family, size, problem, examined
    ):
        # the count is the lex position of each level's witness, whatever the
        # search prunes on the way
        f = str(tmp_path / "g.txt")
        assert run(capsys, "gen", family, size, "-o", f)[0] == 0
        code, out, _ = run(capsys, "solve", f, "--problem", problem)
        assert code == 0
        assert f"subsets_examined={examined}" in out.splitlines()

    @pytest.mark.parametrize("problem", ["2sds", "dom", "2dom"])
    def test_zero_budget_is_not_the_default(self, capsys, p3_file, problem):
        code, out, err = run(
            capsys, "solve", p3_file, "--problem", problem, "--budget", "0"
        )
        assert code == 3
        assert "budget is 0" in err
        assert out == ""


class TestApprox:
    def test_approx_2sds_star(self, capsys, star_file):
        code, out, _ = run(capsys, "approx", star_file, "--algorithm", "approx-2sds")
        assert code == 0
        assert "size=4" in out
        assert "verified=yes" in out

    def test_greedy_2dom_c4(self, capsys, tmp_path):
        f = tmp_path / "c4.txt"
        f.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(capsys, "approx", str(f), "--algorithm", "greedy-2dom")
        assert code == 0
        assert "set=0,2" in out

    def test_dom_set_approx_exact_branch(self, capsys, p3_file):
        code, out, _ = run(
            capsys, "approx", p3_file, "--algorithm", "dom-set-approx", "-k", "1"
        )
        assert code == 0
        assert "set=1" in out

    def test_dom_set_approx_past_the_exact_budget(self, capsys, tmp_path):
        f = tmp_path / "p30.txt"
        f.write_text(graph_to_text(build_graph(30, [(i, i + 1) for i in range(29)])))
        code, out, _ = run(
            capsys, "approx", str(f), "--algorithm", "dom-set-approx", "-k", "1"
        )
        assert code == 0
        assert "algorithm=dom-set-approx" in out

    def test_disconnected_rejected(self, capsys, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("4 2\n0 1\n2 3\n")
        code, _, err = run(capsys, "approx", str(f), "--algorithm", "approx-2sds")
        assert code == 2


class TestGadgetCommand:
    def test_inapprox_p3(self, capsys, p3_file, tmp_path):
        out = str(tmp_path / "g.txt")
        code, stdout, _ = run(capsys, "gadget", "inapprox", p3_file, "-o", out)
        assert code == 0
        assert open(out).read().splitlines()[0] == "8 11"
        roles = open(out + ".roles").read()
        assert "role.3=w1" in roles
        assert "param.vertices=|V'| = |V| + 5" in roles

    def test_gs_k3(self, capsys, tmp_path):
        f = tmp_path / "k3.txt"
        f.write_text("3 3\n0 1\n0 2\n1 2\n")
        out = str(tmp_path / "g.txt")
        code, _, _ = run(capsys, "gadget", "gs", str(f), "-o", out)
        assert code == 0
        assert open(out).read().splitlines()[0] == "15 15"

    def test_apx_four_vertices(self, capsys, tmp_path):
        f = tmp_path / "g4.txt"
        f.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        out = str(tmp_path / "g.txt")
        code, _, _ = run(capsys, "gadget", "apx", str(f), "-o", out)
        assert code == 0
        assert open(out).read().splitlines()[0].startswith("10 ")


class TestExperiment:
    def test_identities_small(self, capsys):
        code, out, _ = run(capsys, "experiment", "identities", "--max-n", "3")
        assert code == 0
        assert "failed=0" in out
        assert "FAIL" not in out

    def test_identities_corrupt_hook_fails(self, capsys, monkeypatch):
        """A stray vertex grafted onto w1 of the first gadget must be caught."""
        build = experiments.inapprox_gadget
        built = []

        def corrupted(G):
            result = build(G)
            if not built:
                gadget = result.graph
                stray = build_graph(
                    gadget.n + 1, list(gadget.edges) + [(G.n, gadget.n)]
                )
                result = dataclasses.replace(result, graph=stray)
            built.append(result)
            return result

        monkeypatch.setattr(experiments, "inapprox_gadget", corrupted)
        code, out, _ = run(capsys, "experiment", "identities", "--max-n", "2")
        assert code == 1
        assert "FAIL" in out

    def test_ratios_csv(self, capsys, tmp_path):
        """Two runs with one seed write the same bytes."""
        written = []
        for name in ("rows.csv", "again.csv"):
            csv_path = tmp_path / name
            code, out, _ = run(
                capsys,
                "experiment", "ratios",
                "--family", "random-connected",
                "--n", "7", "--trials", "5", "--seed", "1",
                "--csv", str(csv_path),
            )
            assert code == 0
            written.append(csv_path.read_bytes())
        lines = written[0].decode().strip().splitlines()
        assert lines[0].startswith("family,n,m,delta,gamma,gamma2s")
        assert len(lines) == 6
        assert written[1] == written[0]

    rejected_ratios = pytest.mark.parametrize(
        "options",
        [
            ["--family", "bogus"],
            # no size of a deterministic family reaches the generator at n = 1
            ["--family", "bogus", "--n", "1"],
            ["--family", "random-connected", "--p", "0"],
            # with no trials no graph is drawn, so n and p are checked first
            ["--family", "random-connected", "--p", "0", "--trials", "0"],
            ["--family", "random-split", "--n", "0", "--trials", "0"],
        ],
        ids=["bogus-family", "bogus-family-n1", "p0", "p0-trials0", "n0-trials0"],
    )

    @rejected_ratios
    def test_ratios_rejected_run_writes_nothing(self, capsys, options):
        code, out, _ = run(capsys, "experiment", "ratios", *options)
        assert code == 2
        assert out == ""

    @rejected_ratios
    def test_ratios_rejected_run_keeps_the_csv_file(self, capsys, tmp_path, options):
        """The instances are checked before the --csv file is opened."""
        csv_path = tmp_path / "rows.csv"
        csv_path.write_bytes(b"kept\n")
        code, _, _ = run(
            capsys, "experiment", "ratios", *options, "--csv", str(csv_path)
        )
        assert code == 2
        assert csv_path.read_bytes() == b"kept\n"


def readme_commands():
    """The argv of every `secdom` line in README.md's sh blocks, with the
    backslash continuations joined and the comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["secdom"]:
                commands.append(argv[1:])
    return commands


class TestReadme:
    def test_cli_examples_exit_0(self, capsys, tmp_path, monkeypatch):
        """The README's CLI examples run in order, each exiting 0."""
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert len(commands) == 9
        for argv in commands:
            code, out, err = run_or_exit(capsys, argv)
            assert code == 0, (argv, out, err)
