import json
import random

import pytest

from genturan import (
    Graph,
    build_extremal_odd,
    build_St2,
    find_cycle_geq,
    maximum_matching_edges,
    to_graph6,
)
from genturan.cli import run


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_odd_case1(self, capsys):
        code, out, _ = _run(
            capsys,
            ["compute", "--parity", "odd", "--n", "20", "--k", "2", "--s", "5",
             "--r", "2"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 37
        assert data["case"] == "Case1"
        assert data["witness"]["central"] == {"type": "H", "n": 20, "k": 5, "a": 2}
        assert data["asymptotic_warning"] is True

    def test_even_edges_only(self, capsys):
        code, out, _ = _run(
            capsys,
            ["compute", "--parity", "even", "--n", "7", "--k", "2", "--s", "2",
             "--edges-only"],
        )
        assert code == 0
        assert json.loads(out)["value"] == 7

    def test_hypothesis_violation_exit_1(self, capsys):
        code, _, err = _run(
            capsys,
            ["compute", "--parity", "odd", "--n", "20", "--k", "2", "--s", "2",
             "--r", "2"],
        )
        assert code == 1
        assert "s" in err

    def test_edges_only_requires_r2(self, capsys):
        code, _, err = _run(
            capsys,
            ["compute", "--parity", "even", "--n", "20", "--k", "3", "--s", "5",
             "--r", "3", "--edges-only"],
        )
        assert code == 1
        assert "r=3" in err


class TestConstructVerifyRoundTrip:
    @pytest.mark.parametrize(
        "construct_args,verify_args,expected_count",
        [
            (["--witness", "extremal-odd", "--n", "20", "--k", "2", "--s", "5"],
             ["--k", "5", "--s", "5"], 37),
            (["--witness", "st1", "--n", "12", "--k", "2", "--q", "3"],
             ["--k", "4", "--s", "3"], 13),
            (["--witness", "H", "--n", "10", "--k", "5", "--a", "2"],
             ["--k", "5", "--s", "2"], 17),
        ],
    )
    def test_round_trip(self, capsys, tmp_path, construct_args, verify_args,
                        expected_count):
        path = tmp_path / "witness.g6"
        code, _, _ = _run(
            capsys,
            ["construct", *construct_args, "--format", "graph6",
             "--output", str(path)],
        )
        assert code == 0
        code, out, _ = _run(capsys, ["verify", "--graph", str(path), *verify_args])
        assert code == 0
        data = json.loads(out)
        assert data["family_free"] is True
        assert data["clique_count"] == expected_count
        assert data["certificate"] is not None
        assert data["certificate_skipped"] is None

    @pytest.mark.parametrize("n", [21, 24])
    def test_verify_certificate_at_any_order(self, capsys, tmp_path, n):
        path = tmp_path / "witness.g6"
        code, _, _ = _run(
            capsys,
            ["construct", "--witness", "extremal-odd", "--n", str(n), "--k", "2",
             "--s", "5", "--output", str(path)],
        )
        assert code == 0
        code, out, _ = _run(
            capsys, ["verify", "--graph", str(path), "--k", "5", "--s", "5"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["family_free"] is True
        assert data["certificate_skipped"] is None
        assert data["certificate"]["slack"] == 5 - data["matching_number"]

    def test_construct_stdout_deterministic(self, capsys):
        argv = ["construct", "--witness", "g0", "--n", "7", "--k", "5"]
        code1, out1, _ = _run(capsys, argv)
        code2, out2, _ = _run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_construct_edgelist_format(self, capsys):
        code, out, _ = _run(
            capsys,
            ["construct", "--witness", "multipartite", "--n", "6", "--k", "2",
             "--s", "2", "--format", "edgelist"],
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 8  # K_{2,4}

    def test_construct_from_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("H 12 7 3\n6\n4\n")
        code, out, _ = _run(
            capsys,
            ["construct", "--witness", "block-star-spec-file",
             "--spec-file", str(spec), "--format", "edgelist"],
        )
        assert code == 0
        # central f_2(12,7,3)=C(4,2)+8*3=30 plus C(6,2)+C(4,2)=21
        assert len([line for line in out.splitlines() if line]) == 51

    @pytest.mark.parametrize(
        "text, message",
        [
            ("H 5 3 9\n", "bad central block line 'H 5 3 9': need 2a <= k, got a=9, k=3"),
            ("K 0\n", "bad central block line 'K 0': "
                      "central clique order must be >= 1, got 0"),
            ("K 4\n3\n1\n", "bad attached clique order '1': "
                             "attached clique orders must be >= 2, got 1"),
            ("K 4\nx\n", "bad attached clique order 'x': "
                          "invalid literal for int() with base 10: 'x'"),
            ("J 4\n", "first line must be 'H n k a' or 'K c', got 'J 4'"),
        ],
    )
    def test_spec_file_faults_exit_2(self, capsys, tmp_path, text, message):
        spec = tmp_path / "spec.txt"
        spec.write_text(text)
        code, out, err = _run(
            capsys,
            ["construct", "--witness", "block-star-spec-file", "--spec-file", str(spec)],
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_parameter_exit_1(self, capsys):
        code, _, err = _run(capsys, ["construct", "--witness", "H", "--n", "12"])
        assert code == 1
        assert "--k" in err or "--a" in err

    def test_verify_reports_violation(self, capsys, tmp_path):
        path = tmp_path / "k6.g6"
        path.write_text("E~~w\n")  # K_6
        code, out, _ = _run(capsys, ["verify", "--graph", str(path), "--k", "5"])
        assert code == 0
        data = json.loads(out)
        assert data["family_free"] is False
        assert data["violation"]["constraint"] == "cycle"
        assert len(data["violation"]["cycle"]) >= 5
        assert data["certificate_skipped"] == "no matching bound given (--s)"

    def test_verify_missing_file_exit_2(self, capsys):
        code, _, _ = _run(capsys, ["verify", "--graph", "/nonexistent.g6"])
        assert code == 2

    def test_verify_bad_graph_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("not graph6 at all\x01\n")
        code, _, _ = _run(capsys, ["verify", "--graph", str(path)])
        assert code == 2

    def test_verify_edgelist_loop_exit_2(self, capsys, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("0 0\n")
        code, _, err = _run(
            capsys, ["verify", "--graph", str(path), "--format", "edgelist"]
        )
        assert code == 2
        assert err.startswith("error: line 1: loop at vertex 0")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--graph"],
            ["construct", "--witness", "block-star-spec-file", "--spec-file"],
        ],
    )
    def test_undecodable_file_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "input.txt"
        path.write_bytes(b"A\xc3\xa9\n")
        code, _, err = _run(capsys, [*argv, str(path)])
        assert code == 2
        assert err.startswith("error: ") and "decode" in err


class TestOracle:
    def test_matches_even_edge_formula(self, capsys):
        code, out, _ = _run(
            capsys,
            ["oracle", "--n", "7", "--k", "4", "--s", "2", "--r", "2", "--stable"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["max"] == 7
        assert "elapsed_ms" not in data

    def test_stable_output_identical(self, capsys):
        argv = ["oracle", "--n", "5", "--k", "4", "--r", "2", "--stable"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_order_8_admitted(self, capsys):
        # every query on 8 vertices fits the budget; this one is K_8
        code, out, _ = _run(capsys, ["oracle", "--n", "8", "--r", "2"])
        assert code == 0
        assert json.loads(out)["max"] == 28

    def test_order_9_identical_across_jobs(self, capsys):
        argv = ["oracle", "--n", "9", "--s", "2", "--stable"]
        code1, out1, _ = _run(capsys, [*argv, "--jobs", "1"])
        code2, out2, _ = _run(capsys, [*argv, "--jobs", "2"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["max"] == 15

    @pytest.mark.parametrize("n", ["22", "1000000", "10000000000000000000"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_past_budget_exit_3(self, capsys, n, jobs):
        code, out, err = _run(capsys, ["oracle", "--n", n, "--jobs", jobs])
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "budget of 2,000,000" in err


class TestTable:
    def test_even_table(self, capsys):
        code, out, _ = _run(
            capsys,
            ["table", "--parity", "even", "--k", "2", "--s", "2", "--n-from", "5",
             "--n-to", "9", "--edges-only"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].split() == ["n", "value", "case", "below-threshold"]
        assert lines[3].split()[:2] == ["7", "7"]

    def test_bad_range_exit_1(self, capsys):
        code, _, _ = _run(
            capsys,
            ["table", "--parity", "even", "--k", "2", "--s", "2", "--n-from", "9",
             "--n-to", "5"],
        )
        assert code == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--parity", "odd", "--k", "1", "--s", "5"], "k must be >= 2, got 1"),
            (["--parity", "even", "--k", "3", "--s", "5", "--r", "3", "--edges-only"],
             "--edges-only requires r=2, got r=3"),
        ],
    )
    def test_fault_that_ignores_n_exit_1(self, capsys, args, message):
        # the same exit and message as compute, not a column of n/a rows
        for argv in (["table", *args, "--n-from", "30", "--n-to", "31"],
                     ["compute", *args, "--n", "30"]):
            code, out, err = _run(capsys, argv)
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_below_witness_order_rows_are_na(self, capsys):
        # ex_odd(n, 3, 7, 3) needs n >= 17
        code, out, _ = _run(
            capsys,
            ["table", "--parity", "odd", "--k", "3", "--s", "7", "--r", "3",
             "--n-from", "15", "--n-to", "17"],
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert rows[:2] == [["15", "n/a", "-", "-"], ["16", "n/a", "-", "-"]]
        assert rows[2][:3] == ["17", "53", "Case2"]


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        code, out, _ = _run(capsys, ["selfcheck"])
        assert code == 0
        assert "all 8 checks passed" in out


def _relabelled(graph: Graph, seed: int) -> Graph:
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


# Extremal witnesses relabelled by a seeded permutation, so that twin
# classes are spread over the labels.  Each has a large class of open twins
# (the attachment vertices of H(n, k, a), or St2's pendant structure).
_GOLDEN_GRAPHS = {
    "odd-20": lambda: _relabelled(build_extremal_odd(20, 2, 5, 2), 1),
    "odd-40": lambda: _relabelled(build_extremal_odd(40, 3, 10, 3), 2),
    "st2-30": lambda: _relabelled(build_St2(30, 3, 2), 3),
}

_NOT_FREE = "the graph is not family-free"


def _payload(n, edges, k, s, free, violation, nu, certificate=None, skipped=None):
    return {
        "n": n,
        "edges": edges,
        "family": {"cycle_min_len": k, "matching_bound": s, "clique_order": 2},
        "family_free": free,
        "violation": violation,
        "clique_count": edges,
        "matching_number": nu,
        "certificate": certificate,
        "certificate_skipped": skipped,
    }


def _cycle(cycle):
    return {"constraint": "cycle", "cycle": cycle, "matching": None}


def _matching(matching):
    return {"constraint": "matching", "cycle": None, "matching": matching}


# `verify` JSON at the family threshold and one step stricter on the cycle
# bound or on nu.  The violation witnesses and the certificate are part of
# the output contract.
_VERIFY_GOLDEN = [
    pytest.param(
        "odd-20", 5, 5,
        _payload(20, 37, 5, 5, True, None, 2, certificate={
            "vertex_set": [5, 11], "component_sizes": [1] * 18, "slack": 3,
        }),
        id="odd-20-threshold",
    ),
    pytest.param(
        "odd-20", 4, 5,
        _payload(20, 37, 4, 5, False, _cycle([5, 0, 11, 1]), 2, skipped=_NOT_FREE),
        id="odd-20-cycle",
    ),
    pytest.param(
        "odd-40", 7, 10,
        _payload(40, 114, 7, 10, True, None, 9, certificate={
            "vertex_set": [4, 26, 39],
            "component_sizes": [1, 1, 5, 5] + [1] * 5 + [5] + [1] * 15,
            "slack": 1,
        }),
        id="odd-40-threshold",
    ),
    pytest.param(
        "odd-40", 7, 8,
        _payload(40, 114, 7, 8, False, _matching(
            [[0, 4], [1, 26], [2, 13], [3, 5], [6, 39], [10, 23], [12, 20],
             [16, 18], [21, 32]]
        ), 9, skipped=_NOT_FREE),
        id="odd-40-matching",
    ),
    pytest.param(
        "st2-30", 5, 5,
        _payload(30, 60, 5, 5, False, _cycle([21, 0, 26, 9, 14]), 5,
                 skipped=_NOT_FREE),
        id="st2-30-cycle",
    ),
    pytest.param(
        "st2-30", 6, 4,
        _payload(30, 60, 6, 4, False, _matching(
            [[0, 21], [1, 26], [4, 7], [9, 14], [17, 18]]
        ), 5, skipped=_NOT_FREE),
        id="st2-30-matching",
    ),
]


@pytest.mark.parametrize("name, k, s, expected", _VERIFY_GOLDEN)
def test_verify_golden(capsys, tmp_path, name, k, s, expected):
    path = tmp_path / "witness.g6"
    path.write_text(to_graph6(_GOLDEN_GRAPHS[name]()) + "\n")
    code, out, _ = _run(
        capsys, ["verify", "--graph", str(path), "--k", str(k), "--s", str(s)]
    )
    assert code == 0
    assert json.loads(out) == expected


# find_cycle_geq for every threshold up to circumference + 1, and one
# maximum matching, on the same graphs.
_PRIMITIVE_GOLDEN = {
    "odd-20": (
        {3: [5, 0, 11], 4: [5, 0, 11, 1], 5: None},
        [(0, 5), (1, 11)],
    ),
    "odd-40": (
        {3: [2, 13, 16], 4: [2, 13, 16, 18], 5: [2, 13, 16, 18, 19],
         6: [2, 13, 16, 18, 19, 26], 7: None},
        [(0, 4), (1, 26), (2, 13), (3, 5), (6, 39), (10, 23), (12, 20),
         (16, 18), (21, 32)],
    ),
    "st2-30": (
        {3: [21, 0, 26], 4: [21, 0, 26, 1], 5: [21, 0, 26, 9, 14], 6: None},
        [(0, 21), (1, 26), (4, 7), (9, 14), (17, 18)],
    ),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_GOLDEN))
def test_cycle_and_matching_golden(name):
    g = _GOLDEN_GRAPHS[name]()
    cycles, matching = _PRIMITIVE_GOLDEN[name]
    assert {k_c: find_cycle_geq(g, k_c) for k_c in cycles} == cycles
    assert maximum_matching_edges(g) == matching
