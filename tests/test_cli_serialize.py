import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightcycles import oracle
from tightcycles.cli import build_parser, main
from tightcycles.hypergraph import Hypergraph, HypergraphError, gen_complete, gen_tight_cycle
from tightcycles.serialize import (
    hypergraph_from_hg,
    hypergraph_from_json,
    hypergraph_to_hg,
    hypergraph_to_json,
    jsonable,
    load_hypergraph,
    rational_from_str,
    rational_to_str,
    save_hypergraph,
    vicinity_to_json,
    walk_to_json,
)
from tightcycles.walks import WalkError


class TestSerialize:
    def test_rational_round_trip(self):
        for f in (Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(4)):
            assert rational_from_str(rational_to_str(f)) == f

    def test_rational_plain_integer_accepted(self):
        assert rational_from_str("3") == 3

    def test_json_round_trip(self):
        h = gen_tight_cycle(7, 3)
        assert hypergraph_from_json(hypergraph_to_json(h)) == h

    def test_hg_round_trip(self):
        h = gen_complete(5, 3)
        assert hypergraph_from_hg(hypergraph_to_hg(h)) == h

    def test_hg_format_shape(self):
        h = Hypergraph(4, 2, ((0, 1), (2, 3)))
        lines = hypergraph_to_hg(h).strip().splitlines()
        assert lines[0] == "4 2"
        assert lines[1:] == ["0 1", "2 3"]

    def test_file_round_trip_both_extensions(self, tmp_path):
        h = gen_tight_cycle(6, 3)
        for name in ("g.json", "g.hg"):
            path = str(tmp_path / name)
            save_hypergraph(h, path)
            assert load_hypergraph(path) == h

    def test_walk_json(self):
        assert walk_to_json((0, 1, 2), True) == {"closed": True, "vertices": [0, 1, 2]}

    def test_vicinity_json_keys(self):
        entries = {(0,): Hypergraph(4, 2, ((1, 2),))}
        obj = vicinity_to_json(1, entries)
        assert obj["d"] == 1 and obj["entries"][0]["S"] == [0]

    def test_jsonable_fractions(self):
        assert jsonable({"x": Fraction(1, 3), "y": [Fraction(2)]}) == {"x": "1/3", "y": ["2/1"]}


@pytest.fixture
def k6_path(tmp_path):
    path = str(tmp_path / "k6.json")
    save_hypergraph(gen_complete(6, 3), path)
    return path


class TestCli:
    def test_gen_to_stdout(self, capsys):
        assert main(["gen", "complete", "--n", "5", "--k", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["n"] == 5 and len(obj["edges"]) == 10

    def test_gen_to_file(self, tmp_path):
        out = str(tmp_path / "g.hg")
        assert main(["gen", "tight-cycle", "--n", "7", "--k", "3", "--out", out]) == 0
        assert load_hypergraph(out) == gen_tight_cycle(7, 3)

    def test_walk_mod_valid_and_shorten(self, tmp_path, capsys):
        gpath = str(tmp_path / "c5.json")
        save_hypergraph(gen_tight_cycle(5, 3), gpath)
        wpath = str(tmp_path / "w.json")
        with open(wpath, "w") as fh:
            json.dump({"vertices": [0, 1, 2, 3, 4] * 2, "closed": True}, fh)
        assert main(["walk-mod", "--input", gpath, "--walk", wpath, "--shorten"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["valid"] and obj["shortened_length"] <= 10

    def test_walk_mod_invalid_exits_one(self, tmp_path, capsys):
        gpath = str(tmp_path / "c5.json")
        save_hypergraph(gen_tight_cycle(5, 3), gpath)
        wpath = str(tmp_path / "w.json")
        with open(wpath, "w") as fh:
            json.dump({"vertices": [0, 1, 3, 2], "closed": False}, fh)
        assert main(["walk-mod", "--input", gpath, "--walk", wpath]) == 1
        assert not json.loads(capsys.readouterr().out)["valid"]

    def test_matching_uniform(self, k6_path, capsys):
        assert main(["matching", "--input", k6_path]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["nu"] == "2/1" and obj["tau"] == "2/1"

    def test_matching_custom_b(self, k6_path, tmp_path, capsys):
        bpath = str(tmp_path / "b.json")
        with open(bpath, "w") as fh:
            json.dump({str(v): "1/2" for v in range(6)}, fh)
        assert main(["matching", "--input", k6_path, "--b", bpath]) == 0
        assert json.loads(capsys.readouterr().out)["nu"] == "1/1"

    def test_vicinity_pass_and_fail(self, k6_path, tmp_path, capsys):
        assert main(["vicinity", "--input", k6_path, "--d", "1",
                     "--gamma", "1/100", "--delta", "1/2"]) == 0
        capsys.readouterr()
        cpath = str(tmp_path / "c8.json")
        save_hypergraph(gen_tight_cycle(8, 3), cpath)
        assert main(["vicinity", "--input", cpath, "--d", "1",
                     "--gamma", "1/100", "--delta", "1/100"]) == 1

    def test_vicinity_out_file(self, k6_path, tmp_path, capsys):
        out = str(tmp_path / "v.json")
        main(["vicinity", "--input", k6_path, "--d", "1",
              "--gamma", "1/100", "--delta", "1/2", "--out", out])
        capsys.readouterr()
        with open(out) as fh:
            obj = json.load(fh)
        assert obj["d"] == 1 and len(obj["entries"]) == 6

    def test_framework(self, k6_path, capsys):
        assert main(["framework", "--input", k6_path, "--sub", k6_path,
                     "--alpha", "1/10", "--gamma", "1/50", "--delta", "1/3"]) == 0

    def test_perturbed(self, k6_path, capsys):
        assert main(["perturbed", "--input", k6_path, "--d", "1",
                     "--alpha", "1/10", "--delta", "1/2"]) == 0

    def test_falsy_witness_is_printed(self, tmp_path, capsys):
        # an edgeless graph fails P3[j=1] at the empty set, whose repr is "()"
        path = tmp_path / "e5.hg"
        path.write_text("5 3\n")
        assert main(["perturbed", "--input", str(path), "--d", "1",
                     "--alpha", "1/10", "--delta", "1/2"]) == 1
        assert json.loads(capsys.readouterr().out)["P3[j=1]"] == {"passed": False, "witness": "()"}

    def test_clean(self, tmp_path, capsys):
        rpath = str(tmp_path / "k8.json")
        save_hypergraph(gen_complete(8, 3), rpath)
        ipath = str(tmp_path / "i.json")
        save_hypergraph(Hypergraph(8, 3, ((0, 1, 2),)), ipath)
        out = str(tmp_path / "rc.json")
        assert main(["clean", "--input", rpath, "--perturbed", ipath,
                     "--d", "1", "--beta", "1/4", "--out", out]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["edges_removed"] == 1
        assert load_hypergraph(out).num_edges() == 55

    def test_hamilton_exit_codes(self, k6_path, tmp_path, capsys):
        assert main(["hamilton", k6_path]) == 0
        capsys.readouterr()
        spath = str(tmp_path / "sb.json")
        main(["gen", "space-barrier", "--n", "9", "--k", "3", "--d", "1", "--out", spath])
        assert main(["hamilton", spath]) == 3
        capsys.readouterr()
        kpath = str(tmp_path / "k12.json")
        main(["gen", "complete", "--n", "12", "--k", "3", "--out", kpath])
        assert main(["hamilton", kpath, "--budget-nodes", "3"]) == 4

    def test_hamilton_names_its_proof(self, tmp_path, capsys):
        def run(spec, *budget):
            path = str(tmp_path / "g.json")
            main(["gen", *spec, "--out", path])
            code = main(["hamilton", path, *budget])
            return code, json.loads(capsys.readouterr().out)

        # the search runs out at 7 nodes, below m = 9
        code, out = run(["random", "--n", "8", "--k", "3", "--p", "1/4", "--seed", "12"])
        assert (code, out["outcome"], out["certificate"]) == (3, "exhausted-none", "search")
        assert "components" not in out
        # the component LPs decide when the budget stops the search
        code, out = run(["space-barrier", "--n", "21", "--k", "3", "--d", "1"], "--budget-nodes", "500")
        assert (code, out["outcome"], out["certificate"]) == (3, "exhausted-none", "component-lp")
        assert out["components"] == 2
        code, out = run(["complete", "--n", "12", "--k", "3"], "--budget-nodes", "5")
        assert (code, out["outcome"]) == (4, "timeout") and "certificate" not in out
        code, out = run(["complete", "--n", "7", "--k", "3"])
        assert (code, out["outcome"]) == (0, "found") and "certificate" not in out

    def test_scan_threshold(self, tmp_path, capsys):
        out = str(tmp_path / "scan.csv")
        assert main(["scan-threshold", "--k", "3", "--d", "1", "--n", "8",
                     "--grid", "0/1,1/1", "--trials", "2", "--seed", "1",
                     "--out", out]) == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "#tightcycles-scan-v1" and len(lines) == 6

    def test_eg_scan(self, capsys):
        assert main(["eg-scan", "--ell", "2", "--n", "8", "--grid", "1/1",
                     "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "#tightcycles-eg-v1" in out

    def test_thresholds(self, capsys):
        assert main(["thresholds", "--k", "3", "--d", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "k": 3, "d": 1, "ell": 2,
            "upper_general": {"form": "(1/2)^(1/2)", "approx": 0.7071067811865476},
            "upper_linear": "3/4",
            "lower_construction": "5/9",
            "known_exact": "5/9",
        }

    def test_thresholds_space_barrier_table(self, capsys):
        assert main(["thresholds", "--k", "3", "--d", "1", "--n", "9,12,30,300"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["known_exact"] == "5/9"
        assert obj["space_barrier"] == {"limit": "5/9", "rows": [
            {"n": 9, "min_rel_degree": "13/28", "gap_to_limit": "23/252"},
            {"n": 12, "min_rel_degree": "27/55", "gap_to_limit": "32/495"},
            {"n": 30, "min_rel_degree": "108/203", "gap_to_limit": "43/1827"},
            {"n": 300, "min_rel_degree": "24651/44551", "gap_to_limit": "896/400959"},
        ]}


class TestInputErrors:
    """Malformed input exits 2 with one line on stderr, never 1 (a failed
    property) and never a traceback."""

    def test_parsers_raise_value_errors(self):
        with pytest.raises(ValueError, match="zero denominator"):
            rational_from_str("1/0")
        with pytest.raises(ValueError):
            rational_from_str("1/x")
        for text in ("", "\n\n", "5\n0 1 2\n", "a b\n"):
            with pytest.raises(HypergraphError, match="header"):
                hypergraph_from_hg(text)

    def _expect_input_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("tightcycles: error: ") and err.count("\n") == 1
        return err

    def test_empty_hg_file(self, tmp_path, capsys):
        path = tmp_path / "empty.hg"
        path.write_text("")
        self._expect_input_error(["hamilton", str(path)], capsys)

    def test_out_of_range_vertex(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_text("4 3\n0 1 7\n")
        err = self._expect_input_error(["matching", "--input", str(path)], capsys)
        assert "out of range" in err

    def test_missing_files(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        self._expect_input_error(["matching", "--input", missing], capsys)
        self._expect_input_error(["hamilton", missing], capsys)

    def test_zero_denominator_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "random", "--n", "5", "--k", "3", "--p", "1/0"])
        assert exc.value.code == 2
        assert "1/0" in capsys.readouterr().err

    def test_malformed_walk_json(self, tmp_path, capsys):
        gpath = str(tmp_path / "c5.json")
        save_hypergraph(gen_tight_cycle(5, 3), gpath)
        for i, text in enumerate(('{"vertices": [0, 1', '[0, 1, 2]', '{"vertices": ["a"], "closed": true}')):
            wpath = tmp_path / f"w{i}.json"
            wpath.write_text(text)
            self._expect_input_error(["walk-mod", "--input", gpath, "--walk", str(wpath)], capsys)

    def test_zero_denominator_demand(self, k6_path, tmp_path, capsys):
        bpath = tmp_path / "b.json"
        bpath.write_text(json.dumps({"0": "1/0"}))
        err = self._expect_input_error(["matching", "--input", k6_path, "--b", str(bpath)], capsys)
        assert "zero denominator" in err

    def test_non_integer_vertex_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan-threshold", "--k", "3", "--d", "1", "--n", "a",
                  "--grid", "1/2", "--trials", "1"])
        assert exc.value.code == 2

    def test_hamilton_below_k_plus_one(self, tmp_path, capsys):
        path = tmp_path / "e.hg"
        path.write_text("3 3\n0 1 2\n")
        err = self._expect_input_error(["hamilton", str(path)], capsys)
        assert "n >= k+1" in err

    @pytest.mark.parametrize("argv", [
        ["walk-mod", "--input", "G", "--walk", "G"],
        ["matching", "--input", "G"],
        ["vicinity", "--input", "G", "--d", "1", "--gamma", "1/2", "--delta", "1/2"],
        ["framework", "--input", "G", "--sub", "G", "--alpha", "1/2", "--gamma", "1/2",
         "--delta", "1/2"],
        ["perturbed", "--input", "G", "--d", "1", "--alpha", "1/2", "--delta", "1/2"],
        ["clean", "--input", "G", "--perturbed", "G", "--d", "1", "--beta", "1/2"],
        ["hamilton", "G"],
    ])
    def test_zero_uniformity_rejected(self, argv, tmp_path, capsys):
        path = tmp_path / "k0.json"
        path.write_text(json.dumps({"n": 4, "k": 0, "edges": [[]]}))
        err = self._expect_input_error([str(path) if a == "G" else a for a in argv], capsys)
        assert "need k >= 1" in err

    @pytest.mark.parametrize("obj", [
        {"n": 4, "edges": [[0, 1, 2]]},
        [[0, 1, 2]],
        {"n": 4, "k": 2, "edges": [["a", 1]]},
        {"n": 4, "k": 1, "edges": [3]},
    ])
    def test_malformed_json_hypergraph(self, obj, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        err = self._expect_input_error(["matching", "--input", str(path)], capsys)
        assert '"edges"' in err

    def test_space_barrier_outside_range(self, capsys):
        for argv in (["--k", "3", "--d", "1", "--n", "9,5"], ["--k", "3", "--d", "2", "--n", "9"]):
            err = self._expect_input_error(["thresholds", *argv], capsys)
            assert "n >= 2k" in err

    @pytest.mark.parametrize("argv, says", [
        (["gen", "space-barrier", "--n", "3", "--k", "3", "--d", "1"], "n >= 2k"),
        (["gen", "space-barrier", "--n", "9", "--k", "3", "--d", "2"], "1 <= d <= k-2"),
        (["gen", "space-barrier", "--n", "9", "--k", "3", "--d", "1", "--parity"], "d = k-1"),
        (["gen", "random", "--n", "5", "--k", "3", "--p", "3/2"], "--p: 3/2"),
        (["gen", "tight-cycle", "--n", "3", "--k", "3"], "n >= k+1"),
        (["thresholds", "--k", "3", "--d", "5"], "1..k-1"),
        (["scan-threshold", "--k", "3", "--d", "1", "--n", "20", "--grid", "1/2", "--trials", "1"],
         "scan guard"),
        (["scan-threshold", "--k", "3", "--d", "1", "--n", "3", "--grid", "1/2", "--trials", "1"],
         "n >= k+1"),
        (["scan-threshold", "--k", "3", "--d", "1", "--n", "8", "--grid", "3/2", "--trials", "1"],
         "--grid: 3/2"),
        (["scan-threshold", "--k", "3", "--d", "3", "--n", "8", "--grid", "1/2", "--trials", "1"],
         "1..k-1"),
        (["scan-threshold", "--k", "3", "--d", "1", "--n", "8", "--grid", "1/2", "--trials", "0"],
         "--trials"),
        (["scan-threshold", "--k", "3", "--d", "1", "--n", "8", "--grid", "1/2", "--trials", "-1"],
         "--trials"),
        (["eg-scan", "--ell", "4", "--n", "8", "--grid", "1/2", "--trials", "1"], "l in {2, 3}"),
        (["eg-scan", "--ell", "2", "--n", "40", "--grid", "1/2", "--trials", "1"], "n <= 30"),
        (["eg-scan", "--ell", "3", "--n", "15", "--grid", "1/2", "--trials", "1"], "n <= 14"),
        (["eg-scan", "--ell", "2", "--n", "-1", "--grid", "1/2", "--trials", "1"], "0 <= n"),
        (["eg-scan", "--ell", "2", "--n", "8", "--grid", "3/2", "--trials", "1"], "--grid: 3/2"),
        (["eg-scan", "--ell", "2", "--n", "8", "--grid", "1/2", "--trials", "0"], "--trials"),
        (["eg-scan", "--ell", "2", "--n", "8", "--grid", "1/2", "--trials", "-1"], "--trials"),
        (["gen", "complete", "--n", "5", "--k", "0"], "k >= 1"),
        (["gen", "complete", "--n", "-1", "--k", "3"], "n >= 0"),
        (["gen", "random", "--n", "4", "--k", "-1"], "k >= 1"),
        (["gen", "tight-cycle", "--n", "-1", "--k", "3"], "n >= 0"),
    ])
    def test_option_outside_range(self, argv, says, capsys):
        assert says in self._expect_input_error(argv, capsys)

    @pytest.mark.parametrize("argv, says", [
        (["hamilton", "K6", "--budget-nodes", "-1"], "--budget-nodes"),
        (["hamilton", "K6", "--budget-secs", "-1"], "--budget-secs"),
        (["hamilton", "K6", "--budget-secs", "nan"], "--budget-secs"),
        (["hamilton", "K6", "--budget-secs=-inf"], "--budget-secs"),
        (["scan-threshold", "--k", "3", "--d", "1", "--n", "8", "--grid", "1/2", "--trials", "1",
          "--budget-nodes", "-1"], "--budget-nodes"),
        (["scan-threshold", "--k", "3", "--d", "1", "--n", "8", "--grid", "1/2", "--trials", "1",
          "--budget-secs", "nan"], "--budget-secs"),
        (["scan-threshold", "--k", "3", "--d", "1", "--n", "8", "--grid", "1/2", "--trials", "1",
          "--budget-secs", "-0.5"], "--budget-secs"),
    ])
    def test_budget_outside_range(self, argv, says, k6_path, capsys):
        # a negative node budget read as an instant timeout (exit 4), and
        # a NaN time budget silently lifted the time limit
        argv = [k6_path if a == "K6" else a for a in argv]
        assert says in self._expect_input_error(argv, capsys)

    def test_zero_budget_is_accepted(self, k6_path, capsys):
        assert main(["hamilton", k6_path, "--budget-nodes", "0", "--budget-secs", "0"]) == 4

    @pytest.mark.parametrize("argv, says", [
        (["vicinity", "--d", "7", "--gamma", "1/10", "--delta", "1/2"], "1..k-1"),
        (["vicinity", "--d", "1", "--gamma", "1", "--delta", "1/2"], "--gamma: 1/1"),
        (["vicinity", "--d", "1", "--gamma", "1/10", "--delta", "0"], "--delta: 0/1"),
        (["perturbed", "--d", "7", "--alpha", "1/10", "--delta", "1/2"], "1..k-1"),
        (["clean", "--perturbed", "K6", "--d", "3", "--beta", "1/4"], "1..k-1"),
        (["clean", "--perturbed", "K6", "--d", "1", "--beta", "0"], "--beta: 0/1"),
        (["framework", "--sub", "K6", "--alpha", "1/10", "--gamma", "1", "--delta", "1/2"], "--gamma: 1/1"),
        (["framework", "--sub", "K6", "--alpha", "1/10", "--gamma", "3/2", "--delta", "1/2"],
         "--gamma: 3/2"),
    ])
    def test_option_outside_graph_range(self, argv, says, k6_path, capsys):
        argv = [k6_path if a == "K6" else a for a in argv]
        assert says in self._expect_input_error([argv[0], "--input", k6_path, *argv[1:]], capsys)

    def test_perturbation_on_other_vertices(self, k6_path, tmp_path, capsys):
        other = str(tmp_path / "k7.json")
        save_hypergraph(gen_complete(7, 3), other)
        err = self._expect_input_error(
            ["clean", "--input", k6_path, "--perturbed", other, "--d", "1", "--beta", "1/4"], capsys)
        assert "same n and k" in err

    @pytest.mark.parametrize("host, sub, says", [
        (gen_complete(6, 3), gen_complete(6, 2), "same n and k"),
        (gen_complete(6, 3), gen_complete(7, 3), "same n and k"),
        (gen_tight_cycle(6, 3), gen_complete(6, 3), "is not an edge of"),
    ])
    def test_sub_outside_host(self, host, sub, says, tmp_path, capsys):
        hpath, spath = str(tmp_path / "host.json"), str(tmp_path / "sub.json")
        save_hypergraph(host, hpath)
        save_hypergraph(sub, spath)
        err = self._expect_input_error(["framework", "--input", hpath, "--sub", spath, "--alpha", "1/10",
                                        "--gamma", "1/10", "--delta", "1/2"], capsys)
        assert says in err

    @pytest.mark.parametrize("n, argv", [
        (0, ["vicinity", "--d", "1", "--gamma", "1/10", "--delta", "1/2"]),
        (1, ["perturbed", "--d", "2", "--alpha", "1/10", "--delta", "1/2"]),
        (1, ["clean", "--perturbed", "SELF", "--d", "1", "--beta", "1/4"]),
        (2, ["clean", "--perturbed", "SELF", "--d", "1", "--beta", "1/4"]),
    ])
    def test_relative_degrees_below_k(self, n, argv, tmp_path, capsys):
        path = tmp_path / "small.hg"
        path.write_text(f"{n} 3\n")
        argv = [str(path) if a == "SELF" else a for a in argv]
        err = self._expect_input_error([argv[0], "--input", str(path), *argv[1:]], capsys)
        assert "n >= k" in err

    def test_shorten_open_walk(self, tmp_path, capsys):
        gpath, wpath = str(tmp_path / "c5.json"), tmp_path / "w.json"
        save_hypergraph(gen_tight_cycle(5, 3), gpath)
        wpath.write_text(json.dumps({"vertices": [0, 1, 2, 3], "closed": False}))
        err = self._expect_input_error(["walk-mod", "--input", gpath, "--walk", str(wpath), "--shorten"],
                                       capsys)
        assert "closed walk" in err

    @pytest.mark.parametrize("demand, says", [
        ({"0": "3/2"}, "[0, 1]"), ({"0": "-1/2"}, "[0, 1]"), ({"6": "1/2"}, "outside [0, 6)"),
    ])
    def test_demand_outside_range(self, demand, says, k6_path, tmp_path, capsys):
        bpath = tmp_path / "b.json"
        bpath.write_text(json.dumps(demand))
        err = self._expect_input_error(["matching", "--input", k6_path, "--b", str(bpath)], capsys)
        assert says in err

    def test_library_faults_are_not_input_errors(self, k6_path, monkeypatch):
        # a failed certificate inside the library is a bug, not bad input
        def broken(h, budget):
            raise WalkError("search returned a closed walk on 4 of 6 vertices")
        monkeypatch.setattr(oracle, "find_tight_hamilton", broken)
        with pytest.raises(WalkError):
            main(["hamilton", k6_path])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "k", "edges", "x"]), inner, max_size=4),
    max_leaves=20,
)


class TestSerializeFuzz:
    """Arbitrary input yields a hypergraph or a ValueError, nothing else."""

    @given(st.text(alphabet="0123456789 -\nab/", max_size=40) | st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_hg_text(self, text):
        try:
            h = hypergraph_from_hg(text)
        except ValueError:
            return
        assert isinstance(h, Hypergraph)

    @given(_JSON | st.fixed_dictionaries({"n": _JSON, "k": _JSON, "edges": _JSON}))
    @settings(max_examples=300, deadline=None)
    def test_json_value(self, obj):
        try:
            h = hypergraph_from_json(obj)
        except ValueError:
            return
        assert isinstance(h, Hypergraph)
        assert hypergraph_from_json(hypergraph_to_json(h)) == h


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines() if line.strip()]


class TestReadme:
    def test_commands_are_cli_or_tooling(self):
        # a README line that runs a script could point at one that is gone
        for line in _readme_commands():
            assert line.split()[0] in ("tightcycles", "pip", "pytest"), line

    def test_cli_lines_parse(self):
        lines = [ln for ln in _readme_commands() if ln.startswith("tightcycles ")]
        assert lines
        for line in lines:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
