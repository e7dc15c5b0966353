import json
from fractions import Fraction

import pytest

from tightcycles.cli import main
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
        obj = json.loads(capsys.readouterr().out)
        assert obj["known_exact"] == "5/9"
        assert obj["upper_linear"] == "3/4"


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
