import csv
import json

import numpy as np
import pytest

from strongmax.cli import main
from strongmax.grid import Basis, GridFunction, read_grid, write_grid
from strongmax.weights import (
    WeightVector,
    a_infty_classify,
    multi_weight_constant_ap,
    multi_weight_constant_apq,
    power_bump_check,
)


@pytest.fixture
def demo_grid(tmp_path):
    path = str(tmp_path / "f.grid")
    write_grid(GridFunction((4,), (1.0,), np.array([1.0, 0.0, 0.0, 0.0])), path)
    return path


@pytest.fixture
def weight_grid(tmp_path):
    path = str(tmp_path / "w.grid")
    write_grid(GridFunction((8,), (1.0,), np.array([1.0, 4.0, 1.0, 2.0,
                                                    1.0, 3.0, 1.0, 2.0])), path)
    return path


class TestMaximal:
    def test_stdout_values(self, demo_grid, capsys):
        assert main(["maximal", "--grid", demo_grid]) == 0
        out = capsys.readouterr().out.split()
        assert [float(v) for v in out] == pytest.approx([1.0, 0.5, 1 / 3, 0.25])

    def test_grid_output_roundtrips(self, demo_grid, tmp_path):
        out = str(tmp_path / "mf.grid")
        assert main(["maximal", "--grid", demo_grid, "--out", out]) == 0
        g = read_grid(out)
        assert np.allclose(g.values, [1.0, 0.5, 1 / 3, 0.25])

    def test_bilinear_of_one_grid(self, demo_grid, capsys):
        # one --grid with --m 2 is the pair (f, f): M(f, f) = sup (avg f)^2
        assert main(["maximal", "--grid", demo_grid, "--m", "2"]) == 0
        out = capsys.readouterr().out.split()
        assert [float(v) for v in out] == pytest.approx([1.0, 0.25, 1 / 9, 1 / 16])

    def test_missing_grid_is_error(self, capsys):
        assert main(["maximal"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_nonexistent_file_is_error(self, capsys):
        assert main(["maximal", "--grid", "/nonexistent.grid"]) == 2
        json.loads(capsys.readouterr().err)  # machine-readable

    def test_garbage_file_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.grid"
        bad.write_text("not a grid\n")
        assert main(["maximal", "--grid", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GridError"


class TestWeights:
    def test_ap_json(self, weight_grid, capsys):
        assert main(["weights", "--class", "ap", "--grid", weight_grid,
                     "--p", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "ap"
        assert payload["constant_or_bound"] >= 25.0 / 16.0

    def test_rd(self, weight_grid, capsys):
        assert main(["weights", "--class", "rd", "--grid", weight_grid]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 1.0 < payload["constant_or_bound"] <= 2.0
        assert "basis" not in payload  # rd reads no basis

    def test_tauberian_csv(self, weight_grid, capsys):
        assert main(["weights", "--class", "tauberian", "--grid", weight_grid,
                     "--gamma", "0.5", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,lhs,rhs,ratio,passed"
        assert len(lines) > 1

    def test_ainfty(self, weight_grid, capsys):
        assert main(["weights", "--class", "ainfty", "--grid", weight_grid]) == 0
        payload = json.loads(capsys.readouterr().out)
        rep = a_infty_classify(read_grid(weight_grid))
        assert payload["passes"] is rep.passes
        assert payload["classification"] == rep.classification
        assert [fam["axis"] for fam in payload["scale_profile"]] == [0]

    def test_ainfty_reads_no_seed(self, weight_grid, capsys):
        # the seed drew only the random pairs of the report, which no payload prints
        assert main(["weights", "--class", "ainfty", "--grid", weight_grid, "--seed", "7"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "CliError", "message": "--class ainfty does not read --seed"}

    @pytest.mark.parametrize("klass,fn,extra", [("apq", multi_weight_constant_apq, ["--q", "0.5"]),
                                                ("apvec", multi_weight_constant_ap, [])])
    def test_multi_weight_constants(self, klass, fn, extra, weight_grid, capsys):
        assert main(["weights", "--class", klass, "--grid", weight_grid, "--grid", weight_grid,
                     "--p", "2", "--p", "3", *extra]) == 0
        payload = json.loads(capsys.readouterr().out)
        w = read_grid(weight_grid)
        wv = WeightVector((w, w), (2.0, 3.0), q=0.5)
        assert payload["constant_or_bound"] == fn(wv, Basis("all"))
        assert payload["ps"] == [2.0, 3.0]

    def test_bump(self, weight_grid, capsys):
        assert main(["weights", "--class", "bump", "--grid", weight_grid, "--grid", weight_grid,
                     "--p", "2", "--q", "2", "--basis", "dyadic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        w = read_grid(weight_grid)
        rep = power_bump_check(WeightVector((w,), (2.0,), q=2.0), w, 1.5, Basis("dyadic"))
        assert payload["constant_or_bound"] == rep["constant"]
        assert payload["witness_rect"] == {"lo": list(rep["witness"].lo), "hi": list(rep["witness"].hi)}

    def test_bump_needs_two_grids(self, weight_grid, capsys):
        assert main(["weights", "--class", "bump", "--grid", weight_grid]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliError"

    def test_bump_with_p_one_is_weight_error(self, weight_grid, capsys):
        assert main(["weights", "--class", "bump", "--grid", weight_grid,
                     "--grid", weight_grid, "--grid", weight_grid,
                     "--p", "1", "--p", "2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "WeightError", "message": "power bump needs p_i > 1"}

    def test_bump_with_v_on_another_grid_is_weight_error(self, tmp_path, capsys):
        paths = []
        for name, shape in (("w", (2, 8)), ("v", (4, 4))):
            path = str(tmp_path / f"{name}.grid")
            write_grid(GridFunction(shape, (1.0, 1.0), np.arange(1.0, 17.0).reshape(shape)), path)
            paths += ["--grid", path]
        assert main(["weights", "--class", "bump", *paths, "--p", "2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "WeightError", "message": "v must share the weights' grid"}

    def test_ainfty_on_two_cells_is_weight_error(self, tmp_path, capsys):
        path = str(tmp_path / "small.grid")
        write_grid(GridFunction((2,), (1.0,), np.array([1.0, 2.0])), path)
        assert main(["weights", "--class", "ainfty", "--grid", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "WeightError"
        assert "needs >= 4 cells per axis" in err["message"]

    @pytest.mark.parametrize("klass", ["ap", "ainfty", "rd", "tauberian"])
    def test_single_weight_classes_need_one_grid(self, klass, weight_grid, capsys):
        assert main(["weights", "--class", klass, "--grid", weight_grid,
                     "--grid", weight_grid]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliError"
        assert "expected 1 grid(s), got 2" in err["message"]


    @pytest.mark.parametrize("klass,grids,ps", [("ap", 1, 2), ("apq", 2, 1), ("apvec", 2, 3), ("bump", 2, 2)])
    def test_one_p_per_weight(self, klass, grids, ps, weight_grid, capsys):
        argv = ["weights", "--class", klass, *["--grid", weight_grid] * grids, *["--p", "2"] * ps]
        assert main(argv) == 2
        weights = grids - (klass == "bump")
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "CliError", "message": f"expected one --p per weight ({weights}), got {ps}"}

    @pytest.mark.parametrize("klass,flags", [
        ("rd", ["--basis", "cubes", "--seed", "4", "--q", "5", "--r", "3", "--gamma", "0.9"]),
        ("ap", ["--q", "5"]),
        ("apq", ["--r", "3"]),
        ("apvec", ["--alpha", "0.5"]),
        ("ainfty", ["--p", "2", "--basis", "dyadic"]),
        ("tauberian", ["--alpha", "0.5"]),
        ("bump", ["--gamma", "0.9"]),
    ])
    def test_flags_a_class_does_not_read_are_errors(self, klass, flags, weight_grid, capsys):
        grids = ["--grid", weight_grid] * (2 if klass in ("apq", "apvec", "bump") else 1)
        assert main(["weights", "--class", klass, *grids, *flags]) == 2
        named = ", ".join(flags[::2])
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "CliError", "message": f"--class {klass} does not read {named}"}


class TestCover:
    def test_needs_one_grid(self, weight_grid, capsys):
        assert main(["cover", "--grid", weight_grid, "--grid", weight_grid]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "CliError", "message": "expected 1 grid(s), got 2"}

    def test_random_family_json(self, weight_grid, capsys):
        assert main(["cover", "--grid", weight_grid, "--count", "20",
                     "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cf"]["union_after"] <= payload["cf"]["union_before"]
        assert payload["scattered"]["scattered_check"] is True

    def test_explicit_rects(self, weight_grid, tmp_path, capsys):
        rects = tmp_path / "rects.json"
        rects.write_text(json.dumps([{"lo": [0], "hi": [3]}, {"lo": [0], "hi": [3]}]))
        assert main(["cover", "--grid", weight_grid, "--rects", str(rects)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cf"]["kept"] == [0]


class TestVerify:
    def test_single_theorem_out_file(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["verify", "--theorem", "prop3.5", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["prop3.5"]["passed"] is True
        meta = json.loads(open(out + ".meta.json").read())
        assert "written_at_unix" in meta

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["verify", "--theorem", "prop3.5", "--theorem", "covering",
                     "--out", a]) == 0
        assert main(["verify", "--theorem", "prop3.5", "--theorem", "covering",
                     "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_unknown_theorem_exit_2(self, capsys):
        assert main(["verify", "--theorem", "bogus"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "unknown theorem" in err["message"]


class TestDemo:
    def test_demo_runs_and_passes(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "endpoint" in out

    def test_out_file(self, tmp_path):
        out = str(tmp_path / "demo.json")
        assert main(["demo", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["counterexample"]["passed"] is True
        assert payload["endpoint"]["ratio"] == payload["endpoint"]["lhs"] / payload["endpoint"]["rhs"]
        assert "written_at_unix" in json.loads(open(out + ".meta.json").read())

    def test_csv_rows_carry_lhs_and_rhs(self, tmp_path):
        out = str(tmp_path / "demo.csv")
        assert main(["demo", "--out", out, "--format", "csv"]) == 0
        rows = {row[0]: row[1:] for row in csv.reader(open(out))}
        assert rows["counterexample"] == ["", "", "", "True"]
        lhs, rhs, ratio, passed = rows["endpoint"]
        assert float(ratio) == float(lhs) / float(rhs) and passed == "True"


UNREAD_FLAGS = [["maximal", "--seed", "1"], ["maximal", "--format", "csv"], ["cover", "--basis", "dyadic"],
                ["verify", "--basis", "cubes"], ["demo", "--basis", "dyadic"], ["demo", "--seed", "1"]]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=[" ".join(argv[:2]) for argv in UNREAD_FLAGS])
def test_flags_that_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
