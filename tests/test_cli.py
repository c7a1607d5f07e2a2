import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from dbisol.cli import RunConfig, main, read_config_file


def run_cli(args, tmp_path, capsys=None):
    code = main([str(a) for a in args])
    return code


class TestSolveCommand:
    def test_baby_solve_outputs(self, tmp_path):
        out = tmp_path / "s1"
        code = main(["solve", "--sector", "baby", "--potential", "old:1",
                     "--beta", "1", "--mu", "1", "--n", "1", "--out", str(out)])
        assert code == 0
        data = json.loads((tmp_path / "s1.json").read_text())
        expected_e = math.sqrt(1.5) - math.log(2 + math.sqrt(3)) / (2 * math.sqrt(2))
        assert data["energy_quadrature"] == pytest.approx(expected_e, rel=1e-9)
        expected_r = math.sqrt(1.5) / (2 * math.pi)
        assert data["compacton_radius"] == pytest.approx(expected_r, abs=1e-8)
        assert data["compacton_radius"] == pytest.approx(0.194915, abs=2e-5)
        assert data["charge"] == pytest.approx(1.0, abs=1e-6)
        lines = (tmp_path / "s1.csv").read_text().splitlines()
        assert lines[0] == "coordinate,field,derivative,energy_density,charge_density"

    def test_skyrme_solve_energy(self, tmp_path):
        out = tmp_path / "s2"
        code = main(["solve", "--sector", "skyrme", "--potential", "standard",
                     "--beta", "1", "--mu", "1", "--n", "1", "--out", str(out)])
        assert code == 0
        data = json.loads((tmp_path / "s2.json").read_text())
        assert data["energy_quadrature"] == pytest.approx(8 * math.sqrt(2) / (9 * math.pi),
                                                          rel=1e-6)
        assert data["rel_discrepancy_closed"] < 1e-6

    def test_small_mu_reports_the_closed_form(self, tmp_path, capsys):
        # the closed form used to cancel to 0 here and its discrepancy read null
        assert main(["solve", "--mu", "1e-8", "--out", str(tmp_path / "s")]) == 0
        data = json.loads((tmp_path / "s.json").read_text())
        assert data["energy_closed_form"] == pytest.approx(2.0 / 3.0 * 1e-8, rel=1e-7)
        assert data["rel_discrepancy_closed"] <= 1e-12
        assert "energy_closed_form = 6.66666666" in capsys.readouterr().out

    def test_mu_zero_exits_two(self, tmp_path):
        code = main(["solve", "--mu", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x.json").exists()

    def test_bad_sector_exits_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--sector", "mars", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag,value", [("--beta", "nan"), ("--mu", "inf"),
                                            ("--beta", "-inf")])
    def test_non_finite_coupling_exits_one(self, tmp_path, capsys, flag, value):
        code = main(["solve", f"{flag}={value}", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_degenerate_grid_exits_one(self, tmp_path, capsys, grid):
        code = main(["solve", "--grid", grid, "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: grid needs at least 2 samples, got {grid}\n"

    @pytest.mark.parametrize("potential,grid,smallest", [("old:1", 50, 94),
                                                         ("old:2", 100, 104)])
    def test_grid_too_small_for_residual_names_smallest_grid(self, tmp_path, capsys,
                                                             potential, grid, smallest):
        # compactons carry 10 padding samples, so they need a smaller --grid
        out = str(tmp_path / "x")
        code = main(["solve", "--potential", potential, "--grid", str(grid), "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (f"error: --grid {grid} is too small for the residual "
                                           f"check; use --grid {smallest} or more\n")
        assert not (tmp_path / "x.json").exists()
        assert main(["solve", "--potential", potential, "--grid", str(smallest),
                     "--out", out]) == 0

    def test_bad_potential_exits_one(self, tmp_path):
        code = main(["solve", "--potential", "mexican", "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("sector", ["baby", "skyrme"])
    @pytest.mark.parametrize("tag", ["old:abc", "power:abc", "old:", "power:1e", "old:nan",
                                     "power:inf"])
    def test_malformed_exponent_names_the_accepted_forms(self, tmp_path, capfd, sector, tag):
        code = main(["solve", "--sector", sector, "--potential", tag,
                     "--out", str(tmp_path / "x")])
        out, err = capfd.readouterr()
        assert code == 1
        assert err == f"error: unknown potential {tag!r}; use old:A, standard, bps or power:A\n"
        assert out == ""
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("tag", ["old:50", "old:1.99"])
    def test_inverse_map_failure_prints_one_line(self, tmp_path, tag):
        # a fresh interpreter, so every RuntimeWarning would reach its stderr
        proc = subprocess.run(
            [sys.executable, "-m", "dbisol.cli", "solve", "--potential", tag,
             "--out", str(tmp_path / "x")], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: inverse map integral did not converge")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_compacton_with_divergent_potential_slope_warns_nothing(self, tmp_path):
        # V' = h^(-1/2)/2 diverges on the zero padding past the radius
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--potential", "old:0.5", "--out", str(tmp_path / "x")])
        assert code == 0

    def test_tol_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--tol", "1e-9", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1

    def test_failed_rename_keeps_old_csv(self, tmp_path, monkeypatch):
        out = tmp_path / "s"
        assert main(["solve", "--out", str(out)]) == 0
        before = (tmp_path / "s.csv").read_text()

        def refuse(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(os, "replace", refuse)
        code = main(["solve", "--mu", "2", "--out", str(out)])
        assert code == 1
        unchanged = (tmp_path / "s.csv").read_text() == before
        assert unchanged, "the CSV of the failed run replaced the old one"
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".dbisol-")]


class TestVerifyCommand:
    def test_baby_suite_passes(self, tmp_path):
        code = main(["verify", "--sector", "baby", "--out", str(tmp_path / "v")])
        assert code == 0
        report = json.loads((tmp_path / "v.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"closed_vs_quadrature", "charge_quantization", "linearity",
                "eom_convergence"} <= names

    def test_skyrme_suite_passes(self, tmp_path):
        code = main(["verify", "--sector", "skyrme", "--out", str(tmp_path / "v")])
        assert code == 0

    @pytest.mark.parametrize("sector", ["baby", "skyrme"])
    def test_mu_zero_exits_two_with_one_line(self, tmp_path, capfd, sector):
        solve = main(["solve", "--mu", "0", "--out", str(tmp_path / "s")])
        expected = capfd.readouterr().err
        assert solve == 2 and expected.startswith("no soliton: mu = 0 ")
        code = main(["verify", "--sector", sector, "--mu", "0", "--out", str(tmp_path / "v")])
        out, err = capfd.readouterr()
        assert code == 2
        assert err == expected and err.count("\n") == 1
        assert out == ""
        assert not (tmp_path / "v.json").exists()

    def test_perturbation_fails_with_exit_three(self, tmp_path, capsys):
        code = main(["verify", "--sector", "baby", "--inject-perturbation",
                     "--out", str(tmp_path / "v")])
        assert code == 3
        report = json.loads((tmp_path / "v.json").read_text())
        failed = [c for c in report["checks"] if not c["passed"]]
        assert any(c["name"] == "eom_convergence" for c in failed)


class TestBoundCommand:
    def test_order_three(self, tmp_path):
        out = tmp_path / "b3"
        code = main(["bound", "--order", "3", "--samples", "50000", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        data = json.loads((tmp_path / "b3.json").read_text())
        assert data["alpha"] == pytest.approx(0.64286, abs=1e-3)
        assert data["constant"] == pytest.approx(3.5, abs=1e-8)
        assert data["min_slack"] >= -1e-12
        assert data["seed"] == 7
        assert data["pavlovskii"]["relative_error"] == pytest.approx(0.2117, abs=1e-3)
        assert set(data) >= {"order", "weights", "alpha", "constant", "beta",
                             "energy_scale", "samples", "min_slack"}

    def test_order_two_constant(self, tmp_path):
        code = main(["bound", "--order", "2", "--samples", "1000",
                     "--out", str(tmp_path / "b2")])
        assert code == 0
        data = json.loads((tmp_path / "b2.json").read_text())
        assert data["constant"] == pytest.approx(2.598076, abs=1e-6)

    def test_bad_order(self, tmp_path):
        assert main(["bound", "--order", "65", "--out", str(tmp_path / "b")]) == 1

    def test_order_sixty_four(self, tmp_path):
        code = main(["bound", "--order", "64", "--samples", "20000",
                     "--out", str(tmp_path / "b64")])
        assert code == 0
        data = json.loads((tmp_path / "b64.json").read_text())
        assert 3.9999999 < data["constant"] < 4.0
        assert data["min_slack"] >= -1e-12

    def test_compare_pavlovskii_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--compare-pavlovskii", "--out", str(tmp_path / "b")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("beta", ["-1", "0", "nan", "inf", "-inf"])
    def test_bad_beta_exits_one(self, tmp_path, capsys, beta):
        code = main(["bound", f"--beta={beta}", "--out", str(tmp_path / "b")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: beta must be positive and finite, got ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_negative_samples_exit_one(self, tmp_path, capsys):
        code = main(["bound", "--samples", "-5", "--out", str(tmp_path / "b")])
        assert code == 1
        assert capsys.readouterr().err == "error: sample count must be non-negative, got -5\n"
        assert not (tmp_path / "b.json").exists()

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        code = main(["bound", "--seed", "-1", "--out", str(tmp_path / "b")])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_mu_axis(self, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep", "--axis", "mu", "--values", "1e-2,1e-3,1e-4",
                     "--out", str(out)])
        assert code == 0
        data = json.loads((tmp_path / "sw.json").read_text())
        assert data["slope"] == pytest.approx(2.0 / 3.0, rel=0.01)
        rows = (tmp_path / "sw.csv").read_text().splitlines()
        assert rows[0] == "parameter,energy,distance_to_limit"
        assert len(rows) == 4

    def test_beta_axis(self, tmp_path):
        out = tmp_path / "sb"
        code = main(["sweep", "--axis", "beta", "--values", "10,100,1000",
                     "--out", str(out)])
        assert code == 0
        data = json.loads((tmp_path / "sb.json").read_text())
        assert data["exponent"] == pytest.approx(-2.0, abs=0.1)
        # each value is format(v, ".17g") of the number in the JSON
        rows = zip(data["values"], data["energies"], data["distances"])
        expected = ["parameter,energy,distance_to_limit"]
        expected += [",".join(format(v, ".17g") for v in row) for row in rows]
        assert (tmp_path / "sb.csv").read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_single_value_exits_one(self, tmp_path):
        assert main(["sweep", "--axis", "mu", "--values", "0.5",
                     "--out", str(tmp_path / "s")]) == 1

    @pytest.mark.parametrize("args,code,message", [
        (["--values", "0,0,0"], 2, "no soliton: mu = 0 admits no soliton"),
        (["--axis", "beta", "--values", "1,1,1"], 1,
         "error: need at least 3 distinct beta values for an exponent fit"),
        (["--sector", "skyrme", "--values", "1e-2,1e-3,1e-4"], 1,
         "error: sweeps run in the planar sector only, not skyrme"),
        (["--potential", "standard", "--values", "1e-2,1e-3,1e-4"], 1,
         "error: sweeps run the linear potential old:1 only, not standard"),
        (["--potential", "old:2", "--values", "1e-2,1e-3,1e-4"], 1,
         "error: sweeps run the linear potential old:1 only, not old:2"),
        (["--axis", "beta", "--potential", "standard", "--values", "10,100,1000"], 1,
         "error: sweeps run the linear potential old:1 only, not standard"),
        (["--axis", "beta", "--potential", "old:2", "--values", "10,100,1000"], 1,
         "error: sweeps run the linear potential old:1 only, not old:2"),
    ], ids=["zero-mu", "repeated-beta", "skyrme-sector", "mu-standard", "mu-old2",
            "beta-standard", "beta-old2"])
    def test_bad_input_gives_one_line(self, tmp_path, capfd, args, code, message):
        assert main(["sweep", *args, "--out", str(tmp_path / "s")]) == code
        out, err = capfd.readouterr()
        assert err == message + "\n"
        assert out == ""
        assert not (tmp_path / "s.json").exists()


class TestClassifyCommand:
    @pytest.mark.parametrize("sector,pot,expected", [
        ("baby", "old:1", "compacton"),
        ("baby", "old:2", "exponential"),
        ("skyrme", "standard", "compacton"),
        ("skyrme", "bps", "compacton"),
        ("baby", "old:2 --alpha-k 2", "compacton"),
        ("baby", "old:3 --alpha-k 1", "power-law"),
    ])
    def test_agreement(self, tmp_path, sector, pot, expected):
        out = tmp_path / "c"
        code = main(["classify", "--sector", sector, "--potential", *pot.split(),
                     "--out", str(out)])
        assert code == 0
        data = json.loads((tmp_path / "c.json").read_text())
        assert data["predicted"] == expected
        assert data["empirical"] == expected
        assert data["agree"] is True


PLANAR_ONLY = "error: power-family profiles are defined on the planar chart only\n"


@pytest.mark.parametrize("args", [
    ["solve", "--sector", "skyrme", "--potential", "standard", "--alpha-k", "2"],
    ["classify", "--sector", "skyrme", "--potential", "standard", "--alpha-k", "2"],
    ["verify", "--sector", "skyrme", "--potential", "standard", "--alpha-k", "2"],
    ["solve", "--sector", "skyrme", "--potential", "bps", "--alpha-k", "0.75"],
    # the model is checked before the sweep's sector and before verify's mu
    ["sweep", "--sector", "skyrme", "--alpha-k", "2", "--values", "1e-2,1e-3,1e-4"],
    ["verify", "--sector", "skyrme", "--alpha-k", "2", "--mu", "0"],
], ids=["solve", "classify", "verify", "solve-bps", "sweep", "verify-mu-zero"])
def test_3d_power_law_exits_one_with_one_line(tmp_path, capfd, args):
    assert main([*args, "--out", str(tmp_path / "x")]) == 1
    out, err = capfd.readouterr()
    assert err == PLANAR_ONLY
    assert out == ""
    assert not (tmp_path / "x.json").exists()


class TestDeterminism:
    def test_solve_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["solve", "--seed", "3", "--out", str(a)])
        main(["solve", "--seed", "3", "--out", str(b)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        ja = (tmp_path / "a.json").read_text().replace(str(a), "OUT")
        jb = (tmp_path / "b.json").read_text().replace(str(b), "OUT")
        assert ja == jb

    def test_bound_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["bound", "--order", "3", "--samples", "20000", "--seed", "9", "--out", str(a)])
        main(["bound", "--order", "3", "--samples", "20000", "--seed", "9", "--out", str(b)])
        ja = (tmp_path / "a.json").read_text().replace(str(a), "OUT")
        jb = (tmp_path / "b.json").read_text().replace(str(b), "OUT")
        assert ja == jb


class TestConfigHandling:
    def test_round_trip(self):
        cfg = RunConfig(command="solve", sector="skyrme", potential="bps", beta=2.0,
                        mu=0.5, n=3, grid=500, out="x", seed=4)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            RunConfig.from_dict({"command": "solve", "bogus": 1})

    def test_config_file_and_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nsector=skyrme\npotential=standard\nbeta=2\nmu=1\n")
        parsed = read_config_file(str(cfg_file))
        assert parsed == {"sector": "skyrme", "potential": "standard", "beta": 2.0, "mu": 1.0}
        out = tmp_path / "p"
        code = main(["solve", "--config", str(cfg_file), "--beta", "1",
                     "--out", str(out)])
        assert code == 0
        data = json.loads((tmp_path / "p.json").read_text())
        # flag wins over file
        assert data["config"]["beta"] == 1.0
        assert data["config"]["sector"] == "skyrme"

    def test_out_defaults_to_command_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bound", "--order", "2", "--samples", "100"]) == 0
        assert (tmp_path / "bound.json").exists()

    def test_explicit_out_run_is_kept(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bound", "--order", "2", "--samples", "100", "--out", "run"]) == 0
        assert (tmp_path / "run.json").exists()
        assert not (tmp_path / "bound.json").exists()

    def test_config_file_bad_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("volume=11\n")
        assert main(["solve", "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dbisol.cli", "solve", "--out", str(tmp_path / "m")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "energy_quadrature" in proc.stdout
