import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from dbisol import eom_residual, make_potential
from dbisol.cli import (EOM_ROUNDING_FLOORS, RunConfig, _eom_check, build_parser, main,
                        read_config_file)


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
        assert data["energy_quadrature"] == pytest.approx(expected_e, rel=1e-9, abs=0)
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
                                                          rel=1e-6, abs=0)
        assert data["rel_discrepancy_closed"] < 1e-6

    def test_small_mu_reports_the_closed_form(self, tmp_path, capsys):
        # the closed form used to cancel to 0 here and its discrepancy read null
        assert main(["solve", "--mu", "1e-8", "--out", str(tmp_path / "s")]) == 0
        data = json.loads((tmp_path / "s.json").read_text())
        assert data["energy_closed_form"] == pytest.approx(2.0 / 3.0 * 1e-8, rel=1e-7, abs=0)
        assert data["rel_discrepancy_closed"] <= 1e-12
        assert "energy_closed_form = 6.66666666" in capsys.readouterr().out

    def test_mu_zero_exits_two(self, tmp_path):
        code = main(["solve", "--mu", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x.json").exists()

    def test_bad_sector_exits_one(self, tmp_path, capsys):
        assert main(["solve", "--sector", "mars", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == ("dbisol solve: error: argument --sector: invalid "
                                           "choice: 'mars' (choose from 'baby', 'skyrme')\n")

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

    @pytest.mark.parametrize("sector", ["baby", "skyrme"])
    def test_power_is_v_equals_field_to_a_on_the_configured_chart(self, sector):
        cfg = RunConfig(sector=sector, potential="power:2.5")
        pot = cfg.make_potential()
        assert pot.domain == (0.0, cfg.model().sector.chart.anti_vacuum)
        assert pot.tag == "custom" and pot.vacuum_exponent == 2.5
        assert float(pot.evaluate(0.5)) == 0.5 ** 2.5

    def test_only_old1_reports_the_planar_closed_form(self, tmp_path):
        energies = {}
        for tag in ("old:1", "power:1"):
            assert main(["solve", "--potential", tag, "--out", str(tmp_path / "s")]) == 0
            data = json.loads((tmp_path / "s.json").read_text())
            energies[tag] = data["energy_quadrature"], data["energy_closed_form"]
        assert energies["old:1"][1] is not None and energies["power:1"][1] is None
        assert energies["power:1"][0] == energies["old:1"][0]

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

    @pytest.mark.parametrize("tag", ["old:50"])
    def test_inverse_map_failure_prints_one_line(self, tmp_path, tag):
        # a fresh interpreter, so every RuntimeWarning would reach its stderr;
        # V = h^50 is 0 in doubles at the tail's field floor 1e-9
        proc = subprocess.run(
            [sys.executable, "-m", "dbisol.cli", "solve", "--potential", tag,
             "--out", str(tmp_path / "x")], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: the potential V underflows to 0 at the field floor")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_compacton_next_to_the_threshold_solves(self, tmp_path):
        # B0 vanishes like h^0.995: the compacton's integrand is nearly flat in ln h
        proc = subprocess.run(
            [sys.executable, "-m", "dbisol.cli", "solve", "--potential", "old:1.99",
             "--out", str(tmp_path / "x")], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert (tmp_path / "x.csv").exists()

    def test_compacton_with_divergent_potential_slope_warns_nothing(self, tmp_path):
        # V' = h^(-1/2)/2 diverges on the zero padding past the radius
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--potential", "old:0.5", "--out", str(tmp_path / "x")])
        assert code == 0

    def test_tol_flag_is_gone(self, tmp_path, capsys):
        assert main(["solve", "--tol", "1e-9", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == ("dbisol solve: error: unrecognized arguments: "
                                           "--tol 1e-9\n")

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

    def test_unwritable_out_names_the_artifact(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x"
        assert main(["solve", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{out}.csv'\n"
        assert ".dbisol-" not in err


class TestVerifyCommand:
    def test_baby_suite_passes(self, tmp_path):
        code = main(["verify", "--sector", "baby", "--out", str(tmp_path / "v")])
        assert code == 0
        report = json.loads((tmp_path / "v.json").read_text())
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"closed_vs_quadrature", "charge_quantization", "eom_convergence"} <= names

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

    def test_unknown_potential_exits_one_in_the_skyrme_suite(self, tmp_path, capfd):
        solve = main(["solve", "--sector", "skyrme", "--potential", "old:abc",
                      "--out", str(tmp_path / "s")])
        expected = capfd.readouterr().err
        assert solve == 1 and expected.startswith("error: unknown potential 'old:abc'")
        code = main(["verify", "--sector", "skyrme", "--potential", "old:abc",
                     "--out", str(tmp_path / "v")])
        out, err = capfd.readouterr()
        assert code == 1
        assert err == expected and err.count("\n") == 1
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sector,beta,mu,n", [("baby", 1.0, 1.0, 3), ("skyrme", 2.5, 0.7, 1)])
    def test_eom_check_margin_does_not_depend_on_rounding(self, sector, beta, mu, n):
        # the margin is round(0.02 (grid - 1)) samples from each support
        # edge, and twice that on the fine profile, counted by index: 20 at
        # --grid 1000 and 40 at 1999 samples.
        # At these couplings a margin in coordinates sits within rounding of
        # a sample, yet on couplings up to 8e-9 relative off them each
        # residual drops exactly twice the margin of the support
        pot = make_potential("old-baby-power", 1.0) if sector == "baby" \
            else make_potential("skyrme-standard")
        dropped = set()

        def recording(prof, **kw):
            rep = eom_residual(prof, **kw)
            dropped.add((len(prof.coordinates), int((prof.field > 1e-12).sum()) - len(rep.residuals)))
            return rep

        with mock.patch("dbisol.bps.eom_residual", recording):
            for k in (-8, -1, 0, 1, 8):
                cfg = RunConfig(command="verify", sector=sector, beta=beta * (1.0 + k * 1e-9),
                                mu=mu, n=n)
                _eom_check(cfg.model(), pot, 1000, math.inf, False)
        assert dropped == {(1010, 40), (2009, 80)}

    def test_perturbation_fails_with_exit_three(self, tmp_path, capsys):
        for sector in ("baby", "skyrme"):
            code = main(["verify", "--sector", sector, "--inject-perturbation",
                         "--out", str(tmp_path / "v")])
            assert code == 3
            assert capsys.readouterr().err == "failed checks: eom_convergence\n"
            report = json.loads((tmp_path / "v.json").read_text())
            failed = [c for c in report["checks"] if not c["passed"]]
            assert [c["name"] for c in failed] == ["eom_convergence"]

    @pytest.mark.parametrize("args", [
        ["--beta", "10", "--mu", "10"],
        ["--sector", "skyrme", "--beta", "1.409", "--mu", "2.517", "--n", "2"],
        ["--sector", "skyrme", "--beta", "1e5"],
    ], ids=["baby-b10-m10", "skyrme-b1.409-m2.517-n2", "skyrme-b1e5"])
    def test_checks_the_solvers_profiles_at_the_configured_couplings(self, tmp_path, capfd,
                                                                     args):
        # every check solves the configured couplings at --grid: the planar
        # radius at (10, 10) is 0.019, which a fixed spacing of 1e-3 would
        # cover with 20 samples, and the 3-D checks run at sigma = 0.31
        # (n = 2) and 1e10
        code = main(["verify", *args, "--out", str(tmp_path / "v")])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        report = json.loads((tmp_path / "v.json").read_text())
        names = [c["name"] for c in report["checks"]]
        if "skyrme" in args:
            assert names == ["closed_vs_quadrature[standard]", "charge_quantization[standard]",
                             "closed_vs_quadrature[bps]", "charge_quantization[bps]",
                             "eom_convergence"]
        else:
            assert names == ["closed_vs_quadrature", "charge_quantization", "eom_convergence"]

    @pytest.mark.parametrize("beta", ["30", "100", "300"])
    def test_rounding_limited_residual_passes(self, tmp_path, capfd, beta):
        # from beta = 30 (mu = 1) the planar residual at --grid 1000 is within
        # a few rounding floors, so its ratio says nothing (1.84, 0.56, 0.24);
        # a bump still fails there
        out = str(tmp_path / "v")
        assert main(["verify", "--beta", beta, "--out", out]) == 0
        assert capfd.readouterr().err == ""
        check = json.loads((tmp_path / "v.json").read_text())["checks"][-1]
        assert check["name"] == "eom_convergence" and not 3.5 <= check["ratio"] <= 4.5
        assert max(check["residual_coarse"], check["residual_fine"]) \
            <= EOM_ROUNDING_FLOORS * check["rounding_floor"]
        assert main(["verify", "--beta", beta, "--inject-perturbation", "--out", out]) == 3
        assert capfd.readouterr().err == "failed checks: eom_convergence\n"

    @pytest.mark.parametrize("sector,args", [("baby", ["--mu", "1e-6"]),
                                             ("skyrme", ["--beta", "1e5"]),
                                             ("skyrme", ["--beta", "1e200"])],
                             ids=["baby-m1e-6", "skyrme-b1e5", "skyrme-b1e200"])
    def test_profile_sizes_do_not_grow_with_the_radius(self, tmp_path, sector, args):
        # the residual's profiles have --grid and 2 grid - 1 samples and 10 of
        # padding, whatever the radius: 1.6e5 planar at mu = 1e-6, 1.3e5 in
        # 3-D at beta = 1e5
        sizes = []

        def recording(prof, **kw):
            sizes.append(len(prof.coordinates))
            return eom_residual(prof, **kw)

        with mock.patch("dbisol.bps.eom_residual", recording):
            main(["verify", "--sector", sector, *args, "--out", str(tmp_path / "v")])
        assert sizes == [1010, 2009]

    @pytest.mark.parametrize("sector", ["baby", "skyrme"])
    def test_grid_too_small_for_residual_prints_the_line_solve_prints(self, tmp_path, capsys,
                                                                      sector):
        # the residual runs on a compacton, whose 10 padding samples count
        out = str(tmp_path / "x")
        potential = "old:1" if sector == "baby" else "standard"
        solve = main(["solve", "--sector", sector, "--potential", potential, "--grid", "93",
                      "--out", out])
        expected = capsys.readouterr().err
        assert solve == 1
        assert expected == ("error: --grid 93 is too small for the residual check; "
                            "use --grid 94 or more\n")
        assert main(["verify", "--sector", sector, "--grid", "93", "--out", out]) == 1
        assert capsys.readouterr() == ("", expected)
        assert list(tmp_path.iterdir()) == []
        assert main(["verify", "--sector", sector, "--grid", "94", "--out", out]) != 1


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

    def test_json_records_the_proof(self, tmp_path, capsys):
        code = main(["bound", "--order", "8", "--samples", "1000", "--out", str(tmp_path / "b8")])
        assert code == 0
        proof = json.loads((tmp_path / "b8.json").read_text())["proof"]
        assert proof["passed"] is True and proof["lower_bound"] >= 0.0
        assert all(re.fullmatch(r"\d+/\d+", p) for p in proof["tangent_points"])
        assert "ray proof: lower bound " in capsys.readouterr().out

    def test_failed_proof_exits_four(self, tmp_path, capsys):
        from dbisol import optimize_bound

        def inflated(order, beta):
            cert = optimize_bound(order, beta)
            return replace(cert, constant=1.1 * cert.constant)

        with mock.patch("dbisol.bounds.optimize_bound", inflated):
            code = main(["bound", "--order", "3", "--samples", "1000",
                         "--out", str(tmp_path / "b")])
        out, err = capsys.readouterr()
        assert code == 4
        assert err.startswith("ray proof failed: lower bound -") and err.count("\n") == 1
        assert out == ""
        assert json.loads((tmp_path / "b.json").read_text())["proof"]["passed"] is False

    def test_order_sixty_four(self, tmp_path):
        code = main(["bound", "--order", "64", "--samples", "20000",
                     "--out", str(tmp_path / "b64")])
        assert code == 0
        data = json.loads((tmp_path / "b64.json").read_text())
        assert 3.9999999 < data["constant"] < 4.0
        assert data["min_slack"] >= -1e-12

    def test_compare_pavlovskii_flag_is_gone(self, tmp_path, capsys):
        assert main(["bound", "--compare-pavlovskii", "--out", str(tmp_path / "b")]) == 1
        assert capsys.readouterr().err == ("dbisol bound: error: unrecognized arguments: "
                                           "--compare-pavlovskii\n")

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


# the line solve prints for a potential of the other sector's chart
SKYRME_OF_PLANAR = "error: potential domain (0.0, 1.0) does not match sector skyrme"
BABY_OF_3D = "error: potential domain (0.0, 3.141592653589793) does not match sector baby"


class TestSweepCommand:
    def test_mu_axis(self, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep", "--axis", "mu", "--values", "1e-2,1e-3,1e-4",
                     "--out", str(out)])
        assert code == 0
        data = json.loads((tmp_path / "sw.json").read_text())
        assert data["slope"] == pytest.approx(2.0 / 3.0, rel=0.01, abs=0)
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
        (["--sector", "skyrme", "--values", "1e-2,1e-3,1e-4"], 1, SKYRME_OF_PLANAR),
        (["--potential", "standard", "--values", "1e-2,1e-3,1e-4"], 1, BABY_OF_3D),
        (["--sector", "skyrme", "--potential", "old:2", "--values", "1e-2,1e-3,1e-4"], 1,
         SKYRME_OF_PLANAR),
        (["--axis", "beta", "--potential", "standard", "--values", "10,100,1000"], 1,
         BABY_OF_3D),
        (["--axis", "beta", "--sector", "skyrme", "--potential", "old:2",
          "--values", "10,100,1000"], 1, SKYRME_OF_PLANAR),
        (["--axis", "beta", "--alpha-k", "2", "--values", "10,20,40,80"], 1,
         "error: the large-beta limit is the DBI law's; the power law has no beta"),
    ], ids=["zero-mu", "repeated-beta", "skyrme-sector", "mu-standard", "mu-old2",
            "beta-standard", "beta-old2", "beta-power-law"])
    def test_bad_input_gives_one_line(self, tmp_path, capfd, args, code, message):
        assert main(["sweep", *args, "--out", str(tmp_path / "s")]) == code
        out, err = capfd.readouterr()
        assert err == message + "\n"
        assert out == ""
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("args,message", [
        (["--axis", "beta", "--values", "1e8,1e9,1e10"], "at beta = 100000000 the profile"),
        (["--sector", "skyrme", "--potential", "bps", "--axis", "beta",
          "--values", "1e8,1e9,1e10"], "at beta = 100000000 the profile"),
        (["--axis", "beta", "--values", "1e6,1e7,1e8"], "at beta = 10000000 the profile"),
        (["--axis", "beta", "--values", "1e7,2e7,4e7"], "at beta = 10000000 the profile"),
        (["--sector", "skyrme", "--potential", "bps", "--axis", "beta",
          "--values", "1e7,2e7,4e7"], "at beta = 20000000 the profile"),
        (["--axis", "mu", "--values", "1e-300,1e-301,1e-302"],
         "the slope fit's sum of mu^2 underflows to 0;"),
    ], ids=["beta-planar", "beta-3d", "beta-1e6", "beta-1e7-planar", "beta-1e7-3d",
            "mu-underflow"])
    def test_rounding_floor_fails_in_one_line(self, tmp_path, capfd, args, message):
        # the sup distance to the large-beta limit is within 64 ulps of the
        # anti-vacuum value from beta = 1e7 planar (2.4e-15; 2e7 in 3-D, 1.1e-14)
        # on, where a fitted exponent would be rounding (planar 1e7, 2e7, 4e7
        # fit -1.05), and the squares of mu underflow to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["sweep", *args, "--out", str(tmp_path / "s")])
        out, err = capfd.readouterr()
        assert code == 1
        assert err.startswith("error: " + message) and err.count("\n") == 1
        assert out == ""  # no "fitted exponent = nan"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [[], ["--sector", "skyrme", "--potential", "bps"]],
                             ids=["planar", "3d"])
    def test_decay_fit_above_the_rounding_floor(self, tmp_path, capfd, args):
        # the smallest distances, 1.48e-14 planar and 2.56e-13 in 3-D at 4e6,
        # are 67 and 577 ulps of the anti-vacuum value, above the 64 refused
        code = main(["sweep", "--axis", "beta", "--values", "1e6,2e6,4e6", *args,
                     "--out", str(tmp_path / "s")])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        exponent = json.loads((tmp_path / "s.json").read_text())["exponent"]
        assert exponent == pytest.approx(-2.0, abs=0.01)

    def test_non_finite_fit_writes_and_prints_nothing(self, tmp_path, capfd):
        from dbisol.observables import BetaSweepResult

        def diverged(model, betas, potential):
            return BetaSweepResult((10.0, 100.0, 1000.0), (1.0, 1.0, 1.0), (1.0, 0.1, 0.01),
                                   math.nan)

        with mock.patch("dbisol.observables.large_beta_sweep", diverged):
            code = main(["sweep", "--axis", "beta", "--values", "10,100,1000",
                         "--out", str(tmp_path / "s")])
        assert code == 1
        assert capfd.readouterr() == ("", "error: the fitted exponent is nan\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [["--sector", "skyrme", "--potential", "old:2"],
                                      ["--potential", "bps"]], ids=["planar", "3d"])
    def test_other_chart_exits_like_solve(self, tmp_path, capfd, args):
        assert main(["solve", *args, "--out", str(tmp_path / "a")]) == 1
        solve_err = capfd.readouterr().err
        for axis, values in (("mu", "1e-2,1e-3,1e-4"), ("beta", "10,100,1000")):
            assert main(["sweep", *args, "--axis", axis, "--values", values,
                         "--out", str(tmp_path / "s")]) == 1
            assert capfd.readouterr().err == solve_err

    @pytest.mark.parametrize("sector,pot,n", [("skyrme", "standard", 1), ("skyrme", "bps", -2),
                                              ("baby", "old:3", 3), ("baby", "old:2", 2)])
    def test_mu_slope_is_the_predicted_limit(self, tmp_path, sector, pot, n):
        # as mu -> 0 under the DBI law, E -> |n| c <sqrt V> mu, c the chart's average_factor
        assert main(["sweep", "--sector", sector, "--potential", pot, "--n", str(n),
                     "--axis", "mu", "--values", "1e-2,1e-3,1e-4",
                     "--out", str(tmp_path / "s")]) == 0
        cfg = RunConfig(sector=sector, potential=pot, n=n)
        potential, chart = cfg.make_potential(), cfg.model().sector.chart
        want = abs(n) * chart.average_factor * chart.average(
            lambda f: np.sqrt(potential.evaluate(f)))
        slope = json.loads((tmp_path / "s.json").read_text())["slope"]
        assert slope == pytest.approx(want, rel=1e-4, abs=0)

    @pytest.mark.parametrize("sector,pot", [("skyrme", "bps"), ("baby", "old:3"),
                                            ("baby", "old:2")])
    def test_beta_exponent_is_minus_two(self, tmp_path, sector, pot):
        assert main(["sweep", "--sector", sector, "--potential", pot, "--axis", "beta",
                     "--values", "10,100,1000", "--out", str(tmp_path / "s")]) == 0
        exponent = json.loads((tmp_path / "s.json").read_text())["exponent"]
        assert exponent == pytest.approx(-2.0, rel=0, abs=0.05)

    @pytest.mark.parametrize("sector,pot,alpha_k", [("baby", "old:1", 2.0), ("baby", "old:3", 0.75),
                                                    ("skyrme", "bps", 2.0)])
    def test_power_law_mu_axis_fits_the_exponent(self, tmp_path, capfd, sector, pot, alpha_k):
        # the power law has no shape parameter: E ~ mu^(2 - 1/alpha_k) exactly
        assert main(["sweep", "--sector", sector, "--potential", pot, "--alpha-k", str(alpha_k),
                     "--axis", "mu", "--values", "1e-2,1e-3,1e-4",
                     "--out", str(tmp_path / "s")]) == 0
        data = json.loads((tmp_path / "s.json").read_text())
        law = 2.0 - 1.0 / alpha_k
        assert "slope" not in data and data["law_exponent"] == law
        assert abs(data["exponent"] - law) <= 1e-12
        assert capfd.readouterr().out.startswith(
            f"fitted exponent = {data['exponent']:.17g} (law: {law:.17g})\n")


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


class TestPowerLaw3D:
    """The 3-D chart takes the power law: solve, classify and verify run it."""

    @pytest.mark.parametrize("pot,alpha_k", [("standard", "2"), ("bps", "0.75")])
    def test_solve(self, tmp_path, pot, alpha_k):
        code = main(["solve", "--sector", "skyrme", "--potential", pot, "--alpha-k", alpha_k,
                     "--out", str(tmp_path / "s")])
        assert code == 0
        data = json.loads((tmp_path / "s.json").read_text())
        assert data["charge"] == 1.0
        assert data["energy_closed_form"] is None
        assert data["rel_discrepancy_avg"] <= 1e-12

    def test_classify_agrees_with_tail_fit(self, tmp_path):
        code = main(["classify", "--sector", "skyrme", "--potential", "power:7",
                     "--alpha-k", "2", "--out", str(tmp_path / "c")])
        assert code == 0
        data = json.loads((tmp_path / "c.json").read_text())
        assert data["predicted"] == data["empirical"] == "compacton"
        assert data["agree"] is True

    @pytest.mark.parametrize("alpha_k", ["0.75", "1", "2"])
    def test_verify_passes_without_closed_forms(self, tmp_path, capfd, alpha_k):
        code = main(["verify", "--sector", "skyrme", "--alpha-k", alpha_k,
                     "--out", str(tmp_path / "v")])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        report = json.loads((tmp_path / "v.json").read_text())
        assert report["all_passed"] is True
        names = [c["name"] for c in report["checks"]]
        # one model for the three sigma: the power law has no shape parameter
        assert len(names) == 3 and not any(n.startswith("closed_vs_quadrature") for n in names)

    def test_verify_mu_zero_exits_two(self, tmp_path, capfd):
        code = main(["verify", "--sector", "skyrme", "--alpha-k", "2", "--mu", "0",
                     "--out", str(tmp_path / "v")])
        out, err = capfd.readouterr()
        assert code == 2
        assert err.startswith("no soliton: mu = 0 ") and err.count("\n") == 1
        assert out == ""
        assert not (tmp_path / "v.json").exists()

    def test_sweep_keeps_its_sector_message(self, tmp_path, capfd):
        code = main(["sweep", "--sector", "skyrme", "--alpha-k", "2",
                     "--values", "1e-2,1e-3,1e-4", "--out", str(tmp_path / "s")])
        out, err = capfd.readouterr()
        assert code == 1
        assert err == SKYRME_OF_PLANAR + "\n"
        assert out == ""


# the settings each command reads; every other RunConfig field but command is refused
_MODEL_SETTINGS = {"sector", "potential", "beta", "mu", "n", "alpha_k", "out", "seed"}
READS = {
    "solve": _MODEL_SETTINGS | {"grid"},
    "verify": _MODEL_SETTINGS | {"grid", "inject_perturbation"},
    "bound": {"beta", "out", "seed", "order", "samples"},
    "sweep": _MODEL_SETTINGS | {"axis", "values"},
    "classify": _MODEL_SETTINGS | {"grid"},
}
GOOD = {"sector": "baby", "potential": "old:1", "beta": "1", "mu": "1", "n": "1",
        "alpha_k": "2", "grid": "1000", "out": "o", "seed": "0", "order": "3",
        "samples": "1000", "axis": "mu", "values": "0.1,0.05,0.02",
        "inject_perturbation": "true"}
# a value each command that reads the setting refuses; {tmp} is the test's directory
BAD = {"sector": "mars", "potential": "mexican", "beta": "nan", "mu": "inf", "n": "1.5",
       "alpha_k": "abc", "grid": "1", "out": "{tmp}/missing/o", "seed": "1.5",
       "order": "65", "samples": "-5", "axis": "gamma", "values": "0.5",
       "inject_perturbation": "maybe"}
# what a command needs besides defaults to succeed
BASE = {"bound": {"samples": "1000"}, "sweep": {"values": "0.1,0.05,0.02"}}


def _flag(name: str, value: str | None = None) -> str:
    flag = "--" + name.replace("_", "-")
    return flag if value is None else f"{flag}={value}"


def _base_flags(command: str, tmp_path, without: str) -> list[str]:
    settings = {"out": str(tmp_path / "o"), **BASE.get(command, {})}
    return [_flag(k, v) for k, v in settings.items() if k != without]


class TestSettings:
    """Each setting is declared once; a config file line is the flag it names."""

    def test_each_command_takes_the_settings_it_reads(self):
        commands = build_parser().commands
        assert set(commands) == set(READS)
        flags = {c: {o for a in p._actions for o in a.option_strings
                     if o.startswith("--") and o != "--help"} for c, p in commands.items()}
        for command, reads in READS.items():
            assert flags[command] == {"--config"} | {_flag(k) for k in reads}
        assert sum(map(len, flags.values())) == 48
        assert sum(map(len, READS.values())) == 43
        assert set(GOOD) == {f.name for f in fields(RunConfig)} - {"command"}

    def test_config_keys_are_the_flags(self, tmp_path):
        # every setting a command reads, as lines of one file, reads as its flags do
        keys = 0
        for command, reads in READS.items():
            path = tmp_path / f"{command}.cfg"
            path.write_text("".join(f"{k}={GOOD[k]}\n" for k in sorted(reads)))
            flags = [_flag(k) if k == "inject_perturbation" else _flag(k, GOOD[k])
                     for k in sorted(reads)]
            parsed = vars(build_parser().commands[command].parse_args(flags))
            assert read_config_file(str(path), command) == parsed
            keys += len(parsed)
        assert keys == 43

    @pytest.mark.parametrize("value,flagged", [("true", True), ("false", False)])
    def test_switch_line_is_the_flag_or_its_absence(self, tmp_path, value, flagged):
        path = tmp_path / "v.cfg"
        path.write_text(f"inject_perturbation={value}\n")
        assert read_config_file(str(path), "verify") == {"inject_perturbation": flagged}

    @pytest.mark.parametrize("command,name", sorted((c, k) for c, r in READS.items() for k in r))
    def test_bad_value_fails_as_flag_and_as_line(self, tmp_path, capfd, command, name):
        bad = BAD[name].format(tmp=tmp_path)
        base = _base_flags(command, tmp_path, name)
        assert main([command, *base, _flag(name, bad)]) == 1
        flag_out, flag_err = capfd.readouterr()
        path = tmp_path / "run.cfg"
        path.write_text(f"# one bad line\n{name}={bad}\n")
        assert main([command, *base, "--config", str(path)]) == 1
        file_out, file_err = capfd.readouterr()
        assert flag_err.count("\n") == 1 and flag_err.endswith("\n")
        # the same line, which names the file's line where the parser refused it
        assert file_err in (flag_err, flag_err.replace("error: ", f"error: {path}:2: ", 1))
        assert "Traceback" not in flag_err + file_err
        assert not list(tmp_path.glob("o.*"))

    @pytest.mark.parametrize("command,name", sorted(
        (c, k) for c in READS for k in GOOD if k not in READS[c]))
    def test_unread_setting_is_refused_as_flag_and_as_line(self, tmp_path, capfd, command,
                                                          name):
        base = _base_flags(command, tmp_path, name)
        flag = _flag(name) if name == "inject_perturbation" else _flag(name, GOOD[name])
        assert main([command, *base, flag]) == 1
        assert capfd.readouterr().err == (f"dbisol {command}: error: unrecognized arguments: "
                                          f"{flag}\n")
        path = tmp_path / "run.cfg"
        # false is the switch's absence, yet a command that does not read it refuses it
        path.write_text(f"{name}={'false' if name == 'inject_perturbation' else GOOD[name]}\n")
        assert main([command, *base, "--config", str(path)]) == 1
        assert capfd.readouterr().err == (f"dbisol {command}: error: {path}:1: unrecognized "
                                          f"arguments: {flag}\n")
        assert not list(tmp_path.glob("o.*"))

    @pytest.mark.parametrize("line,message", [
        ("command=bound", "unrecognized arguments: --command=bound"),
        ("config=other.cfg", "a config file cannot name another"),
        ("sector", "expected key=value"),
        ("sec=baby", "unrecognized arguments: --sec=baby"),
        ("inject_perturbation=maybe",
         "argument --inject-perturbation: ignored explicit argument 'maybe'"),
    ])
    def test_file_line_errors_name_the_line(self, tmp_path, capfd, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"\n# comment\n{line}\n")
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "v")]) == 1
        out, err = capfd.readouterr()
        assert err == f"dbisol verify: error: {path}:3: {message}\n"
        assert out == ""

    def test_flags_override_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("order=2\nsamples=1000\nseed=5\n")
        assert main(["bound", "--config", str(path), "--seed", "6",
                     "--out", str(tmp_path / "b")]) == 0
        data = json.loads((tmp_path / "b.json").read_text())
        assert (data["order"], data["samples"], data["seed"]) == (2, 1000, 6)

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dbisol bound [-h] [--config CONFIG]")


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
        assert RunConfig(**cfg.to_dict()) == cfg

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
    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 2.00 GiB for an array",
         "error: ran out of memory: Unable to allocate 2.00 GiB for an array\n"),
        ("", "error: ran out of memory\n")])
    def test_memory_error_prints_one_line(self, tmp_path, capsys, message, line):
        # a large enough --grid can ask numpy for more memory than there is
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        with mock.patch("dbisol.profiles.solve_profile", exhausted):
            code = main(["verify", "--out", str(tmp_path / "v")])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == line
        assert "Traceback" not in out + err
        assert not (tmp_path / "v.json").exists()

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dbisol.cli", "solve", "--out", str(tmp_path / "m")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "energy_quadrature" in proc.stdout
