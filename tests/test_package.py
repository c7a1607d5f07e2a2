"""The package's public names, and the modules that importing it and each command load."""

import importlib
import subprocess
import sys

import pytest

import dbisol

# every name the package exports, with the module that defines it
EXPORTS = {
    "errors": ("DbisolError", "NoSolitonError", "OptimizerError", "SectorMismatchError"),
    "model": ("Chart", "KineticLaw", "ModelParams", "PotentialSpec", "Sector",
              "fit_vacuum_exponent", "make_potential"),
    "bps": ("EomResidualReport", "eom_residual"),
    "profiles": ("GridSpec", "LocalizationClass", "SolitonProfile", "angular_profile",
                 "baby_old_exact", "baby_old_radius", "classify_localization",
                 "endpoint_asymptotics", "profile_field_at", "profile_on_grid",
                 "skyrme_bps_exact", "skyrme_bps_radius", "skyrme_standard_exact",
                 "skyrme_standard_implicit_lhs", "skyrme_standard_radius", "solve_profile",
                 "tail_fit", "write_profile_csv"),
    "observables": ("BetaSweepResult", "EnergyReport", "MuSweepResult", "baby_energy_closed",
                    "bps_energy_integral", "charge_quadrature", "compute_energy_report",
                    "energy_quadrature", "energy_per_charge_average", "large_beta_sweep",
                    "power_family_energy_per_charge", "skyrme_bps_energy_closed",
                    "skyrme_standard_energy_closed", "small_mu_sweep"),
    "bounds": ("PAVLOVSKII_REFERENCE", "BoundCertificate", "RayProof", "bound_constant",
               "bound_energy", "certify", "compare_reference", "optimize_bound",
               "pointwise_slack", "prove_ray", "sharpness", "taylor_coefficients",
               "verify_pointwise", "weights_for_alpha"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestPublicNames:
    @pytest.mark.parametrize("module,name", NAMES)
    def test_resolves_to_the_defining_object(self, module, name):
        assert getattr(dbisol, name) is getattr(importlib.import_module(f"dbisol.{module}"), name)
        assert name in dir(dbisol)

    def test_all_lists_every_name(self):
        assert sorted(dbisol.__all__) == sorted(name for _, name in NAMES)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            dbisol.no_such_name  # noqa: B018

    def test_version(self):
        assert dbisol.__version__ == "0.1.0"


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def after_command(args, tmp_path) -> set[str]:
    argv = [*args, "--out", str(tmp_path / "out")]
    return loaded_modules(f"from dbisol.cli import main\nassert main({argv!r}) == 0")


# only `bound` needs these, and it needs none of the solver's
BOUND_ONLY = {"dbisol.bounds", "fractions", "decimal", "numpy.random"}
SOLVER_ONLY = {"dbisol.model", "dbisol.profiles", "dbisol.observables", "dbisol.bps",
               "dbisol._csv", "numpy.polynomial"}


class TestLoadedModules:
    def test_import_loads_only_the_errors(self):
        loaded = loaded_modules("import dbisol")
        assert {m for m in loaded if m.split(".")[0] == "dbisol"} == {"dbisol", "dbisol.errors"}
        assert "numpy" not in loaded

    def test_bound_loads_no_solver(self, tmp_path):
        loaded = after_command(["bound", "--order", "2", "--samples", "1000"], tmp_path)
        assert "dbisol.bounds" in loaded
        assert not loaded & SOLVER_ONLY

    @pytest.mark.parametrize("args", [["solve"], ["verify"], ["classify"],
                                      ["sweep", "--values", "1e-2,1e-3,1e-4"]],
                             ids=lambda args: args[0])
    def test_solver_commands_load_no_bounds(self, args, tmp_path):
        loaded = after_command(args, tmp_path)
        assert "dbisol.profiles" in loaded
        assert not loaded & BOUND_ONLY

    @pytest.mark.parametrize("axis,values", [("mu", "1e-2,1e-3,1e-4"), ("beta", "10,100,1000")])
    def test_sweep_loads_no_csv_kernel(self, axis, values, tmp_path):
        # a sweep writes its few rows with the CLI's %.17g formatter
        loaded = after_command(["sweep", "--axis", axis, "--values", values], tmp_path)
        assert "dbisol.observables" in loaded
        assert "dbisol._csv" not in loaded
