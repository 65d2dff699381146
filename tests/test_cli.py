import json

import numpy as np
import pytest

from loghls.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_optimizer(capsys):
    code, out, _ = run_cli(capsys, "eval", "optimizer:s=1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["free_energy"]) <= 1e-6
    assert abs(data["mass"] - 1.0) <= 1e-6


def test_eval_gaussian(capsys):
    code, out, _ = run_cli(capsys, "eval", "gaussian:sigma=1")
    assert code == 0
    data = json.loads(out)
    assert data["free_energy"] == pytest.approx(0.115932, abs=1e-4)
    assert data["entropy_term"] == pytest.approx(-np.log(2 * np.pi) - 1.0, abs=1e-6)


def test_eval_bad_spec_exit_2(capsys):
    code, out, err = run_cli(capsys, "eval", "bad:spec")
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("argv", [
    ("stability", "optimizer:s=inf"),
    ("stability", "gaussian:sigma=inf"),
    ("stability", "gaussian:sigma=nan"),
    ("stability", "optimizer:s=1e-200"),
    ("stability", "perturbed-optimizer:eps=0.1,mode=1,s=1e-200"),
    ("ks", "8pi*optimizer:s=1e-200"),
    ("stability", "gaussian:sigma=1e-300"),
], ids=lambda argv: f"{argv[0]} {argv[1]}")
def test_unrepresentable_scale_is_invalid_input(capsys, argv):
    """A scale whose square or inverse square overflows or underflows is
    rejected by the parser (each once ended in a traceback with exit 1)."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "invalid input" in err and "x^2 and x^-2 finite and nonzero" in err


@pytest.mark.parametrize("argv", [
    ("stability", "optimizer:s=1e-150"),
    ("stability", "gaussian:sigma=1e-150"),
    ("stability", "optimizer:s=1e154"),
    ("stability", "gaussian:sigma=1e150"),
    ("eval", "optimizer:s=1e5"),
    ("eval", "gaussian:sigma=1e4"),
    ("ks", "8pi*optimizer:s=1e-150"),
    ("stability", "optimizer:s=1e3"),
], ids=lambda argv: f"{argv[0]} {argv[1]}")
def test_scale_outside_the_radial_grid_is_invalid_input(capsys, argv):
    """A centered spec whose scale puts its mass outside the radial grid,
    or more than 1% of it in the grid's top tenth, is invalid input that
    names the grid's range (each once exited 1, at a zero mass or at the
    interaction's top-decade guard)."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "invalid input" in err and "on the radial grid [1.38879e-07, 10000]" in err


@pytest.mark.parametrize("argv", [
    ("heatflow", "gaussian:sigma=1"),
    ("heatflow", "legendre:c1=0.5"),
    ("heatflow", "0.5*P1"),
    ("heatflow", "legendre:c0=2"),
    ("heatflow", "legendre:c0=1,c1=nan"),
    ("heatflow", "legendre:c0=1,c1=(1,2)"),
    ("ks", "8pi*sphere-optimizer:t=1"),
    ("ks", "8pi*circle-cos:eps=0.3"),
], ids=lambda argv: f"{argv[0]} {argv[1]}")
def test_wrong_domain_is_invalid_input(capsys, argv):
    """heatflow takes unit-mass Legendre data and ks a planar density;
    anything else exits 2, as eval and stability do (each once exited 1
    or ended in a traceback)."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "invalid input" in err


def test_eval_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "eval", "band-limited-random:seed=4,L=4,amplitude=0.2",
                         "--grid-n", "512")
    _, out2, _ = run_cli(capsys, "eval", "band-limited-random:seed=4,L=4,amplitude=0.2",
                         "--grid-n", "512")
    assert out1 == out2


def test_stability_sphere_deterministic_output(capsys):
    spec = "band-limited-random:seed=7,L=6,amplitude=0.25"
    code, out1, _ = run_cli(capsys, "stability", spec)
    assert code == 0
    _, out2, _ = run_cli(capsys, "stability", spec)
    assert out1 == out2
    search = json.loads(out1)["onofri_certificates"][0]["search"]
    assert search["scan_evaluations"] == 273
    assert search["evaluations"] > search["scan_evaluations"] and search["iterations"] > 0


@pytest.mark.parametrize("argv", [
    ("eval", "band-limited-random:seed=5,L=4,amplitude=0.2"),
    ("stability", "band-limited-random:seed=5,L=4,amplitude=0.2"),
    ("heatflow", "1+0.5*P1", "--T", "1"),
    ("ks", "8pi*optimizer:s=1", "--T", "0.5", "--samples", "6"),
    ("duality-demo",),
], ids=lambda argv: argv[0])
def test_repeated_json_is_byte_identical(capsys, argv):
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_stability_planar(capsys):
    code, out, _ = run_cli(capsys, "stability", "gaussian:sigma=1")
    assert code == 0
    data = json.loads(out)
    cert = data["certificate"]
    assert cert["pass"] is True
    assert cert["constant"] == 0.125
    assert cert["gap"] > 0.09


def test_stability_circle(capsys):
    code, out, _ = run_cli(capsys, "stability", "circle-cos:eps=0.3")
    assert code == 0
    assert json.loads(out)["certificate"]["pass"] is True
    # a Poisson kernel whose coarse scan is best at r = 0 lies on the family
    code, out, _ = run_cli(capsys, "stability", "circle-poisson:r=0.01,alpha=2.5")
    assert code == 0
    assert json.loads(out)["certificate"]["distance"] <= 1e-8


def test_stability_circle_uses_config_grid(tmp_path, capsys):
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("circle_n = 2048\n")
    code, out, _ = run_cli(capsys, "stability", "circle-cos:eps=0.3", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["certificate"]["grid"] == "circle n=2048"
    # a grid with fewer than 4 points per mode gives way to one that has them
    code, out, _ = run_cli(capsys, "stability", "circle-poisson:r=0.8,alpha=0.9")
    assert code == 0
    assert json.loads(out)["certificate"]["grid"] == "circle n=720"


def test_eval_sphere_optimizer(capsys):
    code, out, _ = run_cli(capsys, "eval", "sphere-optimizer:t=1,n=(0,0,1)")
    assert code == 0
    data = json.loads(out)
    assert data["domain"] == "sphere"
    assert abs(data["onofri"]) <= 1e-6
    assert data["mean_u"] == pytest.approx(-0.626063, abs=1e-5)


def test_heatflow_command(tmp_path, capsys):
    csv = tmp_path / "heat.csv"
    code, out, _ = run_cli(capsys, "heatflow", "1+0.5*P1", "--T", "1",
                           "--csv", str(csv))
    assert code == 0
    data = json.loads(out)
    assert data["decay_pass"] is True
    assert data["dissipation"]["residual"] <= 1e-4
    header = csv.read_text().splitlines()[0]
    assert header == "t,free_energy,distance_L1,dissipation,mass_error"


def test_ks_command(tmp_path, capsys):
    csv = tmp_path / "ks.csv"
    code, out, _ = run_cli(capsys, "ks", "8pi*optimizer:s=1", "--T", "0.5",
                           "--samples", "6", "--csv", str(csv))
    assert code == 0
    data = json.loads(out)
    assert data["distance_bound_pass"] is True
    assert data["max_free_energy_increase_per_step"] <= 1e-8
    assert csv.exists()
    code, _, err = run_cli(capsys, "ks", "optimizer:s=1")
    assert code == 2


def test_ks_sharp_gaussian_command(capsys):
    """The sigma = 0.5 Gaussian concentrates to s ~ 0.29 by T = 10; its run
    passes the distance bound in fewer than 10,000 steps."""
    code, out, _ = run_cli(capsys, "ks", "8pi*gaussian:sigma=0.5", "--T", "10")
    assert code == 0
    data = json.loads(out)
    assert data["distance_bound_pass"] is True
    assert data["trajectory"]["diagnostics"]["steps"] < 10_000
    # the samples from t = 1.077 to 10 span 10 t_min = 10, so the rate is fit
    fit = data["rate_fit"]
    assert fit["defined"] is True
    assert np.isfinite(fit["slope_free_energy"]) and np.isfinite(fit["slope_distance"])


@pytest.mark.parametrize("argv", [
    ("ks", "8pi*optimizer:s=1", "--T", "0"),
    ("ks", "8pi*optimizer:s=1", "--T", "-1"),
    ("heatflow", "1+0.5*P1", "--T", "0"),
    ("heatflow", "1+0.5*P1", "--T", "-1"),
    ("heatflow", "1+0.5*P1", "--dt", "0"),
    ("heatflow", "1+0.5*P1", "--dt", "-1"),
    ("heatflow", "1+0.5*P1", "--dt", "nan"),
    ("eval", "gaussian:sigma=1", "--rmax", "0"),
    ("eval", "gaussian:sigma=1", "--rmax", "nan"),
    ("eval", "gaussian:sigma=1", "--rmax", "inf"),
], ids=lambda argv: f"{argv[0]} {argv[-2][2:]}={argv[-1]}")
def test_non_positive_T_is_invalid_input(capsys, argv):
    """--T, heatflow's --dt and --rmax take a finite number > 0 (a NaN dt
    once printed null residuals with exit 0, and --rmax 0 ran the default
    grid)."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    name = argv[-2][2:]
    assert f"argument --{name}: {name} must be a finite number > 0" in capsys.readouterr().err


def test_heatflow_one_sample_is_T(capsys):
    code, out, _ = run_cli(capsys, "heatflow", "1+0.5*P1", "--T", "1", "--samples", "1")
    assert code == 0
    assert json.loads(out)["trajectory"]["t"] == [0.0, 1.0]


@pytest.mark.parametrize("argv", [
    ("heatflow", "1+0.5*P1", "--samples", "0"),
    ("heatflow", "1+0.5*P1", "--samples", "-2"),
    ("ks", "8pi*optimizer:s=1", "--samples", "0"),
], ids=lambda argv: f"{argv[0]} samples={argv[-1]}")
def test_non_positive_samples_is_invalid_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "argument --samples: the count must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("line,argv", [
    ("ks_T = 0", ("ks", "8pi*optimizer:s=1")),
    ("ks_dt = 1", ("ks", "8pi*optimizer:s=1", "--T", "0.5")),
    ("radial_n = 4", ("eval", "optimizer:s=1")),
    ("", ("eval", "optimizer:s=1", "--grid-n", "4")),
    ("", ("eval", "gaussian:sigma=1", "--grid-n", "0")),
    ("", ("ks", "8pi*optimizer:s=1", "--grid-n", "32")),
    ("radial_n = abc", ("eval", "optimizer:s=1")),
    ("ks_T = abc", ("ks", "8pi*optimizer:s=1")),
], ids=["ks_T", "ks_dt", "radial_n", "grid-n", "grid-n-zero", "ks-grid-n", "radial_n-text",
        "ks_T-text"])
def test_invalid_config_is_invalid_input(tmp_path, capsys, line, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "invalid input" in err and "RunConfig" in err


def test_ks_grid_flags_size_the_flow_grid(capsys):
    """On ks, --grid-n and --rmax set ks_n and ks_rmax, the flow grid; the
    radial grid of the initial data keeps its default."""
    code, out, _ = run_cli(capsys, "ks", "8pi*gaussian:sigma=1", "--T", "0.5", "--samples", "4",
                           "--grid-n", "2048", "--rmax", "1e5")
    assert code == 0
    data = json.loads(out)
    assert (data["config"]["ks_n"], data["config"]["ks_rmax"]) == (2048, 1e5)
    assert data["config"]["radial_rmax"] == 1e4
    diagnostics = data["trajectory"]["diagnostics"]
    assert (diagnostics["n"], diagnostics["r_max"]) == (2048, 1e5)


@pytest.mark.parametrize("argv", [
    ("eval", "sphere-optimizer:t=1,n=(0,0,1)", "--grid-n", "2048"),
    ("stability", "circle-cos:eps=0.3", "--rmax", "1e3"),
], ids=["eval-sphere", "stability-circle"])
def test_grid_flags_on_a_spec_without_a_radial_grid_are_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--grid-n and --rmax size the radial grid of plane specs" in err


@pytest.mark.parametrize("argv", [
    ("heatflow", "1+0.5*P1", "--grid-n", "2048"),
    ("duality-demo", "--rmax", "1e3"),
])
def test_commands_without_a_sized_grid_take_no_grid_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_heatflow_short_T_samples_end_at_T(capsys):
    code, out, _ = run_cli(capsys, "heatflow", "1+0.5*P1", "--T", "0.005")
    assert code == 0
    t = np.array(json.loads(out)["trajectory"]["t"])
    assert t[0] == 0.0 and t[-1] == 0.005 and np.all(np.diff(t) > 0)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_ks_undefined_rate_fit_is_strict_json(capsys):
    """A rate fit that is undefined on a short run prints its slopes as
    null, never as a bare NaN."""
    code, out, _ = run_cli(capsys, "ks", "8pi*optimizer:s=2", "--T", "0.5")
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    fit = data["rate_fit"]
    assert fit["defined"] is False
    assert fit["slope_free_energy"] is None and fit["slope_distance"] is None


def test_duality_demo_command(capsys):
    code, out, _ = run_cli(capsys, "duality-demo")
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True
    code, out, _ = run_cli(capsys, "duality-demo", "--dim", "2")
    assert code == 0


def test_suite_subset(capsys):
    code, out, _ = run_cli(capsys, "suite", "--ids", "A06,A07", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert [c["id"] for c in data["criteria"]] == ["A06", "A07"]


def test_suite_unknown_id_is_invalid_input(capsys):
    """An id that names no criterion (A5 for A05) is refused, not run as
    an empty matrix that passes."""
    code, out, err = run_cli(capsys, "suite", "--ids", "A04,A5")
    assert code == 2
    assert out == "" and "unknown criterion ids A5" in err


def test_suite_coarse_grid_fails(tmp_path, capsys):
    """A deliberately coarse grid makes the equality-case criterion fail
    with a nonzero exit (designed failure mode)."""
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("radial_n = 64\nradial_span = 3\n")
    code, out, err = run_cli(capsys, "suite", "--ids", "A01", "--json",
                             "--config", str(cfg))
    assert code == 1
    assert "failing criteria" in err


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "eval", "optimizer:s=1", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["free_energy"] == pytest.approx(0.0, abs=1e-6)


def test_config_out_writes_the_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {path}\n")
    code, out, _ = run_cli(capsys, "eval", "optimizer:s=1", "--config", str(cfg))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["free_energy"] == pytest.approx(0.0, abs=1e-6)


def test_tol_is_not_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["stability", "gaussian:sigma=1", "--tol", "1e-1"])
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol = 1e-1\n")
    code, _, err = run_cli(capsys, "eval", "gaussian:sigma=1", "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'tol'" in err
