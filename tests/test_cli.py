import json
import re

import numpy as np
import pytest

from loghls.cli import main
from loghls.flows import entropy_dissipation_rate, heat_evolve, heat_state, reverse_entropy
from loghls.grids import integrate
from loghls.specs import RunConfig, parse_input_spec, realize_sphere


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
    for spec in ("bad:spec", "sphere-optimizer:t=1,n=(0,0.6,0.800000001)"):
        code, out, err = run_cli(capsys, "eval", spec)
        assert code == 2
        assert "invalid input" in err
    assert "is not a unit 3-vector within 1e-12 (|n| = 1.0000000007999998)" in err


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
    """heatflow takes the density of a sphere spec (a legendre one with
    c0 = 1) and ks a planar density; anything else exits 2, as eval and
    stability do (each once exited 1 or ended in a traceback)."""
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


@pytest.mark.parametrize("command", ["eval", "heatflow"])
def test_legendre_degree_named_twice_is_invalid_input(capsys, command):
    """c1 and c01 name one degree: exit 2 with both keys named (it once
    exited 0 and evaluated 1 + 0.2z)."""
    code, out, err = run_cli(capsys, command, "legendre:c0=1,c1=0.5,c01=0.2")
    assert code == 2 and out == ""
    assert "invalid input" in err and "'c1' and 'c01'" in err


@pytest.mark.parametrize("command", ["eval", "stability"])
def test_circle_radius_past_the_mode_cap_is_invalid_input(capsys, command):
    """A Poisson kernel past the mode cap is invalid input (it once exited
    1 on circle_optimizer's DomainError), and the bound the message prints
    is one that r itself may take: r = 0.99939 was refused "(r <= 0.99939)"
    when the cap is e^(-40/65536) = 0.99938981.  At that bound eval's
    int e^u is taken on the grid that resolves u (it once read 6.45)."""
    for r in ("0.9995", "0.99939"):
        code, out, err = run_cli(capsys, command, f"circle-poisson:r={r}")
        assert code == 2 and out == ""
        assert "invalid input" in err and "cap of 65536" in err
        bound = re.search(r"r <= ([0-9.]+)\)", err).group(1)
        assert float(bound) < float(r)
    code, out, _ = run_cli(capsys, "eval", f"circle-poisson:r={bound}")
    assert code == 0 and json.loads(out)["domain"] == "circle"
    assert abs(json.loads(out)["exp_integral"] - 1.0) <= 1e-12


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


@pytest.mark.parametrize("spec", [
    "sphere-optimizer:t=0.8,n=(0,0.6,0.8)",
    "band-limited-random:seed=7,L=6,amplitude=0.25",
], ids=["tilted-optimizer", "random"])
def test_heatflow_takes_any_sphere_density(capsys, spec):
    """heatflow runs on densities that are not zonal; each sample's H, D
    and L1 distance come from one evolved field, with the numbers of the
    separate library calls."""
    code, out, _ = run_cli(capsys, "heatflow", spec, "--T", "1", "--samples", "4")
    assert code == 0
    data = json.loads(out)
    assert data["decay_pass"] is True
    traj = data["trajectory"]
    st0 = heat_state(realize_sphere(parse_input_spec(spec), RunConfig()))
    states = [heat_evolve(st0, t) for t in traj["t"]]
    assert traj["free_energy"] == [reverse_entropy(st) for st in states]
    assert traj["dissipation"] == [entropy_dissipation_rate(st) for st in states]
    assert traj["distance_L1"] == [integrate(np.abs(st.rho.values - 1.0), st.rho.grid)
                                   for st in states]
    H0 = reverse_entropy(st0)
    assert all(H <= np.exp(-4.0 * t) * H0 for t, H in zip(traj["t"][1:], traj["free_energy"][1:]))
    assert data["trajectory"]["diagnostics"]["H0"] == H0


def test_heatflow_reports_a_band_the_dissipation_check_refuses(capsys):
    """A density whose band reaches the grid's top degree is evolved and
    reported like any other; the dissipation block holds the band rule's
    refusal, and the run exits 1.  The steep sphere optimizers are such
    densities (they once exited 1 with no report, on a quadrature mass
    1e-12 off 1)."""
    for spec in ("band-limited-random:seed=1,L=32,amplitude=1",
                 "sphere-optimizer:t=2.5,n=(0,0,1)", "sphere-optimizer:t=3,n=(0,0,1)"):
        code, out, _ = run_cli(capsys, "heatflow", spec, "--T", "1", "--samples", "4")
        assert code == 1
        data = json.loads(out)
        assert len(data["trajectory"]["t"]) == 5 and data["decay_pass"] is True
        assert data["dissipation"] == {
            "error": "dissipation_check: dt = 0.001 too large for the band limit l = 127 "
                     "(backward step would amplify noise)"}


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
    ("eval", "gaussian:sigma=1", "--rmax", "0"),
    ("eval", "gaussian:sigma=1", "--rmax", "nan"),
    ("eval", "gaussian:sigma=1", "--rmax", "inf"),
], ids=lambda argv: f"{argv[0]} {argv[-2][2:]}={argv[-1]}")
def test_non_positive_T_is_invalid_input(capsys, argv):
    """--T and --rmax take a finite number > 0 (--rmax 0 once ran the
    default grid)."""
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
    ("radial_n = 1000.7", ("eval", "gaussian:sigma=1")),
], ids=["ks_T", "ks_dt", "radial_n", "grid-n", "grid-n-zero", "ks-grid-n", "radial_n-text",
        "ks_T-text", "radial_n-fraction"])
def test_invalid_config_is_invalid_input(tmp_path, capsys, line, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "invalid input" in err and "RunConfig" in err


@pytest.mark.parametrize("lines,argv", [
    ("ks_n = 128\nsphere_nz = 64", ("duality-demo",)),
    ("radial_n = 512", ("heatflow", "1+0.5*P1")),
    ("circle_n = 1024", ("ks", "8pi*optimizer:s=1")),
    ("ks_T = 5", ("eval", "gaussian:sigma=1")),
    ("ks_dt = 1e-3", ("suite", "--ids", "A06")),
], ids=["duality-demo", "heatflow", "ks", "eval", "suite"])
def test_config_key_the_command_does_not_read_is_invalid_input(tmp_path, capsys, lines, argv):
    """A valid key that the command never reads is refused, naming the key
    and the command, instead of being echoed as if it had been used."""
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(lines + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    keys = ", ".join(repr(line.split(" = ")[0]) for line in sorted(lines.split("\n")))
    assert f"the config file {cfg} sets {keys}, which {argv[0]} does not read" in err


@pytest.mark.parametrize("line,argv", [
    ("radial_n = 512", ("eval", "sphere-optimizer:t=1")),
    ("radial_span = 20", ("stability", "circle-cos:eps=0.3")),
    ("circle_n = 1024", ("eval", "gaussian:sigma=1")),
    ("circle_n = 1024", ("stability", "band-limited-random:seed=7,L=6,amplitude=0.25")),
    ("sphere_nz = 64", ("eval", "circle-cos:eps=0.3")),
    ("sphere_nphi = 64", ("stability", "circle-poisson:r=0.5")),
], ids=["radial-sphere", "radial-circle", "circle-plane", "circle-sphere", "sphere-circle",
        "sphere-circle-stability"])
def test_config_key_the_spec_does_not_read_is_invalid_input(tmp_path, capsys, line, argv):
    """A grid key the spec's domain never reads is refused, as the grid
    flags are, instead of being echoed as if it had sized a grid."""
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    domain = {"sphere-optimizer": "sphere", "circle-cos": "circle", "gaussian": "plane",
              "band-limited-random": "sphere", "circle-poisson": "circle"}[argv[1].split(":")[0]]
    key = line.split(" = ")[0]
    assert (f"the config file {cfg} sets {key!r}, which {argv[0]} does not read "
            f"on a {domain} spec") in err


def test_ks_grid_flags_size_the_flow_grid(tmp_path, capsys):
    """On ks, --grid-n, --rmax and --T set ks_n, ks_rmax and ks_T, the flow
    grid and the end time, over a config file's values; the radial grid of
    the initial data keeps its default."""
    cfg = tmp_path / "ks.cfg"
    cfg.write_text("ks_n = 512\nks_T = 5\n")
    code, out, _ = run_cli(capsys, "ks", "8pi*gaussian:sigma=1", "--T", "0.5", "--samples", "4",
                           "--grid-n", "2048", "--rmax", "1e5", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert (data["config"]["ks_n"], data["config"]["ks_rmax"]) == (2048, 1e5)
    assert data["config"]["ks_T"] == data["trajectory"]["t"][-1] == 0.5
    assert data["config"]["radial_rmax"] == 1e4
    diagnostics = data["trajectory"]["diagnostics"]
    assert (diagnostics["n"], diagnostics["r_max"]) == (2048, 1e5)


@pytest.mark.parametrize("argv,key,domain", [
    (("eval", "sphere-optimizer:t=1,n=(0,0,1)", "--grid-n", "2048"), "radial_n", "sphere"),
    (("stability", "circle-cos:eps=0.3", "--rmax", "1e3"), "radial_rmax", "circle"),
], ids=["eval-sphere", "stability-circle"])
def test_grid_flags_on_a_spec_without_a_radial_grid_are_invalid_input(capsys, argv, key, domain):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{argv[2]} sets {key!r}, which {argv[0]} does not read on a {domain} spec" in err


@pytest.mark.parametrize("argv", [
    ("heatflow", "1+0.5*P1", "--grid-n", "2048"),
    ("duality-demo", "--rmax", "1e3"),
])
def test_commands_without_a_sized_grid_take_no_grid_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


COMMAND_ARGS = {
    "eval": ("gaussian:sigma=1",),
    "stability": ("gaussian:sigma=1",),
    "heatflow": ("1+0.5*P1",),
    "ks": ("8pi*optimizer:s=1",),
    "duality-demo": (),
    "suite": ("--ids", "A06"),
}


@pytest.mark.parametrize("command,flag", [
    pytest.param(command, flag, id=f"{command} {flag.split()[0]}")
    for command in COMMAND_ARGS for flag in ("--seed 1", "--oracle", "--dt 1e-3")
    if (command, flag) != ("stability", "--oracle")])
def test_removed_options_are_unrecognized(capsys, command, flag):
    """--seed changed no command's output, --oracle only stability's and
    heatflow's --dt had one value in use: each is now an unknown argument."""
    with pytest.raises(SystemExit) as exc:
        main([command, *COMMAND_ARGS[command], *flag.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "band-limited-random:seed=7,L=6,amplitude=0.25",
    "circle-cos:eps=0.3",
    "optimizer:s=1.5,x0=(0.7,-0.4)",
], ids=["sphere", "circle", "off-center"])
def test_oracle_without_a_radial_search_is_invalid_input(capsys, spec):
    """The oracle sweeps the radial search; a spec that has none refuses
    --oracle instead of printing a certificate without oracle_distance."""
    code, out, err = run_cli(capsys, "stability", spec, "--oracle")
    assert code == 2 and out == ""
    assert "--oracle sweeps the radial search of a centered plane spec" in err


def test_oracle_adds_the_dense_sweep_distance(capsys):
    code, out, _ = run_cli(capsys, "stability", "optimizer:s=2", "--oracle")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["distance"] <= cert["search"]["oracle_distance"] + 1e-9
    code, out, _ = run_cli(capsys, "stability", "optimizer:s=2")
    assert code == 0 and "oracle_distance" not in json.loads(out)["certificate"]["search"]


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


@pytest.mark.parametrize("how", ["flag", "config"])
def test_suite_out_needs_json(tmp_path, capsys, how):
    """suite writes its JSON summary to --out or the config's out only with
    --json; without it the path would be left unwritten, so it is refused."""
    path = tmp_path / "s.json"
    cfg = tmp_path / "out.cfg"
    cfg.write_text(f"out = {path}\n")
    extra = ("--out", str(path)) if how == "flag" else ("--config", str(cfg))
    code, out, err = run_cli(capsys, "suite", "--ids", "A06", *extra)
    assert code == 2 and out == "" and not path.exists()
    source = "--out" if how == "flag" else f"the config file {cfg}"
    assert f"{source} sets 'out', which suite does not read without --json" in err
    code, out, _ = run_cli(capsys, "suite", "--ids", "A06", "--json", *extra)
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["all_pass"] is True


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


@pytest.mark.parametrize("line", ["seed = 1", "oracle = true"])
def test_removed_config_keys_are_unknown(tmp_path, capsys, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "eval", "gaussian:sigma=1", "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"unknown config key {line.split()[0]!r}" in err


def test_tol_is_not_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["stability", "gaussian:sigma=1", "--tol", "1e-1"])
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol = 1e-1\n")
    code, _, err = run_cli(capsys, "eval", "gaussian:sigma=1", "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'tol'" in err
