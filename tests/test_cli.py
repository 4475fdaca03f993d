import numpy as np
import pytest

from pitaevskii.cli import main as cli_main

SMALL_RUN = ("grid.d = 2\ngrid.n = 16, 16\nintegrator.dt_init = 0.002\n"
             "experiment.T = 0.02\n")


@pytest.mark.parametrize("command, written, verdict", [
    ("stability", "stability.csv", True),
    ("convergence", None, True),
    ("oracle", "oracle.csv", False),
])
def test_cli_subcommand_smoke(tmp_path, capsys, command, written, verdict):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN + f"output.dir = {out_dir}\n")
    assert cli_main([command, str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    if written is not None:
        path = out_dir / written
        assert path.read_text().count("\n") > 1
        assert f"series: {path}" in lines
    assert any(ln.startswith("verdict: pass") for ln in lines) == verdict


IDENTITY_CHECKS = ["coupling quadratic form", "source-form equivalence",
                   "mass-exchange antisymmetry", "projector divergence", "helmholtz residual",
                   "parseval"]


@pytest.mark.parametrize("d, n", [
    pytest.param(1, "16", id="1d"),
    pytest.param(2, "16, 16", id="2d"),
    pytest.param(3, "8, 8, 8", id="3d"),
])
def test_validate_smoke(tmp_path, capsys, d, n):
    # the identity loop and the inequality validator on a small grid of each
    # dimension: the same checks, each passing
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid.d = {d}\ngrid.n = {n}\n")
    assert cli_main(["validate", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines[:len(IDENTITY_CHECKS)]] == IDENTITY_CHECKS
    assert all(": pass (" in ln for ln in lines if not ln.startswith(("note:", "verdict:")))
    assert lines[-1] == "verdict: pass"


def test_validate_fails_on_a_broken_exchange_body(tmp_path, capsys, monkeypatch):
    # validate reads the exchange field the step forms: scaled by 1.01, the
    # density source no longer balances the wavefunction's mass loss
    from pitaevskii import model

    body = model._exchange_field
    monkeypatch.setattr(model, "_exchange_field", lambda psi, coupling: 1.01 * body(psi, coupling))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.d = 2\ngrid.n = 16, 16\n")
    assert cli_main(["validate", str(cfg)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("mass-exchange antisymmetry: FAIL") for ln in lines)
    assert lines[-1] == "verdict: FAIL"


def test_simulate_without_viscosity_reports_the_growth_budget(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.d = 2\ngrid.n = 16, 16\nintegrator.dt_init = 0.002\n"
                   f"experiment.T = 0.002\nparams.nu = 0\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["simulate", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "growth budget (gamma=1.0, informational): inf" in lines


def test_oracle_at_zero_horizon_writes_the_initial_point(tmp_path):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.d = 2\ngrid.n = 16, 16\nexperiment.T = 0\nic.mode = 1, 0\n"
                   "ic.wave_amp = 0.5\nic.wave_phase = 0.3\nic.velocity = 0.2, -0.1\n"
                   f"ic.rho0 = 1.1\noutput.dir = {out_dir}\n")
    assert cli_main(["oracle", str(cfg)]) == 0
    a0 = 0.5 * np.exp(0.3j)
    initial = [0.0, a0.real, a0.imag, abs(a0), 0.2, -0.1, 1.1]
    rows = (out_dir / "oracle.csv").read_text().splitlines()[1:]
    assert len(rows) == 401
    for row in rows:
        cells = [float(c) for c in row.split(",")]
        assert cells[:7] == initial
        assert cells[7] == 1.1 + abs(a0) ** 2


def test_convergence_rejects_a_zero_horizon(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN.replace("experiment.T = 0.02", "experiment.T = 0")
                   + f"output.dir = {tmp_path / 'out'}\n")
    assert cli_main(["convergence", str(cfg)]) == 2
    assert "needs experiment.T > 0" in capsys.readouterr().err


def test_stability_without_a_fitted_margin_is_inconclusive(tmp_path, capsys):
    # three records leave no envelope to fit: no verdict and exit code 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN.replace("experiment.T = 0.02", "experiment.T = 0.004")
                   + f"experiment.delta_p = 1e-6\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["stability", str(cfg)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "envelope margin: n/a" in lines
    assert "verdict: inconclusive" in lines


def test_snapshot_cadence(tmp_path, capsys):
    # every third step plus the initial and final states, written as the run
    # takes them
    from pitaevskii.snapshot_io import read_snapshot_meta

    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.d = 2\ngrid.n = 32, 32\nintegrator.dt_init = 0.002\n"
                   f"experiment.T = 0.02\noutput.snapshot_every = 3\noutput.dir = {out_dir}\n")
    assert cli_main(["simulate", str(cfg)]) == 0
    names = sorted(p.name for p in out_dir.glob("snap_*.pitv"))
    assert names == [f"snap_{i:06d}.pitv" for i in range(5)]
    times = [read_snapshot_meta(out_dir / name)[1] for name in names]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.02, abs=1e-12)
    assert times[1:4] == pytest.approx([0.006, 0.012, 0.018], abs=1e-12)


def test_simulate_scales_the_mass_check_by_the_largest_adaptive_step(tmp_path, capsys):
    # the adaptive run takes ten steps of 1e-2: a tolerance scaled by
    # dt_init = 5e-4 failed it with margin -2.3e-5
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.d = 2\ngrid.n = 16, 16\nexperiment.T = 0.1\nintegrator.adaptive = true\n"
                   f"output.dir = {tmp_path / 'out'}\n")
    assert cli_main(["simulate", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "steps: 10   final time: 0.09999999999999999" in lines
    assert any(ln.startswith("bound total_mass_constant: pass") for ln in lines)


def test_convergence_rejects_adaptive_dt(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN + f"integrator.adaptive = true\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["convergence", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the convergence study refines a fixed step")
