import numpy as np
import pytest

from pitaevskii.cli import main as cli_main

SMALL_RUN = ("grid.d = 2\ngrid.n = 16, 16\nintegrator.dt_init = 0.002\n"
             "experiment.T = 0.02\n")


@pytest.mark.parametrize("command, written, verdict", [
    ("stability", "stability.csv", True),
    ("convergence", None, True),
    ("validate", None, True),
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
