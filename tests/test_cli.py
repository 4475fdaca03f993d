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
