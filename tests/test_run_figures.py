import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"


@pytest.fixture(scope="module")
def run_figures():
    spec = importlib.util.spec_from_file_location("run_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_renders_the_requested_figures(run_figures, tmp_path, capsys):
    figures = ["fig2c", "fig3c", "fig4a", "fig4c"]
    assert run_figures.main([*figures, "--points", "2", "--out-dir", str(tmp_path)]) == 0
    for fig in figures:
        lines = (tmp_path / f"{fig}.csv").read_text().splitlines()
        assert len(lines) > 1
        assert (tmp_path / f"{fig}.csv.sidecar.json").exists()
    assert "fig2c: wrote" in capsys.readouterr().out


def test_unknown_figure_id_exits_2(run_figures, tmp_path):
    with pytest.raises(SystemExit) as info:
        run_figures.main(["fig9z", "--out-dir", str(tmp_path)])
    assert info.value.code == 2
    assert not any(tmp_path.iterdir())
