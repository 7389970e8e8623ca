"""The artifact table: every committed artifact, its driver and its bytes."""

import importlib
import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments import ARTIFACTS, FIGURES, artifact_files
from repro.simulator import runner
from repro.simulator.cache import open_store

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "benchmarks" / "output"

#: always simulates (15 hand-built cells, ~30 s): its knobs are in no
#: run key, so the store cannot hold its cells
SIMULATES = {"ablation_emissary_knobs"}


def driver(figure_id):
    return importlib.import_module("repro.experiments." + FIGURES[figure_id])


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_driver_surface(figure_id):
    module = driver(figure_id)
    assert callable(getattr(module, "run"))
    assert callable(getattr(module, "render"))


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_driver_documented(figure_id):
    module = driver(figure_id)
    assert module.__doc__ and len(module.__doc__) > 40


def test_all_paper_artifacts_registered():
    for fig in ("fig01", "fig03", "fig04", "fig09", "fig10", "fig11",
                "fig12", "fig13", "fig14", "fig15", "fig16",
                "tab01", "tab04", "tab05"):
        assert fig in FIGURES


def test_benches_exist_for_every_figure():
    # the one harness renders every row; every id `repro figure` takes
    # must be a row's
    sub = next(a for a in build_parser()._actions
               if a.dest == "command").choices["figure"]
    choices = next(a for a in sub._actions if a.dest == "figure").choices
    rows = {a.figure for a in ARTIFACTS.values() if a.figure is not None}
    assert set(choices) - {"all"} == rows
    assert len(rows) == 15


def test_output_holds_exactly_the_tables_files():
    files = sorted(p.name for p in OUTPUT.iterdir())
    assert {f.rsplit(".", 1)[0] for f in files} == set(ARTIFACTS)
    assert {f.rsplit(".", 1)[1] for f in files} == {"txt", "svg"}
    for name in ARTIFACTS:
        assert name + ".txt" in files


@pytest.mark.parametrize("name", sorted(set(ARTIFACTS) - SIMULATES))
def test_artifact_matches_committed_output(name, tmp_path, monkeypatch):
    store = tmp_path / "store"
    shutil.copytree(ROOT / ".repro-results" / "store", store)
    monkeypatch.setenv("REPRO_STORE", str(store))
    for var in ("REPRO_BENCHMARKS", "REPRO_INSTRUCTIONS", "REPRO_WARMUP",
                "REPRO_JOBS"):
        monkeypatch.delenv(var, raising=False)

    def simulate(*args, **kwargs):
        raise AssertionError("%s missed the committed store" % name)

    monkeypatch.setattr(runner, "build_machine", simulate)
    try:
        files = artifact_files(name)
    finally:
        open_store().close()
    assert {f: text.encode() for f, text in files.items()} == {
        p.name: p.read_bytes() for p in OUTPUT.glob(name + ".*")}
