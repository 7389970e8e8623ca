"""Regenerate every committed artifact into ``benchmarks/output/``.

One benchmark per row of :data:`repro.experiments.ARTIFACTS`: it renders
the artifact with :func:`repro.experiments.artifact_files` (through the
result store, so repeated runs are cheap), writes its ``.txt`` and
``.svg`` files and prints its table::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

Budget control (environment variables):

* ``REPRO_INSTRUCTIONS`` / ``REPRO_WARMUP`` — per-run instruction budget
  (defaults 400k/120k, ablations 200k/60k; use e.g. 60000/20000 for a
  quick smoke pass);
* ``REPRO_BENCHMARKS`` — comma-separated benchmark subset or ``all``;
* ``REPRO_JOBS`` — worker processes for the figure grids.
"""

from pathlib import Path

import pytest

from repro.experiments import ARTIFACTS, artifact_files

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact(benchmark, name):
    files = benchmark.pedantic(artifact_files, args=(name,), rounds=1,
                               iterations=1)
    OUTPUT_DIR.mkdir(exist_ok=True)
    for file_name, text in files.items():
        (OUTPUT_DIR / file_name).write_text(text)
    print()
    print(files[name + ".txt"], end="")
