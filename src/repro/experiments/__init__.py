"""Experiment drivers, and the one table of the artifacts they render.

A figure driver has ``run(...) -> dict``, ``render(result) -> str`` and,
when the figure has an SVG, ``render_svg(result) -> str``. Budgets come
from ``REPRO_INSTRUCTIONS`` / ``REPRO_WARMUP`` / ``REPRO_BENCHMARKS``
when set (see :mod:`repro.experiments.common`).

This module imports no driver, no ``common`` and no sweep code:
``repro.cli`` imports it for the figure ids, and :func:`artifact_files`
imports a driver only when it renders that driver's artifact.
"""

from __future__ import annotations

import importlib
from typing import Dict, NamedTuple, Optional


class Artifact(NamedTuple):
    """One row: the files ``benchmarks/output/<name>.txt`` (and ``.svg``),
    rendered by this package's driver module ``name`` or, for an ablation,
    by the ``study`` function of :mod:`~repro.experiments.ablations`."""

    name: str
    figure: Optional[str] = None  #: its ``repro figure`` id
    study: Optional[str] = None   #: an ablation's function


ARTIFACTS: Dict[str, Artifact] = {a.name: a for a in (
    Artifact("fig01_topdown", figure="fig01"),
    Artifact("fig03_prior_techniques", figure="fig03"),
    Artifact("fig04_fec_fraction", figure="fig04"),
    Artifact("fig09_mpki", figure="fig09"),
    Artifact("fig10_speedup", figure="fig10"),
    Artifact("fig11_late_prefetches", figure="fig11"),
    Artifact("fig12_fec_stall_reduction", figure="fig12"),
    Artifact("fig13_table_sensitivity", figure="fig13"),
    Artifact("fig14_btb_sensitivity", figure="fig14"),
    Artifact("fig15_storage_efficiency", figure="fig15"),
    Artifact("fig16_trigger_distribution", figure="fig16"),
    Artifact("tab01_config", figure="tab01"),
    Artifact("tab04_ppki_accuracy", figure="tab04"),
    Artifact("tab05_energy_area", figure="tab05"),
    # extension (beyond the paper's figures)
    Artifact("ext_related_work", figure="ext_related_work"),
    # ablations of the Section 5 design choices: no figure id, as
    # ``emissary_knobs`` always simulates
    Artifact("ablation_candidate_filter", study="candidate_filter"),
    Artifact("ablation_emissary_knobs", study="emissary_knobs"),
    Artifact("ablation_ftq_depth", study="ftq_depth"),
    Artifact("ablation_insertion_prob", study="insertion_probability"),
    Artifact("ablation_itlb", study="itlb"),
    Artifact("ablation_table_geometry", study="table_geometry"),
)}

#: ``repro figure`` id -> artifact name
FIGURES = {a.figure: a.name for a in ARTIFACTS.values() if a.figure}


def artifact_files(name: str) -> Dict[str, str]:
    """Render artifact ``name``: ``{file name: text}``.

    ``<name>.txt`` is the rendered table plus one newline, and
    ``<name>.svg`` is added when the driver has ``render_svg``: the
    bytes committed in ``benchmarks/output/``. Cells come from the
    result store, and only the misses simulate.
    """
    study = ARTIFACTS[name].study
    if study is None:
        driver = importlib.import_module(__name__ + "." + name)
        result = driver.run()
        text = driver.render(result)
    else:  # one module of studies, with one renderer titled per study
        driver = importlib.import_module(__name__ + ".ablations")
        result = getattr(driver, study)()
        text = driver.render(result, driver.TITLES[study])
    files = {name + ".txt": text + "\n"}
    if hasattr(driver, "render_svg"):
        files[name + ".svg"] = driver.render_svg(result)
    return files
