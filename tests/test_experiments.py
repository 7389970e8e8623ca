"""Tests for the experiment drivers (tiny budgets, isolated cache)."""

import pytest

from repro.experiments import (
    common,
    fig01_topdown,
    fig03_prior_techniques,
    fig04_fec_fraction,
    fig09_mpki,
    fig10_speedup,
    fig11_late_prefetches,
    fig12_fec_stall_reduction,
    fig13_table_sensitivity,
    fig14_btb_sensitivity,
    fig15_storage_efficiency,
    fig16_trigger_distribution,
    tab01_config,
    tab04_ppki_accuracy,
    tab05_energy_area,
)
from repro.simulator import runner
from repro.simulator.cache import run_key
from repro.simulator.config import MachineConfig
from repro.simulator.policies import get_policy
from repro.simulator.runner import run_benchmark

TINY = dict(instructions=6000, warmup=1500)
BENCHES = ["noop", "sibench"]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_INSTRUCTIONS", raising=False)
    monkeypatch.delenv("REPRO_WARMUP", raising=False)
    monkeypatch.delenv("REPRO_BENCHMARKS", raising=False)


class TestCommon:
    def test_budget_defaults(self):
        instructions, warmup = common.budget()
        assert instructions > warmup > 0

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "123")
        monkeypatch.setenv("REPRO_WARMUP", "45")
        assert common.budget() == (123, 45)

    def test_budget_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "123")
        assert common.budget(instructions=777)[0] == 777

    def test_suite_env_csv(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCHMARKS", "noop, tpcc")
        assert common.suite() == ["noop", "tpcc"]

    def test_suite_env_all(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCHMARKS", "all")
        assert len(common.suite(default=("noop",))) == 16

    def test_format_table(self):
        text = common.format_table(["a", "bb"], [["x", 1.5], ["yy", 2]],
                                   title="T")
        assert "T" in text and "x" in text and "1.50" in text


class TestCollect:
    """``collect`` resolves a figure's grid through the sweep executor."""

    def test_result_order_is_the_requested_order(self):
        benches, policies = ["noop", "sibench"], ["pdip_44", "baseline"]
        # the store already holds the later cells, not the first ones
        for bench, policy in (("sibench", "pdip_44"), ("sibench", "baseline"),
                              ("noop", "baseline")):
            run_benchmark(bench, policy, **TINY)
        grid = common.collect(policies, benches, TINY["instructions"],
                              TINY["warmup"])
        assert list(grid) == benches
        assert [list(row) for row in grid.values()] == [policies, policies]

    def test_failing_cell_raises_naming_it(self, monkeypatch):
        simulate = runner.run_benchmark

        def flaky(benchmark, policy, **kwargs):
            if (benchmark, policy.name) == ("noop", "pdip_44"):
                raise ValueError("injected failure")
            return simulate(benchmark, policy, **kwargs)

        monkeypatch.setattr(runner, "run_benchmark", flaky)
        with pytest.raises(RuntimeError) as failure:
            common.collect(["baseline", "pdip_44"], ["noop"],
                           TINY["instructions"], TINY["warmup"])
        message = str(failure.value)
        assert message.startswith("1 grid cell(s) failed: noop (pdip_44): ")
        assert "injected failure" in message

    def test_figure_writes_no_state_file_or_manifest(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        monkeypatch.delenv("REPRO_NO_MANIFEST", raising=False)
        fig09_mpki.run(benchmarks=BENCHES, **TINY)  # cold
        fig09_mpki.run(benchmarks=BENCHES, **TINY)  # warm
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]

    def test_fig14_keys_are_the_machine_config_keys(self, store_lookups):
        sizes = (2048, 4096)
        fig14_btb_sensitivity.run(benchmarks=["noop"], btb_sizes=sizes,
                                  **TINY)
        policies = ("baseline",) + fig14_btb_sensitivity.POLICIES
        want = [run_key("noop", get_policy(policy), TINY["instructions"],
                        TINY["warmup"], 1, MachineConfig(btb_entries=entries))
                for entries in sizes for policy in policies]
        assert [key for key, _ in store_lookups] == want


class TestSlowFigures:
    """Each driver runs end-to-end at a tiny budget and renders."""

    def test_fig01(self):
        result = fig01_topdown.run(**TINY)
        assert sum(result["measured"].values()) == pytest.approx(100, abs=1)
        assert "Figure 1" in fig01_topdown.render(result)

    def test_fig03(self):
        result = fig03_prior_techniques.run(benchmarks=BENCHES, **TINY)
        assert set(result["speedups"].keys()) == set(BENCHES)
        assert "FEC-Ideal" in fig03_prior_techniques.render(result)

    def test_fig04(self):
        result = fig04_fec_fraction.run(benchmarks=BENCHES, **TINY)
        for row in result["rows"].values():
            assert 0 <= row["fec_line_pct"] <= 100
            assert 0 <= row["fec_starvation_pct"] <= 100
        fig04_fec_fraction.render(result)

    def test_fig09(self):
        result = fig09_mpki.run(benchmarks=BENCHES, **TINY)
        for row in result["rows"].values():
            assert row["l1i"] >= row["l2i"] >= 0
        fig09_mpki.render(result)

    def test_fig10(self):
        result = fig10_speedup.run(benchmarks=BENCHES, **TINY)
        assert "pdip_44" in result["geomeans"]
        assert "capture" in fig10_speedup.render(result).lower()

    def test_fig11(self):
        result = fig11_late_prefetches.run(benchmarks=BENCHES, **TINY)
        for row in result["rows"].values():
            assert 0 <= row["pdip_44"] <= 100
        fig11_late_prefetches.render(result)

    def test_fig12(self):
        result = fig12_fec_stall_reduction.run(benchmarks=BENCHES, **TINY)
        assert "pdip_44" in result["average"] or "pdip_44" in \
            next(iter(result["rows"].values()))
        fig12_fec_stall_reduction.render(result)

    def test_fig13(self):
        result = fig13_table_sensitivity.run(benchmarks=BENCHES, **TINY)
        assert set(result["geomeans"]) == {"pdip_11", "pdip_22", "pdip_44",
                                           "pdip_87"}
        fig13_table_sensitivity.render(result)

    def test_fig14(self):
        result = fig14_btb_sensitivity.run(benchmarks=["noop"],
                                           btb_sizes=(2048, 4096), **TINY)
        assert set(result["gains"]) == {2048, 4096}
        fig14_btb_sensitivity.render(result)

    def test_fig15(self):
        result = fig15_storage_efficiency.run(benchmarks=["noop"],
                                              btb_sizes=(2048, 4096), **TINY)
        # FDIP's first point is the normalization reference (gain 0)
        first = result["points"]["baseline"][0]
        assert first["gain_pct"] == pytest.approx(0.0)
        # storage increases with BTB size along each series
        for series in result["points"].values():
            kbs = [p["storage_kb"] for p in series]
            assert kbs == sorted(kbs)
        fig15_storage_efficiency.render(result)

    def test_fig16(self):
        result = fig16_trigger_distribution.run(benchmarks=BENCHES, **TINY)
        avg = result["average"]
        assert avg["mispredict_pct"] + avg["last_taken_pct"] == \
            pytest.approx(100.0, abs=0.1)
        fig16_trigger_distribution.render(result)

    def test_tab04(self):
        result = tab04_ppki_accuracy.run(benchmarks=BENCHES, **TINY)
        assert set(result["means"]) == {"eip_46", "eip_analytical",
                                        "pdip_11", "pdip_44"}
        tab04_ppki_accuracy.render(result)


class TestInstantTables:
    def test_tab01(self):
        result = tab01_config.run()
        assert result["ours"]["FTQ"] == "24 entries"
        assert "Table 1" in tab01_config.render(result)

    def test_tab05(self):
        result = tab05_energy_area.run()
        assert set(result["rows"]) == {"PDIP(11)", "PDIP(22)", "PDIP(44)",
                                       "PDIP(87)"}
        text = tab05_energy_area.render(result)
        assert "PDIP(44)" in text
