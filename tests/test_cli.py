"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main
from repro.workloads.profiles import BENCHMARK_NAMES


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "noop", "baseline", "--instructions", "5000"])
        assert args.benchmark == "noop"
        assert args.instructions == 5000
        assert not args.no_cache
        assert build_parser().parse_args(
            ["run", "noop", "baseline", "--no-cache"]).no_cache
        # a grid always reads the store; the flag is run's alone
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--no-cache"])

    def test_rejects_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus", "baseline"])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["suite", "--benchmarks", "bogus"])
        assert exc.value.code == 2
        assert "unknown name 'bogus'" in capsys.readouterr().err
        assert build_parser().parse_args(["suite"]).benchmarks == list(
            BENCHMARK_NAMES)

    def test_rejects_unknown_policy(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "noop", "bogus"])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["suite", "--policies", "bogus"])
        assert exc.value.code == 2
        assert "unknown name 'bogus'" in capsys.readouterr().err

    def test_figure_ids(self):
        for fig in FIGURES:
            args = build_parser().parse_args(["figure", fig])
            assert args.figure == fig

    def test_jobs_flag(self):
        args = build_parser().parse_args(["suite", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["figure", "fig09", "--jobs", "2"])
        assert args.jobs == 2

    def test_manifest_args(self):
        args = build_parser().parse_args(["manifest"])
        assert args.path is None
        args = build_parser().parse_args(["manifest", "m.json", "--cells"])
        assert args.path == "m.json"
        assert args.cells

    def test_store_flag(self):
        for cmd in (["run", "noop", "baseline"], ["suite"],
                    ["figure", "fig09"]):
            args = build_parser().parse_args(cmd + ["--store", "/tmp/s"])
            assert args.store == "/tmp/s"
            assert build_parser().parse_args(cmd).store is None

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--jobs", "3", "--queue-limit",
             "8", "--timeout", "5.5", "--retries", "1", "--no-store",
             "--allow-faults"])
        assert args.port == 9000
        assert args.jobs == 3
        assert args.queue_limit == 8
        assert args.timeout == 5.5
        assert args.retries == 1
        assert args.no_store
        assert args.allow_faults
        defaults = build_parser().parse_args(["serve"])
        assert defaults.host == "127.0.0.1"
        assert defaults.port is None
        assert not defaults.allow_faults

    def test_submit_args(self):
        args = build_parser().parse_args(
            ["submit", "tatp", "pdip_44", "--instructions", "30000",
             "--warmup", "6000", "--priority", "5", "--wait"])
        assert args.benchmark == "tatp"
        assert args.policy == "pdip_44"
        assert args.instructions == 30000
        assert args.priority == 5
        assert args.wait

    def test_submit_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "noop", "bogus"])

    def test_submit_leaves_benchmark_names_to_the_server(self):
        # the server knows the names of its own store; it answers 400
        args = build_parser().parse_args(["submit", "elsewhere", "baseline"])
        assert args.benchmark == "elsewhere"

    def test_jobs_args(self):
        args = build_parser().parse_args(["jobs"])
        assert args.job is None and not args.drain
        args = build_parser().parse_args(
            ["jobs", "abc123", "--port", "9000"])
        assert args.job == "abc123"
        assert args.port == 9000
        args = build_parser().parse_args(["jobs", "--cancel", "abc",
                                          "--drain"])
        assert args.cancel == "abc"
        assert args.drain


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cassandra" in out
        assert "pdip_44" in out
        assert "fig10" in out

    def test_run(self, capsys):
        rc = main(["run", "noop", "baseline", "--instructions", "4000",
                   "--warmup", "800", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_run_with_store_persists_cell(self, tmp_path, capsys):
        from repro.service.store import ResultStore

        root = tmp_path / "store"
        rc = main(["run", "noop", "baseline", "--instructions", "4000",
                   "--warmup", "800", "--store", str(root)])
        assert rc == 0
        with ResultStore(root) as store:
            assert len(store) == 1
            key = ResultStore.cell_key("noop", "baseline", 4000, 800)
            assert store.get(key) is not None

    def test_run_trace_benchmark_keeps_one_store(self, tmp_path,
                                                 monkeypatch, capsys):
        from repro.service.store import ResultStore
        from repro.simulator.runner import clear_layout_cache
        from repro.traces import registry

        # make the run resolve the trace blob, not a memoized layout
        clear_layout_cache()
        monkeypatch.delitem(registry._WORKLOADS, "trace-phase",
                            raising=False)
        root = tmp_path / "elsewhere"  # not <cache dir>/store
        rc = main(["run", "trace-phase", "baseline", "--instructions",
                   "4000", "--warmup", "800", "--store", str(root)])
        assert rc == 0
        with ResultStore(root) as store:
            info = store.info()
        # the cell lands in the one store; the bundled trace behind its
        # layout re-ingests from its package file and is stored nowhere
        assert (info["rows"], info["traces"]) == (1, 0)

    def test_run_prefetcher_shows_ppki(self, capsys):
        main(["run", "noop", "pdip_44", "--instructions", "4000",
              "--warmup", "800", "--no-cache"])
        out = capsys.readouterr().out
        assert "noop / pdip_44" in out

    def test_suite_with_geomean(self, capsys):
        rc = main(["suite", "--benchmarks", "noop",
                   "--policies", "baseline,pdip_44",
                   "--instructions", "4000", "--warmup", "800"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "geomean speedup pdip_44" in out

    def test_suite_parallel_writes_manifest(self, capsys):
        rc = main(["suite", "--benchmarks", "noop",
                   "--policies", "baseline", "--jobs", "2",
                   "--instructions", "3000", "--warmup", "500"])
        assert rc == 0
        assert "manifest:" in capsys.readouterr().out
        rc = main(["manifest"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells" in out and "hit rate" in out

    def test_suite_with_unknown_policy_writes_no_manifest(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--benchmarks", "noop", "--policies", "bogus"])
        assert exc.value.code == 2
        assert main(["manifest"]) == 1

    def test_manifest_cells_listing(self, capsys):
        main(["suite", "--benchmarks", "noop", "--policies", "baseline",
              "--instructions", "3000", "--warmup", "500"])
        capsys.readouterr()
        rc = main(["manifest", "--cells"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "noop" in out and "baseline" in out

    def test_manifest_none_found(self, capsys):
        assert main(["manifest"]) == 1
        assert "no manifests" in capsys.readouterr().out

    def test_manifest_unreadable_path(self, capsys):
        assert main(["manifest", "/nope/does-not-exist.json"]) == 1
        assert "cannot read manifest" in capsys.readouterr().out

    def test_workload(self, capsys):
        rc = main(["workload", "noop", "--instructions", "20000"])
        assert rc == 0
        assert "branch mix" in capsys.readouterr().out

    def test_figure_instant(self, capsys):
        rc = main(["figure", "tab05"])
        assert rc == 0
        assert "PDIP(44)" in capsys.readouterr().out

    def test_trace_record_and_replay(self, tmp_path, capsys):
        path = str(tmp_path / "noop.trace")
        rc = main(["trace", "record", "noop", path, "--blocks", "8000"])
        assert rc == 0
        assert "recorded" in capsys.readouterr().out
        rc = main(["trace", "replay", "noop", path,
                   "--instructions", "3000", "--warmup", "500"])
        assert rc == 0
        assert "replayed" in capsys.readouterr().out
