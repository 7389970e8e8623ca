"""CLI coverage for ``repro sweep``, ``repro dash``, ``repro jobs --watch``."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_endpoint, _watch_jobs, build_parser, main
from repro.service.server import DEFAULT_PORT

SPEC = {
    "name": "cli",
    "axes": {"benchmark": ["noop"], "policy": ["baseline", "pdip_44"]},
    "defaults": {"instructions": 2000, "warmup": 300},
}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "cli.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


class TestParser:
    def test_sweep_subcommands(self, spec_path):
        args = build_parser().parse_args(["sweep", "plan", spec_path,
                                          "--cells", "--format", "json"])
        assert args.sweep_command == "plan"
        assert args.cells and args.format == "json"
        args = build_parser().parse_args(
            ["sweep", "run", spec_path, "--jobs", "2", "--endpoint",
             "host:9999", "--max-in-flight", "4", "--report", "r.json"])
        assert args.sweep_command == "run"
        assert args.endpoint == "host:9999"
        assert args.max_in_flight == 4
        args = build_parser().parse_args(["sweep", "status", spec_path,
                                          "--store", "/tmp/s"])
        assert args.sweep_command == "status"
        assert args.store == "/tmp/s"

    def test_plan_takes_no_state_file(self, spec_path):
        # only run and status read the resumable state
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "plan", spec_path,
                                       "--state", "/nonexistent/x.json"])
        assert exc.value.code == 2
        for verb in ("run", "status"):
            args = build_parser().parse_args(["sweep", verb, spec_path,
                                              "--state", "s.json"])
            assert args.state == "s.json"

    def test_sweep_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_jobs_watch_flag(self):
        args = build_parser().parse_args(["jobs", "--watch", "0.5"])
        assert args.watch == 0.5
        assert build_parser().parse_args(["jobs"]).watch is None

    def test_dash_args(self):
        args = build_parser().parse_args(["dash", "--port", "9001", "--open"])
        assert args.port == 9001
        assert args.open

    def test_parse_endpoint(self):
        assert _parse_endpoint("host:9999") == ("host", 9999)
        assert _parse_endpoint(":9999") == ("127.0.0.1", 9999)
        assert _parse_endpoint("host") == ("host", DEFAULT_PORT)


class TestSweepCommands:
    def test_plan_text_and_json(self, spec_path, capsys):
        assert main(["sweep", "plan", spec_path, "--cells"]) == 0
        out = capsys.readouterr().out
        assert "sweep cli: 2 cells" in out
        assert "noop/baseline seed=1" in out

        assert main(["sweep", "plan", spec_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "cli"
        assert len(doc["cells"]) == 2
        assert all("key" in cell for cell in doc["cells"])

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"axes": {"benchmark": ["nope"],
                                             "policy": ["baseline"]}}))
        assert main(["sweep", "plan", str(path)]) == 2
        assert "sweep spec error" in capsys.readouterr().out

    def test_run_then_status_then_warm_run(self, spec_path, tmp_path,
                                           capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "status", spec_path, "--store", store,
                     "--format", "json"]) == 0
        before = json.loads(capsys.readouterr().out)
        assert before["counts"]["pending"] == 2

        assert main(["sweep", "run", spec_path, "--store", store,
                     "--jobs", "2", "--quiet", "--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["executed"] == 2 and first["failed"] == 0

        assert main(["sweep", "status", spec_path, "--store", store,
                     "--format", "json"]) == 0
        after = json.loads(capsys.readouterr().out)
        assert after["counts"] == {"store": 2, "failed": 0, "pending": 0}

        assert main(["sweep", "run", spec_path, "--store", store,
                     "--jobs", "2", "--quiet", "--format", "json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["store"] == 2 and warm["executed"] == 0

    def test_run_writes_report(self, spec_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["sweep", "run", spec_path, "--jobs", "2", "--quiet",
                     "--state", "", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["counts"]["executed"] == 2


class FakeWatchClient:
    """health()/jobs() stub: n good polls, then Ctrl-C."""

    def __init__(self, polls=2):
        self.calls = 0
        self.polls = polls

    def health(self):
        self.calls += 1
        if self.calls > self.polls:
            raise KeyboardInterrupt
        return {"state": "serving", "queued": 1, "running": 0, "jobs": 3}

    def jobs(self):
        return [{"id": "j1", "benchmark": "noop", "policy": "baseline",
                 "seed": 1, "state": "queued", "attempts": 0}]


class TestWatch:
    def test_watch_redraws_until_interrupt(self, capsys):
        client = FakeWatchClient(polls=2)
        assert _watch_jobs(client, 0.0) == 0
        out = capsys.readouterr().out
        assert out.count("server serving") == 2
        assert "\x1b[2J" in out  # ANSI clear between redraws
        assert "j1" in out

    def test_watch_survives_unreachable_server(self, capsys):
        class Flaky(FakeWatchClient):
            def health(self):
                self.calls += 1
                if self.calls == 1:
                    raise ConnectionError("refused")
                raise KeyboardInterrupt

        assert _watch_jobs(Flaky(), 0.0) == 0
        assert "server unreachable" in capsys.readouterr().out
