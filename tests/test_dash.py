"""Dashboard routes, sweep registry, and state assembly.

Server-side coverage for the ``repro dash`` stack: the stdlib-only
HTML page, the ``/dash/state`` JSON document, and the ``/sweeps``
registration/progress routes a running sweep feeds. Live tests reuse
the service Harness (real event loop, real loopback HTTP); the
``repro.dash`` helpers are additionally unit-tested as pure functions.
"""

from __future__ import annotations

import time

import pytest

from repro.dash import build_state, render_page, service_metrics, sweep_rows
from repro.service.client import ServiceError
from repro.service.store import ResultStore
from repro.sweeps import compile_spec, parse_spec, run_sweep

from tests.test_service_server import CELL, Harness, harness  # noqa: F401


class TestStateHelpers:
    def test_service_metrics_namespaced_snapshot(self):
        snap = service_metrics({"executed": 3}, {"queued": 2.0})
        assert snap == {"service.executed": 3, "service.queued": 2.0}

    def test_sweep_rows_running_first_then_newest(self):
        rows = sweep_rows({
            "a": {"id": "a", "state": "done", "created": 30.0},
            "b": {"id": "b", "state": "running", "created": 10.0},
            "c": {"id": "c", "state": "failed", "created": 40.0},
            "d": {"id": "d", "state": "running", "created": 20.0},
        })
        assert [r["id"] for r in rows] == ["d", "b", "c", "a"]

    def test_build_state_bounds_job_payload(self):
        jobs = ([{"id": "q", "state": "queued"}]
                + [{"id": "f%d" % i, "state": "done", "finished": float(i)}
                   for i in range(30)])
        state = build_state({"state": "running"}, {}, {}, {}, jobs,
                            recent_jobs=5)
        assert state["jobs"]["total"] == 31
        assert state["jobs"]["queued"] == 1
        assert state["jobs"]["running"] == 0
        assert [j["id"] for j in state["jobs"]["active"]] == ["q"]
        # newest finished first, truncated to the bound
        assert [j["id"] for j in state["jobs"]["recent"]] == [
            "f29", "f28", "f27", "f26", "f25"]

    def test_render_page_is_selfcontained_html(self):
        page = render_page()
        assert page.lstrip().lower().startswith("<!doctype html>")
        assert "/dash/state" in page
        assert "<script" in page and "</html>" in page
        # no external fetches: everything inline, stdlib-only promise
        assert "http://" not in page and "https://" not in page


class TestSweepRoutes:
    def test_register_progress_and_list(self, harness):
        client = harness().client()
        sweep = client.register_sweep(name="demo", plan_digest="abc",
                                      total=4, benchmarks=["noop"],
                                      policies=["baseline", "pdip_44"])
        assert sweep["state"] == "running"
        assert sweep["total"] == 4
        client.sweep_progress(sweep["id"],
                              counts={"executed": 2},
                              grid={"noop|baseline": {"done": 1, "failed": 0,
                                                      "total": 2}})
        row = client.sweep(sweep["id"])
        assert row["counts"] == {"executed": 2}
        assert row["grid"]["noop|baseline"]["done"] == 1
        assert [s["id"] for s in client.sweeps()] == [sweep["id"]]
        client.sweep_progress(sweep["id"], state="done")
        assert client.sweep(sweep["id"])["state"] == "done"

    def test_unknown_sweep_404(self, harness):
        client = harness().client()
        with pytest.raises(ServiceError, match="404"):
            client.sweep("deadbeef")
        with pytest.raises(ServiceError, match="404"):
            client.sweep_progress("deadbeef", state="done")

    def test_bad_registration_and_progress_400(self, harness):
        client = harness().client()
        with pytest.raises(ServiceError, match="400"):
            client.register_sweep(name="bad", total=-1)
        sweep = client.register_sweep(name="ok", total=1)
        with pytest.raises(ServiceError, match="400"):
            client.sweep_progress(sweep["id"], state="exploded")

    def test_registry_evicts_terminal_oldest_first(self, harness):
        from repro.service.server import MAX_SWEEPS as limit

        client = harness().client()
        first = client.register_sweep(name="old-done", total=1)
        client.sweep_progress(first["id"], state="done")
        keeper = client.register_sweep(name="still-running", total=1)
        for i in range(limit - 1):
            client.register_sweep(name="filler-%d" % i, total=1)
        ids = {s["id"] for s in client.sweeps()}
        assert len(ids) == limit
        assert first["id"] not in ids      # terminal sweep evicted first
        assert keeper["id"] in ids         # running sweeps survive


class TestDashEndpoints:
    def test_dash_page_served_as_html(self, harness):
        client = harness().client()
        page = client.dash_page()
        assert "<title>repro dash</title>" in page
        assert page == render_page()

    def test_dash_state_document(self, harness, tmp_path):
        h = harness(store=ResultStore(tmp_path / "store"))
        client = h.client()
        client.wait(client.submit(**CELL)["id"], timeout=60)
        state = client.dash_state()
        assert set(state) == {"generated", "server", "counters", "metrics",
                              "sweeps", "jobs", "store"}
        assert state["server"] == {"state": "running", "workers": 1,
                                   "queue_limit": 256}
        assert state["counters"]["executed"] == 1
        assert state["metrics"]["service.executed"] == 1
        assert state["jobs"]["total"] == 1
        assert state["store"]["rows"] == 1

    def test_live_sweep_appears_on_dashboard(self, harness, tmp_path):
        h = harness(jobs=2, store=ResultStore(tmp_path / "store"))
        client = h.client()
        plan = compile_spec(parse_spec({
            "name": "dash-e2e",
            "axes": {"benchmark": ["noop"],
                     "policy": ["baseline", "pdip_44"]},
            "defaults": {"instructions": 2000, "warmup": 300},
        }))
        report = run_sweep(plan, client=client, state_path="")
        assert report.counts["executed"] == 2

        (row,) = client.sweeps()
        assert row["name"] == "dash-e2e"
        assert row["plan_digest"] == plan.digest
        assert row["state"] == "done"
        assert row["counts"]["executed"] == 2
        assert row["grid"] == {
            "noop|baseline": {"done": 1, "failed": 0, "total": 1},
            "noop|pdip_44": {"done": 1, "failed": 0, "total": 1},
        }
        # and the state document carries it, running-first ordering aside
        state = client.dash_state()
        assert state["sweeps"][0]["id"] == row["id"]

    def test_service_sweep_long_polls_instead_of_sleeping(
            self, harness, tmp_path, monkeypatch):
        # settled jobs are found by long-polling the server, so the
        # executor has no sleep left to take
        from repro.sweeps import executor

        class NoSleep:
            def __getattr__(self, name):
                return getattr(time, name)

            @staticmethod
            def sleep(seconds):
                raise AssertionError("service sweep slept %.3gs" % seconds)

        monkeypatch.setattr(executor, "time", NoSleep())
        h = harness(jobs=2, store=ResultStore(tmp_path / "store"))
        client = h.client()
        calls = []
        status = client.status

        def recording_status(job_id, wait=0.0):
            calls.append((job_id, wait))
            return status(job_id, wait=wait)

        client.status = recording_status
        plan = compile_spec(parse_spec({
            "axes": {"benchmark": ["noop"],
                     "policy": ["baseline", "pdip_44", "2x_il1"],
                     "seed": [1, 2]},
            "defaults": {"instructions": 2000, "warmup": 300},
        }))
        report = run_sweep(plan, client=client, state_path="")
        assert report.counts["executed"] == 6
        assert report.failed == {}
        assert len(report.results()["noop"]) == 3
        # a later job that ends first waits no longer than the old poll
        assert max(wait for _, wait in calls) <= executor._SETTLE_WAIT_S
        # a long-polled summary is reused, not fetched again
        for (job, wait), following in zip(calls, calls[1:]):
            assert not (wait > 0 and following == (job, 0.0)), calls

    def test_sweep_against_server_without_dash_routes_still_runs(
            self, harness, tmp_path, monkeypatch):
        # a _DashFeed that cannot register degrades to silence, not failure
        from repro.service import client as client_mod

        h = harness(jobs=2, store=ResultStore(tmp_path / "store"))
        client = h.client()
        monkeypatch.setattr(
            client_mod.ServiceClient, "register_sweep",
            lambda self, **kw: (_ for _ in ()).throw(
                ServiceError(404, {"error": "not found"})))
        plan = compile_spec(parse_spec({
            "axes": {"benchmark": ["noop"], "policy": ["baseline"]},
            "defaults": {"instructions": 2000, "warmup": 300},
        }))
        report = run_sweep(plan, client=client, state_path="")
        assert report.counts["executed"] == 1
        assert client.sweeps() == []


class TestServiceModeResolution:
    def test_service_sweep_reports_store_source_on_rerun(
            self, harness, tmp_path):
        h = harness(jobs=2, store=ResultStore(tmp_path / "store"))
        client = h.client()
        plan = compile_spec(parse_spec({
            "axes": {"benchmark": ["noop"], "policy": ["baseline"]},
            "defaults": {"instructions": 2000, "warmup": 300},
        }))
        first = run_sweep(plan, client=client, state_path="")
        assert first.counts["executed"] == 1
        # the client has no local store handle: warm resolution happens
        # server-side and is reported back as source="store"
        second = run_sweep(plan, client=client, state_path="")
        assert second.counts["store"] == 1
        assert second.counts["executed"] == 0
        assert h.server.counters["executed"] == 1
