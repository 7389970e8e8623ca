"""The dashboard page: one static, stdlib-only HTML document.

Served verbatim from ``GET /dash`` by the simulation server; all live
data arrives by polling ``GET /dash/state`` from inline JavaScript, so
the page itself is a constant string — no templating, no assets, no
third-party scripts.

Visual language (kept deliberately boring and accessible):

* text always wears ink tokens (primary/secondary/muted), never a data
  color; light and dark schemes via CSS custom properties;
* sweep heatmap cells encode *completion fraction* on a single-hue
  sequential blue ramp (light→dark = 0→100%), with the numeric
  ``done/total`` printed in every cell so color never carries the value
  alone;
* failures use the reserved status red **plus** an ``✕n`` text label —
  state is never color-only.
"""

from __future__ import annotations

__all__ = ["render_page"]

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro dash</title>
<style>
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --border: rgba(11,11,11,0.10);
  --seq-0: #f9f9f7; --seq-1: #cde2fb; --seq-2: #9ec5f4;
  --seq-3: #6da7ec; --seq-4: #3987e5; --seq-5: #256abf;
  --ink-on-deep: #ffffff;
  --ok: #0ca30c; --bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --border: rgba(255,255,255,0.10);
    --seq-0: #242423; --seq-1: #104281; --seq-2: #184f95;
    --seq-3: #1c5cab; --seq-4: #2a78d6; --seq-5: #3987e5;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 18px; margin: 0; font-weight: 650; }
h2 { font-size: 13px; margin: 28px 0 8px; color: var(--ink-2);
     text-transform: uppercase; letter-spacing: .06em; font-weight: 600; }
.sub { color: var(--muted); font-size: 12px; margin-top: 2px; }
.badge { display: inline-block; padding: 2px 8px; border-radius: 10px;
         font-size: 12px; border: 1px solid var(--border);
         color: var(--ink-2); vertical-align: 2px; margin-left: 8px; }
.badge.ok { color: var(--ok); border-color: var(--ok); }
.badge.bad { color: var(--bad); border-color: var(--bad); }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-top: 16px; }
.tile { background: var(--surface); border: 1px solid var(--border);
        border-radius: 8px; padding: 10px 16px; min-width: 110px; }
.tile .v { font-size: 22px; font-weight: 650; }
.tile .k { font-size: 11px; color: var(--muted); }
table { border-collapse: collapse; background: var(--surface);
        border: 1px solid var(--border); border-radius: 8px;
        font-size: 13px; }
th, td { padding: 5px 10px; text-align: left; border-top: 1px solid var(--grid);
         font-variant-numeric: tabular-nums; }
thead th { border-top: none; color: var(--muted); font-size: 11px;
           font-weight: 600; }
.sweep { background: var(--surface); border: 1px solid var(--border);
         border-radius: 8px; padding: 14px 16px; margin-bottom: 14px; }
.bar { height: 6px; border-radius: 3px; background: var(--grid);
       overflow: hidden; margin: 8px 0 10px; }
.bar > i { display: block; height: 100%; background: var(--seq-4); }
.hm { border: none; background: none; }
.hm td, .hm th { border: none; padding: 2px; }
.hm th { color: var(--muted); font-weight: 500; font-size: 11px; }
.hm th.row { text-align: right; padding-right: 8px; }
.cell { min-width: 52px; border-radius: 4px; padding: 3px 6px;
        text-align: center; font-size: 11px; color: var(--ink-2);
        border: 2px solid var(--surface); }
.cell.q3, .cell.q4, .cell.q5 { color: var(--ink-on-deep); }
.cell.q0 { background: var(--seq-0); } .cell.q1 { background: var(--seq-1); }
.cell.q2 { background: var(--seq-2); } .cell.q3 { background: var(--seq-3); }
.cell.q4 { background: var(--seq-4); } .cell.q5 { background: var(--seq-5); }
.cell.failed { background: var(--surface); border-color: var(--bad);
               color: var(--bad); font-weight: 600; }
#err { color: var(--bad); font-size: 12px; display: none; margin-top: 8px; }
</style>
</head>
<body>
<h1>repro dash <span id="state" class="badge">connecting…</span></h1>
<div class="sub" id="meta">waiting for /dash/state</div>
<div id="err"></div>
<div class="tiles" id="tiles"></div>
<div id="sweeps-h"><h2>Sweeps</h2><div id="sweeps"></div></div>
<h2>Jobs</h2><table id="jobs"></table>
<h2>Metrics</h2><table id="metrics"></table>
<script>
"use strict";
function esc(s) {
  return String(s).replace(/[&<>"]/g,
    c => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
}
function tile(k, v) {
  return '<div class="tile"><div class="v">' + esc(v) +
         '</div><div class="k">' + esc(k) + "</div></div>";
}
function rows(el, head, body) {
  el.innerHTML = "<thead><tr>" +
    head.map(h => "<th>" + esc(h) + "</th>").join("") + "</tr></thead>" +
    "<tbody>" + body.map(r => "<tr>" +
      r.map(c => "<td>" + c + "</td>").join("") + "</tr>").join("") +
    "</tbody>";
}
function shade(f) { return "q" + Math.min(5, Math.max(0, Math.ceil(f * 5))); }
function heatmap(sw) {
  const grid = sw.grid || {}, benches = sw.benchmarks || [],
        pols = sw.policies || [];
  if (!benches.length || !pols.length) return "";
  let html = '<table class="hm"><tr><th></th>' +
    pols.map(p => "<th>" + esc(p) + "</th>").join("") + "</tr>";
  for (const b of benches) {
    html += '<tr><th class="row">' + esc(b) + "</th>";
    for (const p of pols) {
      const c = grid[b + "|" + p] || {done: 0, failed: 0, total: 0};
      const total = c.total || 0, frac = total ? c.done / total : 0;
      let cls = shade(frac), label = c.done + "/" + total;
      let title = b + " × " + p + ": " + label + " done";
      if (c.failed) {
        cls = "failed"; label = "\\u2715" + c.failed;
        title += ", " + c.failed + " failed";
      }
      html += '<td><div class="cell ' + cls + '" title="' + esc(title) +
              '">' + esc(label) + "</div></td>";
    }
    html += "</tr>";
  }
  return html + "</table>";
}
function sweepCard(sw) {
  const counts = sw.counts || {}, total = sw.total || 0;
  const done = (counts.store || 0) + (counts.executed || 0);
  const failed = counts.failed || 0;
  const pct = total ? Math.round(100 * (done + failed) / total) : 0;
  const badge = sw.state === "failed" ? "bad" : (sw.state === "done" ?
                "ok" : "");
  return '<div class="sweep"><b>' + esc(sw.name) + '</b>' +
    '<span class="badge ' + badge + '">' + esc(sw.state) + "</span>" +
    '<span class="sub"> &nbsp;' + done + "/" + total + " done" +
    (failed ? ", " + failed + " failed" : "") +
    " · " + (counts.store || 0) + " store · " +
    (counts.executed || 0) + " executed · plan " +
    esc((sw.plan_digest || "").slice(0, 12)) + "</span>" +
    '<div class="bar"><i style="width:' + pct + '%"></i></div>' +
    heatmap(sw) + "</div>";
}
function render(s) {
  const server = s.server || {};
  document.getElementById("state").textContent =
    "server · " + (server.state || "?");
  document.getElementById("state").className =
    "badge " + (server.state === "running" ? "ok" : "");
  document.getElementById("meta").textContent =
    "generated " + new Date(s.generated * 1000).toLocaleTimeString() +
    (s.store ? " · store " + s.store.rows + " rows" : " · no store");
  const c = s.counters || {}, jobs = s.jobs || {};
  document.getElementById("tiles").innerHTML =
    tile("queued", jobs.queued || 0) + tile("running", jobs.running || 0) +
    tile("executed", c.executed || 0) +
    tile("store hits", c.store_hits || 0);
  document.getElementById("sweeps").innerHTML =
    (s.sweeps || []).map(sweepCard).join("") ||
    '<div class="sub">no sweeps registered</div>';
  const act = (jobs.active || []), rec = (jobs.recent || []);
  rows(document.getElementById("jobs"),
    ["id", "state", "benchmark", "policy", "seed", "source"],
    act.concat(rec).slice(0, 30).map(j => [esc(j.id), esc(j.state),
      esc(j.benchmark || "?"), esc(j.policy || "?"),
      esc(j.seed != null ? j.seed : "-"), esc(j.source || "")]));
  const m = s.metrics || {};
  rows(document.getElementById("metrics"), ["metric", "value"],
    Object.keys(m).sort().map(k => [esc(k), esc(JSON.stringify(m[k]))]));
}
async function tick() {
  try {
    const res = await fetch("/dash/state", {cache: "no-store"});
    if (!res.ok) throw new Error("HTTP " + res.status);
    render(await res.json());
    document.getElementById("err").style.display = "none";
  } catch (e) {
    const el = document.getElementById("err");
    el.textContent = "update failed: " + e;
    el.style.display = "block";
  }
}
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
"""


def render_page() -> str:
    """The dashboard HTML document (constant; data arrives via JS)."""
    return _PAGE
