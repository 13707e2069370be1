"""Self-contained HTML run reports (``xfdetector report``).

Renders one detection run — a recorded live-event stream, optionally
joined with the span profile from ``run --ndjson`` — into a single
HTML file with zero external references: inline CSS only, no scripts,
no fonts, no CDNs.  The file is shippable as a CI artifact and
readable offline.

Sections:

* header strip — workload, run id, wall-clock, headline counters;
* phase timeline — one bar per phase, positioned on the run's clock;
* failure-point heatmap — one cell per post-failure point, shaded by
  execution time;
* flamegraph — the span hierarchy as a pure-CSS icicle chart (child
  width = share of parent duration), when span records are provided;
* findings and incidents tables.
"""

from __future__ import annotations

import html


def _esc(value):
    return html.escape(str(value), quote=True)


_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 70em; color: #1a1d21; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; font-size: 0.92em; }
th, td { text-align: left; padding: 0.3em 0.6em;
         border-bottom: 1px solid #e0e3e8; vertical-align: top; }
th { background: #f2f4f7; }
.counters { display: flex; gap: 1.5em; flex-wrap: wrap; margin: 1em 0; }
.counter { background: #f2f4f7; border-radius: 6px;
           padding: 0.5em 1em; }
.counter b { display: block; font-size: 1.3em; }
.timeline { position: relative; background: #f7f8fa;
            border: 1px solid #e0e3e8; border-radius: 4px; }
.tl-row { position: relative; height: 1.7em; }
.tl-bar { position: absolute; top: 0.2em; height: 1.3em;
          background: #4878b0; border-radius: 3px; color: #fff;
          font-size: 0.8em; padding: 0.1em 0.4em; overflow: hidden;
          white-space: nowrap; box-sizing: border-box; }
.heatmap { display: flex; flex-wrap: wrap; gap: 2px; }
.cell { width: 14px; height: 14px; border-radius: 2px; }
.flame { font-size: 0.78em; }
.frame { box-sizing: border-box; min-width: 1px; }
.frame > .flabel { background: #e8b04a; border: 1px solid #fff;
                   border-radius: 2px; padding: 0 3px;
                   overflow: hidden; white-space: nowrap; }
.frame .frame > .flabel { background: #e89a4a; }
.frame .frame .frame > .flabel { background: #e8834a; }
.frame .frame .frame .frame > .flabel { background: #d96c4a; }
.fkids { display: flex; }
.kind { font-size: 0.8em; padding: 0.05em 0.5em; border-radius: 1em;
        background: #e0e3e8; white-space: nowrap; }
.kind.bad { background: #f3d1d1; }
.muted { color: #70757d; }
"""


def split_runs(events):
    """Split a (possibly multi-run) event stream into run segments."""
    segments = []
    current = []
    for event in events:
        if event.kind == "run_started" and current:
            segments.append(current)
            current = []
        current.append(event)
    if current:
        segments.append(current)
    return segments


def _heat_color(fraction):
    """Green -> amber -> red, computed inline (no palette files)."""
    fraction = min(1.0, max(0.0, fraction))
    red = int(70 + 185 * fraction)
    green = int(170 - 80 * fraction)
    return f"rgb({red},{green},80)"


def _phase_rows(events, start_ts, end_ts):
    spans = []
    open_phases = {}
    for event in events:
        phase = event.data.get("phase")
        if event.kind == "phase_started":
            open_phases[phase] = event
        elif event.kind == "phase_finished" and phase in open_phases:
            spans.append((open_phases.pop(phase), event))
    total = max(end_ts - start_ts, 1e-9)
    rows = []
    for started, finished in spans:
        left = 100.0 * (started.ts - start_ts) / total
        width = max(
            0.5, 100.0 * (finished.ts - started.ts) / total
        )
        seconds = finished.ts - started.ts
        rows.append(
            f'<div class="tl-row"><div class="tl-bar" '
            f'style="left:{left:.2f}%;width:{width:.2f}%" '
            f'title="{_esc(started.data.get("phase"))}: '
            f'{seconds:.3f}s">'
            f'{_esc(started.data.get("phase"))} '
            f'({seconds:.2f}s)</div></div>'
        )
    return "\n".join(rows)


def _heatmap(events):
    points = []  # (fid, variant, seconds, worker)
    for event in events:
        if event.kind == "point_completed" and \
                event.data.get("phase") == "post_exec":
            points.append((
                event.data.get("fid"), event.data.get("variant"),
                float(event.data.get("seconds") or 0.0),
                event.data.get("worker"),
            ))
    if not points:
        return '<p class="muted">no post-failure points recorded</p>'
    points.sort(key=lambda p: (
        p[0] if p[0] is not None else -1,
        p[1] is not None, p[1] or 0,
    ))
    peak = max(p[2] for p in points) or 1.0
    cells = []
    for fid, variant, seconds, worker in points:
        label = f"fid={fid}"
        if variant is not None:
            label += f" variant={variant}"
        label += f" {seconds * 1000:.1f}ms"
        if worker:
            label += f" on {worker}"
        cells.append(
            f'<div class="cell" '
            f'style="background:{_heat_color(seconds / peak)}" '
            f'title="{_esc(label)}"></div>'
        )
    return f'<div class="heatmap">{"".join(cells)}</div>'


def _span_tree(span_records):
    """Rebuild the span forest from flattened id/parent records."""
    nodes = {}
    roots = []
    for record in span_records:
        node = {
            "name": record.get("name", "?"),
            "duration": float(record.get("duration_seconds") or 0.0),
            "children": [],
            "attrs": {
                key: value for key, value in record.items()
                if key not in (
                    "type", "id", "parent", "name",
                    "duration_seconds", "self_seconds",
                )
            },
        }
        nodes[record["id"]] = node
        parent = nodes.get(record.get("parent"))
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


def _flamegraph(span_records):
    roots = _span_tree(span_records)
    if not roots:
        return (
            '<p class="muted">no span profile provided (pass the '
            "run's <code>--ndjson</code> file to include the "
            "flamegraph)</p>"
        )

    def frame(node, parent_duration):
        share = (
            node["duration"] / parent_duration
            if parent_duration > 0 else 1.0
        )
        attrs = " ".join(
            f"{key}={value}"
            for key, value in node["attrs"].items()
        )
        title = f'{node["name"]} {node["duration"] * 1000:.2f}ms'
        if attrs:
            title += f" ({attrs})"
        kids = ""
        if node["children"]:
            kids = '<div class="fkids">' + "".join(
                frame(child, node["duration"])
                for child in node["children"]
            ) + "</div>"
        return (
            f'<div class="frame" style="width:{100 * share:.3f}%">'
            f'<div class="flabel" title="{_esc(title)}">'
            f'{_esc(node["name"])}</div>{kids}</div>'
        )

    return '<div class="flame">' + "".join(
        frame(root, root["duration"]) for root in roots
    ) + "</div>"


def _findings_table(events):
    rows = []
    for event in events:
        if event.kind != "finding":
            continue
        data = event.data
        fid = data.get("fid")
        rows.append(
            f'<tr><td><span class="kind bad">'
            f'{_esc(data.get("bug_kind", "?"))}</span></td>'
            f'<td>{_esc(fid if fid is not None else "—")}</td>'
            f'<td>{_esc(data.get("detail", ""))}</td></tr>'
        )
    if not rows:
        return '<p class="muted">no findings</p>'
    return (
        "<table><tr><th>kind</th><th>failure point</th>"
        "<th>detail</th></tr>" + "".join(rows) + "</table>"
    )


def _incidents_table(events):
    rows = []
    for event in events:
        if event.kind != "incident":
            continue
        data = event.data
        state = "quarantined" if data.get("quarantined") else "retried"
        rows.append(
            f'<tr><td><span class="kind">'
            f'{_esc(data.get("incident_kind", "?"))}</span></td>'
            f'<td>{_esc(data.get("phase", ""))}</td>'
            f'<td>{_esc(data.get("fid", "—"))}</td>'
            f'<td>{_esc(data.get("attempts", ""))}</td>'
            f'<td>{_esc(state)}</td>'
            f'<td>{_esc(data.get("detail", ""))}</td></tr>'
        )
    if not rows:
        return '<p class="muted">no incidents — a clean run</p>'
    return (
        "<table><tr><th>kind</th><th>phase</th><th>failure point"
        "</th><th>attempts</th><th>state</th><th>detail</th></tr>"
        + "".join(rows) + "</table>"
    )


def render_report(events, span_records=None, title=None):
    """The complete HTML document for one run's event stream.

    A multi-run stream renders its **last** segment (the common case
    is one run per file); ``span_records`` are the ``type == "span"``
    records from the run's NDJSON export.
    """
    segments = split_runs(list(events))
    if not segments:
        raise ValueError("event stream contains no events")
    run = segments[-1]
    started = next(
        (e for e in run if e.kind == "run_started"), run[0]
    )
    finished = next(
        (e for e in run if e.kind == "run_finished"), run[-1]
    )
    workload = started.data.get("workload", "unknown")
    heading = title or f"xfdetector run: {workload}"
    duration = max(0.0, finished.ts - started.ts)
    findings = sum(1 for e in run if e.kind == "finding")
    incidents = sum(1 for e in run if e.kind == "incident")
    completed = sum(1 for e in run if e.kind == "point_completed")
    heartbeats = sum(1 for e in run if e.kind == "heartbeat")
    workers = {
        e.data.get("worker") for e in run
        if e.kind == "worker_spawned"
    }
    stats = finished.data.get("stats") or {}

    counters = [
        ("failure points",
         stats.get("failure_points", started.data.get("points", "—"))),
        ("points completed", completed),
        ("findings", findings),
        ("incidents", incidents),
        ("workers", len(workers) or 1),
        ("wall-clock", f"{duration:.2f}s"),
    ]
    counter_html = "".join(
        f'<div class="counter"><b>{_esc(value)}</b>{_esc(label)}'
        f"</div>"
        for label, value in counters
    )
    note = ""
    if len(segments) > 1:
        note = (
            f'<p class="muted">stream contains {len(segments)} run '
            f"segment(s); showing the last one</p>"
        )

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_esc(heading)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{_esc(heading)}</h1>
<p class="muted">run <code>{_esc(started.run_id)}</code> ·
{len(run)} event(s) · {heartbeats} heartbeat(s) ·
schema v{1}</p>
{note}
<div class="counters">{counter_html}</div>
<h2>Phase timeline</h2>
<div class="timeline">
{_phase_rows(run, started.ts, finished.ts)}
</div>
<h2>Failure-point heatmap</h2>
{_heatmap(run)}
<h2>Span profile</h2>
{_flamegraph(span_records or [])}
<h2>Findings</h2>
{_findings_table(run)}
<h2>Incidents</h2>
{_incidents_table(run)}
</body>
</html>
"""
