"""Report emitters: CSV, JSON, and self-contained SVG charts.

All emitters are pure functions of the report, so repeated runs with the
same inputs produce byte-identical files.  The SVG is generated directly
(no plotting library) to keep the output stable across environments.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .bench import (
    HARDWARE_REFERENCE_LADDER,
    HARDWARE_REFERENCE_SWEEP_POINT,
    LadderReport,
    SweepReport,
)

_SVG_STYLE = (
    "text{font-family:Helvetica,Arial,sans-serif;font-size:12px;fill:#222}"
    ".title{font-size:14px;font-weight:bold}"
    ".bar{fill:#4878a8}"
    ".series0{fill:none;stroke:#4878a8;stroke-width:2}"
    ".series1{fill:none;stroke:#b05050;stroke-width:2}"
    ".axis{stroke:#222;stroke-width:1}"
    ".grid{stroke:#ddd;stroke-width:1}"
)

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB


def _fmt(x: float) -> str:
    return f"{x:.2f}"


# --------------------------------------------------------------------------- #
# CSV / JSON
# --------------------------------------------------------------------------- #


def emit_csv(report: LadderReport | SweepReport) -> str:
    if isinstance(report, LadderReport):
        lines = ["rung,latency_us,speedup_vs_scalar"]
        for row in report.rows:
            lines.append(f"{row.rung},{row.latency_us:.3f},{row.speedup_vs_scalar:.3f}")
    else:
        lines = ["n_elements,single_us,multi_us,speedup"]
        for p in report.points:
            lines.append(f"{p.n_elements},{p.single_us:.3f},{p.multi_us:.3f},{p.speedup:.3f}")
    return "\n".join(lines) + "\n"


def emit_json(report: LadderReport | SweepReport) -> str:
    payload: dict = {
        "kernel": report.kernel.to_json_dict(),
        "machine": report.machine.to_json_dict(),
        "machine_digest": report.machine.digest,
    }
    if isinstance(report, LadderReport):
        payload["hardware_reference"] = HARDWARE_REFERENCE_LADDER
        payload["rows"] = [
            {
                "rung": row.rung,
                "latency_us": row.latency_us,
                "speedup_vs_scalar": row.speedup_vs_scalar,
            }
            for row in report.rows
        ]
    else:
        payload["hardware_reference"] = HARDWARE_REFERENCE_SWEEP_POINT
        payload["points"] = [
            {
                "n_elements": p.n_elements,
                "single_us": p.single_us,
                "multi_us": p.multi_us,
                "speedup": p.speedup,
            }
            for p in report.points
        ]
    return json.dumps(payload, indent=2) + "\n"


# --------------------------------------------------------------------------- #
# SVG
# --------------------------------------------------------------------------- #


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}"'
        f' viewBox="0 0 {_W} {_H}">',
        f"<style>{_SVG_STYLE}</style>",
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text class="title" x="{_ML}" y="24">{title}</text>',
    ]


def _log_axis(lo: float, hi: float) -> tuple[float, float]:
    return math.floor(math.log10(lo)), math.ceil(math.log10(hi))


def _y_log(value: float, lo_exp: float, hi_exp: float) -> float:
    frac = (math.log10(value) - lo_exp) / (hi_exp - lo_exp)
    return _MT + _PH * (1.0 - frac)


def _x_log(value: float, lo_exp: float, hi_exp: float) -> float:
    frac = (math.log10(value) - lo_exp) / (hi_exp - lo_exp)
    return _ML + _PW * frac


def _log_grid_y(parts: list[str], lo_exp: int, hi_exp: int, unit: str) -> None:
    for e in range(lo_exp, hi_exp + 1):
        y = _y_log(10.0**e, lo_exp, hi_exp)
        parts.append(f'<line class="grid" x1="{_ML}" y1="{_fmt(y)}" x2="{_W - _MR}" y2="{_fmt(y)}"/>')
        parts.append(f'<text x="{_ML - 6}" y="{_fmt(y + 4)}" text-anchor="end">1e{e}{unit}</text>')


def _axes(parts: list[str]) -> None:
    parts.append(
        f'<line class="axis" x1="{_ML}" y1="{_MT + _PH}" x2="{_W - _MR}" y2="{_MT + _PH}"/>'
    )
    parts.append(f'<line class="axis" x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + _PH}"/>')


def ladder_svg(report: LadderReport) -> str:
    """Bar chart of rung latency on a log scale."""
    rows = report.rows
    lo_exp, hi_exp = _log_axis(
        min(r.latency_us for r in rows), max(r.latency_us for r in rows)
    )
    if lo_exp == hi_exp:
        hi_exp = lo_exp + 1
    parts = _svg_header(f"ablation ladder: {report.kernel.kind.value} latency")
    _log_grid_y(parts, lo_exp, hi_exp, "")
    _axes(parts)
    slot = _PW / len(rows)
    width = slot * 0.6
    for i, row in enumerate(rows):
        x = _ML + slot * i + (slot - width) / 2
        y = _y_log(row.latency_us, lo_exp, hi_exp)
        parts.append(
            f'<rect class="bar" x="{_fmt(x)}" y="{_fmt(y)}"'
            f' width="{_fmt(width)}" height="{_fmt(_MT + _PH - y)}"/>'
        )
        cx = x + width / 2
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_H - _MB + 16}" text-anchor="middle">{row.rung}</text>'
        )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(y - 4)}" text-anchor="middle">'
            f"{row.latency_us:.3f}us</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _sweep_x_axis(parts: list[str], lo_exp: int, hi_exp: int) -> None:
    for e in range(lo_exp, hi_exp + 1):
        x = _x_log(10.0**e, lo_exp, hi_exp)
        parts.append(
            f'<line class="grid" x1="{_fmt(x)}" y1="{_MT}" x2="{_fmt(x)}" y2="{_MT + _PH}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_MT + _PH + 16}" text-anchor="middle">1e{e}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_ML + _PW / 2)}" y="{_H - 10}" text-anchor="middle">elements</text>'
    )


def sweep_latency_svg(report: SweepReport) -> str:
    """Log-log latency vs size, one polyline per execution arm."""
    pts = report.points
    xlo, xhi = _log_axis(pts[0].n_elements, pts[-1].n_elements)
    values = [p.single_us for p in pts] + [p.multi_us for p in pts]
    ylo, yhi = _log_axis(min(values), max(values))
    if ylo == yhi:
        yhi = ylo + 1
    if xlo == xhi:
        xhi = xlo + 1
    parts = _svg_header(f"{report.kernel.kind.value} latency vs size (log-log)")
    _log_grid_y(parts, ylo, yhi, "us")
    _sweep_x_axis(parts, xlo, xhi)
    _axes(parts)
    for series_index, pick in enumerate((lambda p: p.single_us, lambda p: p.multi_us)):
        coords = " ".join(
            f"{_fmt(_x_log(p.n_elements, xlo, xhi))},{_fmt(_y_log(pick(p), ylo, yhi))}"
            for p in pts
        )
        parts.append(f'<polyline class="series{series_index}" points="{coords}"/>')
    parts.append(
        f'<text x="{_W - _MR - 150}" y="{_MT + 16}" class="series-label"'
        f' fill="#4878a8">single-thread</text>'
    )
    parts.append(
        f'<text x="{_W - _MR - 150}" y="{_MT + 32}" class="series-label"'
        f' fill="#b05050">multi-thread</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def sweep_speedup_svg(report: SweepReport) -> str:
    """Speedup (single / multi) vs size on a log-x axis."""
    pts = report.points
    xlo, xhi = _log_axis(pts[0].n_elements, pts[-1].n_elements)
    if xlo == xhi:
        xhi = xlo + 1
    ymax = max(report.machine.threads * 1.125, max(p.speedup for p in pts) * 1.1)

    def y_of(v: float) -> float:
        return _MT + _PH * (1.0 - v / ymax)

    parts = _svg_header(f"{report.kernel.kind.value} multi-thread speedup vs size")
    for tick in range(0, int(ymax) + 1):
        y = y_of(tick)
        parts.append(f'<line class="grid" x1="{_ML}" y1="{_fmt(y)}" x2="{_W - _MR}" y2="{_fmt(y)}"/>')
        parts.append(f'<text x="{_ML - 6}" y="{_fmt(y + 4)}" text-anchor="end">{tick}x</text>')
    _sweep_x_axis(parts, xlo, xhi)
    _axes(parts)
    coords = " ".join(
        f"{_fmt(_x_log(p.n_elements, xlo, xhi))},{_fmt(y_of(p.speedup))}" for p in pts
    )
    parts.append(f'<polyline class="series0" points="{coords}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(report: LadderReport | SweepReport) -> dict[str, str]:
    """All SVG documents for a report, keyed by file stem."""
    if isinstance(report, LadderReport):
        return {"ladder": ladder_svg(report)}
    return {
        "sweep_latency": sweep_latency_svg(report),
        "sweep_speedup": sweep_speedup_svg(report),
    }


def write_report_files(
    report: LadderReport | SweepReport, out_dir: str | Path, formats: tuple[str, ...]
) -> list[Path]:
    """Writes the requested formats into out_dir and returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = "ladder" if isinstance(report, LadderReport) else "sweep"
    paths: list[Path] = []
    for fmt in formats:
        if fmt == "csv":
            paths.append(out / f"{stem}.csv")
            paths[-1].write_text(emit_csv(report), encoding="utf-8")
        elif fmt == "json":
            paths.append(out / f"{stem}.json")
            paths[-1].write_text(emit_json(report), encoding="utf-8")
        elif fmt == "svg":
            for name, text in emit_svg(report).items():
                paths.append(out / f"{name}.svg")
                paths[-1].write_text(text, encoding="utf-8")
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    return paths
