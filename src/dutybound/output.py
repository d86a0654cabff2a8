"""CSV, SVG, and run-manifest emission.

CSV is the canonical output: RFC 4180 (CRLF line endings, quoted where
needed), floats printed with a fixed shortest-of-12-significant-digits rule
so identical runs produce byte-identical files. SVG charts are a convenience
layer written by hand to keep the output deterministic text.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import platform
import time
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__


def fmt(value) -> str:
    """Canonical cell rendering: 12 significant digits for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buffer.getvalue()


def svg_line_chart(series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
                   title: str = "", xlabel: str = "", ylabel: str = "",
                   width: int = 640, height: int = 400) -> str:
    """A minimal multi-series line chart (SVG 1.1)."""
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    margin = 56
    plot_w, plot_h = width - 2 * margin, height - 2 * margin

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 16 {height / 2:.1f})">{ylabel}</text>')

    for tick in range(5):
        fx = x_lo + (x_hi - x_lo) * tick / 4
        fy = y_lo + (y_hi - y_lo) * tick / 4
        parts.append(f'<text x="{sx(fx):.1f}" y="{height - margin + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{fx:.3g}</text>')
        parts.append(f'<text x="{margin - 6}" y="{sy(fy) + 3:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{fy:.3g}</text>')

    for k, (label, xs, ys) in enumerate(series):
        color = palette[k % len(palette)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * (k + 1)}" '
                     f'font-family="sans-serif" font-size="10" fill="{color}">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str | Path, svg: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(svg)
    return path


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(outdir: str | Path, command: str, config_path: str | None,
                   seed: int, outputs: Sequence[str], started: float) -> Path:
    """Record what produced a run's artifacts (not itself a determinism target:
    wall time varies)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": config_path,
        "config_sha256": sha256_file(config_path) if config_path else None,
        "seed": seed,
        "versions": {
            "dutybound": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": list(outputs),
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path

