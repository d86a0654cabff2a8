"""CSV, SVG, and run-manifest emission.

CSV is the canonical output: RFC 4180 (CRLF line endings, quoted where
needed), floats printed with a fixed shortest-of-12-significant-digits rule
so identical runs produce byte-identical files. SVG charts are a convenience
layer written by hand to keep the output deterministic text. ``write_text``
puts every artifact on disk, rewriting an existing file in place rather than
truncating it first.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import time
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .errors import UnwritableOutput


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


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path``, making its directory, with no newline
    translation; the one writer of every artifact. An OSError becomes
    UnwritableOutput, naming the file or directory that failed."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # no O_TRUNC: cutting a file to zero length before rewriting it makes
        # ext4 (auto_da_alloc) write back the old contents first, tens of ms
        # per artifact a rerun overwrites. The new text goes over the old
        # bytes and the file is then cut to the new length.
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as f:
            f.write(text)
            f.truncate()
    except OSError as exc:
        raise UnwritableOutput(str(exc.filename or path), exc.strerror or str(exc)) from exc
    return path


def write_manifest(config, command: str, outputs: Sequence[str], started: float) -> Path:
    """Record what produced a run's artifacts in the output directory of
    ``config``, a ``RunConfig`` (not itself a determinism target: wall time
    varies)."""
    manifest = {
        "command": command,
        "config": config.source_path,
        "config_sha256": config.source_sha256,
        "seed": config.seed,
        "versions": {
            "dutybound": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": round(time.perf_counter() - started, 6),
        "outputs": list(outputs),
    }
    return write_text(Path(config.output_dir) / "manifest.json",
                      json.dumps(manifest, indent=2) + "\n")
