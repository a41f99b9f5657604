"""Result aggregation: AULC tables, mean learning curves, SVG plots.

Everything is recomputed from the runs results.scan_runs reads, on each
invocation; there is no cached state. AULC is computed on the [0, 1]
accuracy scale and shown multiplied by 100, table cells formatted mean(std).
"""

from dataclasses import dataclass
from html import escape

import numpy as np

from .errors import ValidationError


def compute_aulc(labeled_counts, accuracies):
    """Trapezoidal area under the curve, normalized to the x span.
    labeled_counts is non-empty and increasing, as read_run_csv checks."""
    x = np.asarray(labeled_counts, dtype=np.float64)
    y = np.asarray(accuracies, dtype=np.float64)
    if x.size == 1:
        return float(y[0])
    span = x[-1] - x[0]
    segments = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    return float(segments.sum() / span)


@dataclass
class AulcSummary:
    mean: float
    std: float
    mean_curve_x: list
    mean_curve_y: list
    std_curve_y: list


def aggregate_seeds(curves):
    """Mean/population-std of AULC plus the pointwise mean curve.

    curves is a non-empty list of (labeled_counts, accuracies), one per seed,
    with identical round structure.
    """
    base_x = list(curves[0][0])
    for x, _ in curves[1:]:
        if list(x) != base_x:
            raise ValidationError(
                f"curves have mismatched round structure: {base_x} vs {list(x)}"
            )
    aulcs = [compute_aulc(x, y) for x, y in curves]
    ys = np.asarray([y for _, y in curves], dtype=np.float64)
    return AulcSummary(
        mean=float(np.mean(aulcs)),
        std=float(np.std(aulcs)),
        mean_curve_x=base_x,
        mean_curve_y=ys.mean(axis=0).tolist(),
        std_curve_y=ys.std(axis=0).tolist(),
    )


def summaries(runs):
    """aggregate_seeds over the runs of each (dataset, strategy), in seed
    order; the AULC table and the mean curves both read these."""
    curves = {}
    for run in sorted(runs, key=lambda r: r["seed"]):
        columns = run["columns"]
        curves.setdefault((run["dataset"], run["strategy"]), []).append(
            (columns["labeled_total"], columns["acc_macro"])
        )
    return {key: aggregate_seeds(group) for key, group in curves.items()}


def aulc_table(runs):
    """mean/std AULC (on the displayed x100 scale) per strategy and dataset.

    Also averages per-round selection seconds (rounds >= 1, i.e. strategy
    calls rather than the initial split) per strategy.
    """
    cells = {
        key: (100.0 * summary.mean, 100.0 * summary.std)
        for key, summary in summaries(runs).items()
    }
    times = {}
    for run in runs:
        seconds = run["columns"]["select_seconds"][1:]
        times.setdefault(run["strategy"], []).extend(seconds)
    timing = {s: float(np.mean(t)) if t else float("nan") for s, t in times.items()}
    datasets = sorted({d for d, _ in cells})
    return datasets, sorted(timing), cells, timing


def format_table_csv(datasets, strategies, cells, timing):
    lines = ["strategy," + ",".join(datasets) + ",mean_select_seconds"]
    for s in strategies:
        row = [s]
        for d in datasets:
            mean, std = cells.get((d, s), (float("nan"), float("nan")))
            row.append(f"{mean:.2f}({std:.2f})")
        row.append(f"{timing[s]:.4f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def format_table_text(datasets, strategies, cells, timing):
    """Aligned table; the best mean per dataset column is starred."""
    best = {}
    for d in datasets:
        means = {
            s: cells[(d, s)][0] for s in strategies if (d, s) in cells
        }
        if means:
            best[d] = max(means, key=lambda s: (means[s], s))
    header = ["strategy"] + datasets + ["select_s"]
    rows = [header]
    for s in strategies:
        row = [s]
        for d in datasets:
            if (d, s) in cells:
                mean, std = cells[(d, s)]
                mark = "*" if best.get(d) == s else " "
                row.append(f"{mean:6.2f}({std:.2f}){mark}")
            else:
                row.append("-")
        row.append(f"{timing[s]:.4f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    out = []
    for i, row in enumerate(rows):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            out.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(out) + "\n"


# -------------------------------------------------------------------- curves


def format_curves_csv(curves, dataset):
    lines = ["strategy,labeled_total,acc_mean,acc_std"]
    for (d, strategy) in sorted(curves):
        if d != dataset:
            continue
        x, mean, std = curves[(d, strategy)]
        for xi, mi, si in zip(x, mean, std):
            lines.append(f"{strategy},{int(xi)},{repr(float(mi))},{repr(float(si))}")
    return "\n".join(lines) + "\n"


_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
    "#aec7e8",
)


def render_curves_svg(curves, dataset, width=640, height=440):
    """Dependency-free SVG: axes, one polyline per strategy, legend. curves
    holds at least one curve of dataset, as cmd_curves passes it."""
    series = [
        (strategy, curves[(d, strategy)])
        for (d, strategy) in sorted(curves)
        if d == dataset
    ]
    margin = 50
    xs = [x for _, (x, _, _) in series for x in x]
    ys = [y for _, (_, ym, _) in series for y in ym]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    pad = 0.05 * (y_hi - y_lo) or 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">labeled instances</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 14 {height / 2:.1f})">'
        "macro accuracy</text>",
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{escape(dataset, quote=False)}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height - margin + 16}" '
            f'text-anchor="middle" font-size="11">{xv:.0f}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{py(yv) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{yv:.3f}</text>'
        )
    for idx, (strategy, (x, ymean, _)) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(xi):.2f},{py(yi):.2f}" for xi, yi in zip(x, ymean))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
            f'points="{points}"/>'
        )
        ly = margin + 16 * idx
        parts.append(
            f'<line x1="{width - margin - 110}" y1="{ly}" '
            f'x2="{width - margin - 86}" y2="{ly}" stroke="{color}" '
            'stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{width - margin - 80}" y="{ly + 4}" '
            f'font-size="12">{escape(strategy, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
