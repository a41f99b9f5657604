"""Command-line interface.

Subcommands: run (execute a strategy x seed grid from a JSON config),
synth (write a synthetic dataset as CSVs + manifest), report (AULC table),
curves (mean learning-curve CSVs + SVG plots). Exit codes: 0 success,
1 runtime failure, 2 invalid input, 3 refusal to overwrite, 130 Ctrl-C.
"""

import argparse
import sys
from pathlib import Path

from .data import (
    DatasetManifest,
    DomainSpec,
    SynthSpec,
    generate_synthetic,
    save_domain_csv,
    save_manifest,
)
from .engine import ExperimentConfig, run_grid
from .errors import OverwriteRefusedError, ValidationError, key_problems
from .reporting import (
    aulc_table,
    format_curves_csv,
    format_table_csv,
    format_table_text,
    render_curves_svg,
    summaries,
)
from .results import read_json_object, replace_file, scan_runs

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2
EXIT_REFUSED = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C


def _seed(text):
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"--seeds: expected an integer seed, got {text!r}") from None


def cmd_run(args):
    if args.jobs < 1:
        raise ValidationError(f"--jobs: must be >= 1, got {args.jobs}")
    raw = read_json_object(args.config, "config")
    if args.seeds:
        raw["seeds"] = [_seed(s) for s in args.seeds.split(",") if s.strip()]
    if args.strategies:
        raw["strategies"] = [s.strip() for s in args.strategies.split(",") if s.strip()]
    config = ExperimentConfig.from_dict(raw)

    results = run_grid(config, args.out, jobs=args.jobs, force=args.force)
    failures = [r for r in results if r.status != "ok"]
    for r in results:
        error = f" ({r.error})" if r.error else ""
        print(f"{config.name} {r.strategy} seed={r.seed}: {r.status}{error}")
    if failures:
        print(f"{len(failures)}/{len(results)} runs failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_synth(args):
    keys = read_json_object(args.spec, "synth spec")
    if problems := key_problems(SynthSpec, keys):
        raise ValidationError("; ".join(problems))
    spec = SynthSpec(**keys)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    datasets = generate_synthetic(spec)
    # the old manifest goes first and the new one comes last, so an
    # interrupted rerun leaves no manifest vouching for a domain file
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    domains = []
    for dom in datasets:
        fname = f"{dom.name}.csv"
        replace_file(lambda tmp: save_domain_csv(dom, tmp), out / fname)
        domains.append(
            DomainSpec(name=dom.name, file=fname, classes=spec.num_classes, rows=len(dom))
        )
    manifest = DatasetManifest(name=spec.name, dim=spec.input_dim, domains=domains)
    replace_file(lambda tmp: save_manifest(manifest, tmp), manifest_path)
    print(f"wrote {len(domains)} domain CSV(s) + manifest.json under {out}")
    return EXIT_OK


def _write_text(path, text):
    """Write text to path through a .tmp file, so that an interrupted write
    leaves the previous file as it was."""
    replace_file(lambda tmp: tmp.write_text(text, encoding="utf-8"), path)


def cmd_report(args):
    runs = scan_runs(args.results_dir)
    datasets, strategies, cells, timing = aulc_table(runs)
    csv_text = format_table_csv(datasets, strategies, cells, timing)
    txt_text = format_table_text(datasets, strategies, cells, timing)
    out_dir = Path(args.results_dir)
    _write_text(out_dir / "aulc_table.csv", csv_text)
    _write_text(out_dir / "aulc_table.txt", txt_text)
    print(csv_text if args.format == "csv" else txt_text, end="")
    return EXIT_OK


def cmd_curves(args):
    runs = scan_runs(args.results_dir)
    curves = {
        key: (s.mean_curve_x, s.mean_curve_y, s.std_curve_y)
        for key, s in summaries(runs).items()
    }
    out_dir = Path(args.results_dir)
    datasets = sorted({d for d, _ in curves})
    for dataset in datasets:
        _write_text(out_dir / f"curves_{dataset}.csv", format_curves_csv(curves, dataset))
        _write_text(out_dir / f"curves_{dataset}.svg", render_curves_svg(curves, dataset))
        print(f"wrote curves_{dataset}.csv and curves_{dataset}.svg")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdalbench",
        description="Multi-domain active learning benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a strategy x seed experiment grid")
    run_p.add_argument("--config", required=True, help="experiment config JSON")
    run_p.add_argument("--out", required=True, help="output directory for results")
    run_p.add_argument("--seeds", help="comma-separated seed overrides")
    run_p.add_argument(
        "--strategies",
        help="comma-separated strategies; overrides the config's list",
    )
    run_p.add_argument("--jobs", type=int, default=1, help="parallel worker cap")
    run_p.add_argument(
        "--force", action="store_true", help="overwrite existing result files"
    )
    run_p.set_defaults(fn=cmd_run)

    synth_p = sub.add_parser("synth", help="generate a synthetic dataset")
    synth_p.add_argument("--spec", required=True, help="synthetic spec JSON")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.set_defaults(fn=cmd_synth)

    report_p = sub.add_parser("report", help="AULC summary table from results")
    report_p.add_argument("results_dir", help="directory with run CSV/JSON files")
    report_p.add_argument(
        "--format", choices=("csv", "text"), default="text", help="stdout format"
    )
    report_p.set_defaults(fn=cmd_report)

    curves_p = sub.add_parser("curves", help="mean learning curves + SVG plots")
    curves_p.add_argument("results_dir", help="directory with run CSV/JSON files")
    curves_p.set_defaults(fn=cmd_curves)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OverwriteRefusedError as exc:
        print(f"refusing to overwrite: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except KeyboardInterrupt as exc:
        print(f"interrupted{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
