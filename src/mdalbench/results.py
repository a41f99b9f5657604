"""Files: the reader behind every file the program reads, the
.tmp-then-rename writer behind every file the CLI writes, and a finished
run on disk: its file names, its result CSV and its JSON sidecar."""

import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ValidationError


NAME_RULE = "must be a non-empty file name other than '.' and '..', without '/', '\\' or NUL"
FILE_NAME_MAX = 255  # bytes, on common file systems


def is_file_name(name):
    """Whether a config name keeps NAME_RULE: it starts every result file's
    name, so it must not lead outside the results directory."""
    return (
        isinstance(name, str) and name not in ("", ".", "..")
        and not set(name) & {"/", "\\", "\0"}
    )


def longest_run_file(config_name, strategies, seeds):
    """The UTF-8 bytes of the longest file name a grid's runs write, a
    sidecar's temp file (replace_file)."""
    return max(
        len(run_paths(Path(), config_name, s, seed)[1].name.encode()) + len(".tmp")
        for s in strategies for seed in seeds
    )


def run_paths(out_dir, config_name, strategy, seed):
    """The result CSV and the sidecar of one run under out_dir."""
    stem = f"{config_name}__{strategy}__seed{seed}"
    return out_dir / f"{stem}.csv", out_dir / f"{stem}.json"


def read_lines(path, what=""):
    """Yield the lines of the UTF-8 text file at path one at a time, so that
    no caller holds a whole file as one string unless it joins them. A file
    that cannot be opened, or bytes that are not UTF-8, raise ValidationError
    naming the path, after what the file is ("config: <path>: ...") if given."""
    where = f"{what}: {path}" if what else path
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except OSError as exc:
        raise ValidationError(f"{where}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{where}: not UTF-8 text ({exc.reason})") from None


def read_json_object(path, what=""):
    """The JSON object in the file at path; read_lines' errors, invalid JSON
    or another JSON value raise ValidationError naming the path."""
    where = f"{what}: {path}" if what else path
    try:
        doc = json.loads("".join(read_lines(path, what)))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    return doc


def replace_file(write, path):
    """write(tmp) into a temp file beside path, then rename it over path.

    The temp name ends in .tmp, so neither a *.csv nor a *.json scan ever
    sees a half-written file; a failed write removes it.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def csv_header(num_domains):
    cols = ["round", "labeled_total", "labeled_frac"]
    cols += [f"acc_domain_{k}" for k in range(num_domains)]
    cols += ["acc_macro", "select_seconds", "train_seconds"]
    return ",".join(cols)


def write_run_csv(result, path):
    num_domains = len(result.records[0].domain_accuracies) if result.records else 0
    lines = [csv_header(num_domains)]
    for r in result.records:
        cells = [
            str(r.round_index),
            str(r.labeled_total),
            repr(r.labeled_frac),
            *[repr(a) for a in r.domain_accuracies],
            repr(r.macro_accuracy),
            repr(r.select_seconds),
            repr(r.train_seconds),
        ]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_READ_COLUMNS = ("labeled_total", "acc_macro", "select_seconds")


def read_run_csv(path):
    """Parse a result CSV back into column arrays. A file without a header,
    without a column that report and curves read or without a row raises
    ValidationError naming the path; a row whose cell count is not the
    header's, a cell that is not a number or a labeled_total that does not
    increase raises it naming path:line."""
    lines = "".join(read_lines(path)).rstrip().splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")
    missing = [name for name in _READ_COLUMNS if name not in header]
    if missing:
        raise ValidationError(f"{path}: header lacks {', '.join(missing)}")
    if len(lines) == 1:
        raise ValidationError(f"{path}: no round records")
    cols = {name: [] for name in header}
    totals = cols["labeled_total"]
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError(
                f"{path}:{number}: {len(cells)} cells, the header has {len(header)}"
            )
        for name, cell in zip(header, cells):
            try:
                cols[name].append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{path}:{number}: {name} is not a number: {cell!r}"
                ) from None
        if len(totals) > 1 and totals[-1] <= totals[-2]:
            raise ValidationError(
                f"{path}:{number}: labeled_total {totals[-1]:g} does not "
                f"increase on {totals[-2]:g}"
            )
    return cols


def write_run_metadata(result, config, path):
    doc = {
        "config": config.to_dict(),
        "strategy": result.strategy,
        "seed": result.seed,
        "status": result.status,
        "error": result.error,
        "code_version": __version__,
        "rounds": len(result.records),
        "epoch_losses": [r.epoch_losses for r in result.records],
        "labeled_per_domain": [r.labeled_per_domain for r in result.records],
        # volatile fields, excluded from reproducibility comparisons
        "timestamp": time.time(),
        "timing": {
            "select_seconds": [r.select_seconds for r in result.records],
            "train_seconds": [r.train_seconds for r in result.records],
        },
    }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _config_hash(config):
    """sha256 of a sidecar's config echo without seeds and strategies, which
    --seeds and --strategies vary within one grid."""
    kept = {k: v for k, v in config.items() if k not in ("seeds", "strategies")}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()


def scan_runs(results_dir):
    """Collect (dataset, strategy, seed, columns) for every finished run.

    Runs are grouped by config name, so two runs under one name must echo
    the same config (seeds and strategies aside); otherwise this raises,
    naming two files that disagree. An ok sidecar whose CSV is missing, or
    whose CSV has another number of rows than the sidecar's rounds, raises
    too, naming the file. A *.json file that is not a JSON object, and a
    run whose sidecar is not ok (a failed run), are skipped with a warning
    on stderr that says why.
    """
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise ValidationError(f"results directory not found: {results_dir}")
    runs = []
    first_of_name = {}
    for meta_path in sorted(results_dir.glob("*.json")):
        try:
            meta = read_json_object(meta_path)
        except ValidationError as exc:
            print(f"warning: skipping {exc}", file=sys.stderr)
            continue
        if "strategy" not in meta or "config" not in meta:
            continue
        config = meta["config"]
        if not (
            isinstance(config, dict)
            and isinstance(meta["strategy"], str)
            and type(meta.get("seed")) is int
            and type(meta.get("rounds")) is int
        ):
            print(
                f"warning: skipping {meta_path}: malformed sidecar (needs a "
                "config object, a string strategy, an integer seed and "
                "integer rounds)",
                file=sys.stderr,
            )
            continue
        if not is_file_name(config.get("name")):
            # curves writes curves_<name>.csv: the name must stay a file name
            print(f"warning: skipping {meta_path}: config name {NAME_RULE}, "
                  f"got {config.get('name')!r}", file=sys.stderr)
            continue
        if meta.get("status") != "ok":
            print(f"warning: skipping {meta_path}: status {meta.get('status')}: "
                  f"{meta.get('error')}", file=sys.stderr)
            continue
        csv_path = meta_path.with_suffix(".csv")
        if not csv_path.is_file():
            raise ValidationError(f"{meta_path}: run is ok but {csv_path.name} is missing")
        name, digest = config["name"], _config_hash(config)
        first = first_of_name.setdefault(name, (digest, meta_path))
        if first[0] != digest:
            raise ValidationError(
                f"runs named {name!r} come from different configs: "
                f"{first[1]} and {meta_path} disagree"
            )
        columns = read_run_csv(csv_path)
        if len(columns["labeled_total"]) != meta["rounds"]:
            raise ValidationError(
                f"{csv_path}: {len(columns['labeled_total'])} round records, "
                f"its sidecar says {meta['rounds']}"
            )
        runs.append(
            {
                "dataset": name,
                "strategy": meta["strategy"],
                "seed": meta["seed"],
                "columns": columns,
            }
        )
    if not runs:
        raise ValidationError(f"no completed runs found under {results_dir}")
    return runs
