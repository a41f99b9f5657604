"""Experiment orchestration: the iterative label/train/select loop.

One run = one (strategy, seed) pair. The loop trains from scratch each round
(cold start by default), evaluates on held-out per-domain test sets, then
asks the strategy for the next batch until the labeling budget is spent.
Every run of a grid has the same round structure and step schedule, so runs
go through the loop in groups: each round trains a group's models together
in lockstep (model.train_round), then evaluates, selects and annotates each
run in turn. A run draws only from its own streams, so its results do not
depend on its group. Each round's record also carries the wall time of the
selection that produced its labeled set (round 0 gets the initial-split
time), its share of the group's training time and the per-epoch losses,
feeding the per-strategy timing comparison.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_domain,
    load_manifest,
    standardize,
    train_test_split,
)
from .errors import OverwriteRefusedError, ValidationError
from .model import AspMtlModel, ModelConfig, evaluate, train_round
from .nncore import RngStream
from .strategies import STRATEGY_NAMES, SelectionContext, select

# The most runs trained together in lockstep. Per run-step, a larger group
# costs more again past about 12 runs at the paper's shapes.
GROUP_SIZE = 8

_SECTIONS = ("model", "al", "strategy_params")

# the exact JSON value types each field annotation accepts, so true/false
# never pass as integers
_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    bool | None: ((bool, type(None)), "true, false or null"),
    str: ((str,), "a string"),
}

_POSITIVE = ("must be > 0", lambda v: v > 0)
_NON_NEGATIVE = ("must be >= 0", lambda v: v >= 0)
_AT_LEAST_ONE = ("must be >= 1", lambda v: v >= 1)


def _key(section, default, rule=None, check=None):
    """An optional config key: its default, its config-file section ("" for
    the top level) and the range its value must lie in, if any."""
    return field(
        default=default, metadata={"section": section, "rule": rule, "check": check}
    )


def _path(f):
    section = f.metadata.get("section")
    return f"{section}.{f.name}" if section else f.name


def _synthetic_spec(dataset):
    return SyntheticSpec(**{k: v for k, v in dataset.items() if k != "type"})


def _manifest_split_seed(dataset):
    """The seed of a manifest dataset's train/test splits: its split_seed,
    0 by default."""
    return dataset.get("split_seed", 0)


def name_problem(name):
    """Why `name` cannot name a config, or None. The name starts every result
    file's name, so it must not lead outside the results directory."""
    if not isinstance(name, str) or not name:
        return f"expected a non-empty string, got {name!r}"
    if name in (".", "..") or set(name) & {"/", "\\", "\0"}:
        return (
            f"expected no path separator or NUL and neither '.' nor '..', "
            f"got {name!r}"
        )
    return None


def _repeated(values):
    """The values of a list that it holds more than once; a grid would run
    each of their (strategy, seed) pairs twice, into one file."""
    return sorted({v for v in values if values.count(v) > 1}, key=values.index)


@dataclass
class ExperimentConfig:
    """One experiment grid, declared key by key.

    Each optional field is one config key: its annotation is the key's type,
    and _key gives its default, section and range. from_dict, to_dict,
    section and the checks in problems all derive from these fields.
    """

    name: str
    dataset: dict
    strategies: list
    seeds: list
    test_fraction: float = _key("", 0.25, "must lie in (0, 1)", lambda v: 0 < v < 1)
    standardize: bool | None = _key("", None)
    shared_hidden: int = _key("model", 64, *_AT_LEAST_ONE)
    private_hidden: int = _key("model", 64, *_AT_LEAST_ONE)
    lam_adv: float = _key("model", 0.05, *_NON_NEGATIVE)
    lam_diff: float = _key("model", 0.0, *_NON_NEGATIVE)
    lr: float = _key("model", 0.01, *_POSITIVE)
    batch_size: int = _key("model", 8, *_AT_LEAST_ONE)
    epochs_per_round: int = _key("model", 30, *_NON_NEGATIVE)
    init_fraction: float = _key("al", 0.10)
    step_fraction: float = _key("al", 0.05, *_POSITIVE)
    budget_fraction: float = _key("al", 0.50)
    warm_start: bool = _key("al", False)
    sigma: float = _key("strategy_params", 0.01, *_POSITIVE)
    num_perturbations: int = _key("strategy_params", 20, *_AT_LEAST_ONE)
    budget_counts: str = _key(
        "strategy_params", "unlabeled", "must be 'unlabeled' or 'pool'",
        lambda v: v in ("unlabeled", "pool"),
    )

    def __post_init__(self):
        problems = self.problems()
        if problems:
            raise ValidationError("; ".join(problems))

    def problems(self):
        out = []
        if problem := name_problem(self.name):
            out.append(f"name: {problem}")
        ds = self.dataset if isinstance(self.dataset, dict) else {}
        if ds.get("type") == "synthetic":
            try:
                _synthetic_spec(ds)
            except (TypeError, ValidationError) as exc:
                out.append(f"dataset: {exc}")
        elif ds.get("type") != "manifest":
            out.append("dataset.type: expected 'synthetic' or 'manifest'")
        else:
            if not isinstance(ds.get("path"), str):
                out.append(f"dataset.path: expected a string, got {ds.get('path')!r}")
            split_seed = _manifest_split_seed(ds)
            if type(split_seed) is not int or split_seed < 0:
                out.append(
                    f"dataset.split_seed: expected a non-negative integer, "
                    f"got {split_seed!r}"
                )
        if not isinstance(self.strategies, list) or not self.strategies:
            out.append(f"strategies: expected a non-empty list, got {self.strategies!r}")
        else:
            unknown = [s for s in self.strategies if s not in STRATEGY_NAMES]
            out += [f"strategies: unknown strategy {s!r}" for s in unknown]
            if not unknown and (repeated := _repeated(self.strategies)):
                out.append(f"strategies: listed more than once: {repeated}")
        seeds = self.seeds if isinstance(self.seeds, list) else []
        if not seeds or any(type(s) is not int or s < 0 for s in seeds):
            out.append(
                f"seeds: expected a non-empty list of non-negative integers, "
                f"got {self.seeds!r}"
            )
        elif repeated := _repeated(seeds):
            out.append(f"seeds: listed more than once: {repeated}")
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if "section" not in meta:
                continue
            accepted, kind = _KINDS[f.type]
            if type(value) not in accepted:
                out.append(f"{_path(f)}: expected {kind}, got {value!r}")
            elif meta["check"] and not meta["check"](value):
                out.append(f"{_path(f)}: {meta['rule']}, got {value!r}")
        fractions = (self.init_fraction, self.budget_fraction)
        numeric = all(type(v) in (int, float) for v in fractions)
        if numeric and not 0 < fractions[0] < fractions[1] <= 1:
            out.append(
                "init_fraction/budget_fraction: need "
                "0 < init_fraction < budget_fraction <= 1"
            )
        return out

    def section(self, name):
        """{key: value} for one config-file section; "" is the top level."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.metadata.get("section", "") == name
        }

    def to_dict(self):
        out = {s: self.section(s) for s in _SECTIONS}
        out.update(
            self.section(""), strategies=list(self.strategies), seeds=list(self.seeds)
        )
        return out

    @classmethod
    def from_dict(cls, raw):
        """Build from the config-file layout; every unknown key is an error."""
        if not isinstance(raw, dict):
            raise ValidationError("config: expected a JSON object")
        items, errors = [], []
        for key, value in raw.items():
            if key not in _SECTIONS:
                items.append((key, value))
            elif isinstance(value, dict):
                items += [(f"{key}.{sub}", v) for sub, v in value.items()]
            else:
                errors.append(f"{key}: expected an object, got {value!r}")
        names = {_path(f): f.name for f in fields(cls)}
        errors += [f"{path}: unknown key" for path, _ in items if path not in names]
        if errors:
            raise ValidationError("; ".join(errors))
        # a missing required key reaches problems() as None and is named there
        flat = {f.name: None for f in fields(cls) if "section" not in f.metadata}
        flat.update((names[path], value) for path, value in items)
        return cls(**flat)


# ------------------------------------------------------------------ datasets


def load_dataset(config):
    """Full per-domain datasets plus whether to standardize by default."""
    ds = config.dataset
    if ds["type"] == "synthetic":
        spec = _synthetic_spec(ds)
        full = generate_synthetic(spec)
        default_standardize = False
        split_seed = spec.seed
    else:
        manifest = load_manifest(ds["path"])
        full = [load_domain(manifest, k) for k in range(manifest.num_domains)]
        default_standardize = True
        split_seed = _manifest_split_seed(ds)
    do_std = config.standardize
    if do_std is None:
        do_std = default_standardize
    return full, do_std, split_seed


def prepare_pools(config):
    """Split each domain into train pool and test set, standardizing if asked.

    The split is keyed to the dataset seed, not the run seed, so every run
    sees the same pools and test sets. A pool whose labels are all 0 fails
    here, before any run: the model reads a domain's class count as its
    largest pool label plus one and needs at least two.
    """
    full, do_std, split_seed = load_dataset(config)
    train_store, test_sets = [], []
    for k, dom in enumerate(full):
        train, test = train_test_split(
            dom, config.test_fraction, RngStream(split_seed, f"split/{k}")
        )
        if train.y.size and train.y.max() < 1:
            raise ValidationError(
                f"domain {k} {dom.name!r}: every training label is 0; a "
                "domain needs >= 2 classes"
            )
        if do_std:
            train, test, _ = standardize(train, test)
        train_store.append(train)
        test_sets.append((test.X, test.y))
    return train_store, test_sets


# ----------------------------------------------------------------- pool state


@dataclass
class PoolState:
    """Per-domain boolean masks over the training pools, True where labeled.

    labeled/unlabeled are the sorted index arrays the masks imply.
    """

    store: list
    masks: list

    def __post_init__(self):
        self.check()
        self.labeled = [np.flatnonzero(m) for m in self.masks]
        self.unlabeled = [np.flatnonzero(~m) for m in self.masks]

    def check(self):
        for k, (dom, mask) in enumerate(zip(self.store, self.masks, strict=True)):
            if mask.dtype != bool or mask.shape != (len(dom),):
                raise ValidationError(f"domain {k}: mask does not cover the store")

    def labeled_counts(self):
        return [int(a.size) for a in self.labeled]


def init_split(store, init_fraction, rng):
    """Label ceil(init_fraction * n_k) uniform samples per domain; at least
    one, since ExperimentConfig checks that 0 < init_fraction <= 1."""
    masks = []
    for k, dom in enumerate(store):
        n = len(dom)
        take = math.ceil(init_fraction * n)
        gen = rng.child(f"init/{k}").generator()
        mask = np.zeros(n, dtype=bool)
        mask[gen.choice(n, size=min(take, n), replace=False)] = True
        masks.append(mask)
    return PoolState(store=store, masks=masks)


def annotate(pool, batch):
    """Move the batch items from unlabeled to labeled; returns a new state."""
    masks = [m.copy() for m in pool.masks]
    stray = []
    for k, i in batch:
        # bounds first: a negative index would wrap to the end of the mask
        if 0 <= k < len(masks) and 0 <= i < masks[k].size and not masks[k][i]:
            masks[k][i] = True
        else:
            stray.append((int(k), int(i)))
    if stray:
        raise ValidationError(f"annotating items that are not unlabeled: {stray}")
    return PoolState(store=pool.store, masks=masks)


# ------------------------------------------------------------------- records


@dataclass
class RoundRecord:
    round_index: int
    labeled_per_domain: list
    labeled_total: int
    labeled_frac: float
    domain_accuracies: list
    macro_accuracy: float
    epoch_losses: list  # per epoch, [sup, adv, diff, total]
    select_seconds: float
    train_seconds: float


@dataclass
class RunResult:
    config_name: str
    strategy: str
    seed: int
    records: list
    status: str = "ok"
    error: str = ""


def compute_aulc(labeled_counts, accuracies):
    """Trapezoidal area under the curve, normalized to the x span."""
    x = np.asarray(labeled_counts, dtype=np.float64)
    y = np.asarray(accuracies, dtype=np.float64)
    if x.size < 1:
        raise ValidationError("need at least one round record")
    if x.size == 1:
        return float(y[0])
    span = x[-1] - x[0]
    if span <= 0:
        raise ValidationError("labeled counts must be strictly increasing")
    segments = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    return float(segments.sum() / span)


@dataclass
class AulcSummary:
    aulcs: list
    mean: float
    std: float
    mean_curve_x: list = field(default_factory=list)
    mean_curve_y: list = field(default_factory=list)
    std_curve_y: list = field(default_factory=list)


def aggregate_seeds(curves):
    """Mean/population-std of AULC plus the pointwise mean curve.

    curves is a list of (labeled_counts, accuracies), one per seed, with
    identical round structure.
    """
    if not curves:
        raise ValidationError("no curves to aggregate")
    base_x = list(curves[0][0])
    for x, _ in curves[1:]:
        if list(x) != base_x:
            raise ValidationError(
                f"curves have mismatched round structure: {base_x} vs {list(x)}"
            )
    aulcs = [compute_aulc(x, y) for x, y in curves]
    ys = np.asarray([y for _, y in curves], dtype=np.float64)
    return AulcSummary(
        aulcs=aulcs,
        mean=float(np.mean(aulcs)),
        std=float(np.std(aulcs)),
        mean_curve_x=base_x,
        mean_curve_y=ys.mean(axis=0).tolist(),
        std_curve_y=ys.std(axis=0).tolist(),
    )


# ---------------------------------------------------------- a group of runs


@dataclass
class _RunState:
    """What one run of a group carries from round to round."""

    result: RunResult
    root: RngStream
    pool: PoolState
    select_seconds: float
    model: AspMtlModel = None


def _fail(result, exc):
    result.status = "failed"
    result.error = f"{type(exc).__name__}: {exc}"


def run_experiment(config, runs, train_store=None, test_sets=None):
    """Execute the full AL loop for a group of (strategy, seed) runs.

    Each round initializes every run's model from its own stream, trains
    them together (model.train_round), then evaluates, selects and annotates
    each run in order. Returns one RunResult per run, in order. A run that
    raises gets status 'failed' with the records gathered so far and leaves
    the group; the others go on. An error before the first round (a bad
    strategy name, a dataset that cannot be loaded) propagates.
    """
    for strategy, _ in runs:
        if strategy not in STRATEGY_NAMES:
            raise ValidationError(f"unknown strategy {strategy!r}")
    if train_store is None or test_sets is None:
        train_store, test_sets = prepare_pools(config)

    num_classes = tuple(int(d.y.max()) + 1 for d in train_store)
    mconfig = ModelConfig(
        input_dim=train_store[0].X.shape[1],
        num_classes=num_classes,
        **config.section("model"),
    )
    total = sum(len(d) for d in train_store)
    step_budget = math.ceil(config.step_fraction * total)

    results, active = [], []
    for strategy, seed in runs:
        result = RunResult(
            config_name=config.name, strategy=strategy, seed=int(seed), records=[]
        )
        results.append(result)
        root = RngStream(int(seed))
        t0 = time.perf_counter()
        try:
            pool = init_split(train_store, config.init_fraction, root)
        except Exception as exc:  # noqa: BLE001 - the run fails, the group goes on
            _fail(result, exc)
            continue
        active.append(_RunState(result, root, pool, time.perf_counter() - t0))

    round_index = 0
    while active:
        t0 = time.perf_counter()
        try:
            for run in active:
                if run.model is None or not config.warm_start:
                    run.model = AspMtlModel.init(
                        mconfig, run.root.child(f"round{round_index}/model")
                    )
            outcomes = train_round(
                [run.model for run in active], train_store,
                [run.pool.labeled for run in active], mconfig,
                [run.root.child(f"round{round_index}/train") for run in active],
            )
        except Exception as exc:  # noqa: BLE001 - every run of the round fails
            outcomes = [exc] * len(active)
        train_seconds = (time.perf_counter() - t0) / len(active)

        going = []
        for run, logs in zip(active, outcomes):
            try:
                if isinstance(logs, Exception):
                    raise logs
                if _finish_round(
                    run, config, train_store, test_sets, round_index, logs,
                    train_seconds, total, step_budget,
                ):
                    going.append(run)
            except Exception as exc:  # noqa: BLE001 - the run fails, the group goes on
                _fail(run.result, exc)
        active = going
        round_index += 1
    return results


def _finish_round(run, config, train_store, test_sets, round_index, logs,
                  train_seconds, total, step_budget):
    """Evaluate and record one run's trained round, then select and annotate
    its next batch; returns whether the run goes on to another round."""
    pool = run.pool
    accs, macro = evaluate(run.model, test_sets)
    labeled_total = sum(pool.labeled_counts())
    frac = labeled_total / total
    run.result.records.append(
        RoundRecord(
            round_index=round_index,
            labeled_per_domain=pool.labeled_counts(),
            labeled_total=labeled_total,
            labeled_frac=frac,
            domain_accuracies=accs,
            macro_accuracy=macro,
            epoch_losses=[[e.sup, e.adv, e.diff, e.total] for e in logs],
            select_seconds=run.select_seconds,
            train_seconds=train_seconds,
        )
    )
    if frac >= config.budget_fraction:
        return False

    remaining = sum(a.size for a in pool.unlabeled)
    ctx = SelectionContext(
        model=run.model,
        store=train_store,
        labeled=pool.labeled,
        unlabeled=pool.unlabeled,
        budget=min(step_budget, remaining),
        rng=run.root.child(f"round{round_index}/select"),
        **config.section("strategy_params"),
    )
    t0 = time.perf_counter()
    batch = select(run.result.strategy, ctx)
    run.select_seconds = time.perf_counter() - t0
    run.pool = annotate(pool, batch)
    return True


# ------------------------------------------------------------------- file IO


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


def read_run_csv(path):
    """Parse a result CSV back into column arrays."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            cols[name].append(float(cell))
    return cols


def write_run_metadata(result, config, path, timestamp=None):
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
        "timestamp": timestamp if timestamp is not None else time.time(),
        "timing": {
            "select_seconds": [r.select_seconds for r in result.records],
            "train_seconds": [r.train_seconds for r in result.records],
        },
    }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run_file_stem(config_name, strategy, seed):
    return f"{config_name}__{strategy}__seed{seed}"


def _replace_file(write, path):
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


def execute_run(config, runs, out_dir, train_store=None, test_sets=None):
    """Run a group of (strategy, seed) runs and persist each one's CSV +
    metadata, in order; returns their RunResults.

    A failed run's partial records are still written, with status='failed'.
    A sidecar left by an earlier run is deleted before anything is written
    for that run, and the sidecar is renamed into place last, so an
    interrupted write never leaves a sidecar that vouches for a CSV it was
    not written with.
    """
    out_dir = Path(out_dir)
    try:
        results = run_experiment(config, runs, train_store, test_sets)
    except Exception as exc:  # noqa: BLE001 - report per-run failures upward
        results = [RunResult(config.name, s, int(seed), []) for s, seed in runs]
        for result in results:
            _fail(result, exc)
    for result in results:
        stem = run_file_stem(config.name, result.strategy, result.seed)
        meta_path = out_dir / f"{stem}.json"
        meta_path.unlink(missing_ok=True)
        _replace_file(lambda tmp: write_run_csv(result, tmp), out_dir / f"{stem}.csv")
        _replace_file(lambda tmp: write_run_metadata(result, config, tmp), meta_path)
    return results


def _execute_run_worker(config_dict, runs, out_dir, train_store, test_sets):
    config = ExperimentConfig.from_dict(config_dict)
    results = execute_run(config, runs, out_dir, train_store, test_sets)
    return [(r.strategy, r.seed, r.status, r.error) for r in results]


def grid_groups(count, jobs=1):
    """Positions 0..count-1 of a grid's runs dealt round-robin into groups
    of at most GROUP_SIZE, and into at least `jobs` groups while there are
    runs for them, so that the runs of one strategy spread across workers."""
    n = max(math.ceil(count / GROUP_SIZE), min(jobs, count))
    return [list(range(g, count, n)) for g in range(n)]


def run_grid(config, out_dir, jobs=1, force=False):
    """Run the full (strategy x seed) grid in groups (grid_groups),
    optionally with a process pool; returns (strategy, seed, status, error)
    per run, in grid order.

    The pools are built once, before any run starts, so a dataset that
    cannot be loaded fails the grid whatever jobs is; every group gets them.
    The process pool gets at most one worker per group: the default fork
    start method launches every worker at once, whether or not it has a
    group to take.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = [(s, int(seed)) for s in config.strategies for seed in config.seeds]

    existing = [
        out_dir / f"{run_file_stem(config.name, s, seed)}.csv"
        for s, seed in pairs
        if (out_dir / f"{run_file_stem(config.name, s, seed)}.csv").exists()
    ]
    if existing and not force:
        raise OverwriteRefusedError(
            f"{len(existing)} result file(s) already exist under {out_dir} "
            f"(first: {existing[0].name}); pass --force to overwrite"
        )

    train_store, test_sets = prepare_pools(config)
    groups = grid_groups(len(pairs), jobs)
    workers = min(jobs, len(groups))
    if workers <= 1:
        done = [
            [(r.strategy, r.seed, r.status, r.error) for r in execute_run(
                config, [pairs[i] for i in group], out_dir, train_store, test_sets
            )]
            for group in groups
        ]
    else:
        import concurrent.futures

        raw = config.to_dict()
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _execute_run_worker, raw, [pairs[i] for i in group],
                    str(out_dir), train_store, test_sets,
                )
                for group in groups
            ]
            done = [f.result() for f in futures]
    outcomes = [None] * len(pairs)
    for group, group_outcomes in zip(groups, done):
        for i, outcome in zip(group, group_outcomes):
            outcomes[i] = outcome
    return outcomes
