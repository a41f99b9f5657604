"""Experiment orchestration: the iterative label/train/select loop.

One run = one (strategy, seed) pair. The loop trains from scratch each round
(cold start by default), evaluates on held-out per-domain test sets, then
asks the strategy for the next batch until the labeling budget is spent.
Each round's record also carries the wall time of the selection that
produced its labeled set (round 0 gets the initial-split time) and of its
training, feeding the per-strategy timing comparison.
"""

import json
import math
import time
from dataclasses import dataclass, field
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


# (key as written in the config file, rule, check) for the single-value
# ranges; the model ranges mirror ModelConfig, the strategy ones
# SelectionContext.validate, so a bad value fails at load, not mid-run
_RANGES = (
    ("test_fraction", "must lie in (0, 1)", lambda v: 0 < v < 1),
    ("al.step_fraction", "must be > 0", lambda v: v > 0),
    ("model.shared_hidden", "must be >= 1", lambda v: v >= 1),
    ("model.private_hidden", "must be >= 1", lambda v: v >= 1),
    ("model.lam_adv", "must be >= 0", lambda v: v >= 0),
    ("model.lam_diff", "must be >= 0", lambda v: v >= 0),
    ("model.lr", "must be > 0", lambda v: v > 0),
    ("model.batch_size", "must be >= 1", lambda v: v >= 1),
    ("model.epochs_per_round", "must be >= 0", lambda v: v >= 0),
    ("strategy_params.sigma", "must be > 0", lambda v: v > 0),
    ("strategy_params.num_perturbations", "must be >= 1", lambda v: v >= 1),
    (
        "strategy_params.budget_counts",
        "must be 'unlabeled' or 'pool'",
        lambda v: v in ("unlabeled", "pool"),
    ),
)


@dataclass
class ExperimentConfig:
    name: str
    dataset: dict
    strategies: list
    seeds: list
    test_fraction: float = 0.25
    standardize: bool | None = None
    shared_hidden: int = 64
    private_hidden: int = 64
    lam_adv: float = 0.05
    lam_diff: float = 0.0
    lr: float = 0.01
    batch_size: int = 8
    epochs_per_round: int = 30
    init_fraction: float = 0.10
    step_fraction: float = 0.05
    budget_fraction: float = 0.50
    warm_start: bool = False
    sigma: float = 0.01
    num_perturbations: int = 20
    budget_counts: str = "unlabeled"

    def __post_init__(self):
        problems = self.problems()
        if problems:
            raise ValidationError("; ".join(problems))

    def problems(self):
        out = []
        if not isinstance(self.name, str) or not self.name:
            out.append("name: expected a non-empty string")
        if not isinstance(self.dataset, dict) or self.dataset.get("type") not in (
            "synthetic",
            "manifest",
        ):
            out.append("dataset.type: expected 'synthetic' or 'manifest'")
        if not self.strategies:
            out.append("strategies: expected a non-empty list")
        else:
            for s in self.strategies:
                if s not in STRATEGY_NAMES:
                    out.append(f"strategies: unknown strategy {s!r}")
        if not self.seeds:
            out.append("seeds: expected a non-empty list")
        if not 0 < self.init_fraction < self.budget_fraction <= 1:
            out.append(
                "init_fraction/budget_fraction: need "
                "0 < init_fraction < budget_fraction <= 1"
            )
        for key, rule, check in _RANGES:
            value = getattr(self, key.rpartition(".")[2])
            try:
                ok = check(value)
            except TypeError:  # a string or null where a number belongs
                ok = False
            if not ok:
                out.append(f"{key}: {rule}, got {value!r}")
        return out

    def to_dict(self):
        return {
            "name": self.name,
            "dataset": self.dataset,
            "strategies": list(self.strategies),
            "seeds": [int(s) for s in self.seeds],
            "test_fraction": self.test_fraction,
            "standardize": self.standardize,
            "model": {
                "shared_hidden": self.shared_hidden,
                "private_hidden": self.private_hidden,
                "lam_adv": self.lam_adv,
                "lam_diff": self.lam_diff,
                "lr": self.lr,
                "batch_size": self.batch_size,
                "epochs_per_round": self.epochs_per_round,
            },
            "al": {
                "init_fraction": self.init_fraction,
                "step_fraction": self.step_fraction,
                "budget_fraction": self.budget_fraction,
                "warm_start": self.warm_start,
            },
            "strategy_params": {
                "sigma": self.sigma,
                "num_perturbations": self.num_perturbations,
                "budget_counts": self.budget_counts,
            },
        }

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ValidationError("config: expected a JSON object")
        flat = {
            "name": raw.get("name"),
            "dataset": raw.get("dataset"),
            "strategies": raw.get("strategies"),
            "seeds": raw.get("seeds"),
        }
        for key in ("test_fraction", "standardize"):
            if key in raw:
                flat[key] = raw[key]
        for section, keys in (
            (
                "model",
                (
                    "shared_hidden",
                    "private_hidden",
                    "lam_adv",
                    "lam_diff",
                    "lr",
                    "batch_size",
                    "epochs_per_round",
                ),
            ),
            ("al", ("init_fraction", "step_fraction", "budget_fraction", "warm_start")),
            ("strategy_params", ("sigma", "num_perturbations", "budget_counts")),
        ):
            sub = raw.get(section, {})
            if not isinstance(sub, dict):
                raise ValidationError(f"config.{section}: expected an object")
            for key in keys:
                if key in sub:
                    flat[key] = sub[key]
        return cls(**flat)


# ------------------------------------------------------------------ datasets


def load_dataset(config):
    """Full per-domain datasets plus whether to standardize by default."""
    ds = config.dataset
    if ds["type"] == "synthetic":
        try:
            spec = SyntheticSpec(**{k: v for k, v in ds.items() if k != "type"})
        except TypeError as exc:
            raise ValidationError(f"dataset: {exc}") from exc
        full = generate_synthetic(spec)
        default_standardize = False
        split_seed = spec.seed
    else:
        manifest = load_manifest(ds["path"])
        full = [load_domain(manifest, k) for k in range(manifest.num_domains)]
        default_standardize = True
        split_seed = int(ds.get("split_seed", 0))
    do_std = config.standardize
    if do_std is None:
        do_std = default_standardize
    return full, do_std, split_seed


def prepare_pools(config):
    """Split each domain into train pool and test set, standardizing if asked.

    The split is keyed to the dataset seed, not the run seed, so every run
    sees the same pools and test sets.
    """
    full, do_std, split_seed = load_dataset(config)
    train_store, test_sets = [], []
    for k, dom in enumerate(full):
        train, test = train_test_split(
            dom, config.test_fraction, RngStream(split_seed, f"split/{k}")
        )
        if do_std:
            train, test, _ = standardize(train, test)
        train_store.append(train)
        test_sets.append((test.X, test.y))
    return train_store, test_sets


# ----------------------------------------------------------------- pool state


@dataclass
class PoolState:
    store: list
    labeled: list
    unlabeled: list

    def check(self):
        for k in range(len(self.store)):
            lab = set(self.labeled[k].tolist())
            unl = set(self.unlabeled[k].tolist())
            n = len(self.store[k])
            if lab & unl:
                raise ValidationError(f"domain {k}: labeled and unlabeled overlap")
            if lab | unl != set(range(n)):
                raise ValidationError(f"domain {k}: pools do not cover the store")
        return self

    def labeled_counts(self):
        return [int(a.size) for a in self.labeled]

    def total(self):
        return int(sum(len(s) for s in self.store))


def init_split(store, init_fraction, rng):
    """Label ceil(init_fraction * n_k) uniform samples per domain."""
    labeled, unlabeled = [], []
    for k, dom in enumerate(store):
        n = len(dom)
        take = math.ceil(init_fraction * n)
        if take < 1 or n < 1:
            raise ValidationError(
                f"init_fraction {init_fraction} labels nothing in domain {k}"
            )
        take = min(take, n)
        gen = rng.child(f"init/{k}").generator()
        chosen = np.sort(gen.choice(n, size=take, replace=False))
        mask = np.zeros(n, dtype=bool)
        mask[chosen] = True
        labeled.append(chosen.astype(np.int64))
        unlabeled.append(np.flatnonzero(~mask).astype(np.int64))
    return PoolState(store=store, labeled=labeled, unlabeled=unlabeled).check()


def annotate(pool, batch):
    """Move the batch indices from unlabeled to labeled; returns a new state."""
    per_domain = {}
    for k, i in batch:
        per_domain.setdefault(k, set()).add(int(i))
    labeled, unlabeled = [], []
    for k in range(len(pool.store)):
        move = per_domain.get(k, set())
        if move - set(pool.unlabeled[k].tolist()):
            raise ValidationError(
                f"domain {k}: annotating items that are not unlabeled: "
                f"{sorted(move - set(pool.unlabeled[k].tolist()))}"
            )
        labeled.append(
            np.sort(np.concatenate([pool.labeled[k], np.fromiter(move, dtype=np.int64, count=len(move))]))
        )
        unlabeled.append(
            np.asarray([i for i in pool.unlabeled[k] if int(i) not in move], dtype=np.int64)
        )
    return PoolState(store=pool.store, labeled=labeled, unlabeled=unlabeled)


# ------------------------------------------------------------------- records


@dataclass
class RoundRecord:
    round_index: int
    labeled_per_domain: list
    labeled_total: int
    labeled_frac: float
    domain_accuracies: list
    macro_accuracy: float
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


# ------------------------------------------------------------------ one run


def run_experiment(config, strategy, seed, train_store=None, test_sets=None,
                   records_sink=None):
    """Execute the full AL loop for one (strategy, seed) pair.

    Errors propagate; records_sink (a list, when given) receives each round
    record as it is produced so callers can persist partial progress.
    """
    if strategy not in STRATEGY_NAMES:
        raise ValidationError(f"unknown strategy {strategy!r}")
    if train_store is None or test_sets is None:
        train_store, test_sets = prepare_pools(config)

    num_classes = tuple(int(d.y.max()) + 1 for d in train_store)
    mconfig = ModelConfig(
        input_dim=train_store[0].X.shape[1],
        num_classes=num_classes,
        shared_hidden=config.shared_hidden,
        private_hidden=config.private_hidden,
        lam_adv=config.lam_adv,
        lam_diff=config.lam_diff,
        lr=config.lr,
        batch_size=config.batch_size,
        epochs_per_round=config.epochs_per_round,
    )

    root = RngStream(int(seed))
    total = sum(len(d) for d in train_store)
    step_budget = math.ceil(config.step_fraction * total)

    t0 = time.perf_counter()
    pool = init_split(train_store, config.init_fraction, root)
    pending_select_seconds = time.perf_counter() - t0

    records = records_sink if records_sink is not None else []
    model = None
    round_index = 0
    while True:
        t0 = time.perf_counter()
        if model is None or not config.warm_start:
            model = AspMtlModel.init(mconfig, root.child(f"round{round_index}/model"))
        train_round(
            model, train_store, pool.labeled, mconfig,
            root.child(f"round{round_index}/train"),
        )
        train_seconds = time.perf_counter() - t0

        accs, macro = evaluate(model, test_sets)
        labeled_total = sum(pool.labeled_counts())
        frac = labeled_total / total
        records.append(
            RoundRecord(
                round_index=round_index,
                labeled_per_domain=pool.labeled_counts(),
                labeled_total=labeled_total,
                labeled_frac=frac,
                domain_accuracies=accs,
                macro_accuracy=macro,
                select_seconds=pending_select_seconds,
                train_seconds=train_seconds,
            )
        )
        if frac >= config.budget_fraction:
            break

        remaining = sum(a.size for a in pool.unlabeled)
        ctx = SelectionContext(
            model=model,
            store=train_store,
            labeled=pool.labeled,
            unlabeled=pool.unlabeled,
            budget=min(step_budget, remaining),
            rng=root.child(f"round{round_index}/select"),
            sigma=config.sigma,
            num_perturbations=config.num_perturbations,
            budget_counts=config.budget_counts,
        )
        t0 = time.perf_counter()
        batch = select(strategy, ctx)
        pending_select_seconds = time.perf_counter() - t0
        pool = annotate(pool, batch)
        round_index += 1

    return RunResult(
        config_name=config.name, strategy=strategy, seed=int(seed), records=records
    )


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


def execute_run(config, strategy, seed, out_dir, train_store=None, test_sets=None):
    """Run one experiment and persist its CSV + metadata.

    On failure the partial records gathered so far are still written and the
    result carries status='failed'.
    """
    out_dir = Path(out_dir)
    stem = run_file_stem(config.name, strategy, seed)
    partial = []
    try:
        result = run_experiment(
            config, strategy, seed, train_store, test_sets, records_sink=partial
        )
    except Exception as exc:  # noqa: BLE001 - report per-run failures upward
        result = RunResult(
            config_name=config.name,
            strategy=strategy,
            seed=int(seed),
            records=partial,
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
        )
    write_run_csv(result, out_dir / f"{stem}.csv")
    write_run_metadata(result, config, out_dir / f"{stem}.json")
    return result


def _execute_run_worker(config_dict, strategy, seed, out_dir):
    config = ExperimentConfig.from_dict(config_dict)
    result = execute_run(config, strategy, seed, out_dir)
    return result.strategy, result.seed, result.status, result.error


def run_grid(config, out_dir, jobs=1, force=False):
    """Run the full (strategy x seed) grid, optionally with a process pool."""
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

    outcomes = []
    if jobs <= 1:
        train_store, test_sets = prepare_pools(config)
        for strategy, seed in pairs:
            result = execute_run(
                config, strategy, seed, out_dir, train_store, test_sets
            )
            outcomes.append((strategy, seed, result.status, result.error))
    else:
        import concurrent.futures

        raw = config.to_dict()
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_execute_run_worker, raw, strategy, seed, str(out_dir))
                for strategy, seed in pairs
            ]
            outcomes = [f.result() for f in futures]
    return outcomes
