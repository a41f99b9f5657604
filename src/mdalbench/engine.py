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

import math
import signal
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import ManifestSpec, SyntheticSpec, standardize, train_test_split
from .errors import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE
from .errors import OverwriteRefusedError, ValidationError, key, key_problems
from .model import AspMtlModel, ModelConfig, evaluate, train_round
from .nncore import RngStream
from .results import FILE_NAME_MAX, NAME_RULE, is_file_name, longest_run_file, replace_file
from .results import make_out_dir, run_paths, write_run_csv, write_run_metadata
from .strategies import STRATEGY_NAMES, SelectionContext, select

# The most runs trained together in lockstep. Per run-step, a larger group
# costs more again past about 12 runs at the paper's shapes.
GROUP_SIZE = 8

_SECTIONS = ("model", "al", "strategy_params")

# the dataclass that declares each dataset type's keys, all but "type", and
# loads its domains
_DATASET_TYPES = {"synthetic": SyntheticSpec, "manifest": ManifestSpec}


@dataclass
class ExperimentConfig:
    """One experiment grid, declared key by key.

    Each field is one config key: its annotation is the key's type, and
    key gives its whole rule, its default (none for a required key) and its
    section. from_dict, the way in, checks a config file against them;
    problems checks what no single key shows.
    """

    name: str = key(NAME_RULE, is_file_name)
    dataset: dict = key()
    strategies: list = key(
        f"must be one or more of {', '.join(STRATEGY_NAMES)}, each once",
        lambda v: v and all(s in STRATEGY_NAMES for s in v) and len(set(v)) == len(v),
    )
    seeds: list = key(
        "must be one or more distinct non-negative integers",
        lambda v: v and all(type(s) is int and s >= 0 for s in v) and len(set(v)) == len(v),
    )
    test_fraction: float = key("must lie in (0, 1)", lambda v: 0 < v < 1, default=0.25)
    standardize: bool | None = key(default=None)
    shared_hidden: int = key(*AT_LEAST_ONE, default=64, section="model")
    private_hidden: int = key(*AT_LEAST_ONE, default=64, section="model")
    lam_adv: float = key(*NON_NEGATIVE, default=0.05, section="model")
    lam_diff: float = key(*NON_NEGATIVE, default=0.0, section="model")
    lr: float = key(*POSITIVE, default=0.01, section="model")
    batch_size: int = key(*AT_LEAST_ONE, default=8, section="model")
    epochs_per_round: int = key(*NON_NEGATIVE, default=30, section="model")
    init_fraction: float = key(default=0.10, section="al")
    step_fraction: float = key(*POSITIVE, default=0.05, section="al")
    budget_fraction: float = key(default=0.50, section="al")
    warm_start: bool = key(default=False, section="al")
    sigma: float = key(*POSITIVE, default=0.01, section="strategy_params")
    num_perturbations: int = key(*AT_LEAST_ONE, default=20, section="strategy_params")
    budget_counts: str = key(
        "must be 'unlabeled' or 'pool'", lambda v: v in ("unlabeled", "pool"),
        default="unlabeled", section="strategy_params",
    )

    def problems(self):
        """What no single key shows: the dataset's own keys, the order of the
        labeling fractions and the length of the run files' names."""
        keys = dict(self.dataset)
        ds_type = keys.pop("type", None)
        # a JSON list as the type is unhashable
        if isinstance(ds_type, str) and ds_type in _DATASET_TYPES:
            out = key_problems(_DATASET_TYPES[ds_type], keys, "dataset.")
        else:
            out = ["dataset.type: expected 'synthetic' or 'manifest'"]
        if not 0 < self.init_fraction < self.budget_fraction <= 1:
            out.append("init_fraction/budget_fraction: need "
                       "0 < init_fraction < budget_fraction <= 1")
        longest = longest_run_file(self.name, self.strategies, self.seeds)
        if longest > FILE_NAME_MAX:
            out.append(f"name: too long, its runs' file names take {longest} bytes, "
                       f"over {FILE_NAME_MAX}")
        return out

    def section(self, name):
        """{key: value} for one config-file section; "" is the top level."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.metadata.get("section", "") == name
        }

    def to_dict(self):
        return {s: self.section(s) for s in _SECTIONS} | self.section("")

    @classmethod
    def from_dict(cls, raw):
        """Build from the config-file layout, a JSON object: key_problems names
        every problem of a single key, and only then does problems look across keys."""
        if problems := key_problems(cls, raw):
            raise ValidationError("; ".join(problems))
        values = dict(raw)
        for section in _SECTIONS:
            values.update(values.pop(section, {}))
        config = cls(**values)
        if problems := config.problems():
            raise ValidationError("; ".join(problems))
        return config


# ------------------------------------------------------------------ datasets


def prepare_pools(config):
    """Split each domain into train pool and test set, standardizing if asked.

    The split is keyed to the dataset seed, not the run seed, so every run
    sees the same pools and test sets. A pool whose labels are all 0 fails
    here, before any run: the model reads a domain's class count as its
    largest pool label plus one and needs at least two.
    """
    keys = dict(config.dataset)
    full, do_std, split_seed = _DATASET_TYPES[keys.pop("type")](**keys).load()
    if config.standardize is not None:
        do_std = config.standardize
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

    masks: list

    def __post_init__(self):
        self.labeled = [np.flatnonzero(m) for m in self.masks]
        self.unlabeled = [np.flatnonzero(~m) for m in self.masks]

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
    return PoolState(masks)


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
    return PoolState(masks)


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
    strategy: str
    seed: int
    records: list
    status: str = "ok"
    error: str = ""


# ---------------------------------------------------------- a group of runs


@dataclass
class _RunState:
    """What one run of a group carries from round to round."""

    result: RunResult
    root: RngStream
    pool: PoolState
    select_seconds: float
    model: AspMtlModel = None


def run_experiment(config, runs, train_store, test_sets):
    """Execute the full AL loop for a group of (strategy, seed) runs.

    Each round initializes every run's model from its own stream, trains
    them together (model.train_round), then evaluates, selects and annotates
    each run in order. Returns one RunResult per run, in order. A run that
    raises gets status 'failed' with the records gathered so far and leaves
    the group; the others go on. On prepare_pools' pools only a fault in
    this code can raise before the first round, and it propagates.
    """
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
        result = RunResult(strategy=strategy, seed=int(seed), records=[])
        results.append(result)
        root = RngStream(int(seed))
        t0 = time.perf_counter()
        pool = init_split(train_store, config.init_fraction, root)
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
                run.result.status = "failed"
                run.result.error = f"{type(exc).__name__}: {exc}"
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


# ---------------------------------------------------------------- the grid


def execute_run(config, runs, out_dir, train_store, test_sets):
    """Run a group of (strategy, seed) runs on prepare_pools' pools and
    persist each one's CSV + metadata, in order; returns their RunResults.

    A failed run's partial records are still written, with status='failed';
    a fault outside any run propagates before anything is written. A sidecar
    left by an earlier run is deleted before anything is written for that
    run, and the sidecar is renamed into place last, so an interrupted write
    never leaves a sidecar that vouches for a CSV it was not written with.
    """
    out_dir = Path(out_dir)
    results = run_experiment(config, runs, train_store, test_sets)
    for result in results:
        csv_path, meta_path = run_paths(out_dir, config.name, result.strategy, result.seed)
        meta_path.unlink(missing_ok=True)
        replace_file(lambda tmp: write_run_csv(result, tmp), csv_path)
        replace_file(lambda tmp: write_run_metadata(result, config, tmp), meta_path)
    return results


def _execute_run_worker(task):
    # both paths of run_grid call this, and the pool pickles it by name; it
    # looks execute_run up as a module global at call time, so a wrapper
    # bound to that name, which the pool could not pickle, still runs; the
    # records, on disk once it returns, are neither kept nor sent back
    return [replace(result, records=[]) for result in execute_run(*task)]


def grid_groups(count, jobs=1):
    """Positions 0..count-1 of a grid's runs dealt round-robin into groups
    of at most GROUP_SIZE, and into at least `jobs` groups while there are
    runs for them, so that the runs of one strategy spread across workers."""
    n = max(math.ceil(count / GROUP_SIZE), min(jobs, count))
    return [list(range(g, count, n)) for g in range(n)]


def run_grid(config, out_dir, jobs=1, force=False):
    """Run the full (strategy x seed) grid in groups (grid_groups),
    optionally with a process pool; returns one RunResult per run, in grid
    order, without its records, which are in the run's files.

    The pools are built once, before any run starts and before out_dir is
    made, so a dataset that cannot be loaded fails the grid whatever jobs
    is and leaves no directory behind; every group gets them.
    The process pool gets at most one worker per group: the default fork
    start method launches every worker at once, whether or not it has a
    group to take. On KeyboardInterrupt no further group starts, the pool's
    workers stop, and a KeyboardInterrupt saying how many runs were written
    propagates.
    """
    out_dir = Path(out_dir)
    pairs = [(s, int(seed)) for s in config.strategies for seed in config.seeds]

    csvs = (run_paths(out_dir, config.name, s, seed)[0] for s, seed in pairs)
    existing = [path for path in csvs if path.exists()]
    if existing and not force:
        raise OverwriteRefusedError(
            f"{len(existing)} result file(s) already exist under {out_dir} "
            f"(first: {existing[0].name}); pass --force to overwrite"
        )

    train_store, test_sets = prepare_pools(config)
    make_out_dir(out_dir)
    groups = grid_groups(len(pairs), jobs)
    tasks = [
        (config, [pairs[i] for i in group], out_dir, train_store, test_sets)
        for group in groups
    ]
    workers = min(jobs, len(groups))
    done = {}  # group index -> its RunResults, filled as each group finishes
    try:
        if workers <= 1:
            done.update((g, _execute_run_worker(task)) for g, task in enumerate(tasks))
        else:
            _run_pooled(tasks, workers, done)
    except KeyboardInterrupt:
        written = sum(len(results) for results in done.values())
        raise KeyboardInterrupt(f"{written} of {len(pairs)} runs written") from None
    by_index = {i: r for g, group in enumerate(groups) for i, r in zip(group, done[g])}
    return [by_index[i] for i in range(len(pairs))]


def _run_pooled(tasks, workers, done):
    """Run the tasks in a process pool whose workers ignore SIGINT, filling
    done[task index]; Ctrl-C stops the workers and cancels the rest."""
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=signal.signal,
        initargs=(signal.SIGINT, signal.SIG_IGN),
    ) as pool:
        try:
            futures = {pool.submit(_execute_run_worker, t): g for g, t in enumerate(tasks)}
            for future in concurrent.futures.as_completed(futures):
                done[futures[future]] = future.result()
        except KeyboardInterrupt:
            # ProcessPoolExecutor.terminate_workers does this from Python 3.14
            for process in pool._processes.values():
                process.terminate()
            pool.shutdown(cancel_futures=True)
            raise
