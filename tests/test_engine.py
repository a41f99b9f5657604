import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdalbench import engine
from mdalbench.data import DomainDataset
from mdalbench.engine import (
    ExperimentConfig,
    PoolState,
    annotate,
    execute_run,
    grid_groups,
    init_split,
    run_experiment,
)
from mdalbench.errors import ValidationError
from mdalbench.model import ModelConfig
from mdalbench.nncore import RngStream
from mdalbench.reporting import aggregate_seeds, compute_aulc
from mdalbench.results import csv_header, read_run_csv, run_paths, write_run_csv
from mdalbench.strategies import SelectionContext


def balanced_store(sizes, dim=4, seed=0):
    """Hand-built train stores with exact sizes and alternating labels."""
    gen = np.random.default_rng(seed)
    store = []
    for k, n in enumerate(sizes):
        y = np.arange(n) % 2
        X = (2.0 * y - 1.0)[:, None] * np.eye(dim)[k % dim] * 2.0 + gen.normal(
            size=(n, dim)
        )
        store.append(DomainDataset(X=X, y=y, domain_id=k))
    return store


def quick_config(**overrides):
    base = dict(
        name="unit",
        dataset={
            "type": "synthetic",
            "num_domains": 2,
            "samples_per_domain": 40,
            "input_dim": 4,
            "num_classes": 2,
            "shared_strength": 1.2,
            "shift_strength": 0.8,
            "label_noise": 0.0,
            "seed": 11,
        },
        strategies=["random"],
        seeds=[0],
        test_fraction=0.25,
        shared_hidden=6,
        private_hidden=4,
        epochs_per_round=5,
        lr=0.05,
        init_fraction=0.10,
        step_fraction=0.10,
        budget_fraction=0.30,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------- datasets


def _manifest_config(tmp_path, **dataset):
    """quick_config over a 2-domain manifest of 24 rows a domain."""
    gen = np.random.default_rng(3)
    domains = []
    for k in range(2):
        lines = [
            ",".join([str(i % 2), *(f"{v:.6f}" for v in gen.normal(size=4))])
            for i in range(24)
        ]
        (tmp_path / f"d{k}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        domains.append({"name": f"d{k}", "file": f"d{k}.csv", "classes": 2})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"name": "m", "dim": 4, "domains": domains}))
    return quick_config(
        dataset={"type": "manifest", "path": str(manifest), **dataset}
    )


def test_manifest_split_seed_defaults_to_zero(tmp_path):
    def pools(**dataset):
        store, tests = engine.prepare_pools(_manifest_config(tmp_path, **dataset))
        return [d.X for d in store] + [d.y for d in store] + [a for t in tests for a in t]

    implicit, explicit, other = pools(), pools(split_seed=0), pools(split_seed=1)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(implicit, explicit))
    assert any(a.tobytes() != b.tobytes() for a, b in zip(implicit, other))


# ----------------------------------------------------------------- init split


def test_init_split_fraction_one_labels_everything():
    store = balanced_store([10, 12])
    pool = init_split(store, 1.0, RngStream(0))
    assert pool.labeled_counts() == [10, 12]
    assert all(u.size == 0 for u in pool.unlabeled)


def test_init_split_ceiling():
    store = balanced_store([10])
    pool = init_split(store, 0.10, RngStream(0))
    assert pool.labeled_counts() == [1]


def test_init_split_partition_and_determinism():
    store = balanced_store([15, 9])
    a = init_split(store, 0.3, RngStream(5))
    b = init_split(store, 0.3, RngStream(5))
    for k in range(2):
        assert np.array_equal(a.labeled[k], b.labeled[k])
        union = np.sort(np.concatenate([a.labeled[k], a.unlabeled[k]]))
        assert np.array_equal(union, np.arange(len(store[k])))
        assert not set(a.labeled[k]) & set(a.unlabeled[k])


# ------------------------------------------------------------------- annotate


def test_annotate_empty_batch_no_change():
    store = balanced_store([6])
    pool = init_split(store, 0.5, RngStream(1))
    after = annotate(pool, [])
    assert np.array_equal(after.labeled[0], pool.labeled[0])
    assert np.array_equal(after.unlabeled[0], pool.unlabeled[0])


def test_annotate_grows_by_batch_size():
    store = balanced_store([8, 8])
    pool = init_split(store, 0.25, RngStream(2))
    batch = [(0, int(pool.unlabeled[0][0])), (1, int(pool.unlabeled[1][0]))]
    after = annotate(pool, batch)
    assert sum(after.labeled_counts()) == sum(pool.labeled_counts()) + 2


def test_annotate_everything_empties_unlabeled():
    store = balanced_store([6])
    pool = init_split(store, 0.5, RngStream(3))
    batch = [(0, int(i)) for i in pool.unlabeled[0]]
    after = annotate(pool, batch)
    assert after.unlabeled[0].size == 0
    assert after.labeled_counts() == [6]


@pytest.mark.parametrize("item", ["labeled", 999, -1, "duplicate"])
def test_annotate_rejects_already_labeled(item):
    store = balanced_store([6])
    pool = init_split(store, 0.5, RngStream(4))
    if item == "labeled":
        batch = [(0, int(pool.labeled[0][0]))]
    elif item == "duplicate":
        # duplicate item in one batch: its second copy is labeled by then
        batch = [(0, int(pool.unlabeled[0][0]))] * 2
    else:
        # -1 must not wrap to the last item, which may be unlabeled
        batch = [(0, item)]
    with pytest.raises(ValidationError):
        annotate(pool, batch)


# -------------------------------------------------------------- compute_aulc


def test_aulc_flat_curve():
    assert compute_aulc([10, 20, 30], [0.8, 0.8, 0.8]) == pytest.approx(0.8)


def test_aulc_two_points():
    assert compute_aulc([10, 20], [0.6, 0.8]) == pytest.approx(0.7)


def test_aulc_three_points():
    assert compute_aulc([0, 5, 10], [0.5, 0.7, 0.9]) == pytest.approx(0.7)


def test_aulc_single_point():
    assert compute_aulc([10], [0.42]) == pytest.approx(0.42)


def test_aulc_invariant_to_axis_rescaling():
    x = [12, 24, 48, 60]
    y = [0.4, 0.7, 0.75, 0.9]
    a = compute_aulc(x, y)
    b = compute_aulc([v * 7 for v in x], y)
    assert a == pytest.approx(b)


# ----------------------------------------------------------- aggregate_seeds


def test_aggregate_single_seed_zero_std():
    s = aggregate_seeds([([1, 2], [0.5, 0.7])])
    assert s.std == 0.0
    assert s.mean == pytest.approx(0.6)


def test_aggregate_mean_and_population_std():
    curves = [([0, 10], [0.80, 0.80]), ([0, 10], [0.82, 0.82])]
    s = aggregate_seeds(curves)
    assert s.mean == pytest.approx(0.81)
    assert s.std == pytest.approx(0.01)


def test_aggregate_permutation_invariant():
    curves = [([0, 5], [0.5, 0.6]), ([0, 5], [0.7, 0.9]), ([0, 5], [0.4, 0.8])]
    a = aggregate_seeds(curves)
    b = aggregate_seeds(curves[::-1])
    assert a.mean == b.mean and a.std == b.std


def test_aggregate_rejects_mismatched_rounds():
    with pytest.raises(ValidationError):
        aggregate_seeds([([0, 5], [0.5, 0.6]), ([0, 7], [0.5, 0.6])])


# ------------------------------------------------------------- run_experiment


def test_run_round_structure_with_exact_fractions():
    # 3 domains x 40 train samples: 10% init = 12, 5% steps of 6, stop at 50%
    store = balanced_store([40, 40, 40], seed=9)
    tests = [(s.X.copy(), s.y.copy()) for s in store]
    config = quick_config(
        name="structure",
        init_fraction=0.10,
        step_fraction=0.05,
        budget_fraction=0.50,
        epochs_per_round=2,
    )
    (result,) = run_experiment(
        config, [("random", 0)], train_store=store, test_sets=tests
    )
    records = result.records
    assert len(records) == 9  # 8 selection rounds + initial evaluation
    assert records[0].labeled_total == 12
    for i, r in enumerate(records):
        assert r.labeled_total == 12 + 6 * i  # monotone bookkeeping
        assert r.select_seconds > 0
        assert r.train_seconds > 0
    assert records[-1].labeled_frac == pytest.approx(0.5)
    assert 0.5 <= records[-1].labeled_frac < 0.55


def test_run_stops_immediately_when_budget_met_at_init():
    # ceil(0.499 * 10) = 5 = 50% >= budget_fraction: one evaluation only
    store = balanced_store([10, 10], seed=3)
    tests = [(s.X.copy(), s.y.copy()) for s in store]
    config = quick_config(
        name="instant", init_fraction=0.499, budget_fraction=0.5,
        epochs_per_round=2,
    )
    (result,) = run_experiment(
        config, [("random", 1)], train_store=store, test_sets=tests
    )
    assert len(result.records) == 1
    assert result.records[0].labeled_frac >= 0.5


def test_run_experiment_deterministic():
    config = quick_config(name="det")
    (a,) = run_experiment(config, [("bvsb", 3)], *engine.prepare_pools(config))
    (b,) = run_experiment(config, [("bvsb", 3)], *engine.prepare_pools(config))
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.labeled_total == rb.labeled_total
        assert ra.domain_accuracies == rb.domain_accuracies
        assert ra.macro_accuracy == rb.macro_accuracy


def test_run_labeled_fraction_lands_in_budget_window():
    config = quick_config(name="window", step_fraction=0.07, budget_fraction=0.33)
    (result,) = run_experiment(config, [("random", 5)], *engine.prepare_pools(config))
    final = result.records[-1].labeled_frac
    assert 0.33 <= final < 0.33 + 0.07 + 1e-12


# --------------------------------------------------------------------- files


def test_csv_header_layout():
    assert (
        csv_header(2)
        == "round,labeled_total,labeled_frac,acc_domain_0,acc_domain_1,"
        "acc_macro,select_seconds,train_seconds"
    )


def test_csv_round_trip(tmp_path):
    config = quick_config(name="roundtrip")
    (result,) = run_experiment(config, [("random", 2)], *engine.prepare_pools(config))
    path = tmp_path / "run.csv"
    write_run_csv(result, path)
    cols = read_run_csv(path)
    assert cols["labeled_total"] == [r.labeled_total for r in result.records]
    assert cols["acc_macro"] == [r.macro_accuracy for r in result.records]
    assert cols["acc_domain_1"] == [
        r.domain_accuracies[1] for r in result.records
    ]


def test_execute_run_persists_partial_records_on_failure(tmp_path, monkeypatch):
    def broken_select(strategy, ctx):
        raise ValidationError("selection broke")

    monkeypatch.setattr(engine, "select", broken_select)
    config = quick_config(name="fails")
    (result,) = execute_run(
        config, [("p2s", 0)], tmp_path, *engine.prepare_pools(config)
    )
    assert result.status == "failed"
    assert "selection broke" in result.error
    assert len(result.records) == 1  # round 0 evaluated before selection died
    cols = read_run_csv(tmp_path / "fails__p2s__seed0.csv")
    assert len(cols["round"]) == len(result.records)
    meta = (tmp_path / "fails__p2s__seed0.json").read_text()
    assert '"status": "failed"' in meta


def test_fault_outside_any_run_propagates_and_writes_nothing(tmp_path, monkeypatch):
    # nothing before the first round can fail for a config that loads, so a
    # fault there is a bug: it must surface, not be written as failed runs
    def broken_model_config(**kwargs):
        raise RuntimeError("model config broke")

    monkeypatch.setattr(engine, "ModelConfig", broken_model_config)
    config = quick_config(name="bug")
    pools = engine.prepare_pools(config)
    with pytest.raises(RuntimeError, match="model config broke"):
        execute_run(config, [("random", 0), ("bvsb", 1)], tmp_path, *pools)
    assert not list(tmp_path.iterdir())


def test_failed_run_leaves_its_group_and_the_others_go_on(tmp_path, monkeypatch):
    real_select = engine.select

    def select_breaks_for_bvsb(strategy, ctx):
        if strategy == "bvsb" and ctx.rng.label.startswith("root/round1"):
            raise ValidationError("selection broke")
        return real_select(strategy, ctx)

    monkeypatch.setattr(engine, "select", select_breaks_for_bvsb)
    config = quick_config(name="mixed")
    runs = [("random", 0), ("bvsb", 0), ("random", 1)]
    results = execute_run(config, runs, tmp_path, *engine.prepare_pools(config))
    assert [(r.strategy, r.seed, r.status) for r in results] == [
        ("random", 0, "ok"), ("bvsb", 0, "failed"), ("random", 1, "ok"),
    ]
    assert "selection broke" in results[1].error
    assert len(results[1].records) == 2  # rounds 0 and 1 trained and evaluated
    # the runs that went on match runs made alone
    for result in (results[0], results[2]):
        (alone,) = run_experiment(
            config, [(result.strategy, result.seed)], *engine.prepare_pools(config)
        )
        assert [r.macro_accuracy for r in result.records] == [
            r.macro_accuracy for r in alone.records
        ]
        assert [r.epoch_losses for r in result.records] == [
            r.epoch_losses for r in alone.records
        ]


def test_pooled_grid_returns_each_run_without_its_records(tmp_path):
    """run_grid at jobs=2 returns each run's strategy, seed, status and error
    in grid order, but not its records: those are in the run's CSV, every
    round of them."""
    config = quick_config(name="pooled", strategies=["random", "bvsb"], seeds=[0, 1])
    results = engine.run_grid(config, tmp_path, jobs=2)
    assert [(r.strategy, r.seed, r.status, r.error, r.records) for r in results] == [
        ("random", 0, "ok", "", []), ("random", 1, "ok", "", []),
        ("bvsb", 0, "ok", "", []), ("bvsb", 1, "ok", "", []),
    ]
    for result in results:
        (alone,) = run_experiment(
            config, [(result.strategy, result.seed)], *engine.prepare_pools(config)
        )
        cols = read_run_csv(run_paths(tmp_path, "pooled", result.strategy, result.seed)[0])
        assert len(alone.records) > 1
        assert cols["labeled_total"] == [r.labeled_total for r in alone.records]
        assert cols["acc_macro"] == [r.macro_accuracy for r in alone.records]


def test_warm_started_group_matches_runs_alone():
    config = quick_config(name="warm", warm_start=True)
    runs = [("random", 0), ("bvsb", 1)]
    together = run_experiment(config, runs, *engine.prepare_pools(config))
    for result, run in zip(together, runs):
        (alone,) = run_experiment(config, [run], *engine.prepare_pools(config))
        assert result.status == alone.status == "ok"
        assert [r.epoch_losses for r in result.records] == [
            r.epoch_losses for r in alone.records
        ]


@pytest.mark.parametrize("count, jobs, expected", [
    (6, 1, [[0, 1, 2, 3, 4, 5]]),
    (6, 2, [[0, 2, 4], [1, 3, 5]]),
    (3, 8, [[0], [1], [2]]),
    (10, 1, [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]),
    (17, 2, [[0, 3, 6, 9, 12, 15], [1, 4, 7, 10, 13, 16], [2, 5, 8, 11, 14]]),
])
def test_grid_groups_deal_runs_round_robin(count, jobs, expected):
    groups = grid_groups(count, jobs)
    assert groups == expected
    assert max(len(g) for g in groups) <= engine.GROUP_SIZE


def test_config_validation_collects_field_messages():
    """from_dict names every key's problem at once, and the problems across
    keys once every key keeps its rule."""
    raw = quick_config().to_dict()
    raw.update(name="", strategies=["bogus"], seeds=[])
    raw["strategy_params"]["sigma"] = -1.0
    raw["model"]["batch_size"] = 0
    with pytest.raises(ValidationError) as err:
        ExperimentConfig.from_dict(raw)
    msg = str(err.value)
    assert "strategy_params.sigma" in msg
    assert "model.batch_size" in msg
    assert "name" in msg
    assert "bogus" in msg
    assert "seeds" in msg

    raw = quick_config().to_dict()
    raw["dataset"] = {"type": "nope"}
    raw["al"].update(init_fraction=0.9, budget_fraction=0.5)
    with pytest.raises(ValidationError) as err:
        ExperimentConfig.from_dict(raw)
    msg = str(err.value)
    assert "dataset.type" in msg
    assert "init_fraction" in msg


def test_from_dict_names_every_key_problem_at_once():
    raw = quick_config().to_dict()
    del raw["seeds"]
    raw.update(name=5, colour=1, al=3, **{"model.lr": 0.1})
    raw["model"]["lr"] = "fast"
    with pytest.raises(ValidationError) as err:
        ExperimentConfig.from_dict(raw)
    assert sorted(str(err.value).split("; ")) == [
        "al: expected an object, got 3",
        "colour: unknown key",
        "model.lr: expected a number, got 'fast'",
        "model.lr: unknown key",
        "name: expected a string, got 5",
        "seeds: missing",
    ]

    # the rules of name, strategies and seeds are key rules too
    raw = quick_config().to_dict()
    raw.update(name=".", colour=1, strategies=["bogus"], seeds=[0, 0])
    with pytest.raises(ValidationError) as err:
        ExperimentConfig.from_dict(raw)
    problems = sorted(str(err.value).split("; "))
    assert [p.split(": ")[0] for p in problems] == ["colour", "name", "seeds", "strategies"]
    assert problems[1].endswith("got '.'")
    assert problems[2] == "seeds: must be one or more distinct non-negative integers, got [0, 0]"
    assert problems[3].endswith("each once, got ['bogus']")


@pytest.mark.parametrize("cls", [ModelConfig, SelectionContext])
def test_config_keys_take_no_default_outside_experiment_config(cls):
    """ExperimentConfig declares each key's default once; a field that
    carries a key's value elsewhere has none of its own."""
    keys = {
        f.name for f in dataclasses.fields(ExperimentConfig) if "section" in f.metadata
    }
    carried = [f for f in dataclasses.fields(cls) if f.name in keys]
    assert carried
    for f in carried:
        assert f.default is dataclasses.MISSING, f.name
        assert f.default_factory is dataclasses.MISSING, f.name


def test_config_round_trips_through_dict():
    config = quick_config(name="echo")
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config


def test_import_defaults_blas_threads_to_one_unless_set():
    code = (
        "import os, mdalbench; print(','.join(os.environ[v] for v in "
        "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))"
    )
    src = str(Path(engine.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "1,1,1"
    env["OMP_NUM_THREADS"] = "2"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "1,2,1"


def test_cli_and_pool_building_import_no_network_stack_or_numpy_ma():
    # Each of these costs 15-35 ms at every process start. Comparing with
    # the modules present at start-up keeps site's own imports out of it.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from mdalbench import cli, engine\n"
        "with open(sys.argv[1], encoding='utf-8') as fh:\n"
        "    engine.prepare_pools(cli.ExperimentConfig.from_dict(json.load(fh)))\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = Path(engine.__file__).resolve().parent.parent
    config = src.parent / "examples_config" / "experiment.json"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code, str(config)], env=env,
                         check=True, capture_output=True, text=True).stdout
    imported = set(out.split())
    assert "mdalbench.engine" in imported
    unwanted = {"urllib.request", "http.client", "email.parser", "ssl", "numpy.ma"}
    assert not unwanted & imported
