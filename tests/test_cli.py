import concurrent.futures
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import mdalbench
from mdalbench import engine
from mdalbench.cli import main
from mdalbench.data import SyntheticSpec
from mdalbench.engine import ExperimentConfig
from mdalbench.reporting import render_curves_svg
from mdalbench.errors import key_problems
from mdalbench.results import Sidecar, read_run_csv


def minimal_config(tmp_path, **overrides):
    doc = {
        "name": "demo",
        "dataset": {
            "type": "synthetic",
            "num_domains": 2,
            "samples_per_domain": 24,
            "input_dim": 4,
            "num_classes": 2,
            "shared_strength": 1.2,
            "shift_strength": 0.8,
            "label_noise": 0.0,
            "seed": 3,
        },
        "strategies": ["random"],
        "seeds": [0],
        "test_fraction": 0.25,
        "model": {
            "shared_hidden": 6,
            "private_hidden": 4,
            "epochs_per_round": 2,
            "lr": 0.05,
        },
        "al": {
            "init_fraction": 0.2,
            "step_fraction": 0.2,
            "budget_fraction": 0.6,
        },
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def strip_timing_columns(text):
    """Drop the two wall-clock columns, which legitimately vary run to run."""
    out = []
    for line in text.strip().splitlines():
        out.append(",".join(line.split(",")[:-2]))
    return "\n".join(out)


# ----------------------------------------------------------------------- run


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "edits, key",
    [
        pytest.param({"strategies": ["not-a-strategy"]}, "strategies", id="unknown-strategy"),
        pytest.param({"strategy_params.sigma": -1}, "strategy_params.sigma", id="sigma-range"),
        # one row per ranged key: each range is checked at load, and only there
        pytest.param({"model.lr": 0}, "model.lr", id="lr-range"),
        pytest.param({"model.lam_adv": -0.1}, "model.lam_adv", id="lam-adv-range"),
        pytest.param({"model.lam_diff": -0.1}, "model.lam_diff", id="lam-diff-range"),
        pytest.param({"model.shared_hidden": 0}, "model.shared_hidden",
                     id="shared-hidden-range"),
        pytest.param({"model.private_hidden": 0}, "model.private_hidden",
                     id="private-hidden-range"),
        pytest.param({"model.batch_size": 0}, "model.batch_size", id="batch-size-range"),
        pytest.param({"model.epochs_per_round": -1}, "model.epochs_per_round",
                     id="epochs-range"),
        pytest.param({"strategy_params.num_perturbations": 0},
                     "strategy_params.num_perturbations", id="draws-range"),
        pytest.param({"strategy_params.budget_counts": "all"},
                     "strategy_params.budget_counts", id="budget-counts-range"),
        pytest.param({"test_fraction": 1.0}, "test_fraction", id="test-fraction-range"),
        pytest.param({"al.step_fraction": 0}, "al.step_fraction", id="step-fraction-range"),
        pytest.param({"model.epoch_per_round": 1}, "model.epoch_per_round", id="unknown-model-key"),
        pytest.param({"test_fracton": 0.25}, "test_fracton", id="unknown-top-key"),
        pytest.param({"al.warm_start": "no"}, "al.warm_start", id="bool-as-string"),
        pytest.param({"model.epochs_per_round": 1.5}, "model.epochs_per_round", id="int-as-float"),
        pytest.param({"model.batch_size": 2.5}, "model.batch_size", id="batch-size-float"),
        pytest.param({"model": 3}, "model", id="section-not-object"),
        pytest.param({"dataset.num_domain": 2}, "dataset.num_domain",
                     id="unknown-synthetic-key"),
        pytest.param({"dataset.num_domains": 0}, "dataset.num_domains", id="synthetic-range"),
        pytest.param({"dataset.num_domains": 2.5}, "dataset.num_domains",
                     id="synthetic-int-as-float"),
        pytest.param(
            {"dataset.samples_per_domain": 24.5}, "dataset.samples_per_domain",
            id="synthetic-samples-float",
        ),
        pytest.param({"dataset": {"type": "manifest"}}, "dataset.path", id="manifest-no-path"),
        pytest.param(
            {"dataset": {"type": "manifest", "path": "m.json", "splitseed": 3}},
            "dataset.splitseed", id="unknown-manifest-key",
        ),
        pytest.param({"strategies": "random"}, "strategies", id="strategies-string"),
        pytest.param({"seeds": ["a"]}, "seeds", id="seed-string"),
        pytest.param({"seeds": [1.5]}, "seeds", id="seed-float"),
        pytest.param({"seeds": [-1]}, "seeds", id="seed-negative"),
        pytest.param({"dataset.seed": -1}, "dataset.seed", id="synthetic-seed-negative"),
        pytest.param(
            {"dataset": {"type": "manifest", "path": "m.json", "split_seed": -1}},
            "dataset.split_seed", id="split-seed-negative",
        ),
        pytest.param(
            {"dataset": {"type": "manifest", "path": "m.json", "split_seed": 1.5}},
            "dataset.split_seed", id="split-seed-float",
        ),
        pytest.param([], "config", id="config-not-object"),
        # names that would put result files outside --out, or on "."
        pytest.param({"name": "bad/name"}, "name", id="name-with-slash"),
        pytest.param({"name": "bad\\name"}, "name", id="name-with-backslash"),
        pytest.param({"name": "bad\0name"}, "name", id="name-with-nul"),
        pytest.param({"name": ".."}, "name", id="name-dot-dot"),
        pytest.param({"name": "."}, "name", id="name-dot"),
        # a name that UTF-8 cannot encode cannot name a file
        pytest.param({"name": "\ud800x"}, "name", id="name-lone-surrogate"),
        # one (strategy, seed) pair twice: two writers of one file
        pytest.param({"strategies": ["random", "bvsb", "random"]}, "strategies",
                     id="strategy-twice"),
        pytest.param({"seeds": [0, 1, 0]}, "seeds", id="seed-twice"),
    ],
)
def test_run_invalid_config_exits_2(tmp_path, capsys, edits, key):
    """Each input fails at load, before any training, naming the bad key once."""
    doc = json.loads(minimal_config(tmp_path).read_text())
    if isinstance(edits, dict):
        for dotted, value in edits.items():
            *parents, last = dotted.split(".")
            target = doc
            for name in parents:
                target = target.setdefault(name, {})
            target[last] = value
    else:
        doc = edits
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    code = main(["run", "--config", str(path), "--out", str(out), "--jobs", "2"])
    assert code == 2
    assert capsys.readouterr().err.count(f"{key}:") == 1
    assert not list(out.glob("*.csv"))


def test_run_minimal_grid_writes_one_csv_and_json(tmp_path):
    path = minimal_config(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    csvs = list(out.glob("*.csv"))
    jsons = list(out.glob("*.json"))
    assert len(csvs) == 1 and len(jsons) == 1
    assert csvs[0].name == "demo__random__seed0.csv"
    cols = read_run_csv(csvs[0])
    assert all(v > 0 for v in cols["select_seconds"])


def test_run_refuses_overwrite_without_force(tmp_path):
    path = minimal_config(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert main(["run", "--config", str(path), "--out", str(out), "--force"]) == 0


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, OSError])
def test_interrupted_force_rerun_is_not_reported(tmp_path, monkeypatch, capsys,
                                                 interrupt):
    # a --force rerun that dies (Ctrl-C, or a crash) after writing the new
    # CSV but before its sidecar must not leave the old run's ok sidecar
    # vouching for it
    from mdalbench import engine

    path = minimal_config(tmp_path, strategies=["random", "bvsb"])
    out = tmp_path / "results"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    write_run_metadata = engine.write_run_metadata

    def fail_for_bvsb(result, config, meta_path):
        if result.strategy == "bvsb":
            raise interrupt
        write_run_metadata(result, config, meta_path)

    monkeypatch.setattr(engine, "write_run_metadata", fail_for_bvsb)
    code = main(["run", "--config", str(path), "--out", str(out), "--force"])
    assert code == (130 if interrupt is KeyboardInterrupt else 1)
    assert sorted(p.name for p in out.iterdir()) == [
        "demo__bvsb__seed0.csv", "demo__random__seed0.csv",
        "demo__random__seed0.json",
    ]
    capsys.readouterr()
    assert main(["report", str(out), "--format", "csv"]) == 0
    table = capsys.readouterr().out
    assert "random" in table and "bvsb" not in table


def test_run_is_byte_reproducible_outside_timing_columns(tmp_path):
    path = minimal_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out_b)]) == 0
    text_a = (out_a / "demo__random__seed0.csv").read_text()
    text_b = (out_b / "demo__random__seed0.csv").read_text()
    assert strip_timing_columns(text_a) == strip_timing_columns(text_b)


@pytest.mark.parametrize("seeds", [0, False, []], ids=["zero", "false", "empty"])
def test_run_seed_env_does_not_replace_a_bad_seeds_key(tmp_path, capsys, seeds):
    """No environment setting stands in for seeds: a seeds value that is
    present but bad exits 2 naming seeds, as any other bad key."""
    path = minimal_config(tmp_path, seeds=seeds)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("seeds: ") == 1
    assert not out.exists()


def test_run_non_integer_seed_exits_2(tmp_path, capsys):
    path = minimal_config(tmp_path)
    out = tmp_path / "o"
    args = ["run", "--config", str(path), "--out", str(out)]
    assert main(args + ["--seeds", "1,a"]) == 2
    assert "--seeds: expected an integer seed, got 'a'" in capsys.readouterr().err
    # an empty override empties the list; it does not fall back to the config's
    for flag in ("seeds", "strategies"):
        assert main(args + [f"--{flag}="]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()

    # without a seeds key, only --seeds gives the grid its seeds
    doc = json.loads(path.read_text())
    del doc["seeds"]
    path.write_text(json.dumps(doc))
    assert main(args) == 2
    assert capsys.readouterr().err == "error: seeds: missing\n"
    assert main(args + ["--seeds=-1"]) == 2
    assert capsys.readouterr().err == (
        "error: seeds: must be one or more distinct non-negative integers, got [-1]\n"
    )
    assert not out.exists() or not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "name, code",
    [("a" * 231, 0), ("a" * 232, 2), ("\u00e9" * 115, 0), ("\u00e9" * 116, 2)],
    ids=["231-bytes", "232-bytes", "230-bytes-in-115-chars", "232-bytes-in-116-chars"],
)
def test_config_name_too_long_for_its_run_files_exits_2(tmp_path, capsys, name, code):
    """The longest file a run writes, its sidecar's temp file
    <name>__random__seed0.json.tmp, takes the name's UTF-8 bytes plus 24; past
    255 bytes run exits 2 naming name, before any training or output."""
    path = minimal_config(tmp_path, name=name)
    out = tmp_path / "o"
    argv = ["run", "--config", str(path), "--out", str(out), "--seeds", "0"]
    assert main(argv) == code
    if code == 0:
        assert sorted(p.name for p in out.iterdir()) == [
            f"{name}__random__seed0.csv", f"{name}__random__seed0.json"
        ]
    else:
        assert capsys.readouterr().err == (
            "error: name: too long, its runs' file names take 256 bytes, over 255\n"
        )
        assert not out.exists()


def test_ctrl_c_stops_a_pooled_grid_at_once(tmp_path):
    """SIGINT to the process group 1 s into a 3-group grid at --jobs 2, as a
    terminal's Ctrl-C sends it, exits 130 with one line and no traceback.
    The third group, not yet started, writes nothing, and no sidecar is
    left without its CSV."""
    seeds = list(range(17))  # 17 runs: groups of seeds 0,3,..; 1,4,..; 2,5,..
    path = minimal_config(
        tmp_path, seeds=seeds,
        dataset={"type": "synthetic", "num_domains": 3, "samples_per_domain": 400},
        model={"epochs_per_round": 200},
    )
    out = tmp_path / "o"
    src = Path(__file__).resolve().parent.parent / "src"
    # a terminal's Ctrl-C reaches a command started with SIGINT at its
    # default; a shell's background job, this test's included, starts with
    # it ignored, and a child would inherit that
    proc = subprocess.Popen(
        [sys.executable, "-m", "mdalbench.cli", "run", "--config", str(path),
         "--out", str(out), "--jobs", "2"],
        env=dict(os.environ, PYTHONPATH=str(src)), start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    time.sleep(1.0)
    os.killpg(proc.pid, signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert "Traceback" not in err
    assert err.startswith("interrupted: ") and err.endswith(" of 17 runs written\n")
    written = {p.name for p in out.glob("*")} if out.exists() else set()
    assert not {f"demo__random__seed{s}.csv" for s in seeds[2::3]} & written
    sidecars = {name[:-5] for name in written if name.endswith(".json")}
    assert sidecars <= {name[:-4] for name in written if name.endswith(".csv")}


def test_run_pool_has_at_most_one_worker_per_run(tmp_path, monkeypatch):
    """--jobs 8 on a two-run grid asks the pool for two workers."""
    asked = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        # a thread cannot run the workers' initializer, which sets a signal
        # handler, so the fake pool drops it
        def __init__(self, max_workers, **_initializer):
            asked.append(max_workers)
            super().__init__(max_workers=1)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    path = minimal_config(tmp_path, seeds=[0, 1])
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", "8"]) == 0
    assert asked == [2]
    assert len(list(out.glob("*.csv"))) == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    path = minimal_config(tmp_path)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out), f"--jobs={jobs}"]) == 2
    assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "manifest, named",
    [
        pytest.param([1], "manifest.json: expected a JSON object", id="top-level-list"),
        pytest.param(
            {"name": "m", "dim": 4, "domains": [3]}, "domains[0]: expected an object",
            id="domain-entry-number",
        ),
        pytest.param(
            {"name": "m", "dim": True, "domains": [{"name": "d", "file": "d.csv", "classes": 2}]},
            "dim: expected an integer, got True", id="dim-true",
        ),
        pytest.param(
            {"name": "m", "dim": 4, "domains": [{"name": "d", "file": "d.csv", "classes": True}]},
            "domains[0].classes: expected an integer, got True", id="classes-true",
        ),
    ],
)
def test_run_non_object_manifest_exits_2(tmp_path, capsys, manifest, named):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    dataset = {"type": "manifest", "path": str(manifest_path)}
    path = minimal_config(tmp_path, dataset=dataset)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_missing_manifest_exits_2(tmp_path, capsys, jobs):
    """The pools are built before the grid branches on --jobs, so a pooled
    grid fails at load too instead of failing every run."""
    manifest_path = tmp_path / "absent" / "manifest.json"
    dataset = {"type": "manifest", "path": str(manifest_path)}
    path = minimal_config(tmp_path, dataset=dataset, seeds=[0, 1])
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", jobs]) == 2
    assert str(manifest_path) in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "jobs, d1_labels, named",
    [
        pytest.param(jobs, labels, named, id=case + jobs)
        for case, labels, named in [
            ("", np.zeros(30), "domain 1 'd1': every training label is 0"),
            (
                "one-sample-class-", np.arange(30) == 29,
                "class 1 in domain 1 has 1 sample(s); need >= 2 to split",
            ),
        ]
        for jobs in ["1", "2"]
    ],
)
def test_run_single_class_domain_exits_2(tmp_path, capsys, jobs, d1_labels, named):
    """A domain whose training labels are all 0, or with a class of one
    sample, fails before any run."""
    gen = np.random.default_rng(3)
    domains = []
    for k, labels in enumerate((np.arange(30) % 2, d1_labels.astype(int))):
        X = gen.normal(size=(30, 4))
        lines = [
            ",".join([str(label), *(f"{v:.6f}" for v in row)])
            for label, row in zip(labels, X)
        ]
        (tmp_path / f"d{k}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        domains.append({"name": f"d{k}", "file": f"d{k}.csv", "classes": 2})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"name": "one-class", "dim": 4, "domains": domains}))
    path = minimal_config(
        tmp_path, dataset={"type": "manifest", "path": str(manifest)}, seeds=[0, 1],
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out), "--jobs", jobs]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def deterministic_sidecar(csv_path):
    """The sidecar beside a result CSV without its wall-clock fields."""
    meta = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    del meta["timestamp"], meta["timing"]
    return meta


def assert_same_results(dir_a, dir_b, count):
    """Same CSV names, non-timing CSV bytes and sidecar fields in both dirs."""
    names = sorted(p.name for p in dir_a.glob("*.csv"))
    assert names == sorted(p.name for p in dir_b.glob("*.csv"))
    assert len(names) == count
    for name in names:
        text_a, text_b = (dir_a / name).read_text(), (dir_b / name).read_text()
        assert strip_timing_columns(text_a) == strip_timing_columns(text_b)
        meta = deterministic_sidecar(dir_a / name)
        totals = read_run_csv(dir_a / name)["labeled_total"]
        assert len(meta["epoch_losses"]) == len(totals)
        assert [sum(c) for c in meta["labeled_per_domain"]] == totals
        assert meta == deterministic_sidecar(dir_b / name)


def test_run_jobs_do_not_change_results(tmp_path):
    """A process pool writes the same non-timing bytes and sidecar fields as
    a serial grid: one group of four at --jobs 1, two groups of two at 2."""
    path = minimal_config(tmp_path, strategies=["p2s", "random"], seeds=[0, 1])
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(["run", "--config", str(path), "--out", str(serial), "--jobs", "1"]) == 0
    assert main(["run", "--config", str(path), "--out", str(pooled), "--jobs", "2"]) == 0
    assert_same_results(serial, pooled, 4)


def test_run_grouping_does_not_change_results(tmp_path, monkeypatch):
    """A grid run as one lockstep group and as groups of one writes the same
    non-timing bytes and sidecar fields."""
    from mdalbench import engine

    path = minimal_config(
        tmp_path, strategies=["p2s", "2s-center", "badge", "random"],
        seeds=[0, 1], model={"shared_hidden": 6, "private_hidden": 4,
                             "epochs_per_round": 2, "lr": 0.05, "lam_diff": 0.05},
    )
    grouped, alone = tmp_path / "grouped", tmp_path / "alone"
    groups = []
    execute_run = engine.execute_run

    def record_groups(config, runs, *args):
        groups.append(list(runs))
        return execute_run(config, runs, *args)

    monkeypatch.setattr(engine, "execute_run", record_groups)
    assert main(["run", "--config", str(path), "--out", str(grouped)]) == 0
    monkeypatch.setattr(engine, "GROUP_SIZE", 1)
    assert main(["run", "--config", str(path), "--out", str(alone)]) == 0
    assert [len(g) for g in groups] == [8] + [1] * 8
    assert_same_results(grouped, alone, 8)


def test_round_0_is_one_computation_per_seed(tmp_path):
    """Round 0 trains on init_split's labels from the seed's own streams,
    whatever the strategy: within a seed every strategy's round-0 CSV row
    (timing aside), epoch losses and labeled counts are equal, and across
    the two seeds the row and the losses differ."""
    strategies = ["random", "bvsb", "p2s"]
    path = minimal_config(tmp_path, strategies=strategies, seeds=[0, 1])
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    round0 = []
    for seed in (0, 1):
        rounds = []
        for strategy in strategies:
            csv_path = out / f"demo__{strategy}__seed{seed}.csv"
            meta = deterministic_sidecar(csv_path)
            rounds.append((
                strip_timing_columns(csv_path.read_text()).splitlines()[1],
                meta["epoch_losses"][0],
                meta["labeled_per_domain"][0],
            ))
        assert rounds == [rounds[0]] * len(strategies)
        round0.append(rounds[0])
    (row_a, losses_a, _), (row_b, losses_b, _) = round0
    assert row_a != row_b and losses_a != losses_b


def test_run_badge_with_different_class_counts(tmp_path, capsys):
    """badge pools the embeddings of a 2-class and a 3-class domain; the
    narrower residuals are zero-padded, so the grid finishes."""
    gen = np.random.default_rng(5)
    domains = []
    for k, classes in enumerate((2, 3)):
        y = np.arange(30) % classes
        X = gen.normal(size=(30, 4)) + y[:, None]
        lines = [
            ",".join([str(label), *(f"{v:.6f}" for v in row)])
            for label, row in zip(y, X)
        ]
        (tmp_path / f"d{k}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        domains.append({"name": f"d{k}", "file": f"d{k}.csv", "classes": classes})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"name": "mixed", "dim": 4, "domains": domains}))
    path = minimal_config(
        tmp_path, dataset={"type": "manifest", "path": str(manifest)},
        strategies=["badge", "p2s", "random"],
        model={"shared_hidden": 8, "private_hidden": 8, "epochs_per_round": 2},
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "failed" not in capsys.readouterr().out
    assert len(list(out.glob("*.csv"))) == 3


def test_run_out_naming_a_file_exits_2(tmp_path, capsys, monkeypatch):
    """An --out that names a regular file is invalid input, found before
    any training."""
    monkeypatch.setattr(engine, "train_round", lambda *a, **k: pytest.fail("trained"))
    path = minimal_config(tmp_path)
    out = tmp_path / "o"
    out.write_text("kept\n", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"error: --out: {out}: cannot make a directory" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_run_strategy_and_seed_overrides(tmp_path):
    path = minimal_config(tmp_path, strategies=["random", "bvsb"])
    out = tmp_path / "filtered"
    code = main([
        "run", "--config", str(path), "--out", str(out),
        "--strategies", "bvsb", "--seeds", "1,2",
    ])
    assert code == 0
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == ["demo__bvsb__seed1.csv", "demo__bvsb__seed2.csv"]


# --------------------------------------------------------------------- synth


def test_synth_writes_domain_csvs_and_manifest(tmp_path):
    spec = {
        "num_domains": 3,
        "samples_per_domain": 10,
        "input_dim": 5,
        "num_classes": 2,
        "seed": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dim"] == 5
    first_row = csvs[0].read_text().splitlines()[0]
    assert len(first_row.split(",")) == 6  # label + dim columns

    out2 = tmp_path / "data2"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out2)]) == 0
    for name in [p.name for p in csvs] + ["manifest.json"]:
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_synth_out_naming_a_file_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_domains": 2}), encoding="utf-8")
    out = tmp_path / "data"
    out.write_text("kept\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert f"error: --out: {out}: cannot make a directory" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_synth_invalid_spec_exits_2(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"label_noise": 0.9}', encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "name, named",
    [(5, "name: expected a string, got 5"), ("", "name: must not be empty, got ''")],
)
def test_synth_bad_name_exits_2_and_writes_nothing(tmp_path, capsys, name, named):
    """The spec's name is the manifest's, so synth checks it by the
    manifest's own rule before it writes a manifest that run would reject."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": name, "num_domains": 2}), encoding="utf-8")
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# (document, key path within it, value, the problem named)
DOCUMENT_CASES = [
    ("config", "colour", 1, "colour: unknown key"),
    ("config", "model.batch_size", True, "model.batch_size: expected an integer, got True"),
    ("config", "model.batch_size", 0, "model.batch_size: must be >= 1, got 0"),
    ("dataset", "extra", 1, "dataset.extra: unknown key"),
    ("dataset", "num_domains", True, "dataset.num_domains: expected an integer, got True"),
    ("dataset", "num_domains", 0, "dataset.num_domains: must be >= 1, got 0"),
    ("synth", "colour", 1, "colour: unknown key"),
    ("synth", "input_dim", True, "input_dim: expected an integer, got True"),
    ("synth", "input_dim", 0, "input_dim: must be >= 1, got 0"),
    ("manifest", "colour", "red", "colour: unknown key"),
    ("manifest", "dim", True, "dim: expected an integer, got True"),
    ("manifest", "dim", 0, "dim: must be >= 1, got 0"),
    ("domains[0]", "extra", 1, "domains[0].extra: unknown key"),
    ("domains[0]", "classes", True, "domains[0].classes: expected an integer, got True"),
    ("domains[0]", "classes", 1, "domains[0].classes: must be >= 2, got 1"),
]


@pytest.mark.parametrize(
    "document, path, value, named", DOCUMENT_CASES,
    ids=[f"{doc}-{path}-{value}" for doc, path, value, _ in DOCUMENT_CASES],
)
def test_bad_key_of_each_json_document_exits_2_naming_its_path(
    tmp_path, capsys, document, path, value, named
):
    """The config, its dataset, a synth spec, a manifest and a manifest's
    domain entry each fail at load on an unknown key, on true given for an
    integer and on a value out of range, naming the key's path, and leave
    no output directory behind."""
    spec = {"num_domains": 2, "samples_per_domain": 24, "input_dim": 4}
    spec_path, data = tmp_path / "spec.json", tmp_path / "data"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    config = json.loads(minimal_config(tmp_path).read_text())
    if document in ("manifest", "domains[0]"):
        config["dataset"] = {"type": "manifest", "path": str(data / "manifest.json")}
    target = {
        "config": config, "dataset": config["dataset"], "synth": spec,
        "manifest": manifest, "domains[0]": manifest["domains"][0],
    }[document]
    *parents, last = path.split(".")
    for parent in parents:
        target = target[parent]
    target[last] = value
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o"
    if document == "synth":
        argv = ["synth", "--spec", str(spec_path), "--out", str(out)]
    else:
        argv = ["run", "--config", str(config_path), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and err.count(named.split(": ")[0] + ":") == 1
    assert not out.exists()


def _float_keys():
    """(document, key path) of every float key that a config or a synth spec
    can hold, read from the dataclasses that declare them."""
    keys = [
        ("config", ".".join(filter(None, (f.metadata["section"], f.name))))
        for f in dataclasses.fields(ExperimentConfig) if f.type is float
    ]
    for f in dataclasses.fields(SyntheticSpec):
        if f.type is float:
            keys += [("config", f"dataset.{f.name}"), ("synth", f.name)]
    return keys


def _run_with_key(tmp_path, document, path, text):
    """The exit code of run on the minimal config, or of synth on a small
    spec, with the key at path written as the JSON text given."""
    if document == "synth":
        doc = {"num_domains": 2, "samples_per_domain": 24, "input_dim": 4}
    else:
        doc = json.loads(minimal_config(tmp_path).read_text())
    *parents, last = path.split(".")
    target = doc
    for parent in parents:
        target = target.setdefault(parent, {})
    target[last] = "<value>"
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc).replace('"<value>"', text), encoding="utf-8")
    if document == "synth":
        argv = ["synth", "--spec", str(doc_path), "--out", str(tmp_path / "o")]
    else:
        argv = ["run", "--config", str(doc_path), "--out", str(tmp_path / "o")]
    return main(argv)


# (document, key path, JSON text, the value named): 1e999 for every float
# key, then the other non-finite spellings for one
NON_FINITE_CASES = [(doc, path, "1e999", "inf") for doc, path in _float_keys()] + [
    ("config", "model.lr", "-1e999", "-inf"),
    ("config", "model.lr", "Infinity", "inf"),
    ("config", "model.lr", "NaN", "nan"),
    # an integer too large for a double
    ("config", "model.lr", "1" + "0" * 400, "1" + "0" * 400),
]


@pytest.mark.parametrize(
    "document, path, text, shown", NON_FINITE_CASES,
    ids=[f"{doc}-{path}-{text if len(text) < 10 else 'int1e400'}"
         for doc, path, text, _ in NON_FINITE_CASES],
)
def test_non_finite_float_key_exits_2_naming_it(tmp_path, capsys, document, path,
                                                text, shown):
    """No float key takes a value that is not finite: the config, its
    dataset and a synth spec fail at load, naming the key, and leave no
    output directory behind."""
    assert _run_with_key(tmp_path, document, path, text) == 2
    assert capsys.readouterr().err == f"error: {path}: must be finite, got {shown}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, OSError])
def test_interrupted_synth_rerun_leaves_no_manifest(tmp_path, monkeypatch, capsys,
                                                    interrupt):
    """A rerun cut inside the second domain's file leaves that file as it
    was, no .tmp file, and no manifest vouching for the dataset."""
    from mdalbench import cli

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_domains": 3, "samples_per_domain": 40}))
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    before = (out / "domain1.csv").read_bytes()
    spec_path.write_text(json.dumps({"num_domains": 3, "samples_per_domain": 40, "seed": 1}))
    save_domain_csv = cli.save_domain_csv

    def cut_second_domain(dataset, path):
        if dataset.name != "domain1":
            return save_domain_csv(dataset, path)
        save_domain_csv(dataclasses.replace(dataset, X=dataset.X[:25], y=dataset.y[:25]),
                        path)
        raise interrupt

    monkeypatch.setattr(cli, "save_domain_csv", cut_second_domain)
    code = main(["synth", "--spec", str(spec_path), "--out", str(out)])
    assert code == (130 if interrupt is KeyboardInterrupt else 1)
    assert sorted(p.name for p in out.iterdir()) == [
        "domain0.csv", "domain1.csv", "domain2.csv",
    ]
    assert (out / "domain1.csv").read_bytes() == before
    capsys.readouterr()


def test_domain_csv_cut_short_exits_2_before_training(tmp_path, monkeypatch, capsys):
    """synth records each domain's row count in the manifest, so a domain
    file cut short after it was written fails at load, naming both counts."""
    from mdalbench import engine

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_domains": 3, "samples_per_domain": 40}))
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    assert [d["rows"] for d in manifest["domains"]] == [40, 40, 40]
    csv = data / "domain1.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:25]))

    def no_training(*args, **kwargs):
        raise AssertionError("trained on a domain file cut short")

    monkeypatch.setattr(engine, "train_round", no_training)
    path = minimal_config(
        tmp_path, dataset={"type": "manifest", "path": str(data / "manifest.json")},
    )
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"{csv}: 25 rows, the manifest says 40" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("text", ["[1, 2]", "3"])
def test_synth_non_object_spec_exits_2(tmp_path, capsys, text):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text, encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")]) == 2
    assert f"{spec_path}: expected a JSON object" in capsys.readouterr().err


# -------------------------------------------------------------------- report


def fake_run(out_dir, dataset, strategy, seed, accs, **config):
    """Hand-built result pair with a flat curve at each accuracy step; the
    sidecar echoes {"name": dataset, **config} as its config."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{dataset}__{strategy}__seed{seed}"
    lines = [
        "round,labeled_total,labeled_frac,acc_domain_0,acc_macro,"
        "select_seconds,train_seconds"
    ]
    for i, acc in enumerate(accs):
        lines.append(
            f"{i},{10 + 10 * i},{0.1 * (i + 1)},{acc},{acc},0.01,0.02"
        )
    (out_dir / f"{stem}.csv").write_text("\n".join(lines) + "\n")
    meta = {
        "config": {"name": dataset, **config},
        "strategy": strategy,
        "seed": seed,
        "status": "ok",
        "rounds": len(accs),
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(meta))


@pytest.mark.parametrize(
    "target, command",
    [
        ("config", "run"), ("synth spec", "synth"), ("manifest", "run"),
        ("domain CSV", "run"), ("result CSV", "report"), ("result CSV", "curves"),
        ("sidecar", "report"),
    ],
)
def test_byte_that_is_not_utf8_in_each_input(tmp_path, capsys, target, command):
    """A 0xff byte in the middle of an input file makes the command exit 2
    at load, naming the file and writing nothing; a sidecar holding one is
    skipped with a warning, as any sidecar that cannot be read."""
    spec_path, data = tmp_path / "spec.json", tmp_path / "data"
    spec_path.write_text(json.dumps({"num_domains": 2, "samples_per_domain": 24}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
    config_path = minimal_config(
        tmp_path, dataset={"type": "manifest", "path": str(data / "manifest.json")},
    )
    results = tmp_path / "r"
    fake_run(results, "ds", "random", 0, [0.80, 0.80])
    fake_run(results, "ds", "p2s", 0, [0.90, 0.90])
    bad = {
        "config": config_path, "synth spec": spec_path,
        "manifest": data / "manifest.json", "domain CSV": data / "domain1.csv",
        "result CSV": results / "ds__p2s__seed0.csv",
        "sidecar": results / "ds__p2s__seed0.json",
    }[target]
    raw = bad.read_bytes()
    bad.write_bytes(raw[: len(raw) // 2] + b"\xff" + raw[len(raw) // 2 :])
    out = tmp_path / "o"
    argv = {
        "run": ["run", "--config", str(config_path), "--out", str(out)],
        "synth": ["synth", "--spec", str(spec_path), "--out", str(out)],
        "report": ["report", str(results)], "curves": ["curves", str(results)],
    }[command]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    if target == "sidecar":
        assert code == 0
        assert err.startswith(f"warning: skipping {bad}: ") and err.count("\n") == 1
        return
    assert code == 2
    assert err.startswith("error: ") and f"{bad}: not UTF-8 text" in err
    assert not out.exists()
    assert len(list(results.iterdir())) == 4


def test_report_single_run_zero_std(tmp_path, capsys):
    fake_run(tmp_path, "ds", "random", 0, [0.75, 0.75])
    assert main(["report", str(tmp_path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "75.00(0.00)" in out


def test_report_mean_std_cell(tmp_path, capsys):
    fake_run(tmp_path, "ds", "random", 0, [0.80, 0.80])
    fake_run(tmp_path, "ds", "random", 1, [0.82, 0.82])
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "81.00(1.00)" in out
    table = (tmp_path / "aulc_table.csv").read_text()
    assert "81.00(1.00)" in table


def test_report_flags_best_strategy(tmp_path, capsys):
    fake_run(tmp_path, "ds", "random", 0, [0.70, 0.70])
    fake_run(tmp_path, "ds", "p2s", 0, [0.90, 0.90])
    assert main(["report", str(tmp_path)]) == 0
    text = (tmp_path / "aulc_table.txt").read_text()
    p2s_line = next(l for l in text.splitlines() if l.startswith("p2s"))
    random_line = next(l for l in text.splitlines() if l.startswith("random"))
    assert "*" in p2s_line and "*" not in random_line


def test_report_empty_dir_exits_2(tmp_path):
    assert main(["report", str(tmp_path)]) == 2
    assert main(["report", str(tmp_path / "missing")]) == 2


def test_report_skips_unparseable_json(tmp_path, capsys):
    fake_run(tmp_path, "ds", "random", 0, [0.80, 0.80])
    fake_run(tmp_path, "ds", "p2s", 0, [0.90, 0.90])
    assert main(["report", str(tmp_path), "--format", "csv"]) == 0
    clean = capsys.readouterr().out
    (tmp_path / "junk.json").write_text("{not json")
    assert main(["report", str(tmp_path), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean
    assert "junk.json" in captured.err


@pytest.mark.parametrize(
    "edit, key",
    [
        pytest.param({"config": {"strategies": ["p2s"]}}, "config", id="config-without-name"),
        pytest.param({"config": ["ds"]}, "config", id="config-not-object"),
        pytest.param({"seed": "0"}, "seed", id="seed-string"),
        pytest.param({"seed": True}, "seed", id="seed-bool"),
        pytest.param({"rounds": None}, "rounds", id="rounds-null"),
        pytest.param({"rounds": "2"}, "rounds", id="rounds-string"),
        pytest.param({"colour": "red"}, "colour", id="unknown-key"),
        pytest.param({"seed": -1}, "seed", id="seed-negative"),
        pytest.param({"rounds": -1}, "rounds", id="rounds-negative"),
        pytest.param({"strategy": "../egl"}, "strategy", id="strategy-not-a-file-name"),
    ],
)
def test_report_skips_malformed_sidecar(tmp_path, capsys, edit, key):
    """A sidecar that breaks results.Sidecar is skipped with one warning
    naming the bad key; the table is that of the other runs."""
    fake_run(tmp_path, "ds", "random", 0, [0.80, 0.80])
    fake_run(tmp_path, "ds", "p2s", 0, [0.90, 0.90])
    assert main(["report", str(tmp_path), "--format", "csv"]) == 0
    clean = capsys.readouterr().out
    fake_run(tmp_path, "ds", "egl", 0, [0.5, 0.5])
    sidecar = tmp_path / "ds__egl__seed0.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))
    assert main(["report", str(tmp_path), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean
    assert captured.err.startswith(f"warning: skipping {sidecar}: {key}: ")
    assert captured.err.count("\n") == 1


def test_a_copied_run_is_skipped_not_averaged_twice(tmp_path, capsys):
    """A run's two files copied under another name are skipped with a
    warning: a run is read only at the file names it writes."""
    fake_run(tmp_path, "ds", "p2s", 0, [0.90, 0.90])
    fake_run(tmp_path, "ds", "p2s", 1, [0.50, 0.50])
    for suffix in (".csv", ".json"):
        copy = tmp_path / f"backup_of_seed0{suffix}"
        copy.write_bytes((tmp_path / f"ds__p2s__seed0{suffix}").read_bytes())
    assert main(["report", str(tmp_path), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert "70.00(20.00)" in captured.out
    assert captured.err == (
        f"warning: skipping {tmp_path / 'backup_of_seed0.json'}: "
        "not its run's own file name ds__p2s__seed0.json\n"
    )


def parent_sidecar(result, config):
    """The sidecar, as a dict, that write_run_metadata wrote before
    results.Sidecar declared its keys."""
    return {
        "config": config.to_dict(),
        "strategy": result.strategy,
        "seed": result.seed,
        "status": result.status,
        "error": result.error,
        "code_version": mdalbench.__version__,
        "rounds": len(result.records),
        "epoch_losses": [r.epoch_losses for r in result.records],
        "labeled_per_domain": [r.labeled_per_domain for r in result.records],
        "timestamp": time.time(),
        "timing": {
            "select_seconds": [r.select_seconds for r in result.records],
            "train_seconds": [r.train_seconds for r in result.records],
        },
    }


def test_run_sidecar_keeps_its_declaration_and_its_bytes(tmp_path, monkeypatch):
    """Each sidecar run writes passes results.Sidecar with no problem, and
    its bytes, timestamp aside, are those of the sidecar layout before
    Sidecar: the same keys and values, dumped the same way."""
    from mdalbench import engine

    written = {}
    write_run_metadata = engine.write_run_metadata

    def record(result, config, path):
        write_run_metadata(result, config, path)
        written[result.strategy, result.seed] = parent_sidecar(result, config)

    monkeypatch.setattr(engine, "write_run_metadata", record)
    path = minimal_config(tmp_path, strategies=["random", "p2s"], seeds=[0, 1])
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert len(written) == 4
    for (strategy, seed), before in written.items():
        text = (out / f"demo__{strategy}__seed{seed}.json").read_text(encoding="utf-8")
        meta = json.loads(text)
        assert key_problems(Sidecar, meta) == []
        before["timestamp"] = meta["timestamp"]
        assert text == json.dumps(before, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "command, name",
    [
        pytest.param("report", "../escaped", id="report"),
        pytest.param("curves", "../escaped", id="curves"),
        pytest.param("report", "\ud800x", id="report-lone-surrogate"),
        pytest.param("curves", "\ud800x", id="curves-lone-surrogate"),
    ],
)
def test_sidecar_name_outside_the_results_dir_is_skipped(tmp_path, capsys, command, name):
    """A sidecar whose config name is not a file name (run rejects such a
    name at load) is skipped with a warning; nothing is written outside."""
    results = tmp_path / "r"
    fake_run(results, "ds", "random", 0, [0.80, 0.80])
    fake_run(results, "ds", "p2s", 0, [0.90, 0.90])
    fake_run(results, "ds", "egl", 0, [0.5, 0.5])
    sidecar = results / "ds__egl__seed0.json"
    meta = json.loads(sidecar.read_text())
    meta["config"]["name"] = name
    sidecar.write_text(json.dumps(meta))
    assert main([command, str(results)]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"warning: skipping {sidecar}: config: ") and repr(name) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r"]
    if command == "curves":
        curves = (results / "curves_ds.csv").read_text()
        assert "p2s" in curves and "egl" not in curves
    else:
        table = (results / "aulc_table.csv").read_text()
        assert "p2s" in table and "egl" not in table


@pytest.mark.parametrize("command", ["report", "curves"])
def test_failed_run_is_skipped_with_a_warning(tmp_path, capsys, command):
    """A run whose sidecar is not ok is left out of the table and the
    curves, and the skip is named on stderr; stdout and the exit code stay."""
    fake_run(tmp_path, "ds", "random", 0, [0.80, 0.80])
    fake_run(tmp_path, "ds", "p2s", 0, [0.90, 0.90])
    assert main([command, str(tmp_path)]) == 0
    clean = capsys.readouterr()
    written = {p.name: p.read_text() for p in tmp_path.glob("*_ds.csv")}
    written |= {p.name: p.read_text() for p in tmp_path.glob("aulc_table.*")}
    fake_run(tmp_path, "ds", "egl", 0, [0.5, 0.5])
    sidecar = tmp_path / "ds__egl__seed0.json"
    meta = json.loads(sidecar.read_text())
    meta.update(status="failed", error="NonFiniteError: loss is nan")
    sidecar.write_text(json.dumps(meta))
    assert main([command, str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == clean.out
    assert captured.err == (
        f"warning: skipping {sidecar}: status failed: NonFiniteError: loss is nan\n"
    )
    assert written == {name: (tmp_path / name).read_text() for name in written}


def _edit_csv_row(path, row, edit):
    """Rewrite line row + 2 of a result CSV (row 0 is the line after the
    header) as edit(its cells)."""
    lines = path.read_text().splitlines()
    lines[row + 1] = ",".join(edit(lines[row + 1].split(",")))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", ["report", "curves"])
def test_truncated_csv_row_exits_2_naming_its_line(tmp_path, capsys, command):
    """Read on, a row one cell short would pair its cells with the wrong
    column names and leave the columns of unequal length."""
    fake_run(tmp_path, "ds", "random", 0, [0.5, 0.6, 0.7])
    csv = tmp_path / "ds__random__seed0.csv"
    _edit_csv_row(csv, 1, lambda cells: cells[:-1])
    assert main([command, str(tmp_path)]) == 2
    assert f"{csv}:3: 6 cells, the header has 7" in capsys.readouterr().err
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".json"]


def _drop_csv_column(name):
    def edit(text):
        rows = [line.split(",") for line in text.splitlines()]
        at = rows[0].index(name)
        return "".join(",".join(r[:at] + r[at + 1 :]) + "\n" for r in rows)

    return edit


@pytest.mark.parametrize("command", ["report", "curves"])
@pytest.mark.parametrize(
    "edit, named",
    [
        pytest.param(lambda text: "", ": empty file", id="zero-bytes"),
        pytest.param(
            lambda text: text.splitlines()[0] + "\n", ": no round records",
            id="header-only",
        ),
        *(
            pytest.param(_drop_csv_column(name), f": header lacks {name}", id=f"no-{name}")
            for name in ("labeled_total", "acc_macro", "select_seconds")
        ),
        pytest.param(
            lambda text: text.replace("\n1,20,", "\n1,999999,"),
            ":4: labeled_total 30 does not increase on 999999",
            id="labeled-total-falls",
        ),
    ],
)
def test_malformed_csv_exits_2_naming_the_file(tmp_path, capsys, command, edit, named):
    """Read on, these would fail with an IndexError or KeyError naming no
    file, or print the AULC of a curve that runs backwards."""
    fake_run(tmp_path, "ds", "random", 0, [0.5, 0.6, 0.7])
    csv = tmp_path / "ds__random__seed0.csv"
    csv.write_text(edit(csv.read_text()))
    assert main([command, str(tmp_path)]) == 2
    assert f"{csv}{named}" in capsys.readouterr().err
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".json"]


@pytest.mark.parametrize("command", ["report", "curves"])
def test_non_numeric_csv_cell_exits_2_naming_its_line(tmp_path, capsys, command):
    fake_run(tmp_path, "ds", "random", 0, [0.5, 0.6, 0.7])
    csv = tmp_path / "ds__random__seed0.csv"
    _edit_csv_row(csv, 2, lambda cells: cells[:4] + ["oops"] + cells[5:])
    assert main([command, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{csv}:4: acc_macro is not a number: 'oops'" in err
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".json"]


@pytest.mark.parametrize("command", ["report", "curves"])
def test_ok_sidecar_without_its_csv_exits_2_naming_the_sidecar(tmp_path, capsys,
                                                                command):
    """Skipped, the run's other seeds would be averaged without it."""
    for seed in (0, 1):
        fake_run(tmp_path, "ds", "random", seed, [0.5, 0.6])
        fake_run(tmp_path, "ds", "bvsb", seed, [0.5, 0.7])
    (tmp_path / "ds__bvsb__seed1.csv").unlink()
    assert main([command, str(tmp_path)]) == 2
    sidecar = tmp_path / "ds__bvsb__seed1.json"
    assert f"{sidecar}: run is ok but ds__bvsb__seed1.csv is missing" in (
        capsys.readouterr().err
    )
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv"] * 3 + [".json"] * 4


@pytest.mark.parametrize("command", ["report", "curves"])
def test_csv_rows_not_matching_sidecar_rounds_exit_2_naming_the_csv(tmp_path, capsys,
                                                                     command):
    """A CSV cut by one row, alone or beside a whole seed."""
    fake_run(tmp_path, "ds", "random", 0, [0.5, 0.6, 0.7])
    csv = tmp_path / "ds__random__seed0.csv"
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
    assert main([command, str(tmp_path)]) == 2
    assert f"{csv}: 2 round records, its sidecar says 3" in capsys.readouterr().err
    fake_run(tmp_path, "ds", "random", 1, [0.5, 0.6, 0.7])
    assert main([command, str(tmp_path)]) == 2
    assert f"{csv}: 2 round records, its sidecar says 3" in capsys.readouterr().err
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".csv", ".json", ".json"]


def test_report_refuses_runs_of_different_configs_under_one_name(tmp_path, capsys):
    # seeds and strategies may differ: --seeds and --strategies vary them
    fake_run(tmp_path, "t", "random", 0, [0.8, 0.8], seeds=[0], model={"epochs_per_round": 1})
    fake_run(tmp_path, "t", "random", 1, [0.6, 0.6], seeds=[1], model={"epochs_per_round": 1})
    fake_run(tmp_path, "t", "p2s", 0, [0.7, 0.7], strategies=["p2s"], model={"epochs_per_round": 1})
    assert main(["report", str(tmp_path), "--format", "csv"]) == 0
    capsys.readouterr()
    fake_run(tmp_path, "t", "random", 2, [0.9, 0.9], model={"epochs_per_round": 3})
    assert main(["report", str(tmp_path), "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert "runs named 't' come from different configs" in err
    assert "t__p2s__seed0.json" in err and "t__random__seed2.json" in err


def test_report_matches_recomputation(tmp_path, capsys):
    fake_run(tmp_path, "ds", "egl", 0, [0.5, 0.7, 0.9])
    main(["report", str(tmp_path), "--format", "csv"])
    out = capsys.readouterr().out
    # trapezoid of 0.5,0.7,0.9 over equal spacing = 0.7
    assert "70.00(0.00)" in out


@pytest.mark.parametrize(
    "command, target",
    [
        ("report", "aulc_table.csv"),
        ("report", "aulc_table.txt"),
        ("curves", "curves_ds.csv"),
        ("curves", "curves_ds.svg"),
    ],
)
def test_failed_table_write_keeps_the_previous_file(tmp_path, monkeypatch, capsys,
                                                    command, target):
    """A write that fails half-way through (here: half the text, then an
    OSError) leaves the previous file byte for byte and no .tmp file."""
    fake_run(tmp_path, "ds", "random", 0, [0.6, 0.7])
    assert main([command, str(tmp_path)]) == 0
    before = (tmp_path / target).read_bytes()
    fake_run(tmp_path, "ds", "p2s", 0, [0.8, 0.9])
    real_write = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        if not self.name.startswith(target):
            return real_write(self, text, *args, **kwargs)
        real_write(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    assert main([command, str(tmp_path)]) == 1
    assert "OSError: no space left on device" in capsys.readouterr().err
    assert (tmp_path / target).read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


# -------------------------------------------------------------------- curves


def test_curves_outputs_csv_and_wellformed_svg(tmp_path):
    fake_run(tmp_path, "ds", "random", 0, [0.6, 0.7])
    fake_run(tmp_path, "ds", "random", 1, [0.8, 0.9])
    assert main(["curves", str(tmp_path)]) == 0
    csv_path = tmp_path / "curves_ds.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "strategy,labeled_total,acc_mean,acc_std"
    assert len(lines) == 3  # two evaluation rounds, one strategy
    cells = [line.split(",") for line in lines[1:]]
    assert float(cells[0][2]) == pytest.approx(0.7)  # pointwise mean
    assert float(cells[1][2]) == pytest.approx(0.8)

    svg_path = tmp_path / "curves_ds.svg"
    tree = ET.parse(svg_path)  # raises if not well-formed XML
    assert tree.getroot().tag.endswith("svg")


def test_curves_svg_escapes_names_as_before():
    name = "a&b<c>\"d'"
    svg = render_curves_svg({(name, name): ([10, 20], [0.5, 0.6], [0.0, 0.0])}, name)
    escaped = "a&amp;b&lt;c&gt;\"d'"
    assert f'font-size="14">{escaped}</text>' in svg
    assert f'font-size="12">{escaped}</text>' in svg
    texts = [el.text for el in ET.fromstring(svg).iter() if el.text]
    assert texts.count(name) == 2


def test_curves_row_count_matches_rounds(tmp_path):
    fake_run(tmp_path, "ds", "badge", 3, [0.5, 0.6, 0.7, 0.8])
    main(["curves", str(tmp_path)])
    lines = (tmp_path / "curves_ds.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 4
