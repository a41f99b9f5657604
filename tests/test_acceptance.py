"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end benchmark criteria share one experiment grid executed
through the CLI exactly as a user would run it.
"""

import functools
import json
import time

import numpy as np
import pytest

from conftest import tiny_model
from mdalbench.cli import main as cli_main
from mdalbench.data import DomainDataset
from mdalbench.kernels import kl_rows
from mdalbench.nncore import RngStream
from mdalbench.reporting import aggregate_seeds
from mdalbench.results import read_run_csv
from mdalbench.strategies import (
    SelectionContext,
    allocate_budget,
    coreset_select,
    egl_scores,
    kmeans,
    perturbation_score,
)
from reference_layers import linear_backward, softmax_cross_entropy
from test_model import check_composed_gradients
from test_strategies import (
    brute_force_farthest_first,
    exhaustive_min_sse,
    reference_largest_remainder,
)


def criterion(number, title):
    """Print one PASS/FAIL line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL: {title}")
                raise
            print(f"[criterion {number}] PASS: {title}")

        return run

    return wrap


# --------------------------------------------------------------- criterion 1


@criterion(1, "layer and composed-loss gradients match finite differences")
def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    gen = np.random.default_rng(2024)
    for trial in range(20):
        model = tiny_model(
            gen_seed=trial,
            input_dim=int(gen.integers(2, 9)),
            shared=int(gen.integers(2, 9)),
            private=int(gen.integers(2, 9)),
            classes=tuple(
                int(gen.integers(2, 5))
                for _ in range(int(gen.integers(1, 4)))
            ),
            lam_adv=float(gen.uniform(0.0, 1.0)),
            lam_diff=float(gen.choice([0.0, 0.05])),
        )
        check_composed_gradients(model, gen)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 2


@criterion(2, "analytic embeddings and EGL match brute-force backprop @1e-10")
def test_criterion_2_analytic_embedding_oracle():
    gen = np.random.default_rng(77)
    for trial in range(100):
        model = tiny_model(
            gen_seed=1000 + trial,
            input_dim=int(gen.integers(2, 6)),
            shared=int(gen.integers(2, 6)),
            private=int(gen.integers(2, 6)),
            classes=(int(gen.integers(2, 5)),),
        )
        x = gen.normal(size=model.config.input_dim)
        clf = model.classifiers[0]
        h = model.penultimate_features(x[None, :], 0)
        probs = model.classify(h, 0)[0]

        # gradient embedding vs the reference layer backward at the
        # pseudo-label
        resid, h_row = model.gradient_embeddings(x[None, :], 0)
        E = np.outer(resid[0], h_row[0]).ravel()
        yhat = int(np.argmax(probs))
        _, dlogits, _ = softmax_cross_entropy(clf.forward(h), [yhat])
        _, dW, _ = linear_backward(clf, h, dlogits)
        assert np.abs(E - dW.ravel()).max() < 1e-10

        # the EGL score the egl strategy ranks by vs per-class backprop norms
        ctx = SelectionContext(
            model=model, store=[DomainDataset(X=x[None, :], y=[0], domain_id=0)],
            labeled=[np.array([], np.int64)], unlabeled=[np.array([0])], budget=1, rng=RngStream(trial),
            sigma=0.01, num_perturbations=20, budget_counts="unlabeled",
        )
        analytic = float(egl_scores(ctx, 0)[0])
        brute = 0.0
        for c in range(len(probs)):
            _, dlogits, _ = softmax_cross_entropy(clf.forward(h), [c])
            brute += probs[c] * np.linalg.norm(linear_backward(clf, h, dlogits)[1])
        assert abs(analytic - brute) < 1e-10


# --------------------------------------------------------------- criterion 3


@criterion(3, "combinatorial oracles: budgets, coreset, kmeans optimality")
def test_criterion_3_combinatorial_oracles():
    # largest-remainder budgets on 1000 random instances
    gen = np.random.default_rng(31)
    for _ in range(1000):
        K = int(gen.integers(1, 8))
        counts = [int(gen.integers(0, 60)) for _ in range(K)]
        if sum(counts) == 0:
            counts[0] = 1
        budget = int(gen.integers(1, sum(counts) + 1))
        got = allocate_budget(counts, budget, counts)
        assert got == reference_largest_remainder(counts, budget)
        assert sum(got) == budget

    # greedy farthest-first against brute force on 50 instances
    for trial in range(50):
        g = np.random.default_rng(300 + trial)
        n = int(g.integers(4, 21))
        X = g.normal(size=(n, 3))
        store = [DomainDataset(X=X, y=np.zeros(n, int), domain_id=0)]
        lab = np.sort(g.choice(n, size=int(g.integers(1, 4)), replace=False))
        mask = np.zeros(n, bool)
        mask[lab] = True
        unl = np.flatnonzero(~mask)
        b = int(g.integers(1, unl.size + 1))

        class _Identity:
            def penultimate_features(self, Xq, k):
                return np.atleast_2d(np.asarray(Xq, dtype=float))

        ctx = SelectionContext(
            model=_Identity(), store=store, labeled=[lab], unlabeled=[unl],
            budget=b, rng=RngStream(trial),
            sigma=0.01, num_perturbations=20, budget_counts="unlabeled",
        )
        assert coreset_select(ctx) == brute_force_farthest_first(
            [X[i] for i in unl], [X[i] for i in lab],
            [(0, int(i)) for i in unl], b,
        )

    # kmeans never beats the exhaustive optimum, attains it >= 90% of runs,
    # and Lloyd SSE never increases
    hits = runs = 0
    for seed in range(60):
        g = np.random.default_rng(seed)
        n = int(g.integers(4, 9))
        k = int(g.integers(1, min(3, n) + 1))
        pts = g.normal(size=(n, 2))
        _, history = kmeans(np.ones((n, 1)), pts, k, RngStream(seed, "km"))
        assert all(
            history[i + 1] <= history[i] + 1e-9
            for i in range(len(history) - 1)
        )
        best = exhaustive_min_sse(pts, k)
        assert history[-1] >= best - 1e-9
        runs += 1
        hits += history[-1] <= best + 1e-9
    assert hits / runs >= 0.9, f"kmeans optimal in only {hits}/{runs} runs"


# --------------------------------------------------------------- criterion 4


@criterion(4, "perturbation score: nonneg, decoupling, vanishing, quadratic")
def test_criterion_4_perturbation_properties():
    gen = np.random.default_rng(4)
    # nonnegative on 1000 random (model, x), each x a batch of one
    for trial in range(50):
        model = tiny_model(gen_seed=trial, classes=(2, 3))
        for _ in range(20):
            x = gen.normal(size=3)
            k = int(gen.integers(0, 2))
            (s,) = perturbation_score(
                model, x[None, :], k, 0.1, 3, [RngStream(trial, f"acc4/{k}")]
            )
            assert s >= 0.0

    # decoupled classifier ignores the shared half entirely
    model = tiny_model(gen_seed=9)
    model.classifiers[0].W[:, : model.config.shared_hidden] = 0.0
    X = gen.normal(size=(10, 3))
    scores = perturbation_score(model, X, 0, 0.5, 20, [RngStream(0, "d")] * 10)
    assert np.all(scores == 0.0)

    # sigma -> 0 limit
    model = tiny_model(gen_seed=10)
    X = gen.normal(size=(10, 3))
    scores = perturbation_score(model, X, 0, 1e-9, 20, [RngStream(1, "v")] * 10)
    assert np.all(scores < 1e-12)

    # halving sigma divides the mean score by ~4 on a trained toy model
    from test_model import _trained_toy

    model, store = _trained_toy(seed=2)
    X = store[0].X[:20]
    full = perturbation_score(
        model, X, 0, 0.01, 500, [RngStream(i, "q/full") for i in range(20)]
    )
    half = perturbation_score(
        model, X, 0, 0.005, 500, [RngStream(i, "q/half") for i in range(20)]
    )
    ratio = np.mean(full) / np.mean(half)
    assert 3.5 <= ratio <= 4.5, f"sigma-halving ratio {ratio:.2f}"


# --------------------------------------------------------------- criterion 5


def kl(P, Q):
    """KL(P || Q) of two distributions through kernels.kl_rows."""
    return float(kl_rows(np.asarray([P], float), np.asarray([Q], float))[0])


@criterion(5, "KL divergence: nonnegativity and hand values @1e-6")
def test_criterion_5_kl_properties():
    gen = np.random.default_rng(5)
    for _ in range(1000):
        c = int(gen.integers(2, 10))
        p = gen.random(c) + 1e-9
        q = gen.random(c) + 1e-9
        p /= p.sum()
        q /= q.sum()
        assert kl(p, q) >= 0.0
    assert kl([0.25, 0.75], [0.25, 0.75]) == 0.0
    assert abs(kl([1.0, 0.0], [0.5, 0.5]) - np.log(2.0)) < 1e-6
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert abs(kl([0.5, 0.5], [0.25, 0.75]) - expected) < 1e-6
    assert abs(expected - 0.1438) < 5e-5  # the quoted rounded value


# ------------------------------------------------- criteria 6/7/9 shared grid

# task where acquisition quality matters: heavy label noise penalizes the
# pure-uncertainty baselines and random most, the strong per-domain shift
# makes the shared/private split earn its keep
BENCHMARK_DATASET = {
    "type": "synthetic",
    "num_domains": 3,
    "samples_per_domain": 400,
    "input_dim": 20,
    "num_classes": 2,
    "shared_strength": 0.9,
    "shift_strength": 1.3,
    "label_noise": 0.15,
    "seed": 100,
}

BENCHMARK_CONFIG = {
    "name": "bench",
    "dataset": BENCHMARK_DATASET,
    "strategies": [
        "random", "bvsb", "egl", "coreset", "badge",
        "p2s", "2s-center", "p2s-no-region",
    ],
    "seeds": [0, 1, 2, 3, 4, 5, 6],
    "test_fraction": 0.25,
    "model": {"lam_adv": 0.2, "epochs_per_round": 30, "lr": 0.01},
    "al": {
        "init_fraction": 0.10,
        "step_fraction": 0.05,
        "budget_fraction": 0.50,
    },
    "strategy_params": {"sigma": 0.01, "num_perturbations": 20},
}


@pytest.fixture(scope="module")
def benchmark_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-results")
    config_path = out / "config.json"
    config_path.write_text(json.dumps(BENCHMARK_CONFIG), encoding="utf-8")
    started = time.perf_counter()
    code = cli_main(
        ["run", "--config", str(config_path), "--out", str(out / "results")]
    )
    elapsed = time.perf_counter() - started
    assert code == 0, "benchmark grid run failed"
    return out / "results", elapsed


def mean_aulcs(results_dir):
    out = {}
    for strategy in BENCHMARK_CONFIG["strategies"]:
        aulcs = []
        for seed in BENCHMARK_CONFIG["seeds"]:
            cols = read_run_csv(
                results_dir / f"bench__{strategy}__seed{seed}.csv"
            )
            summary = aggregate_seeds(
                [(cols["labeled_total"], cols["acc_macro"])]
            )
            aulcs.append(100.0 * summary.mean)
        out[strategy] = float(np.mean(aulcs))
    return out


@criterion(6, "p2s beats random and ranks top-2 of six strategies, <10min")
def test_criterion_6_end_to_end_benchmark(benchmark_grid):
    results_dir, elapsed = benchmark_grid
    means = mean_aulcs(results_dir)
    table = {
        s: means[s]
        for s in ("random", "bvsb", "egl", "coreset", "badge", "p2s")
    }
    print("  mean AULC:", {s: round(v, 2) for s, v in table.items()})
    assert table["p2s"] > table["random"], "p2s failed to beat random"
    rank = sorted(table, key=lambda s: -table[s]).index("p2s") + 1
    assert rank <= 2, f"p2s ranked {rank} of {len(table)}"
    assert elapsed < 600.0, f"grid took {elapsed:.0f}s"


@criterion(7, "ablations: full p2s >= 2s-center and >= p2s-no-region (0.3)")
def test_criterion_7_ablation_direction(benchmark_grid):
    results_dir, _ = benchmark_grid
    means = mean_aulcs(results_dir)
    print(
        "  ablations:",
        {
            s: round(means[s], 2)
            for s in ("p2s", "2s-center", "p2s-no-region")
        },
    )
    assert means["p2s"] >= means["2s-center"] - 0.3
    assert means["p2s"] >= means["p2s-no-region"] - 0.3


# --------------------------------------------------------------- criterion 8


@criterion(8, "identical config+seeds give byte-identical result columns")
def test_criterion_8_determinism(tmp_path):
    config = {
        "name": "det",
        "dataset": {
            "type": "synthetic", "num_domains": 2, "samples_per_domain": 40,
            "input_dim": 5, "num_classes": 2, "shared_strength": 1.0,
            "shift_strength": 0.8, "label_noise": 0.05, "seed": 9,
        },
        "strategies": ["p2s"],
        "seeds": [0, 1],
        "model": {"shared_hidden": 8, "private_hidden": 8, "epochs_per_round": 3},
        "al": {"init_fraction": 0.2, "step_fraction": 0.2, "budget_fraction": 0.6},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    for out in ("one", "two"):
        code = cli_main(
            ["run", "--config", str(config_path), "--out", str(tmp_path / out)]
        )
        assert code == 0
    for seed in (0, 1):
        name = f"det__p2s__seed{seed}.csv"
        a = (tmp_path / "one" / name).read_text(encoding="utf-8")
        b = (tmp_path / "two" / name).read_text(encoding="utf-8")

        # wall-clock cells are the documented exception: compare all other
        # columns byte for byte
        def mask_timing(text):
            return "\n".join(
                ",".join(line.split(",")[:-2])
                for line in text.strip().splitlines()
            )

        assert mask_timing(a) == mask_timing(b)
        # and the masked part really is just the two timing columns
        header = a.splitlines()[0].split(",")
        assert header[-2:] == ["select_seconds", "train_seconds"]
        # the sidecars' per-epoch losses are deterministic too, float for float
        losses = [
            json.loads((tmp_path / out / name.replace(".csv", ".json")).read_text(
                encoding="utf-8"))["epoch_losses"]
            for out in ("one", "two")
        ]
        assert len(losses[0]) == len(a.strip().splitlines()) - 1
        assert all(len(r) == 3 and all(len(e) == 4 for e in r) for r in losses[0])
        assert losses[0] == losses[1]


# --------------------------------------------------------------- criterion 9


@criterion(9, "timing capture: positive select_seconds + report column")
def test_criterion_9_timing_capture(benchmark_grid, capsys):
    results_dir, _ = benchmark_grid
    select_means = {}
    for strategy in BENCHMARK_CONFIG["strategies"]:
        for seed in BENCHMARK_CONFIG["seeds"]:
            cols = read_run_csv(
                results_dir / f"bench__{strategy}__seed{seed}.csv"
            )
            assert all(v > 0 for v in cols["select_seconds"])
            assert all(v > 0 for v in cols["train_seconds"])
            select_means.setdefault(strategy, []).extend(
                cols["select_seconds"][1:]
            )
    code = cli_main(["report", str(results_dir), "--format", "csv"])
    assert code == 0
    table = capsys.readouterr().out
    assert "mean_select_seconds" in table.splitlines()[0]

    # reported, not asserted: per-domain clustering (p2s) vs global
    # clustering (badge) selection time
    p2s_t = np.mean(select_means["p2s"])
    badge_t = np.mean(select_means["badge"])
    coreset_t = np.mean(select_means["coreset"])
    print(
        f"  selection seconds/round: p2s={p2s_t:.3f} badge={badge_t:.3f} "
        f"coreset={coreset_t:.3f}"
    )
