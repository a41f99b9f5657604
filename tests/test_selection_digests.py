"""Golden digests of every strategy's selections on a tiny grid.

All ten strategies x seeds 0 and 1 run once, in process at --jobs 1, on a
3-domain, 3-class synthetic config with the pool-size budget split. Each run
is pinned twice: the sha256 of its CSV without the two timing columns, and
the sha256 of the batches `select` returned, round by round. The digests
were generated before the selection layer was collapsed onto one model read
path and scorer functions, and that refactor left them unchanged; a change
that moves any selection, or any number a run writes, fails here.
"""

import hashlib
import json

import pytest

from mdalbench import engine
from mdalbench.cli import main

CONFIG = {
    "name": "golden",
    "dataset": {
        "type": "synthetic", "num_domains": 3, "samples_per_domain": 60,
        "input_dim": 5, "num_classes": 3, "shared_strength": 1.0,
        "shift_strength": 0.8, "label_noise": 0.1, "seed": 5,
    },
    "seeds": [0, 1],
    "test_fraction": 0.25,
    "model": {
        "shared_hidden": 8, "private_hidden": 6, "epochs_per_round": 2,
        "lam_diff": 0.01, "lr": 0.05,
    },
    "al": {"init_fraction": 0.1, "step_fraction": 0.1, "budget_fraction": 0.5},
    "strategy_params": {"num_perturbations": 4, "budget_counts": "pool"},
}

# (strategy, seed) -> (CSV digest, selection digest), first 16 hex digits
GOLDEN = {
    ("random", 0): ("3e7ce187662d70e8", "81c7de7b13bbc8a7"),
    ("random", 1): ("1162478e9753a7bb", "faa08df71e0d66c0"),
    ("bvsb", 0): ("8344130121cef30e", "ef8c27d1105ab3ea"),
    ("bvsb", 1): ("d6a2af9306514a0e", "a3016aa3d2676223"),
    ("egl", 0): ("5f175712aaa877b7", "f2fd6d6484a7ecf0"),
    ("egl", 1): ("9e1ace48146b0d87", "227bc008b8c73963"),
    ("coreset", 0): ("c02307f57df7fc8d", "ae85b414fefb74ef"),
    ("coreset", 1): ("b84f658326dd9004", "21fc923054c017d5"),
    ("badge", 0): ("e28164c49c3f861a", "0786d5a5b1e76a08"),
    ("badge", 1): ("c834baf72aadd6e3", "200174c1e27725e2"),
    ("p2s", 0): ("b59d5c835b34d828", "c145990d8b078b08"),
    ("p2s", 1): ("204003525291c3ed", "cf2e8ec4305e4496"),
    ("2s-center", 0): ("87a22a42f8b3f086", "942b71180e179db6"),
    ("2s-center", 1): ("f34285443a38599d", "b3e92db63d17815c"),
    ("2s-bvsb", 0): ("821af0366895fb99", "df3943324c992416"),
    ("2s-bvsb", 1): ("e396e678e38ee5e9", "2387142feb2339ad"),
    ("2s-egl", 0): ("9971d82d87d7b205", "e37c1650ef55bb29"),
    ("2s-egl", 1): ("1c23eaabdd57ea77", "d7ccc71eccfa0769"),
    ("p2s-no-region", 0): ("ec29e94c6165b211", "942fc8c8580a16e1"),
    ("p2s-no-region", 1): ("ef3d7a61f12db8f0", "65ca9a0183c7e37e"),
}

STRATEGIES = list(dict.fromkeys(name for name, _ in GOLDEN))


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    path = root / "config.json"
    path.write_text(json.dumps({**CONFIG, "strategies": STRATEGIES}), encoding="utf-8")
    batches = {}
    select = engine.select

    def recording_select(name, ctx):
        batch = select(name, ctx)
        batches.setdefault((name, ctx.rng.seed), []).append(batch)
        return batch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "select", recording_select)
        assert main(["run", "--config", str(path), "--out", str(root / "o")]) == 0
    out = {}
    for name in STRATEGIES:
        for seed in CONFIG["seeds"]:
            csv = (root / "o" / f"golden__{name}__seed{seed}.csv").read_text()
            kept = "\n".join(",".join(line.split(",")[:-2]) for line in csv.splitlines())
            out[name, seed] = (_sha(kept), _sha(repr(batches[name, seed])))
    return out


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_selections_match_golden_digests(digests, strategy, seed):
    assert digests[strategy, seed] == GOLDEN[strategy, seed]
