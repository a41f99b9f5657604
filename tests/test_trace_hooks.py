"""perfbench's --trace 1 rebinds names in mdalbench; they must stay on the
call path.

perfbench/tracing.instrument wraps module attributes such as
strategies.kmeans and AspMtlModel.gradient_embeddings, and its hooks read
the wrapped calls' arguments (assign_nearest's first argument as (n, d), its
second's first dimension as k). This runs instrument with a counting tracer
over a small grid, then restores the bindings: a traced name that leaves
src/, stops being called, or changes the arguments a hook reads fails here
instead of in a traced benchmark pass.
"""

import sys
from collections import Counter
from pathlib import Path

from mdalbench import engine, model, strategies
from mdalbench.cli import main
from test_cli import minimal_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class CountingTracer:
    """Calls every hook as tracing.Tracer does and counts calls per span name."""

    def __init__(self):
        self.calls = Counter()
        self.problems = []

    def wrap(self, name, fn, attrs=None, check=None, run_id=None):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if run_id is not None:
                run_id(args)
            result = fn(*args, **kwargs)
            if attrs is not None:
                attrs(args)
            if check is not None:
                self.problems += check(args, result)
            return result

        return traced


def test_traced_names_stay_on_the_call_path(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    owners = (engine, model.AspMtlModel, strategies)
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = CountingTracer()
    restore = tracing.instrument(tracer)
    try:
        dataset = {
            "type": "synthetic", "num_domains": 2, "samples_per_domain": 24,
            "input_dim": 4, "num_classes": 3, "seed": 3,
        }
        path = minimal_config(
            tmp_path, dataset=dataset,
            strategies=["p2s", "2s-center", "badge", "coreset"],
            strategy_params={"num_perturbations": 2},
        )
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--jobs", "1"])
    finally:
        restore()
    assert code == 0
    assert not tracer.problems
    for owner in owners:
        assert dict(vars(owner)) == before[owner]
    expected = {
        "data.prepare_pools", "engine.execute_run", "model.train_round",
        "model.evaluate", "model.gradient_embeddings", "strategies.select",
        "strategies.kmeans", "strategies.kmeans_pp", "strategies.perturbation_score",
        "kernels.assign_nearest", "kernels.pairwise_sq_dists", "engine.annotate",
        "engine.write",
    }
    assert expected == set(tracer.calls)
