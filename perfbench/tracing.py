"""Spans around mdalbench's public functions, recorded from outside it.

`instrument` rebinds the module attributes that callers look up (for example
`engine.train_round`, which `run_experiment` resolves at call time) to thin
wrappers that record a span per call and restores them afterwards. Grid
workers forked by `engine.run_grid` inherit the wrappers; each worker appends
its spans to `spans-<pid>.jsonl` in the trace directory whenever its
outermost span closes, and the parent reads them back after the grid.
"""

import json
import math
import os
import time
from pathlib import Path

from checks import check_batch


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.main_pid = self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.run_id = "grid"

    def wrap(self, name, fn, attrs=None, check=None, run_id=None):
        """fn wrapped to record a span (name, start, duration, parent, run) per call.

        attrs(args) adds counted work to the span; check(args, result) returns
        correctness problems, recorded against the current AL run; run_id(args)
        names the AL run that the call and its children belong to.
        """

        def traced(*args, **kwargs):
            if os.getpid() != self.pid:  # first call in a forked worker
                self.pid, self.spans, self.stack = os.getpid(), [], []
            span = {"name": name, "parent": self.stack[-1]["name"] if self.stack else None}
            outer_run = self.run_id
            if run_id is not None:
                self.run_id = run_id(args)
            span["run"] = self.run_id
            self.stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["dur"] = time.perf_counter() - start
                span["start"] = start
                self.stack.pop()
                self.run_id = outer_run
                self.spans.append(span)
            if attrs is not None:
                span.update(attrs(args))
            if check is not None:
                span["problems"] = check(args, result)
            if not self.stack and self.pid != self.main_pid:
                self._flush()
            return result

        traced.__wrapped__ = fn
        return traced

    def _flush(self):
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self):
        """This process's spans plus every worker's, then forget them."""
        spans, self.spans = self.spans, []
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return spans


def _train_attrs(args):
    _model, _store, labeled, config, _rng = args[:5]
    total = sum(len(a) for a in labeled)
    return {"steps": config.epochs_per_round * max(1, math.ceil(total / config.batch_size))}


def _assign_attrs(args):
    points, centers = args[:2]
    n, d = points.shape
    return {"flop": 3 * n * centers.shape[0] * d}


def _select_attrs(args):
    return {"strategy": args[0]}


def _select_check(args, batch):
    return check_batch(args[0], args[1], batch)


def _run_id(args):
    _config, strategy, seed = args[:3]
    return f"{strategy}/seed{seed}"


def instrument(tracer):
    """Rebind the traced functions; returns a callable that restores them."""
    from mdalbench import engine, model, strategies

    targets = [
        (engine, "prepare_pools", "data.prepare_pools", {}),
        (engine, "execute_run", "engine.execute_run", {"run_id": _run_id}),
        (engine, "train_round", "model.train_round", {"attrs": _train_attrs}),
        (engine, "evaluate", "model.evaluate", {}),
        (model.AspMtlModel, "gradient_embeddings", "model.gradient_embeddings", {}),
        (engine, "select", "strategies.select",
         {"attrs": _select_attrs, "check": _select_check}),
        (strategies, "kmeans", "strategies.kmeans", {}),
        (strategies, "kmeans_pp_indices", "strategies.kmeans_pp", {}),
        (strategies, "perturbation_score", "strategies.perturbation_score", {}),
        (strategies, "assign_nearest", "kernels.assign_nearest", {"attrs": _assign_attrs}),
        (strategies, "pairwise_sq_dists", "kernels.pairwise_sq_dists", {}),
        (engine, "annotate", "engine.annotate", {}),
        (engine, "write_run_csv", "engine.write", {}),
        (engine, "write_run_metadata", "engine.write", {}),
    ]
    saved = []
    for owner, attr, name, hooks in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, **hooks))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
