"""Benchmark of the mdalbench AL grid, driven as a user drives it.

Each pass runs `mdalbench run` over a strategy x seed grid and then
`mdalbench report`, through the CLI's `main` in this process, and checks
every output apart from the program (see checks.py). Run from the root of a
checkout:

    python3 perfbench/run.py --workload paper-serial --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --regenerate-digests

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
passes traced by tracing.py. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. See README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "reference_digests.json"

# paper workloads take AL seed (--seed mod REFERENCE_SEEDS), so that serial
# reference digests exist for every input they can be given
REFERENCE_SEEDS = 10
SETUP_REPEATS = 10
# mean calibration chunk time that defines the reference machine speed
CALIBRATION_REFERENCE_S = 0.010
CALIBRATION_CHUNKS = 20
PAPER_STRATEGIES = ["random", "bvsb", "egl", "coreset", "badge", "p2s"]
SELECT_HEAVY_STRATEGIES = ["p2s", "2s-center", "p2s-no-region", "badge"]


def paper_config(seed):
    """examples_config/experiment.json with one AL seed."""
    return {
        "name": "paper",
        "dataset": {
            "type": "synthetic", "num_domains": 3, "samples_per_domain": 400,
            "input_dim": 20, "num_classes": 2, "shared_strength": 0.9,
            "shift_strength": 1.3, "label_noise": 0.15, "seed": 100,
        },
        "strategies": PAPER_STRATEGIES,
        "seeds": [seed % REFERENCE_SEEDS],
        "test_fraction": 0.25,
        "model": {
            "shared_hidden": 64, "private_hidden": 64, "lam_adv": 0.2,
            "lam_diff": 0.0, "lr": 0.01, "batch_size": 8, "epochs_per_round": 30,
        },
        "al": {
            "init_fraction": 0.10, "step_fraction": 0.05,
            "budget_fraction": 0.50, "warm_start": False,
        },
        "strategy_params": {
            "sigma": 0.01, "num_perturbations": 20, "budget_counts": "unlabeled",
        },
    }


def select_heavy_config(seed):
    """Multi-class, larger pools, few epochs: selection dominates the wall."""
    config = paper_config(seed)
    config.update(name="select-heavy", strategies=SELECT_HEAVY_STRATEGIES, seeds=[seed])
    config["dataset"].update(
        num_domains=3, samples_per_domain=400, num_classes=4, shared_strength=3.0,
        shift_strength=1.0, label_noise=0.1, seed=7,
    )
    config["model"].update(epochs_per_round=3, lr=0.05)
    return config


def nproc():
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    "paper-serial": (paper_config, lambda: 1, True),
    "select-heavy": (select_heavy_config, lambda: 1, False),
    "paper-parallel": (paper_config, nproc, True),
}

END_TO_END_UNITS = {
    "setup_s": "s", "grid_wall_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "aulc_x100": "AULCx100",
}


# ------------------------------------------------------------------ helpers


def cpu_seconds():
    """user + sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment():
    import numpy

    try:  # mode="dicts" needs numpy >= 1.26
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in threads},
        "start_method": multiprocessing.get_start_method(),
        "loadavg": os.getloadavg(),
    }


def calibrate():
    """Mean wall seconds of a fixed chunk of tiny matmuls and Python arithmetic.

    The chunk resembles the program's mix of small numpy calls and
    interpreter work. Timings are divided by the chunk time measured next to
    them and multiplied by CALIBRATION_REFERENCE_S, which cancels the
    machine's speed drift (see README.md).
    """
    import numpy

    a, b = numpy.full((8, 64), 0.5), numpy.full((64, 64), 0.25)
    times = []
    for _ in range(CALIBRATION_CHUNKS):
        start = time.perf_counter()
        for _ in range(2000):
            a @ b
        total = 0
        for i in range(30000):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.fmean(times)


def time_setup(config_path):
    """Seconds from process start to `setup_probe.py` reporting readiness."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdin.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def run_grid_and_report(config_path, results, jobs):
    """One timed pass: `mdalbench run` then `mdalbench report`.

    At --jobs 1 the calibration chunk is also timed after every AL run, so
    the pass's scale follows the machine's speed through the pass; that time
    is taken out of the pass's wall and CPU figures.
    """
    from mdalbench import cli, engine

    calibrations, paused = [], [0.0, 0.0]
    execute_run = engine.execute_run

    def execute_then_calibrate(*args, **kwargs):
        result = execute_run(*args, **kwargs)
        wall, cpu = time.perf_counter(), cpu_seconds()
        calibrations.append(calibrate())
        paused[0] += time.perf_counter() - wall
        paused[1] += cpu_seconds() - cpu
        return result

    log = io.StringIO()
    gc.collect()
    if jobs == 1:
        engine.execute_run = execute_then_calibrate
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc_run = cli.main(
                ["run", "--config", str(config_path), "--out", str(results), "--jobs", str(jobs)]
            )
            t1 = time.perf_counter()
            rc_report = cli.main(["report", str(results), "--format", "csv"])
        t2 = time.perf_counter()
    finally:
        engine.execute_run = execute_run
    return {
        "wall": t2 - t0 - paused[0], "run_wall": t1 - t0 - paused[0], "report_wall": t2 - t1,
        "cpu": cpu_seconds() - cpu0 - paused[1], "exit": (rc_run, rc_report),
        "log": log.getvalue(), "calibrations": calibrations,
    }


def check_pass(config, results, timing, pools, reference):
    """Per-run problems, AULCs and digests of one pass's results."""
    from checks import aulc_of, check_report, check_run, read_csv, result_digest

    pool_sizes, test_sizes = pools
    problems, aulcs, digests = {}, {}, {}
    for strategy in config["strategies"]:
        aulcs[strategy] = []
        for seed in config["seeds"]:
            key = f"{strategy}/seed{seed}"
            stem = f"{config['name']}__{strategy}__seed{seed}"
            found = problems[key] = []
            if timing["exit"][0] != 0:
                found.append(f"run exited {timing['exit'][0]}: {timing['log'].strip()[-300:]}")
            try:
                meta = json.loads((results / f"{stem}.json").read_text(encoding="utf-8"))
                header, rows = read_csv(results / f"{stem}.csv")
            except (OSError, ValueError) as exc:
                found.append(f"unreadable result: {exc}")
                continue
            if meta.get("status") != "ok":
                found.append(f"status {meta.get('status')}: {meta.get('error')}")
                continue
            found += check_run(header, rows, pool_sizes, test_sizes, config["al"])
            aulcs[strategy].append(aulc_of(header, rows))
            digests[key] = result_digest(header, rows)
            if reference is not None and reference.get(key) != digests[key]:
                found.append(
                    "non-timing columns differ from the serial reference "
                    "(regenerate with --regenerate-digests if the numerics changed)"
                )
    if timing["exit"][1] != 0:
        table = ""
        for found in problems.values():
            found.append(f"report exited {timing['exit'][1]}")
    else:
        table = (results / "aulc_table.csv").read_text(encoding="utf-8")
    for strategy, found in check_report(table, aulcs).items():
        for seed in config["seeds"]:
            problems[f"{strategy}/seed{seed}"] += found
    return problems, [a for values in aulcs.values() for a in values], digests


def pool_sizes(config):
    from mdalbench import engine

    train, test = engine.prepare_pools(engine.ExperimentConfig.from_dict(config))
    return [len(d) for d in train], [len(y) for _, y in test]


def load_reference():
    doc = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return doc["digests"]


# ------------------------------------------------------------------ metrics


def layer_metrics(spans, timing, jobs):
    """Per-layer totals of one traced pass."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name, field="dur"):
        return sum(s.get(field, 0) for s in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    p2s_calls = [s["dur"] for s in by_name.get("strategies.select", []) if s["strategy"] == "p2s"]
    pools = [s["dur"] for s in by_name.get("data.prepare_pools", [])]
    steps = total("model.train_round", "steps")
    busy = total("engine.execute_run")
    return {
        "data.prepare_pools_s": (statistics.median(pools) if pools else 0.0, "s"),
        "model.train_round_s": (total("model.train_round"), "s"),
        "model.sgd_steps": (steps, "count"),
        "model.sgd_step_us": (1e6 * total("model.train_round") / max(steps, 1), "us"),
        "model.evaluate_s": (total("model.evaluate"), "s"),
        "model.gradient_embeddings_s": (total("model.gradient_embeddings"), "s"),
        "strategies.select_s": (total("strategies.select"), "s"),
        "strategies.select_p2s_call_s": (statistics.median(p2s_calls) if p2s_calls else 0.0, "s"),
        "strategies.kmeans_s": (total("strategies.kmeans"), "s"),
        "strategies.kmeans_calls": (calls("strategies.kmeans"), "count"),
        "strategies.kmeans_pp_s": (total("strategies.kmeans_pp"), "s"),
        "strategies.perturbation_score_s": (total("strategies.perturbation_score"), "s"),
        "strategies.perturbation_score_calls": (calls("strategies.perturbation_score"), "count"),
        "kernels.assign_nearest_s": (total("kernels.assign_nearest"), "s"),
        "kernels.assign_nearest_calls": (calls("kernels.assign_nearest"), "count"),
        "kernels.assign_nearest_gflop": (total("kernels.assign_nearest", "flop") / 1e9, "GFLOP"),
        "kernels.pairwise_sq_dists_s": (total("kernels.pairwise_sq_dists"), "s"),
        "engine.annotate_s": (total("engine.annotate"), "s"),
        "engine.write_s": (total("engine.write"), "s"),
        "engine.prepare_pools_calls": (calls("data.prepare_pools"), "count"),
        "engine.worker_busy_s": (busy, "s"),
        "engine.parallel_efficiency": (busy / (jobs * timing["run_wall"]), "ratio"),
        "reporting.report_s": (timing["report_wall"], "s"),
    }


def median_metrics(per_pass):
    """{name: (median over passes, unit)} of a list of {name: (value, unit)}."""
    return {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }


# ------------------------------------------------------------- entry points


def measure(workload, seed, seconds, trace):
    from tracing import Tracer, instrument

    make_config, jobs_of, use_reference = WORKLOADS[workload]
    config, jobs = make_config(seed), jobs_of()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=OUT))
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    pools = pool_sizes(config)
    reference = load_reference() if use_reference else None
    print("env:", json.dumps(environment()), flush=True)

    # half the set-up probes run before the passes and half after, so that
    # they sample more of the machine's speed drift
    calibrations = [calibrate()]
    setups = [] if trace else [time_setup(config_path) for _ in range(SETUP_REPEATS // 2)]

    problems = {}  # (pass, run) -> problems
    passes, layers, first_digests, aulcs = [], [], None, None
    started = time.perf_counter()
    calibrations.append(calibrate())
    while True:
        begun = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        results = work / f"pass{len(passes)}"
        if traced:
            tracer = Tracer(work)
            restore = instrument(tracer)
            try:
                timing = run_grid_and_report(config_path, results, jobs)
            finally:
                restore()
            spans = tracer.collect()
            layers.append(layer_metrics(spans, timing, jobs))
        else:
            timing = run_grid_and_report(config_path, results, jobs)
            spans = []
        around = [calibrations[-1], *timing["calibrations"], calibrate()]
        calibrations.append(around[-1])
        timing["traced"] = traced
        # at --jobs > 1 no calibration runs inside the pass, and the two
        # around it drift further from the pass than the raw wall does
        timing["scale"] = CALIBRATION_REFERENCE_S / statistics.fmean(around) if jobs == 1 else 1.0
        found, pass_aulcs, digests = check_pass(config, results, timing, pools, reference)
        for span in spans:
            if span.get("problems"):
                found.setdefault(span["run"], []).extend(span["problems"])
        if first_digests is None:
            first_digests, aulcs = digests, pass_aulcs
        elif digests != first_digests:
            for key in found:
                if digests.get(key) != first_digests.get(key):
                    found[key].append("results differ from the first pass of this run")
        for key, items in found.items():
            problems[(len(passes), key)] = items
        if not any(found.values()):
            shutil.rmtree(results)
        passes.append(timing)
        took = time.perf_counter() - begun
        print(
            f"pass {len(passes) - 1}{' traced' if traced else ''}: "
            f"raw wall {timing['wall']:.3f}s cpu {timing['cpu']:.3f}s, "
            f"calibration {1e3 * calibrations[-1]:.3f}ms, scale {timing['scale']:.4f}",
            flush=True,
        )
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() - started + took > seconds:
            break

    if not trace:
        setups += [time_setup(config_path) for _ in range(SETUP_REPEATS - len(setups))]
        calibrations.append(calibrate())
    plain = [p for p in passes if not p["traced"]]
    if trace:
        metrics = median_metrics(layers)
        traced_wall = statistics.median(p["wall"] * p["scale"] for p in passes if p["traced"])
        plain_wall = statistics.median(p["wall"] * p["scale"] for p in plain)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    else:
        setup_scale = CALIBRATION_REFERENCE_S / statistics.fmean(calibrations)
        print(f"setup: raw median {statistics.median(setups):.4f}s, scale {setup_scale:.4f}")
        metrics = {
            "setup_s": statistics.median(setups) * setup_scale,
            "grid_wall_s": statistics.median(p["wall"] * p["scale"] for p in plain),
            "cpu_s": statistics.median(p["cpu"] * p["scale"] for p in plain),
            "peak_rss_mb": peak_rss_mb(),
            "aulc_x100": 100 * statistics.fmean(aulcs),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    failed = [key for key, items in problems.items() if items]
    for (pass_index, run), items in sorted(problems.items()):
        for item in items:
            print(f"FAILED pass {pass_index} {run}: {item}", file=sys.stderr)
    if not failed:
        shutil.rmtree(work)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return {
        "correct": not failed,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def regenerate_digests():
    """Rewrite reference_digests.json from one serial grid over every reference seed."""
    config = paper_config(0)
    config["seeds"] = list(range(REFERENCE_SEEDS))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=OUT))
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    timing = run_grid_and_report(config_path, work / "results", jobs=1)
    problems, _, digests = check_pass(config, work / "results", timing, pool_sizes(config), None)
    bad = {k: v for k, v in problems.items() if v}
    if bad:
        print(json.dumps(bad, indent=2), file=sys.stderr)
        return 1
    doc = {
        "about": "sha256 of the non-timing CSV columns of each paper-config run at "
                 "--jobs 1; rewrite with: python3 perfbench/run.py --regenerate-digests",
        "digests": digests,
    }
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.regenerate_digests and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "mdalbench" / "__init__.py").is_file():
        print(f"error: no mdalbench sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import mdalbench

    if Path(mdalbench.__file__).resolve().parent != (SRC / "mdalbench").resolve():
        print(f"error: imported mdalbench from {mdalbench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.regenerate_digests:
        return regenerate_digests()
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
