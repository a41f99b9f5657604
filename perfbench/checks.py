"""Correctness checks on mdalbench outputs, computed apart from the program.

Every function returns a list of problem strings; an empty list means the
output passed. Nothing here imports mdalbench: the AULC, the round structure
and the budget split are recomputed from their definitions.
"""

import hashlib
import math
from fractions import Fraction

TIMING_COLUMNS = ("select_seconds", "train_seconds")
TWO_STAGE = frozenset(
    ("p2s", "2s-center", "2s-bvsb", "2s-egl", "p2s-no-region", "p2s-no-perturb")
)


def read_csv(path):
    """(header, rows of cell strings) of a result CSV."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def result_digest(header, rows):
    """sha256 of every non-timing cell, as written."""
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    text = "\n".join(",".join(row[i] for i in keep) for row in [header, *rows])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_labeled_totals(pool_sizes, al):
    """Labeled totals per round: ceil(init * n_k) per domain, then steps of
    ceil(step * N) clamped to what is left, stopping at the first round whose
    labeled fraction reaches the budget fraction."""
    total = sum(pool_sizes)
    labeled = sum(math.ceil(al["init_fraction"] * n) for n in pool_sizes)
    step = math.ceil(al["step_fraction"] * total)
    out = [labeled]
    while labeled / total < al["budget_fraction"]:
        labeled += min(step, total - labeled)
        out.append(labeled)
    return out


def trapezoid_aulc(xs, ys):
    """Area under (xs, ys) by the trapezoid rule, divided by the x span."""
    if len(xs) == 1:
        return ys[0]
    area = sum((ys[i] + ys[i + 1]) / 2 * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))
    return area / (xs[-1] - xs[0])


def check_run(header, rows, pool_sizes, test_sizes, al):
    """Round structure and accuracy granularity of one run's CSV."""
    problems = []
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    num_domains = len(test_sizes)
    want = ["round", "labeled_total", "labeled_frac"]
    want += [f"acc_domain_{k}" for k in range(num_domains)]
    want += ["acc_macro", *TIMING_COLUMNS]
    if header != want:
        return [f"header {header} != {want}"]

    rounds = [int(v) for v in col["round"]]
    totals = [int(v) for v in col["labeled_total"]]
    expected = expected_labeled_totals(pool_sizes, al)
    if rounds != list(range(len(rows))):
        problems.append(f"round column {rounds} is not 0..{len(rows) - 1}")
    if totals != expected:
        problems.append(f"labeled totals {totals} != expected {expected}")
    n_total = sum(pool_sizes)
    for t, frac in zip(totals, col["labeled_frac"]):
        if float(frac) != t / n_total:
            problems.append(f"labeled_frac {frac} != {t}/{n_total}")
            break

    for r in range(len(rows)):
        accs = [float(col[f"acc_domain_{k}"][r]) for k in range(num_domains)]
        for k, (acc, m) in enumerate(zip(accs, test_sizes)):
            hits = acc * m
            if not 0 <= acc <= 1 or abs(hits - round(hits)) > 1e-9:
                problems.append(
                    f"round {r}: acc_domain_{k}={acc} is not a count over {m} test items"
                )
        macro = float(col["acc_macro"][r])
        if abs(macro - sum(accs) / num_domains) > 1e-12:
            problems.append(f"round {r}: acc_macro {macro} != mean of domain accuracies")
    return problems


def aulc_of(header, rows):
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    xs = [float(v) for v in col["labeled_total"]]
    ys = [float(v) for v in col["acc_macro"]]
    return trapezoid_aulc(xs, ys)


def check_report(table_csv, aulcs_by_strategy):
    """Match the report's mean(std) AULCx100 cells against recomputed AULCs.

    Returns {strategy: [problems]}; the report prints two decimals.
    """
    lines = table_csv.strip().splitlines()
    problems = {s: [] for s in aulcs_by_strategy}
    cells = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            continue
        cells[parts[0]] = parts[1]
    for strategy, aulcs in aulcs_by_strategy.items():
        if strategy not in cells:
            problems[strategy].append(f"report has no row for {strategy}")
            continue
        mean = sum(aulcs) / len(aulcs)
        std = math.sqrt(sum((a - mean) ** 2 for a in aulcs) / len(aulcs))
        shown_mean, shown_std = cells[strategy].rstrip(")").split("(")
        for label, shown, value in (("mean", shown_mean, mean), ("std", shown_std, std)):
            if abs(float(shown) - 100 * value) > 0.005 + 1e-9:
                problems[strategy].append(
                    f"report AULC {label} {shown} != recomputed {100 * value:.4f}"
                )
    return problems


def largest_remainder(counts, budget, caps):
    """Largest-remainder split of budget in proportion to counts, capped by
    caps, with capped overflow handed on in remainder order (ties: lower id)."""
    total = sum(counts)
    quotas = [Fraction(budget * c, total) for c in counts]
    alloc = [math.floor(q) for q in quotas]
    order = sorted(range(len(counts)), key=lambda k: (-(quotas[k] - alloc[k]), k))
    for k in order[: budget - sum(alloc)]:
        alloc[k] += 1
    spill = sum(max(0, a - c) for a, c in zip(alloc, caps))
    alloc = [min(a, c) for a, c in zip(alloc, caps)]
    while spill:
        room = [k for k in order if alloc[k] < caps[k]]
        if not room:
            break
        for k in room[:spill]:
            alloc[k] += 1
        spill -= len(room[:spill])
    return alloc


def check_batch(strategy, ctx, batch):
    """A select batch: exactly ctx.budget distinct, previously unlabeled items,
    split across domains by largest remainder for the two-stage strategies."""
    problems = []
    items = [(int(k), int(i)) for k, i in batch]
    if len(items) != ctx.budget:
        problems.append(f"{strategy}: batch of {len(items)} for budget {ctx.budget}")
    if len(set(items)) != len(items):
        problems.append(f"{strategy}: batch has duplicate items")
    unlabeled = [set(a.tolist()) for a in ctx.unlabeled]
    stray = [(k, i) for k, i in items if not (0 <= k < len(unlabeled) and i in unlabeled[k])]
    if stray:
        problems.append(f"{strategy}: items {stray[:3]} were not unlabeled")
    if strategy in TWO_STAGE:
        caps = [len(u) for u in unlabeled]
        if ctx.budget_counts == "pool":
            counts = [len(d) for d in ctx.store]
        else:
            counts = caps
        want = largest_remainder(counts, ctx.budget, caps)
        got = [sum(1 for k, _ in items if k == d) for d in range(len(caps))]
        if got != want:
            problems.append(f"{strategy}: per-domain batch {got} != largest remainder {want}")
    return problems
