"""Paired A/B runs of benchmarks/run.py: a parent revision against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --seconds 15 \\
        --pairs eval_focconstrain=701-710 --pairs train_s2s=711-715 \\
        --traced eval_focconstrain=721 --tag my_change --out BENCH_my_change.json

The parent revision is exported with `git archive` to a temporary directory;
the change side is this checkout as it stands, uncommitted edits included.
Each side runs its own benchmarks/run.py, which imports its own src/.  A pair
is one seed run on both sides, one run at a time; the parent goes first in
even-numbered pairs and the change first in odd ones.

The JSON written holds, per workload, every pair's end-to-end metrics, their
medians and quartiles (numpy linear percentiles over the pairs), the pairs
the change won, the change against the parent at the median and the bound of
BENCHMARK.json, one verdict per metric (see `compare`), and every run's
output digests.  A --traced pair runs `--trace 1` once per side and keeps
all its metrics, per-layer timings and tape-node counts included.

Exits 1 when a run fails its own checks or when any pair's output digests
differ (the JSON is written first, to show which), else 0.  A training run's
whole-log digest and final loss are compared only where both sides ran the
same number of steps, as the runs are time-bounded.

    python3 tools/bench_pairs.py --parent HEAD --parity

runs a fixed CLI recipe on both sides instead, side by side, one process
per side: `make-corpus --seed 7`; 150 steps of each variant at seed 0 with
the desk config of README.md, each followed by `eval` and `generate` of the
500 held-out posts x 3 samples; an 800-step `focconstrain` run with its
`eval`, which trains past the 200 warm-up steps that the short runs never
leave; and `gradcheck --variant V` of each variant, its printed report
written to `gradcheck/V.txt`.  It compares the two output trees file by
file (loss logs, checkpoints, reports, samples, alignment files and
gradient checks), prints the file count and the first file that differs
or is missing, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
COUNTS = ("steps", "evaluations")          # how much ran, not what it wrote
WHOLE_RUN = ("loss_log_sha256", "final_loss")  # comparable only at equal steps
# the acceptance suite's training config, as README.md gives it for the CLI
DESK_CONFIG = {"peak_lr": 0.004, "kl_anneal_steps": 2500, "w_bow": 3.0, "w_foc": 2.0,
               "init_scale": 0.12}
PARITY_VARIANTS = ("s2s", "foc", "foccoverage", "focconstrain")


def parse_seeds(spec: str) -> list[int]:
    """'701-705' or '701,703,709' -> the seeds, one per pair."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds or min(seeds) < 0 or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds {spec!r}: need distinct non-negative seeds")
    return seeds


def workload_seeds(spec: str) -> tuple[str, list[int]]:
    name, sep, seeds = spec.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"{spec!r}: expected WORKLOAD=SEEDS")
    try:
        return name, parse_seeds(seeds)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def export_revision(rev: str, dest: Path) -> str:
    """Write the files of rev into dest; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return short


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmarks/run.py run: its result line plus the notes printed before it."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        result[key] = json.loads(value)
    return result


def differing_outputs(parent: dict, change: dict) -> list[str]:
    """The output digests of one pair that differ."""
    same_steps = parent.get("steps") == change.get("steps")
    keys = sorted(set(parent) | set(change))
    return [k for k in keys if k not in COUNTS and (same_steps or k not in WHOLE_RUN)
            and parent.get(k) != change.get(k)]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "runs": len(values),
            "values": [round(v, 4) for v in values]}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over the pairs, the change against the parent, with its verdict:

    - "gain": the change wins at least 9 of 10 pairs and its median is
      better than the parent's by more than the parent's quartile distance;
    - "regression": the change's median is worse than the parent's by more
      than the bound;
    - "unresolved": the spread, the wider quartile distance of the two
      sides over the parent's median, exceeds the bound, and not every
      change run beats every parent run;
    - "no regression" otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = summarize(parent), summarize(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    shift = c["median"] / p["median"] - 1.0 if p["median"] else 0.0
    within_bound = sign * shift >= -bound
    quartiles = p["q3"] - p["q1"]
    spread = max(quartiles, c["q3"] - c["q1"]) / abs(p["median"]) if p["median"] else 0.0
    if 10 * wins >= 9 * len(parent) and sign * (c["median"] - p["median"]) > quartiles:
        verdict = "gain"
    elif not within_bound:
        verdict = "regression"
    elif spread > bound and min(sign * b for b in change) <= max(sign * a for a in parent):
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return {
        "parent": p, "change": c, "better": better,
        "change_wins": f"{wins}/{len(parent)}",
        "change_vs_parent_median": round(shift, 4),
        "median_difference": round(c["median"] - p["median"], 4),
        "parent_quartile_distance": round(quartiles, 4),
        "spread": round(spread, 4),
        "bound": bound,
        "within_bound": within_bound,
        "verdict": verdict,
    }


def run_pairs(checkouts: dict[str, Path], workload: str, seeds: list[int], seconds: float,
              metrics: list[dict], log) -> tuple[dict, dict]:
    """The workload's pairs, summarized, and the machine the first run reported."""
    runs = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(checkouts[side], workload, seed, seconds, False))
        log(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.2f}" for side in SIDES))
    out = {
        "pairs": len(seeds), "seeds": seeds, "first_in_pair": first,
        "all_runs_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "outputs": [{side: runs[side][i].get("outputs", {}) for side in SIDES}
                    for i in range(len(seeds))],
    }
    out["differing_outputs"] = {
        str(seed): diff for seed, pair in zip(seeds, out["outputs"])
        if (diff := differing_outputs(pair["parent"], pair["change"]))}
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES}
        out[m["name"]] = compare(values["parent"], values["change"], m["better"], m["bound"])
    machine = {k: v for k, v in runs["parent"][0]["machine"].items() if k != "seed"}
    return out, machine


def run_traced(checkouts: dict[str, Path], workload: str, seed: int, seconds: float) -> dict:
    out = {"workload": workload, "seed": seed}
    runs = {side: run_once(checkouts[side], workload, seed, seconds, True) for side in SIDES}
    for side, run in runs.items():
        out[side] = {k: v["value"] for k, v in run["metrics"].items()}
    out["all_runs_correct"] = all(r["correct"] for r in runs.values())
    out["differing_outputs"] = differing_outputs(runs["parent"].get("outputs", {}),
                                                 runs["change"].get("outputs", {}))
    return out


def run_recipe(checkout: Path, work: Path) -> None:
    """The parity recipe through checkout's CLI, every output under work."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def cli(*args: str) -> str:
        proc = subprocess.run([sys.executable, "-m", "focuscvae.cli", *args], cwd=work, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{checkout}: focuscvae {' '.join(args)} exited "
                               f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    work.mkdir(parents=True)
    (work / "desk.json").write_text(json.dumps(DESK_CONFIG) + "\n")
    cli("make-corpus", "--seed", "7", "--out", "data")
    runs = [(variant, variant, "150") for variant in PARITY_VARIANTS]
    for name, variant, steps in runs + [("focconstrain_800", "focconstrain", "800")]:
        cli("train", "--corpus", "data/corpus.jsonl", "--config", "desk.json",
            "--out", f"runs/{name}", "--variant", variant, "--seed", "0", "--steps", steps)
        held_out = ("--checkpoint", f"runs/{name}/checkpoint.bin", "--corpus", "data/test.jsonl",
                    "--n-samples", "3", "--seed", "0")
        cli("eval", *held_out, "--out", f"eval/{name}")
        if steps == "150":
            cli("generate", *held_out, "--out", f"generate/{name}")
    (work / "gradcheck").mkdir()
    for variant in PARITY_VARIANTS:
        (work / "gradcheck" / f"{variant}.txt").write_text(cli("gradcheck", "--variant", variant))


def compare_trees(a: Path, b: Path) -> tuple[int, list[str]]:
    """Every file under a or b, compared byte for byte: the count of distinct
    relative paths, and those that differ or are missing on one side, sorted."""
    paths = sorted({p.relative_to(root).as_posix() for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    differ = [p for p in paths if not ((a / p).is_file() and (b / p).is_file()
                                       and filecmp.cmp(a / p, b / p, shallow=False))]
    return len(paths), differ


def parity(parent_rev: str, log) -> int:
    """The parity recipe on the parent and on the working tree; 1 on any difference."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs-parity-") as tmp:
        tmp = Path(tmp)
        parent = export_revision(parent_rev, tmp / "parent")
        checkouts = {"parent": tmp / "parent", "change": ROOT}
        log(f"parity: running the recipe on {parent} and on the working tree")
        with ThreadPoolExecutor(len(SIDES)) as pool:
            list(pool.map(lambda side: run_recipe(checkouts[side], tmp / "out" / side), SIDES))
        n, differ = compare_trees(tmp / "out" / "parent", tmp / "out" / "change")
        report = tmp / "out" / "change" / "eval" / "focconstrain_800" / "report.json"
        bleu = json.loads(report.read_text())["bleu_2"] if report.is_file() else None
    if differ:
        log(f"parity: {len(differ)} of {n} files differ or are missing; first: {differ[0]}")
        return 1
    log(f"parity: all {n} files byte-identical against {parent} "
        f"(800-step focconstrain BLEU-2 {bleu})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--parity", action="store_true",
                        help="compare the CLI recipe's output files instead of timing pairs")
    parser.add_argument("--pairs", type=workload_seeds, action="append", default=[],
                        metavar="WORKLOAD=SEEDS", help="e.g. eval_focconstrain=701-710")
    parser.add_argument("--traced", type=workload_seeds, action="append", default=[],
                        metavar="WORKLOAD=SEED", help="one traced pair per seed given")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path, help="the JSON to write")
    parser.add_argument("--tag", default="")
    parser.add_argument("--change", default="", help="what the change does")
    parser.add_argument("--claim", default="", help="the gain claimed, if any")
    args = parser.parse_args(argv)
    log = lambda msg: print(msg, file=sys.stderr, flush=True)
    if args.parity:
        return parity(args.parent, log)
    if not args.pairs or args.out is None:
        parser.error("--pairs and --out are required without --parity")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {"parent": Path(tmp), "change": ROOT}
        parent = export_revision(args.parent, checkouts["parent"])
        report = {
            "tag": args.tag, "change": args.change, "parent": parent, "claim": args.claim,
            "command": f"python3 benchmarks/run.py --workload WORKLOAD --seed SEED "
                       f"--seconds {args.seconds:g} --trace 0",
            "method": "one seed per pair; the parent first in even-numbered pairs, the change "
                      "first in odd ones; each side runs its own benchmarks/run.py and src/ "
                      "(the parent exported with git archive, the change from the working "
                      "tree); one run at a time; medians and quartiles are numpy linear "
                      "percentiles over the pairs",
            "workloads": {},
        }
        for workload, seeds in args.pairs:
            report["workloads"][workload], report["machine"] = run_pairs(
                checkouts, workload, seeds, args.seconds, metrics, log)
        report["traced"] = [run_traced(checkouts, workload, seed, args.seconds)
                            for workload, seeds in args.traced for seed in seeds]
    args.out.write_text(json.dumps(report, indent=1) + "\n")

    failed = [name for name, w in report["workloads"].items()
              if w["differing_outputs"] or not w["all_runs_correct"]]
    failed += [f"{t['workload']} traced" for t in report["traced"]
               if t["differing_outputs"] or not t["all_runs_correct"]]
    for name in failed:
        log(f"bench_pairs: {name}: outputs differ between the sides or a run failed its checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
