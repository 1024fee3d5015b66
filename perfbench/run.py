"""m2alg benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload words --seed 1 --seconds 15 --trace 0
    python3 perfbench/selftest.py      # tests of the benchmark's own arithmetic

Run from the root of a checkout.  Workloads (see workloads.py): ``words``,
``structure``, ``membership``.  With ``--trace 0`` the last stdout line
reports the end-to-end metrics named in BENCHMARK.json; with ``--trace 1``
it reports the per-layer metrics of a traced run, and the spans are
written under ``perfbench/out``.

Each measurement runs in a fresh single-threaded interpreter (worker.py),
one after the other.  Set-up (import plus fixture build) is repeated in
SETUP_RUNS interpreters and its median is reported.  The timed phase is a
closed loop, one caller, over whole passes of the workload's items until
``--seconds`` have elapsed and at least two passes are done.  Times are
reported in reference seconds (see reference.py); the values as measured
are printed beside them and saved in the run record under perfbench/out.
Every item is checked, and each pass's output digest must equal the one
recorded in expected.json for the seed, when one is recorded.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from stats import median, tail_percentile  # noqa: E402

SETUP_RUNS = 5  # fresh interpreters whose set-up times give setup_s
RUN_DEADLINE_S = 170  # a run that takes longer is stopped and fails

# layers predicted, before the first traced run, to dominate each workload's self time
PREDICTED_DOMINANT = {
    "words": (
        "freealg.reduce", "freealg.image", "groebner.qmul",
        "groebner.normal_form", "poly.mul", "mat2.mul",
    ),
    "structure": ("groebner.buchberger", "poly.mul"),
    "membership": ("oracle.roots", "fields.fp", "fields.fp2"),
}


class BenchError(Exception):
    pass


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_worker(args, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(
            f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def metadata():
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_before": list(os.getloadavg()),
    }


def end_to_end(workload, setups, measured_setups, result):
    phase = result["phase"]
    lat = phase["item_latency_ms"]
    q, tail, beyond = tail_percentile(lat)
    completed = phase["attempted"] - phase["failed"]
    values = {
        "setup_s": median(setups),
        "items_per_s": completed / phase["elapsed_s"],
        "item_ms_p50": median(lat),
        "item_ms_tail": tail,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = phase["measured_item_latency_ms"]
    _, raw_tail, _ = tail_percentile(raw)
    lines = [
        f"{workload}: {phase['passes']} passes of {len(lat)} items in "
        f"{phase['measured_elapsed_s']:.2f} s measured, {phase['elapsed_s']:.2f} reference s",
        "  (values in reference seconds; measured values in brackets)",
        f"  setup_s       {values['setup_s']:.4f} s (median of {len(setups)} interpreters)"
        f" [{median(measured_setups):.4f}]",
        f"  items_per_s   {values['items_per_s']:.2f} 1/s [{completed / phase['measured_elapsed_s']:.2f}]",
        f"  item_ms_p50   {values['item_ms_p50']:.4f} ms [{median(raw):.4f}]",
        f"  item_ms_tail  {tail:.4f} ms at p{q:g}, {beyond} of {len(lat)} items beyond [{raw_tail:.4f}]",
        f"  failed_frac   {phase['failed'] / phase['attempted']:.4f} "
        f"({phase['failed']} of {phase['attempted']})",
        f"  peak_rss_mb   {values['peak_rss_mb']:.2f} MB",
    ]
    return values, lines


def per_layer(workload, result):
    layers = dict(result["layers"])
    base = result["untraced_phase"]
    traced = result["phase"]
    ips_untraced = (base["attempted"] - base["failed"]) / base["elapsed_s"]
    ips_traced = (traced["attempted"] - traced["failed"]) / traced["elapsed_s"]
    by_layer = result["self_s_by_layer"]
    total = sum(by_layer.values())
    predicted = sum(by_layer.get(layer, 0.0) for layer in PREDICTED_DOMINANT[workload])
    layers["trace.items_per_s_untraced"] = ips_untraced
    layers["trace.items_per_s_traced"] = ips_traced
    layers["trace.overhead_frac"] = 1 - ips_traced / ips_untraced
    layers["trace.predicted_share"] = predicted / total if total else 0.0
    ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
    lines = [
        f"{workload} traced: {traced['passes']} passes, spans in {result['trace_file']}",
        f"  tracing overhead: {ips_untraced:.2f} -> {ips_traced:.2f} items/s "
        f"({layers['trace.overhead_frac']:.1%} fewer)",
        "  self time per pass by layer: "
        + ", ".join(f"{name} {sec:.3f} s" for name, sec in ranked[:8]),
        f"  predicted dominant layers {', '.join(PREDICTED_DOMINANT[workload])}: "
        f"{layers['trace.predicted_share']:.1%} of self time -> "
        + ("confirmed" if layers["trace.predicted_share"] >= 0.5 else "NOT confirmed"),
    ]
    return layers, lines


def check_digest(workload, seed, phase, expected):
    """Problems with the run's output digest, as a list of messages."""
    problems = []
    if not phase["digests_agree"]:
        problems.append("passes produced different outputs")
    want = expected["digests"][workload]
    key = "any" if "any" in want else str(seed)
    if key in want and phase["digest"] != want[key]:
        problems.append(f"digest {phase['digest']} != expected {want[key]} (seed {key})")
    return problems, key in want


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        expected = load_json(os.path.join(HERE, "expected.json"))
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if not os.path.isfile(os.path.join(ROOT, "src", "m2alg", "__init__.py")):
            raise BenchError("no m2alg sources under src/; run from a checkout of the repository")
        meta = metadata()
        base = ["--workload", args.workload, "--seed", str(args.seed)]
        runs = [run_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
        result = run_worker(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        runs.append(result)
        setups = [r["setup_s"] for r in runs]
        measured_setups = [r["measured_setup_s"] for r in runs]
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    meta["loadavg_after"] = list(os.getloadavg())

    phase = result["phase"]
    problems, digest_checked = check_digest(args.workload, args.seed, phase, expected)
    if args.trace:
        base_problems, _ = check_digest(args.workload, args.seed, result["untraced_phase"], expected)
        problems += base_problems
        if result["untraced_phase"]["digest"] != phase["digest"]:
            problems.append("traced and untraced passes produced different outputs")
        if result["untraced_phase"]["failed"]:
            problems.append("items failed in the untraced pass")
        values, lines = per_layer(args.workload, result)
        specs = spec["per_layer"]
    else:
        values, lines = end_to_end(args.workload, setups, measured_setups, result)
        specs = spec["end_to_end"]
    if phase["failed"]:
        problems.append(f"{phase['failed']} of {phase['attempted']} items failed")

    print(
        f"meta: python {meta['python']}, nproc {meta['nproc']}, git {meta['git_sha']}, "
        f"loadavg {meta['loadavg_before']} -> {meta['loadavg_after']}"
    )
    # this run, and the one before it, add up to 1 to the load average; more
    # than that leaves the single-threaded benchmark short of a whole cpu
    cpus = meta["nproc"] or 1
    load = max(meta["loadavg_before"][0], meta["loadavg_after"][0])
    if load > max(1.0, cpus - 0.5):
        print(f"warning: host busy (1-minute load {load:.2f} on {cpus} cpus)")
    for line in lines:
        print(line)
    print(
        f"  output digest {phase['digest'][:16]}: "
        + ("matches expected.json" if digest_checked else "no expected value for this seed")
    )
    for message in problems + phase["errors"]:
        print(f"  FAIL: {message}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "setup_s_runs": setups,
        "measured_setup_s_runs": measured_setups,
        "phase": {k: v for k, v in phase.items() if "latency" not in k},
        "metrics": metrics,
        "problems": problems,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": phase["attempted"],
                "failed": phase["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
