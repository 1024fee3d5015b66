"""One benchmark measurement in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload words --seed 1 --seconds 15 --trace 0
    python3 perfbench/worker.py --workload words --seed 1 --setup-only

Prints one JSON object on its last stdout line with the raw measurements:
set-up time, per-item latencies (the median over passes of each item),
item counts, the output digest and, when traced, per-layer totals.  Times
are given in reference seconds (see reference.py) and, under keys starting
with ``measured_``, as measured.  The library is imported from the ``src``
directory beside ``perfbench``; the run is single-threaded and starts no
process.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
# every item is timed at least twice, in passes seconds apart, and its
# latency is the median of its times
MIN_PASSES = 2

import reference  # noqa: E402
from stats import median  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_library():
    """Import m2alg from this checkout's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "m2alg", "__init__.py")):
        raise SystemExit(f"error: no m2alg sources under {SRC}")
    sys.path.insert(0, SRC)
    import m2alg

    if os.path.dirname(os.path.dirname(os.path.abspath(m2alg.__file__))) != SRC:
        raise SystemExit(f"error: m2alg imported from {m2alg.__file__}, not {SRC}")


def direct_call(_layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_phase(
    workload, seconds, min_passes=1, tracer=None, clock=time.perf_counter, probe=reference.probe
):
    """Whole passes over the workload's steps until `seconds` have elapsed
    and at least `min_passes` passes are done.

    Times are kept as measured and also in reference seconds (see
    reference.py).  A step that raises is recorded and counted as failed;
    the run goes on.  Every pass must produce the same digest.
    """
    steps = workload.steps
    samples = [[] for _ in steps]  # (measured seconds, window index)
    windows = []  # measured step seconds per closed window
    probes = [probe()]
    in_window = 0.0
    window_start = clock()
    digests = []
    errors = []
    attempted = failed = passes = 0
    while True:
        h = hashlib.sha256()
        for k, step in enumerate(steps):
            if tracer is not None:
                tracer.item = k
            t0 = clock()
            try:
                text = step.run()
                ok = True
            except Exception as exc:  # a failing item is counted, not fatal
                text = f"ERROR {type(exc).__name__}"
                ok = False
                if len(errors) < 5:
                    errors.append(f"{step.label}: {traceback.format_exc(limit=3)}")
            t1 = clock()
            in_window += t1 - t0
            if step.is_item:
                attempted += 1
                failed += not ok
                samples[k].append((t1 - t0, len(windows)))
            elif not ok:
                failed += 1  # a failed batch step fails the run
            h.update(f"{step.label}\t{text}\n".encode())
            if t1 - window_start >= reference.WINDOW_S:
                windows.append(in_window)
                in_window = 0.0
                probes.append(probe())
                window_start = clock()
        digests.append(h.hexdigest())
        passes += 1
        if passes >= min_passes and sum(windows) + in_window >= seconds:
            break
    windows.append(in_window)
    probes.append(probe())
    scales = [reference.scale(probes[w], probes[w + 1]) for w in range(len(windows))]
    items = [samp for samp, step in zip(samples, steps) if step.is_item]
    return {
        "elapsed_s": sum(t * f for t, f in zip(windows, scales)),
        "measured_elapsed_s": sum(windows),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "item_latency_ms": [median([t * scales[w] for t, w in samp]) * 1e3 for samp in items],
        "measured_item_latency_ms": [median([t for t, _ in samp]) * 1e3 for samp in items],
        "digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "errors": errors,
    }


def layer_metrics(totals, counters, passes, scale):
    """Per-layer numbers per traced pass, from aggregated frames and counts.

    Self times are multiplied by `scale`, the traced phase's ratio of
    reference to measured seconds.
    """

    def calls(*layers):
        return sum(totals.get(layer, (0, 0.0, 0.0))[0] for layer in layers) / passes

    def self_s(*layers):
        return sum(totals.get(layer, (0, 0.0, 0.0))[2] for layer in layers) * scale / passes

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    return {
        "fields.fp.ops": calls("fields.fp"),
        "fields.fp2.ops": calls("fields.fp2"),
        "fields.self_s": self_s("fields.fp", "fields.fp2"),
        "poly.mul.calls": calls("poly.mul"),
        "poly.self_s": self_s("poly.mul"),
        "sequences.calls": calls("sequences"),
        "sequences.self_s": self_s("sequences"),
        "groebner.buchberger.calls": calls("groebner.buchberger"),
        "groebner.buchberger.self_s": self_s("groebner.buchberger"),
        "groebner.normal_form.calls": calls("groebner.normal_form"),
        "groebner.normal_form.self_s": self_s("groebner.normal_form"),
        "groebner.qmul.calls": calls("groebner.qmul"),
        "groebner.qmul.self_s": self_s("groebner.qmul"),
        "mat2.mul.calls": calls("mat2.mul"),
        "mat2.self_s": self_s("mat2.mul", "mat2.sylvester"),
        "mat2.sylvester.calls": calls("mat2.sylvester"),
        "model.witness.calls": calls("model.witness"),
        "model.witness.self_s": self_s("model.witness"),
        "freealg.reduce.calls": calls("freealg.reduce"),
        "freealg.reduce.self_s": self_s("freealg.reduce"),
        "freealg.reduce.nf_terms": counters.get("freealg.reduce.nf_terms", 0) / passes,
        "freealg.image.calls": calls("freealg.image"),
        "freealg.image.self_s": self_s("freealg.image"),
        "membership.decide.calls": calls("membership.decide"),
        "membership.self_s": self_s("membership.decide"),
        "oracle.enum.matrices_scanned": counters.get("oracle.enum.matrices_scanned", 0) / passes,
        "oracle.enum.self_s": self_s("oracle.enum"),
        "oracle.enum.useful_ratio": ratio("oracle.enum.witnesses", "oracle.enum.matrices_scanned"),
        "oracle.roots.quadratics_scanned": counters.get("oracle.roots.quadratics_scanned", 0) / passes,
        "oracle.roots.self_s": self_s("oracle.roots"),
        "oracle.roots.useful_ratio": ratio("oracle.roots.witnesses", "oracle.roots.quadratics_scanned"),
        "oracle.q_witness.calls": calls("oracle.q_witness"),
        "oracle.q_witness.self_s": self_s("oracle.q_witness"),
    }


def write_trace(path, tracer):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {
                "span_fields": ["name", "start", "end", "parent", "item", "self_s"],
                "spans": tracer.spans,
                "aggregate_fields": ["item", "layer", "calls", "total_s", "self_s"],
                "aggregates": [
                    [item, layer, *rec] for (item, layer), rec in tracer.agg.items()
                ],
            },
            fh,
        )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    probe_before = reference.probe()
    start = time.perf_counter()
    import_library()
    tracer = tracing.Tracer() if args.trace else None
    # the untraced pass of a traced run calls the library directly
    call_box = [direct_call]
    workload = workloads.build(
        args.workload, args.seed, lambda *a, **k: call_box[0](*a, **k)
    )
    measured_setup_s = time.perf_counter() - start
    setup_s = measured_setup_s * reference.scale(probe_before, reference.probe())
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "measured_setup_s": measured_setup_s,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if not args.trace:
        out["phase"] = run_phase(workload, args.seconds, MIN_PASSES)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(out))
        return 0

    untraced = run_phase(workload, 0.0)
    for key in workload.counters:
        workload.counters[key] = 0
    uninstall = tracing.install(tracer)
    call_box[0] = tracer.call
    try:
        traced = run_phase(workload, args.seconds, tracer=tracer)
    finally:
        uninstall()
    totals = tracer.totals()
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    write_trace(path, tracer)
    out["phase"] = traced
    out["untraced_phase"] = {k: v for k, v in untraced.items() if "latency" not in k}
    scale = traced["elapsed_s"] / traced["measured_elapsed_s"]
    out["layers"] = layer_metrics(totals, workload.counters, traced["passes"], scale)
    out["self_s_by_layer"] = {
        layer: rec[2] * scale / traced["passes"] for layer, rec in totals.items()
    }
    out["trace_file"] = os.path.relpath(path, ROOT)
    del traced["item_latency_ms"], traced["measured_item_latency_ms"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
