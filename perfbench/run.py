"""qclifford benchmark: one workload run, checked, printed as metrics.

Usage, from the root of a qclifford checkout:

    python3 perfbench/run.py --workload products_fresh --seed 1 --seconds 10 --trace 0

Each run starts fresh worker processes (``worker.py``): one that sets up,
runs the closed loop and checks every result, and, with ``--trace 0``, a few
before and after it that only set up, for a median set-up time. ``--trace 0``
prints the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer
ones with a table per layer. The last line of standard output is the JSON
result. Exit code 2 means the run could not start (for instance no
``src/qclifford`` here), 1 that it broke.

The run and every process it starts are pinned to one CPU. Op times are
reported in units of a reference computation (``ref``): a fixed pure-Python
computation in the benchmark's own code, timed by the worker before the
first op and after each op. Each op's time is divided by the median
reference time of its round. The shared host this was written on changes
speed by up to 1.6x, within seconds and for minutes at a time; the ratio
cancels that, while a change to the program still moves it. The wall-clock
figures are printed beside each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import gen  # noqa: E402

# Set-up is timed in the measuring worker and in set-up-only workers started
# before and after it, so that the median spans the whole run rather than
# one moment of the host's load.
SETUP_SAMPLES_BEFORE_AFTER = {"products_fresh": 2, "probes_session": 1, "cli_batch": 2}
WORKER_TIMEOUT_S = 170
TRACE_DIR = ".perfbench"


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, extra, deadline):
    """Start a worker; return (process, set-up seconds up to its READY line)."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        setup = perf_counter() - t0
        if line.strip() != "READY":
            proc.wait()
            raise RunError(f"worker did not finish set-up (exit {proc.returncode})")
        return proc, killer, setup
    except BaseException:
        killer.cancel()
        proc.kill()
        proc.wait()
        raise


def finish_worker(proc, killer):
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def median_child_seconds(command, samples):
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run(command, cwd=ROOT, env=child_env(), check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_seconds(samples):
    code = ("import time; t = time.perf_counter(); import qclifford.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              check=True, timeout=60, capture_output=True, text=True)
        values.append(float(done.stdout))
    return statistics.median(values)


def pin_to_one_cpu():
    """Run the worker, its reference timings and its CLI children on one
    CPU, so that the reference sees the same core as the ops."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def in_ref(phase):
    """Each op's latency over the median reference time of its round (the
    timings before, between and after the round's ops)."""
    lat, slots, ref = phase["latencies_s"], phase["slots"], phase["reference_s"]
    out = []
    for start in range(0, len(lat), slots):
        unit = statistics.median(ref[start:start + slots + 1])
        out += [x / unit for x in lat[start:start + slots]]
    return out


def slot_medians(latencies, slots):
    """Median latency of each op of the cycle over the run's rounds."""
    return [statistics.median(latencies[k::slots]) for k in range(slots)]


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def ops_per_s(phase):
    """Ops per second of a cycle that takes each op its median latency (the
    checks between ops are not part of the load)."""
    medians = slot_medians(phase["latencies_s"], phase["slots"])
    return len(medians) / sum(medians)


def wrong_answers(failures):
    return [f for f in failures if f[1] == "wrong"]


def summarize_failures(failures):
    counts = {}
    for _, kind, message in failures:
        counts[(kind, message)] = counts.get((kind, message), 0) + 1
    return [f"{n} x {kind}: {message}" for (kind, message), n in counts.items()]


def end_to_end(args, setups, report):
    phase = report["untraced"]
    lat, slots = phase["latencies_s"], phase["slots"]
    attempted, failed = len(lat), len(phase["failures"])
    value, pct, beyond = tail(lat)
    rate, p50 = ops_per_s(phase), statistics.median(slot_medians(lat, slots))
    ref = statistics.median(phase["reference_s"])
    norm = in_ref(phase)
    norm_medians = slot_medians(norm, slots)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_ref": slots / sum(norm_medians),
        "op_p50_ref": statistics.median(norm_medians),
        "op_tail_ref": tail(norm)[0],
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }
    rounds = attempted // slots
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_ref": f"{rate:.4f} ops/s; ref = {1000 * ref:.3f} ms, median of "
                       f"{len(phase['reference_s'])} timings",
        "op_p50_ref": f"{1000 * p50:.3f} ms; median over the {slots} ops of "
                      f"the cycle of each op's median over {rounds} rounds",
        "op_tail_ref": f"{1000 * value:.3f} ms; p{pct:.1f} of {attempted} ops, "
                       f"{beyond} beyond",
        "ok_frac": f"fail_frac {failed / attempted:.4f} ({failed} of {attempted})",
        "peak_rss_mb": ("largest CLI child" if args.workload == "cli_batch"
                        else "workload process"),
    }
    return metrics, notes, attempted, failed


def per_layer(report):
    traced, untraced = report["traced"], report["untraced"]
    layers = traced["layers"]
    metrics = dict(layers["metrics"])
    wall = sum(traced["latencies_s"])
    attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    traced_rate, untraced_rate = ops_per_s(traced), ops_per_s(untraced)
    metrics.update({
        "process.interpreter_s": median_child_seconds([sys.executable, "-c", "pass"], 5),
        "cli.import_s": import_seconds(3),
        "trace.traced_ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate,
        "trace.op_wall_s": wall,
        "trace.unattributed_s": wall - attributed - layers["bookkeeping_s"],
        "trace.bookkeeping_s": layers["bookkeeping_s"],
        "trace.spans": layers["spans"],
        "host.reference_ms": 1000 * statistics.median(traced["reference_s"]),
    })
    return metrics, wall


def print_layer_table(metrics, wall):
    print(f"{'layer':44s} {'self_s':>10s} {'share':>7s} {'calls':>10s}  counts")
    names = sorted({k[:-len(".self_s")] for k in metrics if k.endswith(".self_s")},
                   key=lambda n: -metrics[n + ".self_s"])
    for name in names:
        self_s = metrics[name + ".self_s"]
        calls = metrics.get(name + ".calls")
        counts = ", ".join(f"{k[len(name) + 1:]}={metrics[k]:.4g}" for k in sorted(metrics)
                           if k.startswith(name + ".")
                           and k[len(name) + 1:] not in ("self_s", "calls"))
        share = self_s / wall if wall else 0.0
        print(f"{name:44s} {self_s:10.4f} {share:7.1%} "
              f"{'' if calls is None else int(calls):>10}  {counts}")
    for name in ("trace.unattributed_s", "trace.bookkeeping_s"):
        print(f"{'(' + name[6:-2] + ')':44s} {metrics[name]:10.4f} {metrics[name] / wall:7.1%}")
    print(f"{'(op wall time)':44s} {wall:10.4f} {1:7.1%}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    if not os.path.isfile(os.path.join(ROOT, "src", "qclifford", "__init__.py")) \
            or not os.path.isdir(os.path.join(ROOT, "specs")):
        print("perfbench: run from the root of a qclifford checkout "
              "(src/qclifford and specs/ not found)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = perf_counter() + WORKER_TIMEOUT_S
    setups = []
    # set-up is reported by untraced runs only
    setup_samples = 0 if args.trace else SETUP_SAMPLES_BEFORE_AFTER[args.workload]

    def setup_only():
        proc, killer, setup = start_worker(args, ["--setup-only"], deadline)
        finish_worker(proc, killer)
        setups.append(setup)

    try:
        for _ in range(setup_samples):
            setup_only()
        extra = []
        if args.trace:
            os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
            extra = ["--spans-out", os.path.join(
                TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.bin")]
        proc, killer, setup = start_worker(args, extra, deadline)
        setups.append(setup)
        report = json.loads(finish_worker(proc, killer).splitlines()[-1])
        for _ in range(setup_samples):
            setup_only()
    except (RunError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics, notes, attempted, failed = end_to_end(args, setups, report)
    failures = report["untraced"]["failures"]
    wrong = wrong_answers(failures)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in "
          f"{report['untraced']['elapsed_s']:.2f} s, {failed} failed")
    for line in summarize_failures(failures):
        print(f"  failed: {line}")
    if args.trace:
        traced = report["traced"]
        metrics, wall = per_layer(report)
        attempted = len(traced["latencies_s"])
        failed = len(traced["failures"])
        wrong = wrong + wrong_answers(traced["failures"])
        over = traced["layers"]["self_exceeds_wall"]
        print(f"traced phase: {attempted} ops, {failed} failed, "
              f"{metrics['trace.spans']:.0f} spans, overhead x{metrics['trace.overhead_ratio']:.3f}")
        print_layer_table(metrics, wall)
        if over:
            print(f"self times exceed op wall time in {len(over)} ops: {over[:3]}")
    else:
        over = []
        for m in wanted:
            note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
            print(f"  {m['name']:12s} {metrics[m['name']]:12.5f} {m['unit']}{note}")
    result = {
        "correct": not wrong and not over,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
