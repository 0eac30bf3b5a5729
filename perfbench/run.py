#!/usr/bin/env python3
"""Build and run the acqd benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py steady --workload NAME --runs K [--seconds S] [--trace 0|1]

The first form builds bin/acqd.exe and perfbench/acqbench.exe with dune,
then runs one workload: its last line of standard output is the JSON
result. The second form runs one workload K times under seeds F..F+K-1
(--first-seed F, default 1) and
prints, per metric, the median, the interquartile range and that range
as a share of the metric's bound in BENCHMARK.json.

Noise controls: each run pins acqbench and every daemon it starts to
one core with `taskset` (when installed), so the closed loop never
migrates between cores. acqbench scales every time by a host-speed
probe that a helper process of its own runs on that core (see
perfbench/README.md). Nothing else is tuned.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["estimate_cold", "serve_hot", "live_rw", "fleet_scatter"]
ACQD = os.path.join("_build", "default", "bin", "acqd.exe")
ACQBENCH = os.path.join("_build", "default", "perfbench", "acqbench.exe")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def check_checkout():
    missing = [p for p in ("dune-project", os.path.join("bin", "acqd.ml"), "lib",
                           os.path.join("perfbench", "dune"))
               if not os.path.exists(p)]
    if missing:
        die("not the root of an acqd source checkout (missing: "
            + ", ".join(missing) + ")")
    if shutil.which("dune") is None:
        die("dune is not on PATH; the benchmark builds acqd from source")


def build():
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/acqd.exe", "./perfbench/acqbench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        die(f"build failed (dune exit {proc.returncode})")
    for path in (ACQD, ACQBENCH):
        if not os.path.exists(path):
            die(f"build produced no {path}")


def cpus():
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def pin_prefix():
    """taskset prefix: acqbench and every daemon share one core."""
    avail = cpus()
    if shutil.which("taskset") is None or not avail:
        return [], "unpinned (taskset unavailable)"
    spec = str(avail[-1])
    return ["taskset", "-c", spec], f"pinned to cpu {spec}"


def reap_group(pgid):
    """Backstop: acqbench stops its daemons itself; anything of its
    process group still alive (say, after a SIGKILL of acqbench) is
    killed here, and we wait until the group is empty."""
    start = time.monotonic()
    while time.monotonic() - start < 15:
        sig = signal.SIGTERM if time.monotonic() - start < 5 else signal.SIGKILL
        try:
            os.killpg(pgid, sig)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def run_once(workload, seed, seconds, trace):
    prefix, pinning = pin_prefix()
    cmd = prefix + [ACQBENCH, "--acqd", ACQD, "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
    # its own process group, so every daemon it starts can be found
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    interrupted = []

    def forward(signum, _frame):
        interrupted.append(signum)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)

    old = {s: signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reap_group(proc.pid)
        for s, h in old.items():
            signal.signal(s, h)
        shutil.rmtree(os.path.join(".pbrun", str(proc.pid)), ignore_errors=True)
        try:
            os.rmdir(".pbrun")
        except OSError:
            pass
    if interrupted:
        die("interrupted")
    lines = out.rstrip("\n").split("\n") if out else []
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        die(f"{workload} failed (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        die(f"{workload} printed no JSON result")
    return lines[:-1], result, pinning


def cmd_run(args):
    body, result, pinning = run_once(args.workload, args.seed, args.seconds, args.trace)
    for line in body:
        print(line)
    print(f"noise controls: {pinning}")
    print(json.dumps(result))


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def cmd_steady(args):
    bounds = {}
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    except (OSError, ValueError):
        pass
    values = {}
    pinning = ""
    for seed in range(args.first_seed, args.first_seed + args.runs):
        _, result, pinning = run_once(args.workload, seed, args.seconds, args.trace)
        if not result["correct"] or result["failed"]:
            die(f"seed {seed}: {result['failed']} failed operations")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s, {pinning}")
    print(f"{'metric':28} {'median':>12} {'iqr':>12} {'iqr/median':>11} {'/bound':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = iqr(vs) / med if med else float("nan")
        bound = bounds.get(name)
        share = f"{spread / bound:8.3f}" if bound else f"{'-':>8}"
        print(f"{name:28} {med:12.5g} {iqr(vs):12.5g} {spread:11.4f} {share}")


def main():
    argv = sys.argv[1:]
    steady = bool(argv) and argv[0] == "steady"
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seconds", type=int, default=12)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    if steady:
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--first-seed", type=int, default=1)
        args = p.parse_args(argv[1:])
    else:
        p.add_argument("--seed", type=int, required=True)
        args = p.parse_args(argv)
    check_checkout()
    build()
    (cmd_steady if steady else cmd_run)(args)


if __name__ == "__main__":
    main()
