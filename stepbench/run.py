#!/usr/bin/env python3
"""Whole-step benchmark of the Predictive-RP simulator.

Builds the stepbench binary (the repository's libraries from src/ plus
stepbench.cpp), runs one workload for a fixed time, checks every step's
force and KernelMetrics digests against expected_digests.json, and prints
the metrics: one table for people, then one JSON line as the last line of
stdout.

    python3 stepbench/run.py --workload rigid-64 --seed 3 --seconds 30 --trace 0
    python3 stepbench/run.py --workload fleet-32x4 --trace 1   # per-layer run
    python3 stepbench/run.py --workload evolving-64 --held-out # held-out seed
    python3 stepbench/run.py --write-digests                   # regenerate

--trace 0 prints the end-to-end metrics of untraced episodes. --trace 1
spends half the time on untraced episodes (the overhead reference), then
runs one episode with span capture on and prints the per-layer metrics.
See README.md for every metric and workload.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import report  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rigid-64", "evolving-64", "fleet-32x4")
# --seed n runs workload seed DEV_SEEDS[n % len(DEV_SEEDS)]; each has
# expected digests. HELD_OUT_SEED has digests too but is only run with
# --held-out, to re-check a claim on a seed not used while developing it.
DEV_SEEDS = (20170801, 11, 23, 37, 41, 53, 67, 79)
HELD_OUT_SEED = 97
DIGESTS = os.path.join(HERE, "expected_digests.json")
# A run that does not build must end within this many seconds (the first
# run in a fresh checkout also builds, which may take several minutes).
DEADLINE_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def pool_threads():
    """A fixed pool of 4 threads, or fewer on a smaller host."""
    return min(4, len(os.sched_getaffinity(0)))


def build(threads):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(base, "stepbench")
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "-j", str(threads)]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            raise SystemExit("stepbench: build failed: " + " ".join(cmd))
    return base, os.path.join(build_dir, "stepbench")


def run_binary(binary, threads, args, timeout):
    env = {k: v for k, v in os.environ.items()
           if k not in ("BD_TRACE", "BD_FAULT", "BD_METRICS")}
    env["BD_NUM_THREADS"] = str(threads)
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE, env=env,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise SystemExit("stepbench: binary failed with code %d" %
                         done.returncode)
    return [json.loads(line) for line in done.stdout.splitlines() if line]


def source_digest():
    """Content hash of the library sources and the benchmark binary, so a
    run names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    # Only this checkout's own repository: git would otherwise report an
    # enclosing one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def check_digests(header, steps, episodes, expected):
    """Every step of every episode against its expected digests. A job that
    did not finish counts all its steps as failed. Returns (attempted,
    failed, problems)."""
    attempted = failed = 0
    problems = []
    for ep in episodes:
        problems += ep["failures"]
        for j, sim in enumerate(header["sims"]):
            ref = expected.get(sim["key"])
            if ref is None:
                problems.append("no expected digests for " + sim["key"])
            got = {s["step"]: [s["force"], s["kernel"]] for s in steps
                   if s["episode"] == ep["episode"] and s["job"] == j}
            for k in range(1, sim["steps"] + 1):
                attempted += 1
                want = ref[k - 1] if ref and k <= len(ref) else None
                if got.get(k) != want or want is None:
                    failed += 1
                    problems.append("episode %d %s step %d: got %s, want %s"
                                    % (ep["episode"], sim["key"], k,
                                       got.get(k), want))
    return attempted, failed, problems


def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, extra in rows:
        print("  %-*s %14.6g %-9s %s" % (width, name, value, unit, extra))


def write_digests(binary, threads):
    digests = {}
    for workload in WORKLOADS:
        for seed in DEV_SEEDS + (HELD_OUT_SEED,):
            log("digests: %s seed %d" % (workload, seed))
            for r in run_binary(binary, threads,
                                ["--workload", workload, "--seed", str(seed),
                                 "--digests"], timeout=None):
                digests[r["scenario"]] = r["steps"]
    with open(DIGESTS, "w") as f:
        f.write("{\n")
        f.write(",\n".join("  %s: %s" % (json.dumps(k), json.dumps(v))
                           for k, v in sorted(digests.items())))
        f.write("\n}\n")
    log("wrote %d scenarios to %s" % (len(digests), DIGESTS))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default="rigid-64")
    p.add_argument("--seed", type=int, default=0,
                   help="selects the workload seed (see DEV_SEEDS)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out", action="store_true",
                   help="run the held-out workload seed instead")
    p.add_argument("--threads", type=int, default=pool_threads(),
                   help="pool size (default: min(4, available cores))")
    p.add_argument("--write-digests", action="store_true",
                   help="regenerate expected_digests.json and exit")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("stepbench: no library sources under %s/src" % ROOT)
    base, binary = build(args.threads)
    built = time.monotonic()
    if args.write_digests:
        write_digests(binary, args.threads)
        return

    seed = HELD_OUT_SEED if args.held_out else DEV_SEEDS[
        args.seed % len(DEV_SEEDS)]
    work_dir = os.path.join(base, "work")
    os.makedirs(work_dir, exist_ok=True)
    span_json = os.path.join(work_dir, "spans-%s.json" % args.workload)
    timed_s = args.seconds / 2 if args.trace else args.seconds
    binary_args = ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", repr(timed_s), "--work-dir", work_dir]
    if args.trace:
        binary_args += ["--span-json", span_json]
    records = run_binary(binary, args.threads, binary_args,
                         timeout=DEADLINE_S - (time.monotonic() - built))

    header = records[0]
    episodes = [r for r in records if r["type"] == "episode"]
    steps = [r for r in records if r["type"] == "step"]
    with open(DIGESTS) as f:
        expected = json.load(f)
    attempted, failed, problems = check_digests(header, steps, episodes,
                                                expected)
    for line in problems[:20]:
        log("MISMATCH", line)

    untraced = [e for e in episodes if not e["traced"]]
    untraced_steps = [s for s in steps if not s["traced"]]
    e2e, counts = report.end_to_end(untraced, untraced_steps)

    print("stepbench %s  commit %s  source %s" %
          (args.workload, git_commit(), source_digest()))
    print("  build %s (gcc %s), nproc %d, pool threads %d, simd %s" %
          (header["build_type"], header["compiler"], os.cpu_count(),
           header["pool_threads"], header["simd_dispatch_level"]))
    print("  workload seed %d (--seed %d%s), %.0f s timed, %d episodes, "
          "sims %s, max_resident %d, quantum %d" %
          (seed, args.seed, ", held out" if args.held_out else "", timed_s,
           len(untraced), json.dumps(header["sims"]), header["max_resident"],
           header["quantum_steps"]))
    rows = [(name, e2e[name], report.END_TO_END[name][0],
             "n=%d" % counts[name]) for name in report.END_TO_END]
    timed = [s["wall_ms"] for s in untraced_steps
             if s["measured"] and s["wall_ms"] >= 0]
    if len(timed) >= 2:
        rows[1] = rows[1][:3] + ("n=%d, quartile spread of the steps %.3f" %
                                 (len(timed), report.quartile_spread(timed)),)
    rows.append(("step_error_rate", failed / attempted, "fraction",
                 "%d/%d steps" % (failed, attempted)))
    print_table("end to end (untraced)", rows)

    if args.trace:
        traced = [e for e in episodes if e["traced"]][0]
        traced_steps = [s for s in steps if s["traced"]]
        with open(span_json) as f:
            chrome = json.load(f)
        layers, residual_ms = report.per_layer(
            chrome, traced, traced_steps, header["pool_threads"],
            args.workload.startswith("fleet"), e2e["steps_per_s"])
        print_table("per layer (traced episode, per step)",
                    [(name, layers[name], unit, "")
                     for name, unit in report.PER_LAYER.items()])
        whole = "fleet.round_ms" if args.workload.startswith("fleet") \
            else "sim.step_ms"
        print("  self times + trace.unattributed_ms + fleet.lane_idle_ms "
              "- %s = %.3g ms over the episode" % (whole, residual_ms))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in report.PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, (unit, _) in report.END_TO_END.items()}

    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
