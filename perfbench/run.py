"""The borelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in turn.
Load is a closed loop with one client: this process starts one fresh
interpreter at a time and waits for it to exit before starting the next.

A run first times SETUP_RUNS set-up children (import, load_diagram and the
workload's graded contexts), then repeats the untraced workload for S
seconds.  With --trace 1 it then runs the workload once more in a child that
times the calls into each module's public functions.  Every output is
checked against the sha256 recorded in workloads.py; a nonzero exit, a FAIL
check or a digest mismatch counts the operation as failed.

Times are corrected for the speed of the core.  On the shared 2-core host
the benchmark was sized on, the speed of a core swings by up to 2x in phases
of a second to a minute, with steal time near zero, so uncorrected medians
of whole runs differ by 25 %.  So this process and every child are pinned to
one core, and a fixed pure-Python reference loop is timed on it before and
after each child and, with the child stopped, every SAMPLE_S seconds while
it runs.  A child's time is reported in reference seconds: each stretch it
ran, times REF_S / r, where r is the mean of the reference times at the
stretch's two ends.  On a core running at the typical speed this equals the
wall-clock time.  The uncorrected wall-clock samples, stops excluded, are in
the run record.

Every repetition is a fresh interpreter because roots._kind_cache,
roots._closure_cache, the lru_cache on cartan.load_diagram and the one on
weyl._coroot_row are module-global and keyed by label: a warm repeat would
time cache lookups that no CLI user gets.  Within sweep18 the caches are
shared across one label's gradings, as `export --all` shares them.

The lines before the last give each metric with its unit and quartiles, and
the run record as JSON: environment, seed and every sample.  The last line
is the result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import CLI, NAMES, SWEEP_DIGEST, SWEEP_GRADINGS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 11
SAMPLE_S = 0.25
# The reference loop's median time on the machine the benchmark was sized on
# (Intel Xeon, 2 vCPUs, Python 3.11.7).
REF_S = 0.026


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BORELAB_OUT", None)  # would send `export` output to a file
    return env


def reference():
    """Seconds a fixed loop of tuple, dict and set work takes on this core now."""
    t0 = perf_counter()
    counts, seen = {}, set()
    for i in range(60_000):
        key = (i % 1000, i % 7)
        counts[key] = counts.get(key, 0) + i
        if i % 3:
            seen.add(i & 1023)
    return perf_counter() - t0


class Core:
    """The one core that this process and every child run on, and its current speed."""

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.refs = [reference()]

    def _sample(self, seconds):
        """Reference seconds for `seconds` of running, from the reference times on both sides."""
        before = self.refs[-1]
        self.refs.append(reference())
        return seconds * REF_S * 2 / (before + self.refs[-1])

    def run(self, argv, sample=True):
        """Run one interpreter to its end.

        With sample, the child is stopped every SAMPLE_S seconds while the
        reference loop runs, and each stretch it ran is corrected by the
        reference times at its two ends.  Returns (exit code, stdout, wall
        seconds without the stops, reference seconds, peak RSS in MB).
        """
        with tempfile.TemporaryFile(dir=ROOT) as out:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out)
            stopped = corrected = 0.0
            try:
                exited = select.poll()
                pidfd = os.pidfd_open(proc.pid)
                exited.register(pidfd, select.POLLIN)
                ran_from = t0
                while not exited.poll(SAMPLE_S * 1000 if sample else None):
                    ran_to = perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    corrected += self._sample(ran_to - ran_from)
                    os.kill(proc.pid, signal.SIGCONT)
                    ran_from = perf_counter()
                    stopped += ran_from - ran_to
                ran_to = perf_counter()
                os.close(pidfd)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            corrected += self._sample(ran_to - ran_from)
            out.seek(0)
            return (proc.returncode, out.read(), ran_to - t0 - stopped, corrected,
                    usage.ru_maxrss / 1024)


def child(*args):
    return [sys.executable, str(BENCH / "child.py"), *map(str, args)]


def last_json(out):
    return json.loads(out.decode().strip().splitlines()[-1])


def check_output(workload, out):
    """Why an untraced run's output is wrong, or None if it is right."""
    try:
        return _check_output(workload, out)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _check_output(workload, out):
    if workload == "sweep18":
        res = last_json(out)
        if res["documents"] != SWEEP_GRADINGS:
            return f"{res['documents']} documents, expected {SWEEP_GRADINGS}"
        if res["failed_checks"]:
            return f"{res['failed_checks']} FAIL checks"
        digest = res["digest"]
    else:
        argv, _ = CLI[workload]
        if argv[0] == "export":
            failed = sum(not c["passed"] for c in json.loads(out)["checks"])
            if failed:
                return f"{failed} FAIL checks"
        digest = hashlib.sha256(out).hexdigest()
    return digest_mismatch(workload, digest)


def check_trace(workload, out, layers):
    """Fill layers from a traced run's output; why it is wrong, or None."""
    try:
        res = last_json(out)
        unknown = set(res["metrics"]) - set(layers)
        if unknown:
            return f"metrics missing from BENCHMARK.json: {sorted(unknown)}"
        layers.update(res["metrics"])
        if res["failed_checks"]:
            return f"{res['failed_checks']} FAIL checks"
        return digest_mismatch(workload, res["digest"])
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def digest_mismatch(workload, digest):
    expected = SWEEP_DIGEST if workload == "sweep18" else CLI[workload][1]
    return None if digest == expected else f"output digest {digest} != {expected}"


class Ops:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, what, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "values": values}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(core, workload, seed, seconds, trace, units):
    """One run of one workload: its record, with the result's metrics under "metrics"."""
    ops = Ops()
    code, *_ = core.run(child("setup", workload))  # untimed: writes .pyc, warms the page cache
    ops.record("warm-up", code and f"exit {code}")
    setup, setup_walls = [], []
    for _ in range(SETUP_RUNS):
        code, _, wall, ref_wall, _ = core.run(child("setup", workload))
        ops.record("setup", code and f"exit {code}")
        setup.append(ref_wall)
        setup_walls.append(wall)

    argv = child("sweep", seed) if workload == "sweep18" else [
        sys.executable, "-m", "borelab", *CLI[workload][0]]
    walls, ref_walls, rss = [], [], []
    start = perf_counter()
    while True:
        rep_start = perf_counter()
        code, out, wall, ref_wall, peak = core.run(argv)
        ops.record(workload, f"exit {code}" if code else check_output(workload, out))
        walls.append(wall)
        ref_walls.append(ref_wall)
        rss.append(peak)
        now = perf_counter()
        # Start another repetition only if it should end within the run's seconds.
        if now - start + (now - rep_start) > seconds:
            break
    samples = {"wall_s": summary(ref_walls), "setup_s": summary(setup), "peak_rss_mb": summary(rss)}
    metrics = {name: samples[name]["median"] for name in samples}
    samples["uncorrected_wall_s"] = summary(walls)
    samples["uncorrected_setup_s"] = summary(setup_walls)

    if trace:
        layers = {name: 0 for name in units["per_layer"]}
        # Not stopped for samples: that would add the stops to its own timings.
        code, out, _, ref_wall, _ = core.run(child("trace", workload, seed), sample=False)
        problem = f"exit {code}" if code else check_trace(workload, out, layers)
        layers["trace.overhead_s"] = ref_wall - metrics["wall_s"]
        ops.record(f"{workload} traced", problem)

    for name, s in samples.items():
        print(f"{workload:14s} {name:18s} {s['median']:12.6f} {units['end_to_end'].get(name, 's'):3s}"
              f"  n={s['n']} q1={s['q1']:.6f} q3={s['q3']:.6f}")
    print(f"{workload:14s} {'fail_ratio':18s} {ops.failed / ops.attempted:12.6f}"
          f"      {ops.failed}/{ops.attempted}")
    if trace:
        for name, value in layers.items():
            print(f"{workload:14s} {name:42s} {value:14.6f} {units['per_layer'][name]}")
        metrics = layers
    return {
        "workload": workload,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "samples": samples,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "borelab" / "__init__.py").is_file():
        sys.exit(f"error: no borelab sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}

    workloads = NAMES if args.workload == "all" else [args.workload]
    nproc = len(os.sched_getaffinity(0))
    core = Core()
    runs = [measure(core, w, args.seed, args.seconds, args.trace, units) for w in workloads]
    print(json.dumps({
        "env": {
            "python": platform.python_version(),
            "nproc": nproc,
            "platform": platform.platform(),
            "commit": git_commit(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_s": summary(core.refs),
        "runs": runs,
    }))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else run["workload"] + "."
        for name, value in run["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[kind][name]}
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": sum(run["attempted"] for run in runs),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
