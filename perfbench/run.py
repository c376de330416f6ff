"""cubesum benchmark: closed-loop CLI workloads with exact output checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload p1-cold --seed 1 --seconds 20 --trace 0

One client issues one command at a time to cubesum.cli.main in this
process, in a seeded order, in whole passes over the workload's timed set
for about --seconds.  Every command's output is checked against
reference.json.  The last stdout line is the JSON result; with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced pass (measured after an untraced pass of the same commands).

Times are reported at a reference host speed: each command's wall time is
scaled by CAL_REF_S over the mean time calibrate() takes right before it,
every PROBE_PERIOD_S during it and right after it.  On a shared 2-vCPU host
the speed of the same code drifts by 20-40 % within minutes; the scaled
times drift much less.  Raw wall times are kept in the result file and the
summary line.
"""

import time

START = time.perf_counter()  # set-up is measured from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402

from mpmath import mp  # noqa: E402

import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
CAL_TERMS = 1500
# calibrate()'s median on the host the benchmark was defined on (2 vCPUs,
# Python 3.11.7); a time at reference speed reads as a time on that host.
CAL_REF_S = 0.025
PROBE_PERIOD_S = 0.5


def calibrate():
    """Seconds a fixed exact-rational sum and a fixed 416-bit mpmath q-sum
    take now: a probe of the host's current speed for code like cubesum's
    sieve, series and q-sum.  (A plain integer loop, or either part alone,
    tracked the four workloads' speed changes less well.)  The collector is
    off meanwhile, so that no collection walks the program's heap and the
    probe's time does not depend on it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for k in range(1, CAL_TERMS):
            s += Fraction(k % 97, 3 * k + 1)
        with mp.workprec(416):
            x = mp.mpc(mp.mpf(1) / 3, mp.mpf(2) / 7)
            q = mp.mpc(mp.mpf(1) / 5, mp.mpf(-1) / 11)
            acc = mp.mpc(0)
            for k in range(1, CAL_TERMS // 2):
                x *= q
                acc += x / k
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Runs calibrate() every PROBE_PERIOD_S while a command runs, from a
    SIGALRM handler in this same thread, so that a long command's time is
    scaled by the speed of the vCPU it ran on, during it; the time spent
    probing is kept in `spent`, to be taken off the command's wall time."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def plain(invoke, main, argv):
    return invoke(main, argv)


class Run:
    """One benchmark run: its work directory, reference and outcomes."""

    def __init__(self, args, reference, work):
        self.args = args
        self.spec = wl.WORKLOADS[args.workload]
        self.main = None  # cubesum.cli.main, imported by set_up()
        self.reference = reference
        self.work = work
        self.shared_cache = os.path.join(work, "cache")
        self.failures = []
        self.log = []  # one dict per timed command
        self.imports_s = time.perf_counter() - START
        self.cal = calibrate()  # the latest speed probe

    def argv(self, key, fresh=False):
        """The command line; solve gets a fresh empty cache directory unless
        the workload shares one cache across its commands."""
        if self.spec["cache"] is None:
            return wl.argv_for(key)
        if self.spec["cache"] == "shared" and not fresh:
            return wl.argv_for(key, self.shared_cache)
        return wl.argv_for(key, tempfile.mkdtemp(dir=self.work, prefix="cache-"))

    def at_reference_speed(self, secs, during=()):
        """Scale a wall time measured since the latest probe by the host
        speed probed before, during and after it."""
        before, self.cal = self.cal, calibrate()
        probes = [before, *during, self.cal]
        return secs * CAL_REF_S / (sum(probes) / len(probes))

    def verify(self, key, argv, rc, out):
        """Drop the command's fresh cache and check its output."""
        if argv[-1] != self.shared_cache and "--cache-dir" in argv:
            shutil.rmtree(argv[-1], ignore_errors=True)
        reason = wl.check(key, rc, out, self.reference)
        if reason is not None:
            self.failures.append(reason)
        return reason is None

    def set_up(self, key):
        """One fresh set-up of the program in this process: drop cubesum's
        modules, import it anew (so that its module-level work is done
        again) and run key in an empty cache.  Reference-speed seconds."""
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            for name in [m for m in sys.modules if m.split(".")[0] == "cubesum"]:
                del sys.modules[name]
            from cubesum.cli import main

            self.main = main
            argv = self.argv(key, fresh=True)
            rc, out, _ = wl.invoke(main, argv)
            secs = time.perf_counter() - t0
        ref_secs = self.at_reference_speed(secs - probe.spent, probe.samples)
        self.verify(key, argv, rc, out)
        return ref_secs

    def one(self, key, call=plain):
        """Issue one command and check it: (wall s, reference s, verified)."""
        argv = self.argv(key)
        with SpeedProbe() as probe:
            rc, out, secs = call(wl.invoke, self.main, argv)
        secs -= probe.spent
        ref_secs = self.at_reference_speed(secs, probe.samples)
        return secs, ref_secs, self.verify(key, argv, rc, out)

    def passes(self, keys, call=plain):
        """Whole passes over keys, so that every run does the same work per
        pass; a new pass starts only while the run would end nearer to
        --seconds with it than without it (one pass in smoke mode).
        Returns (the passes' commands, number of passes, elapsed seconds)."""
        done, n = [], 0
        t0 = time.perf_counter()
        while True:
            for key in wl.order(keys, wl.make_rng(self.args.seed, n)):
                secs, ref_secs, ok = self.one(key, call)
                done.append({"key": key, "pass": n, "traced": call is not plain,
                             "wall_s": secs, "ref_s": ref_secs, "verified": ok})
            n += 1
            elapsed = time.perf_counter() - t0
            if self.args.smoke or elapsed + elapsed / n / 2 >= self.args.seconds:
                self.log += done
                return done, n, elapsed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one small command instead of the timed set")
    return ap.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def bench(args, run):
    spec = run.spec
    keys = spec["smoke"] if args.smoke else spec["timed"]

    # set-up: the imports of the benchmark and its libraries (once, from the
    # top of this file), the median of SETUP_REPEATS fresh set-ups of the
    # program, and for a warm workload the cache prefill, which runs every
    # timed command once
    setup_s = run.imports_s * CAL_REF_S / run.cal
    set_ups = [run.set_up(spec["warmup"]) for _ in range(SETUP_REPEATS)]
    setup_s += statistics.median(set_ups)
    gc.collect()  # free the dropped copies of cubesum's modules now, not at a random later point
    if spec["cache"] == "shared":
        setup_s += sum(run.one(key)[1] for key in keys)

    untraced, passes, elapsed = run.passes(keys)
    tracer = None
    if args.trace == 1:
        from tracer import Tracer

        tracer = Tracer().install()
        try:
            traced, t_passes, t_elapsed = run.passes(keys, tracer.command)
        finally:
            tracer.uninstall()

    def figures(done):
        """(attempted, verified, ops_per_min, op_p50_s) at reference speed."""
        ref = [e["ref_s"] for e in done]
        verified = sum(e["verified"] for e in done)
        return len(done), verified, 60 * verified / sum(ref), statistics.median(ref)

    attempted, verified, ops, p50 = figures(untraced)
    wall = [e["wall_s"] for e in untraced]
    summary = {"workload": args.workload, "traced": args.trace, "passes": passes,
               "elapsed_s": elapsed, "attempted": attempted, "verified": verified,
               "wall_ops_per_min": 60 * verified / sum(wall),
               "wall_op_p50_s": statistics.median(wall), "set_ups_s": set_ups,
               "commands": run.log}
    if tracer is None:
        metrics = {
            "ops_per_min": metric(ops, "1/min"),
            "op_p50_s": metric(p50, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"{args.workload}: {verified}/{attempted} verified in {passes} pass(es), "
              f"{elapsed:.2f} s; op_p50_s over n={attempted}; "
              f"failed_frac {(attempted - verified) / attempted:.4f}; wall time: "
              f"{summary['wall_ops_per_min']:.2f}/min, p50 {summary['wall_op_p50_s']:.3f} s")
    else:
        t_attempted, t_verified, t_ops, _ = figures(traced)
        attempted += t_attempted
        verified += t_verified
        if tracer.missing:
            print("not traced (absent from the program): " + ", ".join(tracer.missing),
                  file=sys.stderr)
        layers = tracer.layer_metrics(t_passes, ops, t_ops)
        units = layer_units()
        metrics = {name: metric(layers[name], units[name]) for name in units}
        tracer.write(os.path.join(wl.OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        summary["traced_passes"] = t_passes
        summary["not_traced"] = tracer.missing
        summary["attempts"] = tracer.attempts
        print(f"{args.workload} traced: {t_verified}/{t_attempted} verified in "
              f"{t_passes} pass(es), {t_elapsed:.2f} s; untraced {elapsed:.2f} s")
    return metrics, attempted, verified, summary


def layer_units():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize > 0:
        print("error: refusing to run under python -O: cubesum's own asserts "
              "would be stripped, so this would measure a different program", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(wl.SRC, "cubesum", "cli.py")):
        print(f"error: cubesum sources not found under {wl.SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(wl.REFERENCE):
        print(f"error: reference outputs not found at {wl.REFERENCE}", file=sys.stderr)
        return 2
    reference = wl.load_reference()
    sys.path.insert(0, wl.SRC)

    os.makedirs(wl.OUT, exist_ok=True)
    work = tempfile.mkdtemp(dir=wl.OUT, prefix=f"work-{args.workload}-")
    try:
        run = Run(args, reference, work)
        metrics, attempted, verified, summary = bench(args, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = attempted - verified
    correct = failed == 0 and not run.failures
    env = wl.environment(seed=args.seed, traced=bool(args.trace))
    for reason in run.failures:
        print(f"FAILED {reason}")
    print("environment " + json.dumps(env, sort_keys=True))
    record = {"environment": env, "summary": summary, "failures": run.failures,
              "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(wl.OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
