"""Workload pools, command lines and output checks for the cubesum benchmark.

A pool entry is a key such as "solve:103:1" (solve p=103 at power 1) or
"fseries+:31:2" (fseries p=31 --power 2 --sign +).  The reference file holds
the expected output of every pool entry; a command counts as verified only
when its exit code is 0 and its output matches the reference exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")

SERIES_TERMS = 100

# Eligible primes (p = 4, 7 mod 9) in each workload's range.
P1_POOL = (103, 139, 151, 157, 193, 211, 223, 229, 241, 277, 283, 313,
           331, 337, 349, 367, 373, 409, 421, 439, 457, 463, 499)
P2_POOL = (61, 67, 79, 97, 103, 139, 151, 157)
SERIES_PRIMES = (7, 13, 31, 43, 61, 67, 79, 97)
SERIES_KINDS = ("yseries", "fseries+", "fseries-")

# The timed set is the part of a pool that one run issues, in a seeded order.
# It is fixed so that runs with different seeds do the same work and their
# figures compare; the rest of each pool is still checked by the reference
# generator.  A benchmark round runs every workload 22 times, so a pass is
# sized to a few seconds for p1 and series (several passes, and so several
# samples of each command, per run) and to one pass of about 20 s for p2.
# p1: eight primes that win at 192 bits, 7.8k to 102k terms; 367 and 421
# (384 bits) would take half of a pass.  p2: 61^2, 79^2 and 97^2 win at 384
# bits after failed attempts (79^2 and 97^2 mostly on tau sites), 67^2 needs
# no retry.  139^2 and 157^2 (768 bits) are left out: with one pass a run,
# their times moved op_p50_s by 15 % between runs of the same code, and
# 103^2 (17 s) and 151^2 (32 s) alone would exceed a pass.  series: two
# (p, i) pairs, each dumped by all three commands; p = 7 is left out because
# its fseries runs are cheaper than the rest and put op_p50_s on a step.
P1_TIMED = (103, 157, 211, 223, 283, 337, 409, 439)
P2_TIMED = (61, 67, 79, 97)
SERIES_TIMED = ((31, 1), (97, 2))

WORKLOADS = {
    "p1-cold": {
        "pool": [f"solve:{p}:1" for p in P1_POOL],
        "timed": [f"solve:{p}:1" for p in P1_TIMED],
        "smoke": ["solve:103:1"],
        "warmup": "solve:103:1",
        "cache": "fresh",
    },
    "p1-warm": {
        "pool": [f"solve:{p}:1" for p in P1_POOL],
        "timed": [f"solve:{p}:1" for p in P1_TIMED],
        "smoke": ["solve:103:1"],
        "warmup": "solve:103:1",
        "cache": "shared",
    },
    "p2-retry": {
        "pool": [f"solve:{p}:2" for p in P2_POOL],
        "timed": [f"solve:{p}:2" for p in P2_TIMED],
        "smoke": ["solve:67:2"],
        "warmup": "solve:67:2",
        "cache": "fresh",
    },
    "series": {
        "pool": [f"{k}:{p}:{i}" for p in SERIES_PRIMES for i in (1, 2) for k in SERIES_KINDS],
        "timed": [f"{k}:{p}:{i}" for p, i in SERIES_TIMED for k in SERIES_KINDS],
        "smoke": ["yseries:7:1"],
        "warmup": "yseries:7:1",
        "cache": None,
    },
}


def all_pool_keys():
    return list(dict.fromkeys(key for spec in WORKLOADS.values() for key in spec["pool"]))


def parse_key(key):
    kind, p, i = key.split(":")
    return kind, int(p), int(i)


def argv_for(key, cache_dir=None):
    """The cubesum command line for a pool entry."""
    kind, p, i = parse_key(key)
    if kind == "solve":
        if cache_dir is None:
            raise ValueError("solve commands need a cache directory")
        return ["solve", str(p), "--power", str(i), "--json", "--cache-dir", cache_dir]
    terms = ["--power", str(i), "--terms", str(SERIES_TERMS)]
    if kind == "yseries":
        return ["yseries", str(p)] + terms
    if kind in ("fseries+", "fseries-"):
        return ["fseries", str(p)] + terms + ["--sign", kind[-1]]
    raise ValueError(f"unknown command kind {kind!r}")


def order(keys, rng):
    """One pass over the timed set in an order drawn from rng."""
    keys = list(keys)
    rng.shuffle(keys)
    return keys


def make_rng(seed, pass_index):
    return random.Random(f"{seed}:{pass_index}")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def observe(key, rc, stdout):
    """What the reference records for one command: (u, v) for solve, the
    stdout digest for series dumps.  Raises ValueError on unusable output."""
    kind, p, i = parse_key(key)
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    if kind != "solve":
        return {"sha256": digest(stdout), "lines": len(stdout.splitlines())}
    rep = json.loads(stdout)
    if rep.get("p") != p or rep.get("i") != i:
        raise ValueError(f"report is for p={rep.get('p')} i={rep.get('i')}")
    u, v = rep["cube_sum"]["u"], rep["cube_sum"]["v"]
    if Fraction(u) ** 3 + Fraction(v) ** 3 != Fraction(p) ** i:
        raise ValueError(f"u^3 + v^3 != {p}^{i} for u={u} v={v}")
    if not rep["checks"]["cube_identity"]["ok"]:
        raise ValueError("report says the cube identity failed")
    return {"u": u, "v": v, "bits": rep["bits"], "terms": rep["terms"], "site": rep["site"]}


def check(key, rc, stdout, reference):
    """None when the command's output is verified, else the reason it is not.

    The cube identity is recomputed here in exact rationals, independently
    of the program's own check, before (u, v) is compared to the reference.
    """
    want = reference.get(key)
    if want is None or "error" in want:
        return f"{key}: no reference output"
    try:
        got = observe(key, rc, stdout)
    except (ValueError, KeyError, TypeError) as e:
        return f"{key}: {e}"
    fields = ("u", "v") if "u" in want else ("sha256",)
    for f in fields:
        if got[f] != want[f]:
            return f"{key}: {f} differs from the reference"
    return None


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)["entries"]


def invoke(main, argv):
    """Run cubesum's CLI in-process: (exit code, stdout, seconds).

    An exception that escapes main counts as exit code -1.
    """
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except Exception as e:  # a crash is a failed command, not a benchmark error
        rc = -1
        buf.write(f"{type(e).__name__}: {e}")
    return rc, buf.getvalue(), time.perf_counter() - t0


def git_commit(root=ROOT):
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(src=SRC):
    """sha256 over the program's source files, for runs outside git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(seed=None, traced=None):
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "traced": traced,
    }
