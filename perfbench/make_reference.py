"""Regenerate reference.json: the expected output of every pool entry.

Run from the repository root:  python3 perfbench/make_reference.py
It solves or dumps each pool entry once with an empty coefficient cache and
records (u, v) for solve and the stdout digest for series dumps.  An entry
that fails is recorded with its error, not dropped; the benchmark counts
every command on such an entry as failed.  Takes about three minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import workloads as wl


def main():
    sys.path.insert(0, wl.SRC)
    from cubesum.cli import main as cubesum_main

    os.makedirs(wl.OUT, exist_ok=True)
    entries, failures = {}, []
    for key in wl.all_pool_keys():
        work = tempfile.mkdtemp(dir=wl.OUT, prefix="ref-")
        try:
            rc, out, secs = wl.invoke(cubesum_main, wl.argv_for(key, os.path.join(work, "cache")))
        finally:
            shutil.rmtree(work)
        try:
            entry = wl.observe(key, rc, out)
        except (ValueError, KeyError, TypeError) as e:
            entry = {"error": f"{e}; output: {out[-200:]}"}
            failures.append(key)
        entry["seconds"] = round(secs, 2)
        entries[key] = entry
        print(key, entry.get("error", "ok"), f"{secs:.2f}s", flush=True)
    doc = {"environment": wl.environment(), "failures": failures, "entries": entries}
    with open(wl.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(entries)} entries, {len(failures)} failed: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
