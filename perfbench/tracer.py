"""Per-layer tracing for the cubesum benchmark.

Tracer.install() wraps public functions of cubesum's modules, rebinding
every module global that refers to the original, so calls between modules go
through the wrapper.  Each wrapped call records a span (id, name, start, end,
parent span, command id) in memory; counters are taken at the same
boundaries.  A layer's self time is its spans' durations minus the time
covered by their child spans.  uninstall() restores the originals.

An attempt of the solve pipeline is one call of parametrize._attempt_site,
which tries one candidate site at one precision: it wins when it returns, and
fails with the class of the exception that leaves it.  An exception raised
and caught inside the attempt does not count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("eisenstein", "heckeform", "cmpoint", "analytic", "qseries", "curves",
           "parametrize", "cli")

# (module, attribute, layer metric that receives the span's self time)
SPANS = (
    ("eisenstein", "split_prime", "eisenstein.split_prime_ms"),
    ("heckeform", "qexp_coefficients", "heckeform.coeff_ms"),
    ("heckeform", "build_form", "heckeform.coeff_ms"),
    ("heckeform", "HeckeForm.conjugate_form", "heckeform.conjugate_ms"),
    ("cli", "read_cache", "cli.cache_read_ms"),
    ("cli", "write_cache", "cli.cache_write_ms"),
    ("cli", "build_report", "cli.report_ms"),
    ("cli", "series_lines", "cli.report_ms"),
    ("cmpoint", "candidate_points", "cmpoint.candidates_ms"),
    ("analytic", "eval_z", "analytic.eval_z_ms"),
    ("analytic", "wp_eval", "analytic.wp_ms"),
    ("analytic", "lattice_of_curve", "analytic.lattice_ms"),
    ("analytic", "measure_beta", "analytic.fricke_ms"),
    ("analytic", "fricke_constant", "analytic.fricke_ms"),
    ("analytic", "eval_f", "analytic.fricke_ms"),
    ("parametrize", "solve_pipeline", "parametrize.pipeline_ms"),
    ("parametrize", "_attempt_site", "parametrize.pipeline_ms"),
    ("parametrize", "recognize", "parametrize.recognize_ms"),
    ("parametrize", "twist_and_combine", "curves.twist_ms"),
    ("parametrize", "twist_point", "curves.twist_ms"),
    ("parametrize", "descend", "curves.descent_ms"),
    ("curves", "nontorsion_certificate", "curves.certificate_ms"),
    ("curves", "is_nontorsion", "curves.certificate_ms"),
    ("curves", "isogeny_to_432", "curves.isogeny_ms"),
    ("curves", "to_cube_sum", "curves.isogeny_ms"),
    ("qseries", "y_series", "qseries.y_series_ms"),
    ("qseries", "z_series", "qseries.y_series_ms"),
    ("qseries", "f_plus_minus_series", "qseries.f_series_ms"),
    ("qseries", "cube_root_series", "qseries.cube_root_ms"),
    ("qseries", "cube_root_in_qomega", "qseries.cube_root_ms"),
)

# Exceptions solve_pipeline catches and retries on, as of the defining commit.
FAIL_CLASSES = ("RecognitionFailed", "EvalResidualTooLarge", "DescentFailed",
                "TermsCapExceeded")

COMMAND = "command"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, command id)
        self.counts = Counter()
        self.attempts = []  # one dict per _attempt_site call
        self._stack = []
        self._next_id = 0
        self._command = None
        self._patches = []
        self._groups = {COMMAND: "outside"}
        self._mods = {}
        self.missing = []  # wrapped names the program no longer has

    # ------------------------------------------------------------ install

    def install(self):
        self._mods = {m: importlib.import_module(f"cubesum.{m}") for m in MODULES}
        hooks = {
            "qexp_coefficients": self._after_coefficients,
            "read_cache": self._after_read_cache,
            "write_cache": self._after_write_cache,
            "eval_z": self._after_eval_z,
            "series_lines": self._after_series_lines,
            "_attempt_site": self._after_attempt,
        }
        for mod, attr, group in SPANS:
            try:
                owner, name, original = self._resolve(mod, attr)
            except AttributeError:
                self.missing.append(f"{mod}.{attr}")
                continue
            self._groups[f"{mod}.{attr}"] = group
            wrapper = self._wrap(f"{mod}.{attr}", original, hooks.get(name))
            if owner is self._mods[mod]:
                self._rebind_everywhere(original, wrapper)
            else:
                self._set(owner, name, wrapper)
        fq2 = self._mods["eisenstein"].Fq2
        self._set(fq2, "__init__", self._counting("eisenstein.fq2_inits", fq2.__init__))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _resolve(self, mod, attr):
        owner = self._mods[mod]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "cubesum" and not name.startswith("cubesum."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _counting(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn, after):
        tracer = self
        sig = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            stack.append(sid)
            t0 = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer._command))
                if after:
                    after(bound, result, exc, t0, t1)

        return wrapper

    # ------------------------------------------------------------- commands

    def command(self, fn, *args):
        """Run fn(*args) inside the root span of one benchmark command; the
        command id is the root span's id."""
        sid = self._next_id
        self._next_id += 1
        self._command = sid
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, COMMAND, t0, t1, None, sid))
            self._command = None

    # ---------------------------------------------------------------- hooks

    def _after_coefficients(self, a, result, exc, t0, t1):
        self.counts["heckeform.coeff_terms"] += a["M"]

    def _cache_size(self, a):
        path = self._mods["cli"].cache_path(a["cache_dir"], a["p"], a["i"])
        return os.path.getsize(path) if os.path.exists(path) else 0

    def _after_read_cache(self, a, result, exc, t0, t1):
        if result is None:
            self.counts["cli.cache_misses"] += 1
        else:
            self.counts["cli.cache_hits"] += 1
            self.counts["cli.cache_bytes"] += self._cache_size(a)

    def _after_write_cache(self, a, result, exc, t0, t1):
        if exc is None:
            self.counts["cli.cache_bytes"] += self._cache_size(a)

    def _after_eval_z(self, a, result, exc, t0, t1):
        if exc is not None:
            return
        an = self._mods["analytic"]
        site, prec = a["site"], a["prec"]
        with an.mp.workprec(prec + an.GUARD_BITS):
            tau = site.to_mpc(an.mp) if hasattr(site, "to_mpc") else an.mp.mpc(site)
            terms = an.terms_needed(tau.imag, prec)
        self.counts["analytic.terms_summed"] += terms
        self.counts["analytic.term_bits"] += terms * prec

    def _after_series_lines(self, a, result, exc, t0, t1):
        if exc is None:
            self.counts["qseries.terms_out"] += len(result)

    def _after_attempt(self, a, result, exc, t0, t1):
        fail = None
        if exc is not None:
            fail = type(exc).__name__ if type(exc).__name__ in FAIL_CLASSES else "other"
        self.attempts.append({"site": a["cand"].site.label(), "bits": a["prec"],
                              "won": exc is None, "fail": fail, "ms": 1000 * (t1 - t0)})

    # -------------------------------------------------------------- results

    def self_ms(self):
        """Self time in ms per layer metric, including 'outside' (time in a
        command's root span that no layer span covers)."""
        child = defaultdict(float)
        for sid, name, t0, t1, parent, cmd in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, name, t0, t1, parent, cmd in self.spans:
            out[self._groups[name]] += 1000 * (t1 - t0 - child[sid])
        return out

    def command_ms(self):
        return 1000 * sum(t1 - t0 for _, name, t0, t1, _, _ in self.spans if name == COMMAND)

    def calls(self, name):
        return sum(1 for s in self.spans if s[1] == name)

    def layer_metrics(self, passes, ops_untraced, ops_traced):
        """Per-layer metrics per pass over the timed set."""
        ms = self.self_ms()
        cmd_ms = self.command_ms()
        atts = self.attempts
        failed = [a for a in atts if not a["won"]]
        wins = [a for a in atts if a["won"]]
        wasted = sum(a["ms"] for a in failed)
        c = self.counts
        eval_ms = ms["analytic.eval_z_ms"]
        values = {
            "eisenstein.split_prime_calls": self.calls("eisenstein.split_prime") / passes,
            "eisenstein.split_prime_ms": ms["eisenstein.split_prime_ms"] / passes,
            "eisenstein.fq2_inits": c["eisenstein.fq2_inits"] / passes,
            "heckeform.coeff_ms": ms["heckeform.coeff_ms"] / passes,
            "heckeform.coeff_calls": self.calls("heckeform.qexp_coefficients") / passes,
            "heckeform.coeff_terms": c["heckeform.coeff_terms"] / passes,
            "heckeform.conjugate_ms": ms["heckeform.conjugate_ms"] / passes,
            "cli.cache_read_ms": ms["cli.cache_read_ms"] / passes,
            "cli.cache_write_ms": ms["cli.cache_write_ms"] / passes,
            "cli.cache_hits": c["cli.cache_hits"] / passes,
            "cli.cache_misses": c["cli.cache_misses"] / passes,
            "cli.cache_bytes": c["cli.cache_bytes"] / passes,
            "cli.report_ms": ms["cli.report_ms"] / passes,
            "cmpoint.candidates_ms": ms["cmpoint.candidates_ms"] / passes,
            "analytic.eval_z_ms": eval_ms / passes,
            "analytic.eval_z_calls": self.calls("analytic.eval_z") / passes,
            "analytic.terms_summed": c["analytic.terms_summed"] / passes,
            "analytic.term_bits": c["analytic.term_bits"] / passes,
            "analytic.term_bits_per_s":
                c["analytic.term_bits"] / (eval_ms / 1000) if eval_ms else 0.0,
            "analytic.wp_ms": ms["analytic.wp_ms"] / passes,
            "analytic.lattice_ms": ms["analytic.lattice_ms"] / passes,
            "analytic.fricke_ms": ms["analytic.fricke_ms"] / passes,
            "parametrize.attempts": len(atts) / passes,
            "parametrize.failed_attempts": len(failed) / passes,
            **{f"parametrize.fail.{k}": sum(a["fail"] == k for a in failed) / passes
               for k in FAIL_CLASSES + ("other",)},
            "parametrize.useful_attempt_ratio": len(wins) / len(atts) if atts else 0.0,
            "parametrize.wasted_ms": wasted / passes,
            "parametrize.wasted_frac": wasted / cmd_ms if cmd_ms else 0.0,
            "parametrize.win_bits":
                sum(a["bits"] for a in wins) / len(wins) if wins else 0.0,
            "parametrize.recognize_ms": ms["parametrize.recognize_ms"] / passes,
            "parametrize.pipeline_ms": ms["parametrize.pipeline_ms"] / passes,
            "curves.twist_ms": ms["curves.twist_ms"] / passes,
            "curves.descent_ms": ms["curves.descent_ms"] / passes,
            "curves.certificate_ms": ms["curves.certificate_ms"] / passes,
            "curves.isogeny_ms": ms["curves.isogeny_ms"] / passes,
            "qseries.y_series_ms": ms["qseries.y_series_ms"] / passes,
            "qseries.f_series_ms": ms["qseries.f_series_ms"] / passes,
            "qseries.cube_root_ms": ms["qseries.cube_root_ms"] / passes,
            "qseries.terms_out": c["qseries.terms_out"] / passes,
            "trace.command_ms": cmd_ms / passes,
            "trace.outside_frac": ms["outside"] / cmd_ms if cmd_ms else 0.0,
            "trace.overhead_frac": 1 - ops_traced / ops_untraced if ops_untraced else 0.0,
        }
        return values

    def write(self, path):
        """Write every span, one JSON list per line, then the attempts."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "command"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
            fh.write(json.dumps({"attempts": self.attempts}))
            fh.write("\n")
