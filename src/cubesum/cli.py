"""Command-line entry point, coefficient cache, and run reports.

Subcommands: solve (the full pipeline, exit 0 only on an exactly verified
cube sum), qexp / yseries / fseries (exact coefficient dumps), verify (the
built-in worked-example fixture suite).  Exit codes: 0 ok, 1 fixture
failures, 2 bad input, 3 precision exhausted, 4 internal check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import zlib
from array import array
from dataclasses import asdict, dataclass

from .eisenstein import QOmega, is_prime_int
from .heckeform import build_form, conductor_and_level, qexp_coefficients, spot_check

EXIT_OK = 0
EXIT_FIXTURE_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4

CACHE_ENV = "CUBESUM_CACHE"
CACHE_MAGIC = "SYLV2"


# ------------------------------------------------------------------- cache


def default_cache_dir():
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "cubesum")


def cache_path(cache_dir, p, i):
    return os.path.join(cache_dir, f"qexp_p{p}_i{i}.bin")


def coefficient_lines(coeffs):
    """One line 'n a b' per nonzero a_n = a + b*w, n >= 1, of an (alpha, beta) pair."""
    return [f"{n} {a} {b}" for n, a, b in zip(range(len(coeffs[0])), *coeffs) if (a or b) and n]


def _cache_header(p, i, M, crc):
    _, N = conductor_and_level(p, i)
    return f"{CACHE_MAGIC} p={p} i={i} N={N} M={M} order={sys.byteorder} crc={crc:08x}\n"


def write_cache(cache_dir, p, i, coeffs):
    """Binary format: the ASCII header line 'SYLV2 p=<p> i=<i> N=<N> M=<M>
    order=<byte order> crc=<crc32 of the body, hex>', then alpha[1::3] and
    beta[1::3] as native int64 (K = (M + 2) // 3 entries each); atomic via
    rename.  a_n is supported on n = 1 mod 3, so only those slots are
    stored, and a nonzero entry anywhere else raises ValueError rather than
    be dropped."""
    alpha, beta = coeffs
    M = len(alpha) - 1
    for c in coeffs:
        for r in (0, 2):
            off = c[r::3]
            if off.count(0) != len(off):  # count(0) outruns any() on mostly-zero lists
                n = next(n for n in range(r, M + 1, 3) if c[n])
                raise ValueError(f"a_{n} = {alpha[n]}+{beta[n]}*w is nonzero off n = 1 mod 3")
    halves = array("q", alpha[1::3]), array("q", beta[1::3])
    header = _cache_header(p, i, M, zlib.crc32(halves[1], zlib.crc32(halves[0])))
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".qexp_tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header.encode("ascii"))
            for half in halves:
                half.tofile(fh)
        os.replace(tmp, cache_path(cache_dir, p, i))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_cache(cache_dir, p, i):
    """The stored prefix a_0..a_M as an (alpha, beta) pair, or None when
    absent, of another p, i or byte order, not exactly header + 16 K bytes
    long, failing its crc, or failing spot_check (a corrupt or stale cache
    reads as a miss and gets rewritten).  The length is checked before
    anything is allocated."""
    path = cache_path(cache_dir, p, i)
    try:
        with open(path, "rb") as fh:
            line = fh.readline(256)
            fields = dict(kv.split("=") for kv in line.decode("ascii").split()[1:])
            M, want = int(fields["M"]), int(fields["crc"], 16)
            K = (M + 2) // 3
            if line != _cache_header(p, i, M, want).encode("ascii"):
                return None
            if os.fstat(fh.fileno()).st_size != len(line) + 16 * K:
                return None
            crc, coeffs = 0, []
            for _ in range(2):
                half = array("q")
                half.fromfile(fh, K)
                crc = zlib.crc32(half, crc)
                lst = [0] * (M + 1)
                lst[1::3] = half
                coeffs.append(lst)
    except (ValueError, KeyError, OSError, EOFError):
        return None
    coeffs = tuple(coeffs)
    return coeffs if crc == want and spot_check(p, i, coeffs) else None


# ------------------------------------------------------------------ report


def q_str(x):
    """Exact rendering of a + b*w as 'a+b*w' with rational a, b."""
    return str(x if isinstance(x, QOmega) else x.to_q())


def point_str(P):
    if P.is_infinity:
        return "O"
    return f"({q_str(P.x)}, {q_str(P.y)})"


@dataclass
class RunReport:
    p: int
    i: int
    pi: str
    r: int
    t: int
    site: str
    bits: int
    terms: int
    point_K: str
    point_Q: str
    cube_sum: dict
    checks: dict
    timings_ms: dict
    attempts: list  # failed attempts before the win: site, bits, error, message

    def to_dict(self):
        return asdict(self)


def build_report(result):
    return RunReport(
        p=result.p,
        i=result.i,
        pi=q_str(result.split.pi),
        r=result.site.point.r,
        t=result.site.point.t,
        site=result.site.label(),
        bits=result.bits,
        terms=result.terms,
        point_K=point_str(result.point_K),
        point_Q=point_str(result.point_Q),
        cube_sum={"u": str(result.cube.u), "v": str(result.cube.v)},
        checks=result.checks,
        timings_ms=result.timings_ms,
        attempts=result.attempts,
    )


def print_report(rep, as_json):
    if as_json:
        print(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
        return
    print(f"p = {rep.p}, power = {rep.i}  (pi = {rep.pi}, site {rep.site}, r = {rep.r}, t = {rep.t})")
    print(f"  precision {rep.bits} bits, {rep.terms} q-expansion terms")
    print(f"  K-point on E(p^{rep.i}):  {rep.point_K}")
    print(f"  rational point:        {rep.point_Q}")
    u, v = rep.cube_sum["u"], rep.cube_sum["v"]
    print(f"  cube sum:  ({u})^3 + ({v})^3 = {rep.p}^{rep.i}")
    for name, val in rep.checks.items():
        if isinstance(val, dict) and "ok" in val:
            print(f"  check {name}: {'ok' if val['ok'] else 'FAIL'}")


# ----------------------------------------------------------------- solve


class BadInput(ValueError):
    pass


def check_solvable_prime(p):
    if not is_prime_int(p):
        raise BadInput(f"{p} is not prime")
    cls = p % 9
    if cls in (2, 5):
        raise BadInput(
            f"{p} = {cls} mod 9: not a sum of two rational cubes (Sylvester's "
            "classical obstruction); nothing to solve"
        )
    if cls not in (4, 7):
        raise BadInput(
            f"{p} = {cls} mod 9 is outside this construction (it handles "
            "primes congruent to 4 or 7 mod 9)"
        )


def cmd_solve(args):
    from .parametrize import solve_pipeline

    check_solvable_prime(args.p)
    powers = {"1": (1,), "2": (2,), "both": (1, 2)}[args.power]
    reports = []
    for i in powers:
        t0 = time.perf_counter()
        form = build_form(args.p, i, 0, coeffs=read_cache(args.cache_dir, args.p, i))
        loaded = form.terms
        try:
            result = solve_pipeline(args.p, i, bits=args.bits, max_terms=args.max_terms, form=form)
            result.timings_ms["total_ms"] = 1000 * (time.perf_counter() - t0)
            if not result.cube.verify():  # defensive; to_cube_sum checks already
                raise AssertionError("cube identity failed")
        finally:  # also on exit 3, so the computed terms are kept
            if form.terms > loaded:
                try:
                    write_cache(args.cache_dir, args.p, i, (form.alpha, form.beta))
                except OSError as e:  # the solve's own outcome stands
                    print(f"warning: coefficient cache not written: {e}", file=sys.stderr)
        reports.append(build_report(result))
    if args.json:
        payload = [r.to_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2, sort_keys=True))
    else:
        for rep in reports:
            print_report(rep, as_json=False)
    return EXIT_OK


# ------------------------------------------------------------ series dumps


def series_lines(s, lo, hi):
    out = []
    for n in range(lo, hi):
        c = s.coefficient(n)
        if c:
            out.append(f"{n} {c.a} {c.b}")
    return out


def cmd_qexp(args):
    coeffs = qexp_coefficients(args.p, args.power_int, args.terms, conjugate=args.conjugate)
    for line in coefficient_lines(coeffs):
        print(line)
    return EXIT_OK


def cmd_yseries(args):
    from .qseries import y_series

    y = y_series(args.p, args.power_int, args.terms, conjugate=args.conjugate)
    for line in series_lines(y, y.lead, args.terms):
        print(line)
    return EXIT_OK


def cmd_fseries(args):
    from .qseries import f_plus_minus_series

    F = f_plus_minus_series(args.p, args.power_int, args.sign, args.terms)
    for line in series_lines(F, F.lead, args.terms):
        print(line)
    return EXIT_OK


# ----------------------------------------------------------------- verify


def fixture_suite():
    """Named checks pinned to the three worked reference primes."""
    from . import fixtures

    return fixtures.suite()


def cmd_verify(args):
    failures = 0
    for name, fn in fixture_suite():
        t0 = time.perf_counter()
        try:
            fn()
            status = "ok"
        except Exception as e:  # report and continue
            status = f"FAIL ({e})"
            failures += 1
        dt = time.perf_counter() - t0
        print(f"{status:>6}  {name}  [{dt:.2f}s]")
    if failures:
        print(f"{failures} fixture(s) failed")
        return EXIT_FIXTURE_FAIL
    print("all fixtures ok")
    return EXIT_OK


# ------------------------------------------------------------------- main


def _add_common(sp):
    sp.add_argument("p", type=int, help="prime congruent to 4 or 7 mod 9")
    sp.add_argument("--power", default="1", choices=["1", "2"], dest="power")
    sp.add_argument("--terms", type=int, default=50)


def make_parser():
    ap = argparse.ArgumentParser(
        prog="cubesum",
        description="Constructive rational cube sums u^3 + v^3 = p^i for primes p = 4,7 mod 9.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="compute and exactly verify u^3 + v^3 = p^i")
    sp.add_argument("p", type=int)
    sp.add_argument("--power", default="1", choices=["1", "2", "both"])
    sp.add_argument("--bits", type=int, default=192, help="working precision (bits)")
    sp.add_argument("--max-terms", type=int, default=2_000_000, dest="max_terms")
    sp.add_argument("--cache-dir", default=default_cache_dir(), dest="cache_dir")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("qexp", help="dump exact newform coefficients (n a b lines)")
    _add_common(sp)
    sp.add_argument("--conjugate", action="store_true")
    sp.set_defaults(func=cmd_qexp)

    sp = sub.add_parser("yseries", help="dump the exact y(q) series")
    _add_common(sp)
    sp.add_argument("--conjugate", action="store_true")
    sp.set_defaults(func=cmd_yseries)

    sp = sub.add_parser("fseries", help="dump the exact cube-root ratio series F(q)")
    _add_common(sp)
    sp.add_argument("--sign", default="+", choices=["+", "-"])
    sp.set_defaults(func=cmd_fseries)

    sp = sub.add_parser("verify", help="run the built-in worked-example fixture suite")
    sp.add_argument("--quick", action="store_true", help="accepted and ignored: the full suite is fast")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "power") and args.power in ("1", "2"):
        args.power_int = int(args.power)
    try:
        for flag in ("terms", "max_terms", "bits"):
            value = getattr(args, flag, 1)
            if value < 1:
                raise BadInput(f"--{flag.replace('_', '-')} must be positive, not {value}")
        return args.func(args)
    except BadInput as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as e:
        from .parametrize import PrecisionExhausted

        if isinstance(e, PrecisionExhausted):
            print(f"error: precision exhausted: {e}", file=sys.stderr)
            return EXIT_PRECISION
        print(f"error: internal check failed: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
