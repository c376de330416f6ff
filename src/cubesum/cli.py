"""Command-line entry point, coefficient cache, and run reports.

Subcommands: solve (the full pipeline, exit 0 only on an exactly verified
cube sum), qexp / yseries / fseries (exact coefficient dumps), verify (the
built-in worked-example fixture suite).  Exit codes: 0 ok, 1 fixture
failures, 2 bad input, 3 precision exhausted, 4 internal check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import struct
import sys
import time
import zlib
from array import array

from .eisenstein import PrimalityOutOfRange, QOmega, _ratio_str, is_prime_int
from .heckeform import build_form, conductor_and_level, newform_pairs, spot_check

EXIT_OK = 0
EXIT_FIXTURE_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4

CACHE_ENV = "CUBESUM_CACHE"
CACHE_MAGIC = "SYLV3"
CACHE_CHUNK = 4096  # slots per struct.pack call in write_cache


# ------------------------------------------------------------------- cache


def default_cache_dir():
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "cubesum")


def cache_path(cache_dir, p, i):
    return os.path.join(cache_dir, f"qexp_p{p}_i{i}.bin")


def coefficient_lines(coeffs):
    """One line 'n a b' per nonzero a_n = a + b*w of a compact (alpha, beta)
    pair, whose slot k holds n = 3k + 1."""
    return [f"{n} {a} {b}" for n, a, b in zip(range(1, 3 * len(coeffs[0]), 3), *coeffs) if a or b]


def _cache_header(p, i, M, crc, N=None):
    """The header line; N, the level, is computed when not given."""
    if N is None:
        N = conductor_and_level(p, i)[1]
    return f"{CACHE_MAGIC} p={p} i={i} N={N} M={M} order={sys.byteorder} crc={crc:08x}\n"


# a new file, never through a symlink, as tempfile.mkstemp opens it
_TEMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
               | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_BINARY", 0))
_TEMP_TRIES = 100


def _open_temp(cache_dir):
    """(fd, path) of a new file '.qexp_tmp<random hex>' in cache_dir, mode
    0600: one open, and cache_dir is made only when that open finds it
    missing; a name already taken is drawn again."""
    for _ in range(_TEMP_TRIES):
        tmp = os.path.join(cache_dir, f".qexp_tmp{os.urandom(6).hex()}")
        try:
            return os.open(tmp, _TEMP_FLAGS, 0o600), tmp
        except FileNotFoundError:
            os.makedirs(cache_dir, exist_ok=True)
        except FileExistsError:
            pass
    raise FileExistsError(f"no free temporary name in {cache_dir}")


def write_cache(cache_dir, p, i, form):
    """Binary format: the ASCII header line 'SYLV3 p=<p> i=<i> N=<N> M=<M>
    order=<byte order> crc=<crc32 of the body, hex>', then the HeckeForm's
    store b, the K = (M + 2) // 3 slots n = 3k + 1 <= M of the support, as
    native int64; atomic via a temporary file and a rename, the temporary
    file removed if anything fails.  The file is the store's own layout,
    so the list is packed as it is, CACHE_CHUNK slots per call (a long
    store builds no argument tuple of its own length)."""
    b = form.b
    chunks = (b[k : k + CACHE_CHUNK] for k in range(0, len(b), CACHE_CHUNK))
    body = [struct.pack(f"={len(c)}q", *c) for c in chunks]
    crc = 0
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    header = _cache_header(p, i, form.terms, crc, form.N)
    fd, tmp = _open_temp(cache_dir)
    try:
        with open(fd, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.writelines(body)
        os.replace(tmp, cache_path(cache_dir, p, i))
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_cache(cache_dir, p, i):
    """The stored HeckeForm of n <= M, or None when the file is absent, of
    another format (an older magic), p, i or byte order, not exactly header
    + 8 K bytes long, failing its crc, or failing spot_check (a corrupt or
    stale cache reads as a miss and gets rewritten).  The length is checked
    before anything is allocated."""
    path = cache_path(cache_dir, p, i)
    try:
        with open(path, "rb") as fh:
            line = fh.readline(256)
            fields = dict(kv.split("=") for kv in line.decode("ascii").split()[1:])
            M, want = int(fields["M"]), int(fields["crc"], 16)
            K = (M + 2) // 3
            if line != _cache_header(p, i, M, want).encode("ascii"):
                return None
            if os.fstat(fh.fileno()).st_size != len(line) + 8 * K:
                return None
            body = array("q")
            body.fromfile(fh, K)
    except (ValueError, KeyError, OSError, EOFError):
        return None
    b = body.tolist()
    if zlib.crc32(body) != want or not spot_check(p, i, b):
        return None
    return build_form(p, i, M, b)


# ------------------------------------------------------------------ report


def q_str(x):
    """Exact rendering of a + b*w as 'a+b*w' with rational a, b."""
    return str(x if isinstance(x, QOmega) else x.to_q())


def point_str(P):
    if P.is_infinity:
        return "O"
    return f"({q_str(P.x)}, {q_str(P.y)})"


def build_report(result):
    """The run report of a PipelineResult: a dict of JSON-ready values.
    descent_branch is parametrize.descend's branch, e.g. "trace(w^0+)", and
    attempts the failed attempts before the win."""
    site = result.site
    return {
        "p": result.p,
        "i": result.i,
        "pi": q_str(result.split.pi),
        "r": site.r,
        "t": site.t,
        "site": site.label(),
        "bits": result.bits,
        "terms": result.terms,
        "point_K": point_str(result.point_K),
        "point_Q": point_str(result.point_Q),
        "descent_branch": result.descent_branch,
        "cube_sum": {"u": str(result.cube.u), "v": str(result.cube.v)},
        "checks": result.checks,
        "timings_ms": result.timings_ms,
        "attempts": result.attempts,
    }


_json_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def json_text(o, pad="\n"):
    """json.dumps(o, indent=2, sort_keys=True), byte for byte, for trees of
    dicts with str keys, lists, tuples, str, int, float, bool and None.
    json.dumps with an indent runs its pure-Python encoder; here the layout
    is joined in Python and every leaf is json's own C-level text: its
    string encoder, int.__repr__, and float.__repr__ or NaN / Infinity /
    -Infinity.  Any other type, subclasses of these included, and a key
    that is not a str raise TypeError."""
    t = type(o)
    if t is str:
        return _json_str(o)
    if t is dict:
        if not o:
            return "{}"
        inner = pad + "  "
        parts = []
        for k in sorted(o):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            parts.append(f"{_json_str(k)}: {json_text(o[k], inner)}")
        return f"{{{inner}{(',' + inner).join(parts)}{pad}}}"
    if t is int:
        return int.__repr__(o)
    if t is float:
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        return "-Infinity" if o == -_INF else float.__repr__(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = pad + "  "
        return f"[{inner}{(',' + inner).join([json_text(v, inner) for v in o])}{pad}]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


_REPORT_TEXT = """\
p = {p}, power = {i}  (pi = {pi}, site {site}, r = {r}, t = {t})
  precision {bits} bits, {terms} q-expansion terms
  K-point on E(p^{i}):  {point_K}
  rational point:        {point_Q}
  cube sum:  ({cube_sum[u]})^3 + ({cube_sum[v]})^3 = {p}^{i}"""


def print_report(rep):
    """The text report of a build_report dict."""
    print(_REPORT_TEXT.format_map(rep))
    for name, val in rep["checks"].items():
        if isinstance(val, dict) and "ok" in val:
            print(f"  check {name}: {'ok' if val['ok'] else 'FAIL'}")


# ----------------------------------------------------------------- solve


class BadInput(ValueError):
    pass


def check_solvable_prime(p):
    try:
        prime = is_prime_int(p)
    except PrimalityOutOfRange as e:
        raise BadInput(str(e)) from None
    if not prime:
        raise BadInput(f"{p} is not prime")
    cls = p % 9
    if cls in (2, 5) and p != 2:
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

    powers = {"1": (1,), "2": (2,), "both": (1, 2)}[args.power]
    reports = []
    for i in powers:
        t0 = time.perf_counter()
        form = read_cache(args.cache_dir, args.p, i) or build_form(args.p, i, 0)
        loaded = form.terms
        try:
            result = solve_pipeline(args.p, i, bits=args.bits, max_terms=args.max_terms, form=form)
            result.timings_ms["total_ms"] = 1000 * (time.perf_counter() - t0)
            if not result.cube.verify():  # defensive; to_cube_sum checks already
                raise AssertionError("cube identity failed")
        finally:  # also on exit 3, so the computed terms are kept
            if form.terms > loaded:
                try:
                    write_cache(args.cache_dir, args.p, i, form)
                except OSError as e:  # the solve's own outcome stands
                    print(f"warning: coefficient cache not written: {e}", file=sys.stderr)
        reports.append(build_report(result))
    if args.json:
        print(json_text(reports[0] if len(reports) == 1 else reports))
    else:
        for rep in reports:
            print_report(rep)
    return EXIT_OK


# ------------------------------------------------------------ series dumps


def series_lines(s, hi):
    """The lines 'n a b' of the nonzero coefficients a + b*w of q^n, n < hi,
    of a series in u = q^3 spread onto q (qseries.y_series and
    f_plus_minus_series): only the slots n = 0 mod 3, the u-series' own
    coefficients, can be nonzero, so only they are read.  a and b print
    as Fractions print, from the integers of (A + B*w)/d."""
    first = -(-s.lead // 3) * 3
    return [
        f"{n} {_ratio_str(c.A, c.d)} {_ratio_str(c.B, c.d)}"
        for n, c in zip(range(first, hi, 3), s.coeffs[first - s.lead :: 3])
        if c
    ]


def _print_lines(lines):
    """The lines in one write, each ended by a newline; none when empty."""
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def cmd_qexp(args):
    coeffs = newform_pairs(args.p, args.power_int, args.terms, conjugate=args.conjugate)
    for line in coefficient_lines(coeffs):
        print(line)
    return EXIT_OK


def cmd_yseries(args):
    from .qseries import y_series

    y = y_series(args.p, args.power_int, args.terms, conjugate=args.conjugate)
    _print_lines(series_lines(y, args.terms))
    return EXIT_OK


def cmd_fseries(args):
    from .qseries import f_plus_minus_series

    F = f_plus_minus_series(args.p, args.power_int, args.sign, args.terms)
    _print_lines(series_lines(F, args.terms))
    return EXIT_OK


# ----------------------------------------------------------------- verify


def cmd_verify(args):
    from . import fixtures

    failures = 0
    for name, fn in fixtures.suite():
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


COMMANDS = {"solve": cmd_solve, "qexp": cmd_qexp, "yseries": cmd_yseries, "fseries": cmd_fseries,
            "verify": cmd_verify}


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
    sp.add_argument(
        "--bits",
        type=int,
        help="first working precision in bits; a precision failure doubles it until a rung "
        "of at least 3072 bits, and of at least 32 times the first, has been tried "
        "(default 48 for a power-1 prime below 512, else 96; each to 3072 bits)",
    )
    sp.add_argument("--max-terms", type=int, default=2_000_000, dest="max_terms")
    sp.add_argument(
        "--cache-dir", dest="cache_dir", help=f"default: ${CACHE_ENV}, else ~/.cache/cubesum"
    )
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("qexp", help="dump exact newform coefficients (n a b lines)")
    _add_common(sp)
    sp.add_argument("--conjugate", action="store_true")

    sp = sub.add_parser("yseries", help="dump the exact y(q) series")
    _add_common(sp)
    sp.add_argument("--conjugate", action="store_true")

    sp = sub.add_parser("fseries", help="dump the exact cube-root ratio series F(q)")
    _add_common(sp)
    sp.add_argument("--sign", default="+", choices=["+", "-"])

    sp = sub.add_parser("verify", help="run the built-in worked-example fixture suite")
    sp.add_argument("--quick", action="store_true", help="accepted and ignored: the full suite is fast")
    return ap


@functools.cache
def _parser():
    # built once per process, on the first command; the defaults that read
    # the environment are filled in by main, per command
    return make_parser()


def main(argv=None):
    # exact cube sums can run past the 4300-digit str(int) limit (Python
    # builds before 3.10.7 have no limit and no setter)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _parser().parse_args(argv)
    if args.command == "solve" and args.cache_dir is None:
        args.cache_dir = default_cache_dir()
    if hasattr(args, "power") and args.power in ("1", "2"):
        args.power_int = int(args.power)
    try:
        for flag in ("terms", "max_terms", "bits"):
            value = getattr(args, flag, None)  # --bits unset: the default first rung
            if value is not None and value < 1:
                raise BadInput(f"--{flag.replace('_', '-')} must be positive, not {value}")
        # at 1 bit the pole threshold 2^-(bits//2) is 1, above every reduced
        # z/Omega, so both forms would read as the point at infinity
        if getattr(args, "bits", None) == 1:
            raise BadInput("--bits must be at least 2, not 1")
        if hasattr(args, "p"):  # every command but verify
            check_solvable_prime(args.p)
        return COMMANDS[args.command](args)
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
