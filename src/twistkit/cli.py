"""Batch command-line interface.

Subcommands: expand-phi, solve-twist, verify, eval-rep, show-rmatrix.
Output is deterministic (byte-identical for identical configurations).
Exit codes: 0 success / all checks pass, 1 a check was falsified,
2 bad input (including an unwritable output path), 3 the twist system
is infeasible at the given cutoffs.
The TWISTKIT_ORDER environment variable overrides the default --order;
a value that is not an integer is bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

# Each command imports the twistkit modules it runs inside its function,
# so that a process compiles only those.  A name imported inside a function
# is read from its module when the function runs, so a wrapper rebound
# there (perfbench's tracer, a test's patch) sees the call.

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3

# the largest --order of each command and the wall time of that order,
# interpreter start included, measured twice on one 2.1 GHz Xeon core of a
# shared host with Python 3.11.7 (verify and eval-rep on the order-3
# candidate perfbench/fixture/candidate-order3.json); near each
# bound the time grows about 3x per two orders (about 3x per order for
# solve-twist).  Larger values are bad input, rejected before any series
# or matrix is built.
MAX_ORDER = {"expand-phi": (50, "19-21 s"), "solve-twist": (5, "1.1-1.4 s"),
             "verify": (14, "5.2-6.2 s with --checks all"),
             "eval-rep": (20, "17-22 s at two_j 32 x 32"),
             "show-rmatrix": (18, "8-10 s")}
# the largest --two-j1 / --two-j2 of eval-rep, and the time of 32 x 32 at
# order 3: spin A/2 (x) B/2 prints ((A+1)(B+1))^2 series per order
MAX_TWO_J, MAX_TWO_J_TIME = 32, "3-5 s"
# eval-rep --format json writes the ((A+1)(B+1))^2 (N+1) entries of the
# matrix one row at a time, about 64 bytes each, so its memory is that of
# the matrix (64 MB at 32 x 32, order 3, and 63 MB in text) and the
# entry count bounds the output size and time: at most the entries of the
# spin bound at order 3
MAX_JSON_ENTRIES, MAX_JSON_AT = 4743684, "32 x 32 at order 3: 304 MB in 12-15 s"
# solve-twist: the unknowns (2L-1)*C(D+4, 4) (twist._unknown_count) of the
# ansatz at the top order with the given cutoffs, at most those of the
# order-5 default (L = 6, D = 10) timed above, and at most the default
# number of escalations.  An escalated ansatz is larger and is not checked:
# the default order-5 run may escalate to 45900 unknowns
MAX_UNKNOWNS, MAX_ESCALATIONS = 11011, 2

# negative results documented for the reference twist: these checks are
# reported but do not flip the exit code under --expect-paper-behavior
EXPECTED_FAILURES = ("unitarity", "cocycle")


def _emit(args, out) -> None:
    """Write a command's output to --output, else to stdout: under
    --format json out is the payload, streamed by _json_dumps, and
    otherwise it is the text, or a function that writes it to a file."""
    fh = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.format == "json":
            _json_dumps(out, fh)
        elif callable(out):
            out(fh)
        else:
            fh.write(out + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()


# pieces of JSON joined per write: a write per piece is slow, and one
# write per document holds the whole document in memory
_JSON_BLOCK = 4096


def _json_dumps(obj, fh) -> None:
    """Write obj and a newline to fh, the same text as
    json.dumps(obj, indent=2, sort_keys=True) + "\n".  The pieces are
    written after any list item once more than _JSON_BLOCK wait, so that
    memory holds about one block of text, not the document.  Accepted are
    dicts with str keys, lists, tuples and any iterator (read once, written
    as a list), str, int, bool and None; any other type raises TypeError."""
    buf = []
    append = buf.append

    def value(o, indent):
        # indent is the newline and indent of the line o starts on
        if isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = indent + "  "
            sep = "{" + inner
            for key in sorted(o):
                if not isinstance(key, str):
                    raise TypeError(f"JSON keys must be str, not "
                                    f"{type(key).__name__}")
                v = o[key]
                if type(v) is int:              # most leaves: num, den, e, f, d
                    append(f"{sep}{encode_basestring_ascii(key)}: {v!r}")
                else:
                    append(f"{sep}{encode_basestring_ascii(key)}: ")
                    value(v, inner)
                sep = "," + inner
            append(indent + "}")
        elif isinstance(o, str):
            append(encode_basestring_ascii(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, (list, tuple, Iterator)):
            inner = indent + "  "
            sep = "[" + inner
            for item in o:
                append(sep)
                value(item, inner)
                sep = "," + inner
                if len(buf) > _JSON_BLOCK:
                    fh.write("".join(buf))
                    buf.clear()
            # a sep that still opens the list means no item was written
            append("[]" if sep[0] == "[" else indent + "]")
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not "
                            "JSON serializable")

    value(obj, "\n")
    append("\n")
    fh.write("".join(buf))


# ---------------------------------------------------------------------------
# rendering helpers


def format_hi_polynomial(x) -> str:
    """Render a polynomial in H and I over a common denominator, e.g.
    (2*I + 2*H^2 - 2*H - 1)/12."""
    from .lincomb import _integral, _signed_sum, _term_body
    from .pbw import to_casimir_basis

    coords = to_casimir_basis(x)
    if not coords:
        return "0"
    if any(n for _, _, n in coords):
        raise ValueError("not a polynomial in H and I")
    # highest power of I first, then of H
    nums, den = _integral(dict(sorted((((b, a), c) for (a, b, _), c
                                       in coords.items()), reverse=True)))
    parts = []
    for (b, a), n in nums.items():
        mono = "*".join(s for s in (f"I^{b}" if b > 1 else "I" * b,
                                    f"H^{a}" if a > 1 else "H" * a) if s)
        parts.append((n, _term_body(n, mono)))
    poly = _signed_sum(parts)
    if den == 1:
        return poly
    if len(coords) == 1 and not poly.startswith("-"):
        return f"{poly}/{den}"
    return f"({poly})/{den}"


def format_phi_series(series) -> str:
    parts = []
    for k, c in enumerate(series.coeffs):
        if c.is_zero():
            continue
        body = format_hi_polynomial(c)
        if k == 0:
            parts.append(body)
        else:
            hp = "h" if k == 1 else f"h^{k}"
            parts.append(f"{hp}*{body}" if body != "1" else hp)
    return " + ".join(parts) if parts else "0"


def _tensor_series_text(series, label: str) -> list:
    from .tensor import tensor_to_str

    lines = [f"{label} up to order {series.order}:"]
    for k, c in enumerate(series.coeffs):
        lines.append(f"  h^{k}: {tensor_to_str(c)}")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand_phi(args) -> int:
    from .deform import phi
    from .pbw import element_to_json

    p = phi(args.sign, args.order)
    if args.format == "json":
        _emit(args, {
            "sign": args.sign,
            "order": args.order,
            "coefficients": [element_to_json(c) for c in p.series.coeffs],
            "text": format_phi_series(p.series),
        })
    else:
        _emit(args, format_phi_series(p.series))
    return EXIT_OK


def _check_writable(path: str, made: str) -> None:
    """Raise OSError, creating nothing, unless the file `path` can be
    written once the directory `made` exists: it is not a directory, and
    its own directory exists or is one that making `made` creates."""
    node = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(node) and os.path.commonpath([node, made]) == node:
        node = os.path.dirname(node)
    if os.path.isdir(path) or not os.path.isdir(node):
        raise OSError(f"{path}: not a file in an existing directory")


def cmd_solve_twist(args) -> int:
    from .tensor import tensor_to_str
    from .twist import build_candidate

    try:
        cand, sols = build_candidate(args.order, cutoff_l=args.cutoff_l,
                                     cutoff_d=args.cutoff_d,
                                     max_escalations=args.max_escalations)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    solved = all(s.solved for s in sols) and len(sols) == args.order
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for s in sols:
            path = os.path.join(args.out_dir, f"twist-order-{s.order}.json")
            with open(path, "w") as fh:
                _json_dumps(s.to_json(), fh)
    if solved and args.candidate_out:
        with open(args.candidate_out, "w") as fh:
            _json_dumps(cand.to_json(), fh)
    if args.format == "json":
        _emit(args, {"solutions": (s.to_json() for s in sols),
                     "candidate": cand.to_json() if solved else None})
    else:
        lines = []
        for s in sols:
            lines.append(f"order {s.order}: {s.status} "
                         f"(cutoffs L={s.cutoff_l}, D={s.cutoff_d}, "
                         f"unknowns={s.unknown_count}, rank={s.rank}, "
                         f"kernel dim={len(s.homogeneous)})")
            if s.particular is not None:
                lines.append(f"  particular: {tensor_to_str(s.particular)}")
        if solved:
            lines.append("candidate coefficients:")
            for k, c in enumerate(cand.series.coeffs):
                lines.append(f"  h^{k}: {tensor_to_str(c)}")
        _emit(args, "\n".join(lines))
    return EXIT_OK if solved else EXIT_INFEASIBLE


def _load_candidate(path: str):
    """The candidate in a JSON file, a candidate file or the document of
    `solve-twist --format json` (exactly `solutions` and `candidate`), or
    None after reporting on stderr why the file cannot be used."""
    from .candidate import TwistCandidate

    try:
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and data.keys() == {"solutions", "candidate"}:
            data = data["candidate"]
        return TwistCandidate.from_json(data)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"error: cannot load candidate: {exc}", file=sys.stderr)
        return None


def _prefixed(prefix: str, report: VerificationReport) -> VerificationReport:
    from .report import VerificationReport

    return VerificationReport({prefix + name: bad
                               for name, bad in report.first_failures.items()})


def _at_order(check, cand, order: int) -> VerificationReport:
    """check(c) on the candidate truncated or zero-padded to `order`.  A
    residual's coefficients through order m depend only on F_0..F_m, so a
    failure at min(order, cand.order) is already the first one; only a
    pass there is checked again on the padded candidate."""
    report = check(cand.at_order(min(order, cand.order)))
    if report.passed and order > cand.order:
        report = check(cand.at_order(order))
    return report


def _twist(cand, order):
    """The twist residuals through `order`, probed first at the first
    padded order m = min(order, cand.order + 1).  Each residual's
    coefficients through m depend only on F_0..F_m, so a failure at or
    below m is already that generator's first one.  The J0 coefficient n
    is [F_n, Delta(H)], zero beyond cand.order, so a J0 pass at m is final
    too; only a pass of J+ or J- at m is checked again at `order`."""
    from .candidate import twist_residuals

    m = min(order, cand.order + 1)
    report = twist_residuals(cand, m)
    bad = report.first_failures
    if order > m and None in (bad["twist[J+]"], bad["twist[J-]"]):
        report = twist_residuals(cand, order)
    return _prefixed("twist ", report)


def _rmatrix(cand, order):
    from .report import VerificationReport
    from .rmatrix import quasitriangular_residual

    return VerificationReport.of(
        {"rmatrix[quasitriangular]": quasitriangular_residual(cand, order)})


def _normalization(cand, order):
    from .candidate import normalization_check

    return _prefixed("normalization ", _at_order(normalization_check, cand, order))


def _unitarity(cand, order):
    from .candidate import unitarity_defect
    from .report import VerificationReport

    return _at_order(lambda c: VerificationReport.of(
        {"unitarity(universal)": unitarity_defect(c)}), cand, order)


def _cocycle(cand, order):
    from .candidate import cocycle_defect
    from .report import VerificationReport

    return _at_order(lambda c: VerificationReport.of(
        {"cocycle": cocycle_defect(c)}), cand, order)


# check name -> function of (candidate, order) giving a report whose names
# are the line labels
CHECKS = {"twist": _twist, "rmatrix": _rmatrix, "normalization": _normalization,
          "unitarity": _unitarity, "cocycle": _cocycle}
ALL_CHECKS = tuple(CHECKS)


def cmd_verify(args) -> int:
    cand = _load_candidate(args.candidate)
    if cand is None:
        return EXIT_BAD_INPUT
    # each check once, in the order first named; "all" among names is all
    checks = ALL_CHECKS if "all" in args.checks else tuple(dict.fromkeys(args.checks))
    order = args.order
    status = "fails-as-paper-states" if args.expect_paper_behavior else "fail"
    lines = []
    falsified = False
    for name in checks:
        report = CHECKS[name](cand, order)
        expected = name in EXPECTED_FAILURES
        for (label, bad), line in zip(report.first_failures.items(), report.lines()):
            if expected and bad is not None:
                line = f"{label}: {status} (first nonzero at order {bad})"
            lines.append(line)
        falsified |= not (report.passed or expected and args.expect_paper_behavior)
    if args.format == "json":
        _emit(args, {"order": order, "report": lines, "falsified": falsified})
    else:
        _emit(args, "\n".join(lines))
    return EXIT_FALSIFIED if falsified else EXIT_OK


def cmd_eval_rep(args) -> int:
    from .reps import evaluate, rep_unitarity_check, spin_rep

    cand = _load_candidate(args.candidate)
    if cand is None:
        return EXIT_BAD_INPUT
    rep1 = spin_rep(args.two_j1)
    rep2 = spin_rep(args.two_j2)
    mat = evaluate(cand.at_order(args.order).series, rep1, rep2)
    unitarity = None
    if args.two_j1 == 1 and args.two_j2 == 1:
        unitarity = rep_unitarity_check(cand, args.order)
    if args.format == "json":
        payload = mat.to_json()
        if unitarity is not None:
            payload["unitarity"] = unitarity.lines()
        _emit(args, payload)
    else:
        def write(fh):
            fh.write(f"{mat.dim}x{mat.dim} series matrix (two_j = {args.two_j1}, "
                     f"{args.two_j2}; order {args.order}):\n")
            mat.render_text(fh)
            if unitarity is not None:
                fh.writelines(line + "\n" for line in unitarity.lines())
        _emit(args, write)
    return EXIT_OK


def cmd_show_rmatrix(args) -> int:
    from .rmatrix import classical_R, quantum_R_image
    from .tensor import tensor_to_json

    shown = {}
    if args.which in ("classical", "both"):
        shown["classical"] = classical_R(args.order), "classical R = q^P"
    if args.which in ("quantum", "both"):
        shown["quantum"] = quantum_R_image(args.order), "quantum R image"
    # only the rendering that is printed is built, in JSON one
    # coefficient at a time as it is written
    if args.format == "json":
        payload = {"order": args.order}
        payload.update((name, (tensor_to_json(c) for c in R.coeffs))
                       for name, (R, _) in shown.items())
        _emit(args, payload)
    else:
        _emit(args, "\n".join(line for R, label in shown.values()
                               for line in _tensor_series_text(R, label)))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistkit",
        description="Exact computations for the quantum-sl2 coproduct twist.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, command):
        largest, took = MAX_ORDER[command]
        p.add_argument("--order", type=int, default=None,
                       help=f"truncation order N, 0..{largest}; order {largest} "
                            f"takes about {took} on a 2.1 GHz Xeon core "
                            "(default: TWISTKIT_ORDER or 2)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write output to this file instead of stdout")

    p = sub.add_parser("expand-phi", help="expand the deforming-map coefficient phi")
    p.add_argument("--sign", choices=("plus", "minus"), required=True)
    common(p, "expand-phi")
    p.set_defaults(func=cmd_expand_phi)

    p = sub.add_parser("solve-twist", help="solve the twist equations order by order")
    common(p, "solve-twist")
    p.add_argument("--cutoff-l", type=int, default=None,
                   help="ansatz power cutoff L (default k+1 at order k)")
    p.add_argument("--cutoff-d", type=int, default=None,
                   help="ansatz polynomial degree cutoff D (default 2k); L and "
                        "D at the top order may give at most "
                        f"{MAX_UNKNOWNS} unknowns (2L-1)*C(D+4, 4), the order-5 "
                        "default; only these cutoffs are checked, not those "
                        "an escalation reaches")
    p.add_argument("--max-escalations", type=int, default=MAX_ESCALATIONS,
                   help="cutoff escalations (L+1, D+2) tried on infeasibility, "
                        f"0..{MAX_ESCALATIONS} (default {MAX_ESCALATIONS}); "
                        "each builds a larger ansatz, which may exceed "
                        f"{MAX_UNKNOWNS} unknowns")
    p.add_argument("--out-dir", help="write one solution JSON file per order here")
    p.add_argument("--candidate-out", help="write the assembled candidate JSON here")
    p.set_defaults(func=cmd_solve_twist)

    p = sub.add_parser("verify", help="verify a candidate twist from a JSON file")
    p.add_argument("candidate", help="candidate JSON file")
    common(p, "verify")
    p.add_argument("--checks", nargs="+", default=["all"],
                   choices=("all",) + ALL_CHECKS,
                   help="checks to run, each once in the order first named; "
                        "all, alone or among names, runs every check "
                        "(default: all)")
    p.add_argument("--expect-paper-behavior", action="store_true",
                   help="report the documented negative results (universal "
                        "unitarity, cocycle) as expected failures that do "
                        "not flip the exit code")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval-rep", help="evaluate a candidate in a spin representation",
                       description="With --format json, spins A/2 (x) B/2 at order "
                                   "N give ((A+1)(B+1))^2*(N+1) entries, at most "
                                   f"{MAX_JSON_ENTRIES} ({MAX_JSON_AT}).")
    p.add_argument("candidate", help="candidate JSON file")
    for leg in (1, 2):
        p.add_argument(f"--two-j{leg}", type=int, required=True,
                       help=f"twice the spin of leg {leg}, 0..{MAX_TWO_J}; "
                            f"{MAX_TWO_J} x {MAX_TWO_J} at order 3 takes about "
                            f"{MAX_TWO_J_TIME} on a 2.1 GHz Xeon core")
    common(p, "eval-rep")
    p.set_defaults(func=cmd_eval_rep)

    p = sub.add_parser("show-rmatrix", help="print the R-matrix expansions")
    p.add_argument("--which", choices=("classical", "quantum", "both"),
                   default="both")
    common(p, "show-rmatrix")
    p.set_defaults(func=cmd_show_rmatrix)

    return parser


def _solve_bounds(args):
    """Why the solve-twist cutoffs are out of bounds, or None."""
    from .twist import _unknown_count, default_cutoffs

    if not 0 <= args.max_escalations <= MAX_ESCALATIONS:
        return (f"--max-escalations must be in 0..{MAX_ESCALATIONS}, "
                f"got {args.max_escalations}")
    default_l, default_d = default_cutoffs(args.order)
    L = args.cutoff_l if args.cutoff_l is not None else default_l
    D = args.cutoff_d if args.cutoff_d is not None else default_d
    if L >= 1 and D >= 0 and (n := _unknown_count(L, D)) > MAX_UNKNOWNS:
        return (f"the order-{args.order} ansatz at L={L}, D={D} has {n} "
                f"unknowns, more than {MAX_UNKNOWNS}")
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.order is None:
        env = os.environ.get("TWISTKIT_ORDER", "2")
        try:
            args.order = int(env)
        except ValueError:
            print(f"error: TWISTKIT_ORDER must be an integer, got {env!r}",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
    largest = MAX_ORDER[args.command][0]
    if not 0 <= args.order <= largest:
        print(f"error: --order of {args.command} must be in 0..{largest}, "
              f"got {args.order}", file=sys.stderr)
        return EXIT_BAD_INPUT
    for flag in ("two_j1", "two_j2"):
        two_j = getattr(args, flag, 0)
        if not 0 <= two_j <= MAX_TWO_J:
            print(f"error: --{flag.replace('_', '-')} must be in 0..{MAX_TWO_J}, "
                  f"got {two_j}", file=sys.stderr)
            return EXIT_BAD_INPUT
    if (args.command == "eval-rep" and args.format == "json"
            and (n := ((args.two_j1 + 1) * (args.two_j2 + 1)) ** 2
                 * (args.order + 1)) > MAX_JSON_ENTRIES):
        print(f"error: eval-rep --format json at two_j {args.two_j1} x "
              f"{args.two_j2}, order {args.order} has {n} entries, more than "
              f"{MAX_JSON_ENTRIES}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.command == "solve-twist" and (problem := _solve_bounds(args)):
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        # every output path is checked before any work; --out-dir through
        # its first file.  "." exists, so without --out-dir nothing is made
        out_dir = getattr(args, "out_dir", None)
        made = os.path.abspath(out_dir or ".")
        for path in (out_dir and os.path.join(out_dir, "twist-order-1.json"),
                     getattr(args, "candidate_out", None), args.output):
            if path:
                _check_writable(path, made)
        return args.func(args)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
