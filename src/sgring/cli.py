"""Command-line front end.

Subcommands: analyze | basis | construct | batch | verify.  Ring input is
either JSON {"a": A, "b": B, "gens": [[p, q], ...]} or the compact form
"A,B;p1:q1,p2:q2".  Machine output is deterministic: JSON with sorted keys,
CSV with a fixed column order, monomials sorted by (beta, alpha).

Exit codes: 0 ring is Cohen-Macaulay (or command succeeded), 3 ring is not
Cohen-Macaulay, 64 usage, 65 bad input data, 69 work budget exceeded,
70 internal disagreement (a bug), 74 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from . import curve, fourgen, hilbert, oracle
from .core import DEFAULT_BUDGET, RingSpec, Work, group_order
from .errors import (
    BudgetExceeded,
    DisagreementError,
    IdentityViolation,
    NonTermination,
    NotFourGen,
    RingSpecError,
    SgringError,
)
from .oracle import corners

EXIT_OK = 0
EXIT_NOT_CM = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_BUDGET = 69
EXIT_SOFTWARE = 70
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Subcommand(_Parser):
    """A subcommand's parser rejects the arguments it does not take itself,
    so the error shows the subcommand's usage, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def parse_ring(text: str) -> RingSpec:
    """Parse a ring from JSON or the compact "A,B;p:q,..." form."""
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
            return RingSpec(data["a"], data["b"], tuple((p, q) for p, q in data["gens"]))
        except RingSpecError:
            raise
        except (json.JSONDecodeError, KeyError, RecursionError, TypeError, ValueError) as exc:
            raise RingSpecError(f"bad ring JSON: {exc}") from exc
    try:
        head, _, tail = text.partition(";")
        a_s, b_s = head.split(",")
        gens = []
        for part in tail.split(","):
            part = part.strip()
            if not part:
                continue
            p_s, q_s = part.split(":")
            gens.append((int(p_s), int(q_s)))
        return RingSpec(int(a_s), int(b_s), tuple(gens))
    except RingSpecError:
        raise
    except ValueError as exc:
        raise RingSpecError(f"bad compact ring form {text!r}: {exc}") from exc


def ring_json(spec: RingSpec) -> dict:
    return {"a": spec.a, "b": spec.b, "gens": [list(g) for g in spec.gens]}


def _fourgen_basis(spec: RingSpec) -> fourgen.BasisResult | None:
    """Monomial basis by the four-generator fast path; None unless t = 2."""
    if len(spec.gens) != 2:
        return None
    return fourgen.monomial_basis(fourgen.constants(spec.a, spec.b, spec.gens[0], spec.gens[1]))


def build_report(spec: RingSpec, oracle_checked: bool = False, work: Work | None = None,
                 with_trace: bool = False) -> tuple[dict, oracle.CornerSet]:
    """Full analysis of one ring, and its corner set; raises DisagreementError
    if a check fails.  With `oracle_checked` every `verify` check runs, with
    the Hilbert function checked on N..N+2.  Every layer charges `work`."""
    work = work or Work()
    cs = corners(spec, work)
    hd = hilbert.hilbert_data(spec, cs)
    basis = _fourgen_basis(spec)
    hf_range = (hd.stabilization, hd.stabilization + 2) if oracle_checked else None
    criteria, checks = hilbert.run_checks(cs, hd, basis, hf_range, oracle_checked, work)
    for name, passed, detail in checks:
        if not passed:
            raise DisagreementError(f"check {name} failed for {spec}: {detail}")
    report = {
        "spec": ring_json(spec),
        "subgroup_size": hd.multiplicity,
        "length": len(cs),
        "multiplicity": hd.multiplicity,
        "constant_C": hd.constant,
        "stabilization_N": hd.stabilization,
        "polynomial": {"slope": hd.slope, "intercept": hd.intercept},
        "is_cm": criteria["corner_unique"],
        "criteria": criteria,
        "oracle_checked": oracle_checked,
        "basis": None if basis is None else [list(v) for v in basis.sorted_monomials()],
        "trace": [_trace_json(t) for t in basis.trace] if with_trace and basis else None,
    }
    return report, cs


def _trace_json(t: fourgen.TraceStep, curve_n: int = 0) -> dict:
    """One JSON trace row, the step's fields; curve mode adds c* = h* / n."""
    row = dataclasses.asdict(t)
    if curve_n:
        row["c_star"] = t.h_star // curve_n
    return row


def _trace_text(name: str, row: dict, curve_n: int = 0) -> str:
    """One text trace row from a `_trace_json` row; curve mode shows c*."""
    tail = f"c*={row['h_star'] // curve_n}" if curve_n else f"g*={row['g_star']} h*={row['h_star']}"
    return (f"{name} |B|={row['size']} base={row['base']} a*={row['a_star']} "
            f"b*={row['b_star']} {tail}\n")


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _bool(v) -> str:
    return "true" if v else "false"


def cmd_analyze(args) -> int:
    spec = parse_ring(args.ring)
    report, cs = build_report(spec, args.oracle, Work(args.budget), args.trace)
    if args.json:
        _emit_json(report)
    else:
        out = sys.stdout
        out.write(f"ring: a={spec.a} b={spec.b} gens={list(spec.gens)}\n")
        out.write(f"subgroup size |H|: {report['subgroup_size']}\n")
        out.write(f"length dim_k R/(x^a,y^b): {report['length']}\n")
        out.write(f"multiplicity: {report['multiplicity']}\n")
        out.write(
            "hilbert polynomial: P(n) = "
            f"{report['multiplicity']}*(n+1) + {report['constant_C']}"
            f"   (exact for n >= {report['stabilization_N']})\n"
        )
        crits = " ".join(f"{k}={_bool(v)}" for k, v in sorted(report["criteria"].items()))
        out.write(f"criteria: {crits}\n")
        if report["basis"] is not None:
            out.write(f"basis size: {len(report['basis'])}\n")
        if args.trace and report["trace"]:
            for row in report["trace"]:
                out.write(_trace_text(f"rule{row['branch']}", row))
        if args.plot:
            _plot_corners(cs)
        out.write(f"cohen-macaulay: {'yes' if report['is_cm'] else 'no'}\n")
    return EXIT_OK if report["is_cm"] else EXIT_NOT_CM


def _plot_corners(cs: oracle.CornerSet) -> None:
    """ASCII staircases, one grid per congruence class with several corners."""
    out = sys.stdout
    for cls, grid in sorted(cs.grids.items()):
        if len(grid) < 2:
            continue
        max_u = min(grid[-1][0], 40)
        max_v = min(grid[0][1], 40)
        out.write(f"class {cls}: corners at steps {list(grid)} (u right, v down)\n")
        gset = set(grid)
        for v in range(max_v + 1):
            out.write("  " + "".join("X" if (u, v) in gset
                                     else "#" if any(uc <= u and vc <= v for uc, vc in grid)
                                     else "." for u in range(max_u + 1)) + "\n")


def _plot_pairs(result: fourgen.BasisResult) -> None:
    """ASCII view of the basis pairs, clipped at a, b <= 60: '#' the seed box
    (the rows below b2), '+' the rows the loop added."""
    cols = min(max(result.widths), 61)
    out = sys.stdout
    out.write(f"pairs (a right, b down), {sum(result.widths)} total:\n")
    for b, w in enumerate(result.widths[:61]):
        w = min(w, cols)
        out.write("  " + ("#" if b < result.consts.b2 else "+") * w + "." * (cols - w) + "\n")


def cmd_basis(args) -> int:
    curve_mode = args.n is not None or args.l is not None or args.m is not None
    if curve_mode:
        if args.n is None or args.l is None or args.m is None:
            raise NotFourGen("curve mode needs all of --n, --l, --m")
        cspec = curve.CurveSpec(args.n, args.l, args.m)
        spec = RingSpec(cspec.n, cspec.n, cspec.ring_gens())
        label = {"curve": {"n": cspec.n, "l": cspec.l, "m": cspec.m}}
    else:
        if not args.ring:
            raise NotFourGen("need a ring argument or curve flags --n --l --m")
        spec = parse_ring(args.ring)
        if len(spec.gens) != 2:
            raise NotFourGen(f"basis needs exactly two middle generators, got {len(spec.gens)}")
        label = {"spec": ring_json(spec)}
    # the seed box holds |H| pairs, and |H| bounds the constants search and the
    # basis loop's a3 <= |H| iterations; the exact size is charged before any listing
    work, h = Work(args.budget), group_order(spec)
    work.forecast("basis", h, f"at least |H| = {h}")
    result = _fourgen_basis(spec)
    consts = result.consts
    cm = fourgen.is_cm(consts)
    work.charge("basis", size := sum(result.widths), f"basis size {size}, |H| = {h}")
    n_for_c = consts.n if curve_mode else 0

    if args.json:
        payload = dict(label)
        payload.update({
            "constants": dataclasses.asdict(consts),
            "initial_size": result.initial_size,
            "size": size,
            "is_cm": cm,
            "monomials": [list(v) for v in result.sorted_monomials()],
            "pairs": [list(v) for v in result.sorted_pairs()],
            "trace": [_trace_json(t, n_for_c) for t in result.trace],
        })
        _emit_json(payload)
    else:
        out = sys.stdout
        if args.trace:
            init = {"size": result.initial_size, "base": consts.a1, "a_star": consts.a2,
                    "b_star": consts.b2, "g_star": consts.g2, "h_star": consts.h2}
            out.write(_trace_text("init ", init, n_for_c))
            for t in result.trace:
                out.write(_trace_text(f"rule{t.branch}", _trace_json(t), n_for_c))
        if args.plot:
            _plot_pairs(result)
        if args.log:
            for a, b in result.sorted_pairs():
                out.write(f"({a},{b})\n")
        else:
            for alpha, beta in result.sorted_monomials():
                out.write(f"({alpha},{beta})\n")
    return EXIT_OK if cm else EXIT_NOT_CM


def cmd_construct(args) -> int:
    try:
        class_gens = [(p, q) for p, q in json.loads(args.subgroup_gens)]
    except (json.JSONDecodeError, RecursionError, TypeError, ValueError) as exc:
        raise RingSpecError(f"bad --subgroup-gens: {exc}") from exc
    work = Work(args.budget)
    spec = hilbert.construct_ring(args.a, args.b, class_gens, args.constant, args.stab, work)
    hd = hilbert.hilbert_data(spec, corners(spec, work))
    payload = {
        "spec": ring_json(spec),
        "verification": {
            "multiplicity": hd.multiplicity,
            "constant_C": hd.constant,
            "stabilization_N": hd.stabilization,
        },
    }
    if args.json:
        _emit_json(payload)
    else:
        out = sys.stdout
        out.write(f"ring: a={spec.a} b={spec.b} gens={list(spec.gens)}\n")
        out.write(
            f"verification: multiplicity={hd.multiplicity} "
            f"constant_C={hd.constant} stabilization_N={hd.stabilization}\n"
        )
    return EXIT_OK


def cmd_batch(args) -> int:
    if not args.curves:
        raise RingSpecError("batch currently supports --curves only")
    rows = curve.batch_classify(args.max_n, args.oracle_up_to, Work(args.budget))
    records = []
    for r in rows:
        record = {"n": r.n, "l": r.l, "m": r.m, "is_cm": r.is_cm, "H": r.group_order,
                  "basis_size": r.basis_size, "bound_attained": r.bound_attained}
        if args.oracle_up_to > 0:
            record["oracle_agree"] = r.oracle_agree
        records.append(record)
    if args.json:
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    else:
        # the keys in insertion order are the columns; every batch has the
        # curve (3, 1, 2), and csv writes None as an empty cell
        buf = io.StringIO()
        writer = csv.DictWriter(buf, list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({k: _bool(v) if isinstance(v, bool) else v for k, v in rec.items()}
                         for rec in records)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"sgring: cannot write {args.out}: {exc}\n")
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo_s, _, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise RingSpecError(f"bad range {text!r}, expected lo..hi") from exc
    if lo < 0 or hi < lo:
        raise RingSpecError(f"bad range {text!r}")
    return lo, hi


def cmd_verify(args) -> int:
    spec = parse_ring(args.ring)
    hf_range = _parse_range(args.hf_range) if args.hf_range else None
    work = Work(args.budget)
    cs = corners(spec, work)
    _, checks = hilbert.run_checks(cs, hilbert.hilbert_data(spec, cs), _fourgen_basis(spec),
                                   hf_range, work=work)
    ok = all(passed for _, passed, _ in checks)
    if args.json:
        _emit_json({
            "spec": ring_json(spec),
            "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks],
            "passed": ok,
        })
    else:
        for name, passed, detail in checks:
            sys.stdout.write(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}\n")
        sys.stdout.write("verify: " + ("all checks passed\n" if ok else "FAILED\n"))
    return EXIT_OK if ok else EXIT_SOFTWARE


def _budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                        help="work budget for exact enumerations")
    views = argparse.ArgumentParser(add_help=False)  # analyze and basis only
    views.add_argument("--trace", action="store_true", help="print per-iteration state")
    views.add_argument("--plot", action="store_true", help="ASCII staircase rendering")

    parser = _Parser(prog="sgring", allow_abbrev=False,
                     description="Cohen-Macaulay analysis of k[x^a, x^p1 y^q1, ..., y^b]")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p = sub.add_parser("analyze", allow_abbrev=False, parents=[common, views],
                       help="length, multiplicity, Hilbert data, CM verdict")
    p.add_argument("ring", help="ring as JSON or 'A,B;p1:q1,...'")
    p.add_argument("--oracle", action="store_true", help="add brute-force cross-checks")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("basis", allow_abbrev=False, parents=[common, views],
                       help="monomial basis of R/(x^a, y^b) for 4-generator rings and curves")
    p.add_argument("ring", nargs="?", help="ring with exactly two middle generators")
    p.add_argument("--n", type=int, help="curve: y-power")
    p.add_argument("--l", type=int, help="curve: first y-exponent")
    p.add_argument("--m", type=int, help="curve: second y-exponent")
    p.add_argument("--log", action="store_true",
                   help="print lattice pairs (a, b) instead of exponent vectors")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("construct", allow_abbrev=False, parents=[common],
                       help="build a ring with prescribed Hilbert data")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--subgroup-gens", required=True,
                   help="JSON list of congruence classes, e.g. '[[1,1]]'")
    p.add_argument("--constant", type=int, required=True, help="Hilbert constant C")
    p.add_argument("--stab", type=int, required=True, help="stabilization index")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("batch", allow_abbrev=False, parents=[common],
                       help="classify curve families to CSV/JSON")
    p.add_argument("--curves", action="store_true", help="iterate 0 < l < m < n <= max-n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--oracle-up-to", type=int, default=0,
                   help="cross-check rows with n up to this bound against the oracle")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("verify", allow_abbrev=False, parents=[common],
                       help="run oracle-vs-fast comparisons on one ring")
    p.add_argument("ring", help="ring as JSON or 'A,B;p1:q1,...'")
    p.add_argument("--hf-range", help="check the Hilbert function on lo..hi")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, a usage error 64
        return exc.code
    try:
        return args.func(args)
    except (DisagreementError, IdentityViolation, NonTermination) as exc:
        sys.stderr.write(f"sgring: internal disagreement: {exc}\n")
        return EXIT_SOFTWARE
    except (SgringError, OSError) as exc:
        sys.stderr.write(f"sgring: {exc}\n")
        return (EXIT_BUDGET if isinstance(exc, BudgetExceeded)
                else EXIT_IO if isinstance(exc, OSError) else EXIT_DATA)


if __name__ == "__main__":
    raise SystemExit(main())
