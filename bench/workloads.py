"""The three benchmark workloads: seeded inputs, the item each input goes
through, the correctness check, the digest record and the work counts.

An item calls the library only through `L`, a mapping from layer name
("oracle.corners", ...) to function.  The harness passes either the plain
functions or span-recording wrappers, so the same item code serves the timed
and the traced run.  Checks and digest records call the library directly:
they run outside every timer and are not counted as layer calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterator

from sgring import core, curve, fourgen, hilbert, oracle
from sgring.core import RingSpec, order_of
from sgring.curve import CurveSpec

# Every public call an item may make, by layer name.
LAYERS: dict[str, Callable] = {
    "core.subgroup_classes": core.subgroup_classes,
    "oracle.corners": oracle.corners,
    "oracle.hilbert_function": oracle.hilbert_function,
    "oracle.gsw_cm_check": oracle.gsw_cm_check,
    "oracle.fourgen_constants_bruteforce": oracle.fourgen_constants_bruteforce,
    "hilbert.hilbert_data": hilbert.hilbert_data,
    "hilbert.is_cm": hilbert.is_cm,
    "fourgen.constants": fourgen.constants,
    "fourgen.is_cm": fourgen.is_cm,
    "fourgen.monomial_basis": fourgen.monomial_basis,
    "fourgen.length_bound": fourgen.length_bound,
    "curve.constants": curve.constants,
    "curve.CurveConstants.to_fourgen": curve.CurveConstants.to_fourgen,
    "curve.is_cm": curve.is_cm,
    "curve.special_case_cm": curve.special_case_cm,
}

CONST_FIELDS = ("a1", "b1", "g1", "h1", "a2", "b2", "g2", "h2", "a3", "b3", "g3", "h3")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: Callable[[random.Random], Iterator]  # endless seeded input stream
    run: Callable[[dict, object], dict]  # one item: library calls through L
    checker: Callable[[], Callable[[object, dict], list[str]]]  # new check(item, out)
    record: Callable[[object, dict], tuple]  # plain-integer digest record
    counts: Callable[[object, dict], dict[str, int]]  # work computed from outputs
    reference_items: int  # fixed list: digest, peak memory and traced run
    cli: Callable[[random.Random], tuple[list[str], Callable]]  # argv, output check


def _fields(consts) -> tuple[int, ...]:
    return tuple(getattr(consts, k) for k in CONST_FIELDS)


def _compact(spec: RingSpec) -> str:
    return f"{spec.a},{spec.b};" + ",".join(f"{p}:{q}" for p, q in spec.gens)


def _check_cm(verdicts: dict[str, bool]) -> list[str]:
    if len(set(verdicts.values())) == 1:
        return []
    return [f"CM criteria disagree: {verdicts}"]


def _check_hf(hd, lo: int, hf: list[int]) -> list[str]:
    """HF(n) = P(n) for n >= N, and HF(N-1) != P(N-1) when N >= 1."""
    bad = []
    big_n = hd.stabilization
    for n, v in enumerate(hf, start=lo):
        if n >= big_n and v != hd.value(n):
            bad.append(f"HF({n}) = {v} != P({n}) = {hd.value(n)}")
        if big_n >= 1 and n == big_n - 1 and v == hd.value(n):
            bad.append(f"HF(N-1) = P(N-1) = {v} although N = {big_n}")
    return bad


def _check_constants(fast, brute) -> list[str]:
    if _fields(fast) == _fields(brute):
        return []
    return [f"fast constants {_fields(fast)} != brute force {_fields(brute)}"]


def _check_basis(basis, cs) -> list[str]:
    if basis.monomials == frozenset(cs.corners):
        return []
    return [f"basis ({len(basis.monomials)}) != corner set ({len(cs)})"]


def _ring_record(spec: RingSpec, out: dict) -> tuple:
    hd = out["hd"]
    return (spec.a, spec.b, spec.gens, tuple(sorted(out["cs"].corners)),
            hd.multiplicity, hd.constant, hd.stabilization,
            out["cm"], out["cone"], out["lo"], tuple(out["hf"]))


def _corner_counts(out: dict) -> dict[str, int]:
    cs = out["cs"]
    return {"oracle.corners.corners_out": len(cs),
            "oracle.corners.classes_out": len(cs.grids),
            "hilbert.hilbert_data.classes_in": len(cs.by_class)}


def _basis_counts(basis) -> dict[str, int]:
    return {"fourgen.monomial_basis.pairs_out": len(basis.pairs),
            "fourgen.monomial_basis.iterations": basis.iterations}


def _search_bound(d: int, n: int, el, fm) -> int:
    """ord(e,l) * ord(f,m): the pair range the constants search may scan."""
    return order_of(el, (d, n)) * order_of(fm, (d, n))


def _run_corner_path(L, spec: RingSpec, lo: int | None) -> dict:
    """corners -> hilbert_data -> is_cm -> gsw_cm_check -> HF on [lo, N+3].

    lo=None starts the Hilbert function at max(N-1, 0).
    """
    cs = L["oracle.corners"](spec)
    hd = L["hilbert.hilbert_data"](spec, cs)
    cm = L["hilbert.is_cm"](spec, cs)
    cone = L["oracle.gsw_cm_check"](spec, cs)[0]
    if lo is None:
        lo = max(hd.stabilization - 1, 0)
    hf = [L["oracle.hilbert_function"](spec, n, cs) for n in range(lo, hd.stabilization + 4)]
    return {"cs": cs, "hd": hd, "cm": cm, "cone": cone, "lo": lo, "hf": hf}


# --- small_family -------------------------------------------------------

SMALL_VECS = [(p, q) for p in range(13) for q in range(13) if (p, q) != (0, 0)]


def small_items(rng: random.Random) -> Iterator[RingSpec]:
    """a, b <= 6, 0-3 distinct middle generators, exponents <= 12."""
    while True:
        yield RingSpec(rng.randint(1, 6), rng.randint(1, 6),
                       tuple(rng.sample(SMALL_VECS, rng.randint(0, 3))))


def small_run(L, spec: RingSpec) -> dict:
    """The `verify --hf-range N-1..N+3` path."""
    out = _run_corner_path(L, spec, lo=None)
    if len(spec.gens) == 2:
        el, fm = spec.gens
        consts = L["fourgen.constants"](spec.a, spec.b, el, fm)
        out["brute"] = L["oracle.fourgen_constants_bruteforce"](spec.a, spec.b, el, fm)
        out["basis"] = L["fourgen.monomial_basis"](consts)
        out["sign"] = L["fourgen.is_cm"](consts)
        out["consts"] = consts
    return out


def small_check(spec: RingSpec, out: dict) -> list[str]:
    verdicts = {"corner_unique": out["cm"], "cone_shift": out["cone"],
                "length_equals_multiplicity": len(out["cs"]) == out["hd"].multiplicity}
    bad = _check_hf(out["hd"], out["lo"], out["hf"])
    if "consts" in out:
        verdicts["fourgen_sign"] = out["sign"]
        bad += _check_constants(out["consts"], out["brute"])
        bad += _check_basis(out["basis"], out["cs"])
    return _check_cm(verdicts) + bad


def small_record(spec: RingSpec, out: dict) -> tuple:
    rec = _ring_record(spec, out)
    if "consts" in out:
        rec += (_fields(out["consts"]), out["sign"], out["basis"].iterations)
    return rec


def small_counts(spec: RingSpec, out: dict) -> dict[str, int]:
    counts = _corner_counts(out)
    if "consts" in out:
        counts["fourgen.constants.search_bound"] = _search_bound(spec.a, spec.b, *spec.gens)
        counts.update(_basis_counts(out["basis"]))
    return counts


def small_cli(rng: random.Random):
    spec = next(s for s in small_items(rng) if len(s.gens) == 2)
    cs = oracle.corners(spec)
    hd = hilbert.hilbert_data(spec, cs)
    lo, hi = max(hd.stabilization - 1, 0), hd.stabilization + 3
    hf = [oracle.hilbert_function(spec, n, cs) for n in range(lo, hi + 1)]
    names = ["cm_agreement", "hilbert_function", "constants",
             "basis_equals_corners", "candidate_box_size"]

    def expect(code: int, doc: dict) -> list[str]:
        got = [c["name"] for c in doc["checks"]]
        hf_detail = doc["checks"][1]["detail"] if len(got) > 1 else ""
        if code != 0 or not doc["passed"] or got != names:
            return [f"verify exit {code}, passed {doc['passed']}, checks {got}"]
        if not hf_detail.startswith(f"HF({lo}..{hi}) = {hf},"):
            return [f"verify HF detail {hf_detail!r} != library {hf}"]
        return []

    return ["verify", _compact(spec), "--hf-range", f"{lo}..{hi}", "--json"], expect


# --- large_rings --------------------------------------------------------

LARGE_AB = (12, 22)
# Representative CLI ring: the four-generator shape named in the ROADMAP.
LARGE_CLI_AB = 80


def large_items(rng: random.Random) -> Iterator[RingSpec]:
    """a, b in LARGE_AB; gens (1, b-1), (a-1, 1) and two in [1, a) x [1, b).

    (a, b) is dealt from a shuffled deck of every pair in range, so each
    deck of 121 items, the reference list included, has the same size mix
    whatever the seed.
    """
    lo, hi = LARGE_AB
    deck = [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
    while True:
        rng.shuffle(deck)
        for a, b in deck:
            while True:
                extra = tuple((rng.randrange(1, a), rng.randrange(1, b)) for _ in range(2))
                spec = RingSpec(a, b, ((1, b - 1), (a - 1, 1)) + extra)
                if len(spec.gens) == 4:
                    yield spec
                    break


def large_run(L, spec: RingSpec) -> dict:
    """The `analyze --oracle` path plus HF over 0..N+3."""
    out = _run_corner_path(L, spec, lo=0)
    out["H"] = L["core.subgroup_classes"](spec)
    return out


def large_check(spec: RingSpec, out: dict) -> list[str]:
    hd = out["hd"]
    bad = _check_cm({"corner_unique": out["cm"], "cone_shift": out["cone"],
                     "length_equals_multiplicity": len(out["cs"]) == hd.multiplicity})
    if len(out["H"]) != hd.multiplicity:
        bad.append(f"|H| = {len(out['H'])} != multiplicity {hd.multiplicity}")
    return bad + _check_hf(hd, out["lo"], out["hf"])


def large_record(spec: RingSpec, out: dict) -> tuple:
    return _ring_record(spec, out) + (len(out["H"]),)


def large_counts(spec: RingSpec, out: dict) -> dict[str, int]:
    counts = _corner_counts(out)
    counts["core.subgroup_classes.classes_out"] = len(out["H"])
    return counts


def large_cli(rng: random.Random):
    a = b = LARGE_CLI_AB
    spec = RingSpec(a, b, ((1, b - 1), (a - 1, 1), (7, 11), (13, 5)))
    cs = oracle.corners(spec)
    hd = hilbert.hilbert_data(spec, cs)
    want = {"length": len(cs), "multiplicity": hd.multiplicity,
            "constant_C": hd.constant, "stabilization_N": hd.stabilization,
            "is_cm": hilbert.is_cm(spec, cs),
            "subgroup_size": len(core.subgroup_classes(spec))}

    def expect(code: int, doc: dict) -> list[str]:
        got = {k: doc.get(k) for k in want}
        if got != want or code != (0 if want["is_cm"] else 3):
            return [f"analyze exit {code}, fields {got} != library {want}"]
        return []

    return ["analyze", _compact(spec), "--oracle", "--json"], expect


# --- fastpath -----------------------------------------------------------

CURVE_MAX_N = 60  # every curve 0 < l < m < n <= CURVE_MAX_N
CURVE_CORNER_CHECK_N = 40  # basis = corner set is checked for n <= this
CURVES_PER_RING = 20
CLI_MAX_N = 30


def _subgroup_ring(rng: random.Random) -> tuple:
    """Coprime d, n in [100, 199]; generators in a subgroup of order <= 576.

    Both generators are multiples of (d/h1, n/h2) with h1, h2 in [12, 24],
    so |H| <= 576: the search still scans up to ord(e,l)*ord(f,m) pairs,
    while the basis, at most |H|(|H|+1)/2 pairs, stays small.
    """
    while True:
        h1, h2 = rng.randint(12, 24), rng.randint(12, 24)
        r1, r2 = rng.randint(-(-100 // h1), 199 // h1), rng.randint(-(-100 // h2), 199 // h2)
        d, n = h1 * r1, h2 * r2
        if gcd(d, n) != 1:
            continue
        gens = set()
        while len(gens) < 2:
            i, k = rng.randrange(h1), rng.randrange(h2)
            if (i, k) != (0, 0):
                gens.add((r1 * i, r2 * k))
        el, fm = sorted(gens)
        return (d, n, el, fm)


def fast_items(rng: random.Random) -> Iterator:
    """Every curve with n <= CURVE_MAX_N in seeded order, one ring per
    CURVES_PER_RING curves; the curve list is reshuffled on each cycle."""
    curves = [(n, l, m) for n in range(3, CURVE_MAX_N + 1)
              for l in range(1, n) for m in range(l + 1, n)]
    while True:
        rng.shuffle(curves)
        for i, c in enumerate(curves):
            if i % CURVES_PER_RING == 0:
                yield _subgroup_ring(rng)
            yield CurveSpec(*c)


def fast_run(L, item) -> dict:
    if isinstance(item, CurveSpec):
        cc = L["curve.constants"](item)
        fg = L["curve.CurveConstants.to_fourgen"](cc)
        basis = L["fourgen.monomial_basis"](fg)
        return {"cc": cc, "consts": fg, "basis": basis,
                "attained": L["fourgen.length_bound"](fg, basis),
                "cm": L["curve.is_cm"](cc), "closed": L["curve.special_case_cm"](item)}
    d, n, el, fm = item
    consts = L["fourgen.constants"](d, n, el, fm)
    return {"consts": consts, "basis": L["fourgen.monomial_basis"](consts),
            "cm": L["fourgen.is_cm"](consts)}


def _group_order(d: int, n: int, el, fm) -> int:
    """|H| = d*n / det(lattice of (d,0), (0,n), el, fm), det = gcd of 2x2 minors."""
    (e, l), (f, m) = el, fm
    det = 0
    for minor in (d * n, d * l, d * m, n * e, n * f, e * m - l * f):
        det = gcd(det, minor)
    return d * n // det


def fast_checker() -> Callable[[object, dict], list[str]]:
    """Check each curve fully once; a repeat of a curve (the family is
    cycled) must reproduce the record of its first, correct result."""
    passed: dict[tuple, int] = {}

    def check(item, out: dict) -> list[str]:
        if not isinstance(item, CurveSpec):
            return _fast_check(item, out)
        key, rec = (item.n, item.l, item.m), hash(fast_record(item, out))
        if key in passed:
            return [] if passed[key] == rec else [f"curve {key} gave a different result on a repeat"]
        bad = _fast_check(item, out)
        if not bad:
            passed[key] = rec
        return bad

    return check


def _fast_check(item, out: dict) -> list[str]:
    consts, basis = out["consts"], out["basis"]
    if isinstance(item, CurveSpec):
        n = item.n
        (e, l), (f, m) = item.ring_gens()
        bad = _check_constants(consts, oracle.fourgen_constants_bruteforce(n, n, (e, l), (f, m)))
        h = out["cc"].group_order
        verdicts = {"curve": out["cm"], "fourgen_sign": fourgen.is_cm(consts)}
        if out["closed"] is not None:
            verdicts["closed_form"] = out["closed"]
        if n <= CURVE_CORNER_CHECK_N:
            ring = RingSpec(n, n, item.ring_gens())
            cs = oracle.corners(ring)
            verdicts["cone_shift"] = oracle.gsw_cm_check(ring, cs)[0]
            bad += _check_basis(basis, cs)
        bad += _check_cm(verdicts)
        if out["attained"] != (len(basis.pairs) == h * (h + 1) // 2):
            bad.append(f"length_bound returned {out['attained']} for |B| = {len(basis.pairs)}")
        return bad
    d, n, el, fm = item
    bad = _check_constants(consts, oracle.fourgen_constants_bruteforce(d, n, el, fm))
    h = _group_order(d, n, el, fm)
    classes = {(x % d, y % n) for x, y in basis.monomials}
    if consts.group_order != h or len(classes) != h:
        bad.append(f"|H| = {h}, constants give {consts.group_order}, basis hits {len(classes)} classes")
    if len(basis.monomials) != len(basis.pairs) or len(basis.pairs) > h * (h + 1) // 2:
        bad.append(f"basis has {len(basis.pairs)} pairs, {len(basis.monomials)} monomials, |H| = {h}")
    return bad


def fast_record(item, out: dict) -> tuple:
    basis = out["basis"]
    key = (item.n, item.l, item.m) if isinstance(item, CurveSpec) else item
    return (key, _fields(out["consts"]), tuple(sorted(basis.pairs)),
            basis.iterations, out["cm"], out.get("attained"), out.get("closed"))


def fast_counts(item, out: dict) -> dict[str, int]:
    counts = _basis_counts(out["basis"])
    if isinstance(item, CurveSpec):
        n = item.n
        el, fm = item.ring_gens()
        counts["curve.constants.search_bound"] = _search_bound(n, n, el, fm)
    else:
        counts["fourgen.constants.search_bound"] = _search_bound(*item)
    return counts


def fast_cli(rng: random.Random):
    want = []
    for n in range(3, CLI_MAX_N + 1):
        for l in range(1, n):
            for m in range(l + 1, n):
                cc = curve.constants(CurveSpec(n, l, m))
                fg = cc.to_fourgen()
                basis = fourgen.monomial_basis(fg)
                want.append({"n": n, "l": l, "m": m, "is_cm": curve.is_cm(cc),
                             "H": cc.group_order, "basis_size": len(basis.pairs),
                             "bound_attained": fourgen.length_bound(fg, basis)})

    def expect(code: int, doc: list) -> list[str]:
        if code != 0 or doc != want:
            return [f"batch exit {code}, {len(doc)} rows differ from the library's {len(want)}"]
        return []

    return ["batch", "--curves", "--max-n", str(CLI_MAX_N), "--json"], expect


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_family",
            why="thousands of tiny rings (a, b <= 6) through the verify path: "
                "per-call overhead on small corner sets, as in acceptance criteria "
                "6, 7 and 10",
            items=small_items, run=small_run, checker=lambda: small_check,
            record=small_record, counts=small_counts,
            reference_items=5000, cli=small_cli,
        ),
        Workload(
            name="large_rings",
            why="four-generator rings with a, b in 12..22 through analyze --oracle "
                "and HF over 0..N+3: corner enumeration does most of the work",
            items=large_items, run=large_run, checker=lambda: large_check,
            record=large_record, counts=large_counts,
            reference_items=121, cli=large_cli,
        ),
        Workload(
            name="fastpath",
            why="every curve with n <= 60 and two-generator rings with coprime d, n "
                "in 100..199 through constants and basis expansion, with no corner "
                "enumeration",
            items=fast_items, run=fast_run, checker=fast_checker,
            record=fast_record, counts=fast_counts,
            reference_items=5100, cli=fast_cli,
        ),
    )
}
