"""Quick self-test of the benchmark at tiny sizes (well under a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json lists the workloads defined in workloads.py,
that every metric it names is emitted with its unit,
that two traced runs with the same seed give equal work counts and the same
digest as an untraced run, and that each workload's checker flags
deliberately tampered results, so the correctness check is not vacuous.
"""

from __future__ import annotations

import dataclasses
import json
import random

import harness
from workloads import LAYERS, WORKLOADS

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
TINY = {"small_family": 200, "large_rings": 4, "fastpath": 300}


def assert_metrics(rec: dict, kind: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in rec["metrics"].items()}
    assert got == want, (rec["workload"], kind, sorted(set(got) ^ set(want)))


def work_counts(rec: dict) -> dict:
    return {k: v["value"] for k, v in rec["metrics"].items() if v["unit"] == "count"}


def first_item(name: str, pred):
    w = WORKLOADS[name]
    for item in w.items(random.Random(3)):
        out = w.run(LAYERS, item)
        if pred(item, out):
            return item, out


def flags(name: str, item, out: dict) -> bool:
    return bool(WORKLOADS[name].checker()(item, out))


def assert_tamper_caught() -> None:
    rep = dataclasses.replace

    item, out = first_item("small_family", lambda s, o: "consts" in o and o["hd"].stabilization >= 1)
    assert not flags("small_family", item, out)
    big_n, hd, hf = out["hd"].stabilization, out["hd"], out["hf"]
    assert flags("small_family", item, dict(out, cone=not out["cone"]))
    assert flags("small_family", item, dict(out, hf=hf[:-1] + [hf[-1] + 1]))
    at = big_n - 1 - out["lo"]
    assert flags("small_family", item, dict(out, hf=hf[:at] + [hd.value(big_n - 1)] + hf[at + 1:]))
    assert flags("small_family", item, dict(out, brute=rep(out["brute"], a2=out["brute"].a2 + 1)))
    basis = out["basis"]
    fewer = rep(basis, monomials=basis.monomials - {max(basis.monomials)})
    assert flags("small_family", item, dict(out, basis=fewer))

    item, out = first_item("large_rings", lambda s, o: True)
    assert not flags("large_rings", item, out)
    assert flags("large_rings", item, dict(out, hd=rep(out["hd"], constant=out["hd"].constant + 1)))
    assert flags("large_rings", item, dict(out, H=set(list(out["H"])[1:])))

    item, out = first_item("fastpath", lambda s, o: "cc" not in o)
    assert not flags("fastpath", item, out)
    assert flags("fastpath", item, dict(out, consts=rep(out["consts"], b2=out["consts"].b2 + 1)))
    item, out = first_item("fastpath", lambda s, o: "cc" in o and s.n <= 20 and not o["cm"])
    assert not flags("fastpath", item, out)
    basis = out["basis"]
    assert flags("fastpath", item, dict(out, basis=rep(basis, monomials=basis.monomials - {(0, 0)})))
    assert flags("fastpath", item, dict(out, attained=not out["attained"]))
    assert flags("fastpath", item, dict(out, cm=not out["cm"]))


def main() -> int:
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}, "BENCHMARK.json workloads differ"
    assert_tamper_caught()
    print("selftest: tampered results are flagged")
    for name in WORKLOADS:
        w = dataclasses.replace(WORKLOADS[name], reference_items=TINY[name])
        plain = harness.measure(w, seed=7, seconds=0.2, trace=False)
        assert_metrics(plain, "end_to_end")
        traced = [harness.measure(w, seed=7, seconds=0.0, trace=True) for _ in range(2)]
        assert_metrics(traced[0], "per_layer")
        for rec in [plain] + traced:
            assert rec["correct"] and rec["failed"] == 0, (name, rec["problems"])
        assert work_counts(traced[0]) == work_counts(traced[1]), name
        assert plain["digest"] == traced[0]["digest"] == traced[1]["digest"], name
        print(f"selftest: {name} emits every metric; counts and digest repeat")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
