"""Seeded generator of the benchmark's session files.

    python3 perfbench/gen.py --seed 7 --out DIR

writes one session JSON per workload into DIR. The seed draws moduli from a
fixed size class, window exponents, series coefficients, submodule generators
and table labellings, so the work in a session is comparable across seeds while
the inputs differ. The same seed gives byte-identical files.

Every session is built so that each command succeeds and every verification
passes on a correct program: a failing command in a benchmark run is a defect.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

WORKLOADS = ("verify_window", "module_structure", "table_build", "command_stream")

BUDGET = 10_000_000

# pairs of moduli whose analyze + finite_ring_chain + domain_prime_extension
# costs sum to within 2% of each other (calibrated timings), so a seed changes
# the rings, not the work
STRUCTURE_MODULI = ((120, 138), (126, 132))
TABLE_ZMOD_MODULI = (252, 253, 254, 255, 256)
STREAM_MODULI = tuple(range(6, 31))


def _terms(pairs) -> list:
    return [{"exponent": e, "coefficient": c} for e, c in pairs]


def _verify(statement: str, monoid: str | None = None, window=None, **objects) -> dict:
    cmd = {"op": "verify", "statement": statement, **objects}
    if monoid is not None:
        cmd["monoid"] = monoid
        cmd["window"] = window
    return cmd


def _distinct_ints(rng: random.Random, count: int, hi: int) -> list[int]:
    return sorted(rng.sample(range(hi), count))


def _progression(rng: random.Random, count: int) -> list[int]:
    """Exponents a, a+d, a+2d, ...: every seed gets the same pattern of sums."""
    a, d = rng.randrange(4), rng.randint(1, 2)
    return [a + i * d for i in range(count)]


def _distinct_vectors(rng: random.Random, count: int, hi: int) -> list[list[int]]:
    pool = [[a, b] for a in range(hi) for b in range(hi)]
    return sorted(rng.sample(pool, count))


def verify_window(rng: random.Random) -> dict:
    """Window verifiers on small rings over N and N^2; construction is negligible."""
    bad = rng.choice(({"kind": "saturating", "c": 2}, {"kind": "saturating", "c": 3},
                      {"kind": "cyclic_group", "k": 2}, {"kind": "cyclic_group", "k": 3}))
    wide = _distinct_vectors(rng, 6, 3)
    commands = [
        _verify("mccoy_equivalence", "N", _progression(rng, 3), ring="R6", module="M6"),
        _verify("mccoy_equivalence", "N2", _distinct_vectors(rng, 2, 3), ring="R8", module="M8"),
        _verify("mccoy_equivalence", "N", _distinct_ints(rng, 2, 6), ring="R12", module="M12"),
        _verify("mccoy_equivalence", "Bad", [0, 1], ring="R12", module="M12"),
        # wide window, one nonzero term: filtering 6^6 tuples costs more than the pairs
        {**_verify("mccoy_equivalence", "N2", wide, ring="R6", module="M6"), "max_support": 1},
        _verify("regularity_transfer", "N", _progression(rng, 3), ring="R12", module="M12"),
        _verify("regularity_transfer", "N2", _distinct_vectors(rng, 2, 3), ring="R8", module="M8"),
        _verify("submodule_transfer", "N", _distinct_ints(rng, 2, 6), submodule="P12"),
        _verify("zero_divisor_transfer", "N", _distinct_ints(rng, 2, 6), ring="T", module="MT"),
        _verify("zero_divisor_transfer", "N", _progression(rng, 3), ring="R12", module="M12"),
        _verify("domain_prime_extension", "N", _distinct_ints(rng, 2, 6), ring="R6", module="M6"),
        _verify("finite_ring_chain", ring="R12"),
        _verify("finite_ring_chain", ring="T"),
    ]
    return {
        "settings": {"budget": BUDGET},
        "rings": {"R6": {"kind": "zmod", "n": 6}, "R8": {"kind": "zmod", "n": 8},
                  "R12": {"kind": "zmod", "n": 12},
                  "T": {"kind": "truncated_poly", "p": 2, "nvars": 2, "cap": 3}},
        "monoids": {"N": {"kind": "free", "dim": 1}, "N2": {"kind": "free", "dim": 2},
                    "Bad": bad},
        "modules": {"M6": {"kind": "ring_as_module", "ring": "R6"},
                    "M8": {"kind": "ring_as_module", "ring": "R8"},
                    "M12": {"kind": "ring_as_module", "ring": "R12"},
                    "MT": {"kind": "ring_as_module", "ring": "T"}},
        "submodules": {"P12": {"module": "M12", "gens": rng.choice(([2], [3], [4], [6], [4, 6]))}},
        "series": {},
        "commands": commands,
    }


def module_structure(rng: random.Random) -> dict:
    """Zero-divisor structure and prime enumeration, where closures mostly miss the memo."""
    n1, n2 = rng.sample(rng.choice(STRUCTURE_MODULI), 2)
    # an element (x, y) of Z/12 (+) Z/12 has index 12 x + y
    quotient_gens = rng.choice(([6 * 12], [6], [6 * 12 + 6], [4 * 12], [3 * 12 + 3], [4 * 12 + 6]))
    window = [rng.randrange(4)]
    commands = [
        {"op": "analyze", "module": "Ma"},
        {"op": "analyze", "module": "Mb"},
        {"op": "analyze", "module": "ME"},
        {"op": "analyze", "module": "S"},
        {"op": "analyze", "module": "Q"},
        _verify("finite_ring_chain", ring="Za"),
        _verify("finite_ring_chain", ring="Zb"),
        _verify("finite_ring_chain", ring="E"),
        _verify("domain_prime_extension", "N", window, ring="Za", module="Ma"),
        _verify("domain_prime_extension", "N", window, ring="Zb", module="Mb"),
        _verify("domain_prime_extension", "N", window, ring="D", module="MD"),
        _verify("domain_prime_extension", "N", window, ring="R12", module="S"),
        _verify("domain_prime_extension", "N", window, ring="R12", module="Q"),
        _verify("regularity_transfer", "N", _distinct_ints(rng, 2, 4), ring="R12", module="S"),
    ]
    return {
        "settings": {"budget": BUDGET},
        "rings": {"Za": {"kind": "zmod", "n": n1}, "Zb": {"kind": "zmod", "n": n2},
                  "E": {"kind": "truncated_poly", "p": 2, "nvars": 5, "cap": 2},
                  "D": {"kind": "truncated_poly", "p": 2, "nvars": 4, "cap": 2},
                  "R12": {"kind": "zmod", "n": 12}},
        "monoids": {"N": {"kind": "free", "dim": 1}},
        "modules": {"Ma": {"kind": "ring_as_module", "ring": "Za"},
                    "Mb": {"kind": "ring_as_module", "ring": "Zb"},
                    "ME": {"kind": "ring_as_module", "ring": "E"},
                    "MD": {"kind": "ring_as_module", "ring": "D"},
                    "M12": {"kind": "ring_as_module", "ring": "R12"},
                    "S": {"kind": "direct_sum", "left": "M12", "right": "M12"},
                    "Q": {"kind": "quotient", "module": "S", "submodule": "NS"}},
        "submodules": {"NS": {"module": "S", "gens": quotient_gens}},
        "series": {},
        "commands": commands,
    }


def _product_ring_tables(rng: random.Random, m: int) -> dict:
    """Z/m x Z/m as explicit tables under a seeded relabelling of its elements."""
    n = m * m
    perm = list(range(n))
    rng.shuffle(perm)

    def add(x, y):
        return ((x // m + y // m) % m) * m + (x % m + y % m) % m

    def mul(x, y):
        return ((x // m * (y // m)) % m) * m + (x % m * (y % m)) % m

    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    add_t = [[perm[add(inv[a], inv[b])] for b in range(n)] for a in range(n)]
    mul_t = [[perm[mul(inv[a], inv[b])] for b in range(n)] for a in range(n)]
    return {"kind": "tables", "add": add_t, "mul": mul_t,
            "zero": perm[0], "one": perm[1 * m + 1]}


def table_build(rng: random.Random) -> dict:
    """243-256 element rings and their modules; construction and audits dominate."""
    nz = rng.choice(TABLE_ZMOD_MODULI)
    f = [(e, rng.randrange(1, nz)) for e in _distinct_ints(rng, 2, 4)]
    g = [(e, rng.randrange(1, nz)) for e in _distinct_ints(rng, 2, 4)]
    return {
        "settings": {"budget": BUDGET},
        "rings": {"Zn": {"kind": "zmod", "n": nz},
                  "P3": {"kind": "truncated_poly", "p": 3, "nvars": 4, "cap": 2},
                  "X": _product_ring_tables(rng, 16),
                  "Z16": {"kind": "zmod", "n": 16}},
        "monoids": {"N": {"kind": "free", "dim": 1}},
        "modules": {"MZ": {"kind": "ring_as_module", "ring": "Zn"},
                    "MP3": {"kind": "ring_as_module", "ring": "P3"},
                    "MX": {"kind": "ring_as_module", "ring": "X"},
                    "M16": {"kind": "ring_as_module", "ring": "Z16"},
                    "DS": {"kind": "direct_sum", "left": "M16", "right": "M16"}},
        "submodules": {},
        "series": {"f": {"ring": "Zn", "monoid": "N", "terms": _terms(f)},
                   "g": {"module": "MZ", "monoid": "N", "terms": _terms(g)}},
        "commands": [
            {"op": "dm", "f": "f", "g": "g"},
            {"op": "zdtest", "f": "f", "module": "MZ"},
            {"op": "analyze", "module": "DS"},
            _verify("finite_ring_chain", ring="Z16"),
            _verify("regularity_transfer", "N", [0, rng.randrange(1, 4)], ring="Z16", module="M16"),
        ],
    }


STREAM_COMMANDS = 4000
STREAM_SERIES = 8


def _random_terms(rng: random.Random, coeffs) -> list:
    exps = _distinct_ints(rng, rng.randint(1, 3), 4)
    return [(e, rng.choice(coeffs)) for e in exps]


def command_stream(rng: random.Random) -> dict:
    """Thousands of cheap commands over Z/6..Z/30; per-command overhead dominates."""
    rings, modules, series = {}, {}, {}
    pairs: dict[int, list] = {}
    for n in STREAM_MODULI:
        rings[f"Z{n}"] = {"kind": "zmod", "n": n}
        modules[f"M{n}"] = {"kind": "ring_as_module", "ring": f"Z{n}"}
        for i in range(STREAM_SERIES):
            series[f"f{n}_{i}"] = {"ring": f"Z{n}", "monoid": "N",
                                   "terms": _terms(_random_terms(rng, range(1, n)))}
            series[f"g{n}_{i}"] = {"module": f"M{n}", "monoid": "N",
                                   "terms": _terms(_random_terms(rng, range(1, n)))}
        divisors = [a for a in range(2, n) if n % a == 0]
        if divisors:
            pairs[n] = []
            for i in range(STREAM_SERIES):
                # coefficients in (a) times coefficients in (n/a) multiply to 0 mod n
                a = rng.choice(divisors)
                b = n // a
                series[f"mf{n}_{i}"] = {"ring": f"Z{n}", "monoid": "N", "terms": _terms(
                    _random_terms(rng, [a * k for k in range(1, b)]))}
                series[f"mg{n}_{i}"] = {"module": f"M{n}", "monoid": "N", "terms": _terms(
                    _random_terms(rng, [b * k for k in range(1, a)]))}
                pairs[n].append(i)
    composite = sorted(pairs)
    ops = ("dm", "dm", "dm", "zdtest", "zdtest", "mccoy", "mccoy", "counterexample",
           "analyze", "analyze")
    commands = []
    for c in range(STREAM_COMMANDS):
        if c % (STREAM_COMMANDS // 10) == 0:
            commands.append(_verify("mccoy_equivalence", "N", [0, 1 + rng.randrange(3)],
                                    ring="Z6", module="M6"))
        op = rng.choice(ops)
        n = rng.choice(composite if op == "mccoy" else STREAM_MODULI)
        if op == "dm":
            commands.append({"op": "dm", "f": f"f{n}_{rng.randrange(STREAM_SERIES)}",
                             "g": f"g{n}_{rng.randrange(STREAM_SERIES)}"})
        elif op == "zdtest":
            commands.append({"op": "zdtest", "f": f"f{n}_{rng.randrange(STREAM_SERIES)}",
                             "module": f"M{n}"})
        elif op == "mccoy":
            i = rng.choice(pairs[n])
            commands.append({"op": "mccoy", "f": f"mf{n}_{i}", "g": f"mg{n}_{i}"})
        elif op == "counterexample":
            q = rng.randrange(1, n)
            if rng.random() < 0.5:
                commands.append({"op": "counterexample", "kind": "noncancellative",
                                 "monoid": "Sat", "module": f"M{n}", "q": q})
            else:
                commands.append({"op": "counterexample", "kind": "torsion", "monoid": "C2",
                                 "module": f"M{n}", "q": q, "s": 1, "t": 0})
        else:
            commands.append({"op": "analyze", "module": f"M{n}"})
    return {
        "settings": {"budget": BUDGET},
        "rings": rings,
        "monoids": {"N": {"kind": "free", "dim": 1}, "Sat": {"kind": "saturating", "c": 2},
                    "C2": {"kind": "cyclic_group", "k": 2}},
        "modules": modules,
        "submodules": {},
        "series": series,
        "commands": commands,
    }


GENERATORS = {"verify_window": verify_window, "module_structure": module_structure,
              "table_build": table_build, "command_stream": command_stream}


def generate(workload: str, seed: int) -> str:
    """The session document of one workload and seed, as JSON text."""
    # each workload draws from its own stream, so adding one leaves the others unchanged
    rng = random.Random(f"{workload}:{seed}")
    return json.dumps(GENERATORS[workload](rng), separators=(",", ":")) + "\n"


def write_sessions(out_dir: Path, seed: int, workloads=WORKLOADS) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for workload in workloads:
        path = out_dir / f"{workload}.json"
        path.write_text(generate(workload, seed), encoding="utf-8")
        paths[workload] = path
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for path in write_sessions(args.out, args.seed).values():
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
