"""Independent checks of session records, and the benchmark's own work counts.

Facts about Z/n (zero-divisors, primes, annihilators) are recomputed here with
integer arithmetic rather than read back from the program, so a wrong answer
fails the check even when it is deterministic.
"""

from __future__ import annotations

from math import comb, gcd

PAIR_STATEMENTS = ("mccoy_equivalence", "submodule_transfer", "regularity_transfer")


def window_count(size: int, exponents: int, max_support: int | None) -> int:
    """Coefficient assignments on a window of the given length."""
    if max_support is None or max_support >= exponents:
        return size ** exponents
    return sum(comb(exponents, j) * (size - 1) ** j for j in range(max_support + 1))


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class SessionFacts:
    """Sizes and moduli of a loaded session, looked up by object name."""

    def __init__(self, doc: dict, session):
        self.doc = doc
        self.session = session

    def zmod_of_module(self, name: str) -> int | None:
        defn = self.doc["modules"].get(name, {})
        if defn.get("kind") != "ring_as_module":
            return None
        return self.zmod_of_ring(defn["ring"])

    def zmod_of_ring(self, name: str) -> int | None:
        defn = self.doc["rings"].get(name, {})
        return int(defn["n"]) if defn.get("kind") == "zmod" else None

    def good_monoid(self, name: str) -> bool:
        # the generator writes no table monoids: free ones are the only
        # cancellative torsion-free kind it uses
        return self.doc["monoids"][name]["kind"] == "free"

    def series_coeffs(self, name: str) -> list[int]:
        return [t["coefficient"] for t in self.doc["series"][name]["terms"]]

    def _window_sizes(self, cmd: dict) -> tuple[int, int]:
        e = len(cmd["window"])
        ms = cmd.get("max_support")
        if cmd["statement"] == "submodule_transfer":
            module = self.session.submodules[cmd["submodule"]].module
            ring_size = module.ring.size
        else:
            ring_size = self.session.rings[cmd["ring"]].size
            module = self.session.modules.get(cmd.get("module"))
        nf = window_count(ring_size, e, ms)
        ng = window_count(module.size, e, ms) if module is not None else 0
        return nf, ng

    def window_pairs(self, cmd: dict) -> int:
        """|R-window| * |M-window| of a pair verifier on a good monoid, else 0."""
        if (cmd.get("op") != "verify" or cmd.get("statement") not in PAIR_STATEMENTS
                or not self.good_monoid(cmd["monoid"])):
            return 0
        nf, ng = self._window_sizes(cmd)
        return nf * ng

    def instances(self, cmd: dict, payload: dict) -> int:
        """The instance count each verifier's docstring states."""
        statement = cmd["statement"]
        if statement == "finite_ring_chain":
            return 2
        details = payload["details"]
        if statement == "mccoy_equivalence" and not self.good_monoid(cmd["monoid"]):
            return (self.session.modules[cmd["module"]].size - 1) ** 2
        nf, ng = self._window_sizes(cmd)
        if statement in ("mccoy_equivalence", "submodule_transfer"):
            return nf * ng
        if statement == "regularity_transfer":
            return nf
        if statement == "domain_prime_extension":
            clause1 = (nf - 1) ** 2 if details["ring_is_domain"] else 1
            return (clause1 + details["primes_checked"] * nf * nf
                    + details["associated_primes_checked"] * nf)
        n = details["degree"]
        return nf + n * (n - 1) + (n * nf if details["very_few"] else 0)


def _zmod_primes(n: int) -> list[list[int]]:
    return [list(range(0, n, p)) for p in prime_factors(n)]


def check_record(facts: SessionFacts, record: dict) -> str | None:
    """None when the record is right, else the reason it is wrong."""
    cmd, payload = record["command"], record["payload"]
    if record["status"] != "ok":
        return f"status {record['status']}: {payload}"
    op = cmd["op"]
    if op == "verify":
        if payload["outcome"] != "pass":
            return f"outcome {payload['outcome']}"
        n = facts.zmod_of_ring(cmd.get("ring", ""))
        if cmd["statement"] == "finite_ring_chain" and n is not None:
            if payload["details"]["primes"] != _zmod_primes(n):
                return "finite_ring_chain primes differ from the prime factors"
        return None
    if op == "analyze":
        n = facts.zmod_of_module(cmd["module"])
        if n is not None:
            if payload["zero_divisors"] != [x for x in range(n) if gcd(x, n) > 1]:
                return "zero-divisor set differs from the non-units"
            if payload["decomposition"]["primes"] != _zmod_primes(n):
                return "decomposition differs from the prime factors"
            if payload["primal"]["is_primal"] != (len(prime_factors(n)) == 1):
                return "primality differs from the prime-power test"
        return None
    if op == "mccoy":
        n = facts.zmod_of_ring(facts.doc["series"][cmd["f"]].get("ring", ""))
        w = payload["witness"]
        if n is not None and not (0 < w < n and all(a * w % n == 0
                                                     for a in facts.series_coeffs(cmd["f"]))):
            return f"witness {w} does not annihilate f"
        return None
    if op == "zdtest":
        n = facts.zmod_of_module(cmd["module"])
        if n is not None:
            d = n
            for a in facts.series_coeffs(cmd["f"]):
                d = gcd(d, a)
            if payload["is_zero_divisor"] != (d > 1):
                return "zero-divisor verdict differs from the content gcd"
            if payload["annihilator"] != list(range(0, n, n // d)):
                return "annihilator differs from the multiples of n/gcd"
        return None
    if op == "dm":
        if payload["k_min"] is None or payload["k_min"] < 1 or not payload["chain"][-1]["equal"]:
            return "no Dedekind-Mertens exponent within the default cap"
        return None
    if op == "counterexample":
        if not payload["product_zero"]:
            return "construction product does not vanish"
        return None
    return f"unexpected op {op!r}"
