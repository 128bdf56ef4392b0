"""Empirical theorem audit: sweep moduli, test every registered statement,
and report counterexamples.

Each statement is a check registered with @claim, which names it.  check(m)
yields one (witness, expected, actual) tuple per counterexample; run_audit
files each under the registered id and the m it passed.  Global statements
(no modulus) run once, with the sentinel m = 0.  The sweep then takes each m
in turn and runs every other check on it, so the checks share one live
per-modulus context, _ctx(m), replaced when the next m starts.  Findings are
sorted per claim at the end, so the report does not depend on loop order.

Conditional statements are audited as conditionals: instances failing the
hypothesis are skipped, never counted as passes.  Statements with zero
findings are marked verified-on-range — never "proved".
"""
from __future__ import annotations

import json
import math
from functools import cached_property, lru_cache

from .arith import Record, build_modulus, canon
from .idempotents import idem_class, index, order, signed_power
from .oracle import (
    oracle_idempotents,
    oracle_is_regular,
    oracle_r_count,
    oracle_rho_count,
    oracle_union_size,
)
from .residues import (
    class_product,
    is_normal,
    is_regular,
    join_witness,
    mu,
    normal_set,
    orbit_gcd,
    regular_set,
    relative_order,
    structure_table,
)
from .congruence import (
    gen_primitive_roots,
    omega_info,
    omega_value,
    solvable_bc01,
)
from .counting import (
    builtin_function,
    classify_function,
    lcm_lift,
    rho_closed_form,
    rho_prime_power,
)
from .algebra import verify_algebra
from .quadratic import kernel, root_decompose, sqrt_structure, kernel_op, class_kernel_op


class AuditFinding(Record):
    theorem_id: str
    modulus: int
    witness: dict
    expected: object
    actual: object

    def sort_key(self):
        return (self.modulus, self.theorem_id, sorted(self.witness.items()))

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "modulus": self.modulus,
            "witness": self.witness,
            "expected": self.expected,
            "actual": self.actual,
        }


class TheoremResult(Record):
    theorem_id: str
    status: str  # "verified-on-range" | "counterexamples"
    findings: list[AuditFinding]


class AuditReport(Record):
    lo: int
    hi: int
    results: list[TheoremResult]

    def to_json(self) -> dict:
        return {
            "range": [self.lo, self.hi],
            "theorems": [
                {
                    "id": r.theorem_id,
                    "status": r.status,
                    "findings": [f.to_json() for f in r.findings],
                }
                for r in self.results
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


class _Ctx:
    """Shared per-modulus reference tables for the checks, which read them
    rather than recompute them.

    Built with the context: E and Eset (the idempotents), R and Rset (the
    regular residues), N and Nset (the normal ones), orders and classes
    (|a| and a's idempotent class, 0 for a non-regular a) and by_class (each
    class R_m^e ascending), from the library's tables.  Built on first use,
    so a check that needs none of them does not pay for them: ind (the walk
    of each regular b's powers), powers (the same walk as a list, so that
    b^n = powers[b][(n - 1) % |b|] for n >= 1), orbits (each orb(b) as a
    set), images(k) (the k-th powers of all residues) and algebra (the
    operator-law report).  Everything dies with the context, when the sweep
    moves to the next modulus."""

    def __init__(self, m: int):
        self.m = m
        self.mod = build_modulus(m)
        self.table = structure_table(m)
        self.E = list(self.table.idempotents.elements)
        self.Eset = set(self.E)
        self.R = list(self.table.regulars)
        self.Rset = set(self.R)
        self.orders = self.table.orders
        self.classes = self.table.classes
        self.N = normal_set(m)
        self.Nset = set(self.N)
        self.by_class = self.table.by_class
        self._images: dict[int, frozenset[int]] = {}

    @cached_property
    def ind(self) -> dict[int, dict[int, int]]:
        """For each regular b: power of b -> smallest exponent."""
        m = self.m
        ind = {}
        for b in self.R:
            walk: dict[int, int] = {}
            x = 1 % m
            for k in range(1, self.orders[b] + 1):
                x = x * b % m
                walk.setdefault(x or m, k)
            ind[b] = walk
        return ind

    @cached_property
    def powers(self) -> dict[int, list[int]]:
        """For each regular b: [b^1, ..., b^|b|], in canonical form."""
        return {b: list(walk) for b, walk in self.ind.items()}

    def first_powers(self, b: int, count: int) -> list[int]:
        """[b^1, ..., b^count] for a regular b, read off powers[b]."""
        seq = self.powers[b]
        return [seq[n % len(seq)] for n in range(count)]

    @cached_property
    def orbits(self) -> dict[int, frozenset[int]]:
        return {b: frozenset(walk) for b, walk in self.ind.items()}

    @cached_property
    def algebra(self):
        return verify_algebra(self.m)

    def equivalent(self, x: int, y: int) -> bool:
        """x ~ y: same class, same order, and x in orb(y)."""
        return (self.classes[x] == self.classes[y]
                and self.orders[x] == self.orders[y] and x in self.orbits[y])

    def images(self, k: int) -> frozenset[int]:
        """{x^k mod m : x in Z_m} in 0..m-1 form, for solvability lookups."""
        if k not in self._images:
            mm = self.m
            self._images[k] = frozenset(pow(x, k, mm) for x in range(1, mm + 1))
        return self._images[k]


@lru_cache(maxsize=1)
def _ctx(m: int) -> _Ctx:
    return _Ctx(m)


def _divisor_pairs(m: int):
    """Proper divisors m1, m2 of m (1 < m1, m2 < m) with lcm(m1, m2) = m."""
    divs = [d for d in range(2, m) if m % d == 0]
    for m1 in divs:
        for m2 in divs:
            if math.lcm(m1, m2) == m:
                yield m1, m2


def _divisor_sets(m: int, members) -> dict[int, set[int]]:
    """{d: set(members(d))} in canonical form, for each divisor 1 < d < m."""
    return {d: {canon(a, d) for a in members(d)} for d in range(2, m) if m % d == 0}


# Claim id -> (scope, check), in registration order.  A "sweep" check runs
# once per modulus of the range, a "global" one once with the modulus 0.
THEOREMS: dict[str, tuple[str, object]] = {}


def claim(fn=None, *, scope="sweep"):
    """Register check_<name> as claim <name>, underscores read as hyphens;
    use as @claim or @claim(scope="global").  The registry is the only place
    that knows a claim's id: check(m) yields bare (witness, expected,
    actual) tuples, and run_audit labels them with the id and with m."""

    def register(check):
        tid = check.__name__.removeprefix("check_").replace("_", "-")
        THEOREMS[tid] = (scope, check)
        return check

    return register if fn is None else register(fn)


# ---------------------------------------------------------------- in series


@claim
def check_in02(m):
    c = _ctx(m)
    for a in range(1, m + 1):
        if (pow(a, c.mod.phi, m) or m) not in c.Eset:
            yield {"a": a}, "a^phi idempotent", "not idempotent"


@claim
def check_in03(m):
    c = _ctx(m)
    for a in range(1, m + 1):
        idems = set()
        x = 1 % m
        for k in range(1, 2 * c.mod.phi + 1):
            x = x * a % m
            v = x or m
            if v in c.Eset:
                idems.add(v)
        if len(idems) > 1:
            yield {"a": a}, "single idempotent power", sorted(idems)


@claim
def check_in05(m):
    c = _ctx(m)
    for m1, m2 in _divisor_pairs(m):
        e1 = set(oracle_idempotents(m1))
        e2 = set(oracle_idempotents(m2))
        for e in range(1, m + 1):
            both = canon(e, m1) in e1 and canon(e, m2) in e2
            if (canon(e, m) in c.Eset) != both:
                yield {"m1": m1, "m2": m2, "e": e}, canon(e, m) in c.Eset, both
                return


@claim
def check_in06(m):
    c = _ctx(m)
    brute = oracle_idempotents(m)
    if list(c.E) != brute:
        yield {}, brute, list(c.E)
    if len(c.E) != 2**c.mod.omega:
        yield {"size": True}, 2**c.mod.omega, len(c.E)


@claim
def check_in07(m):
    c = _ctx(m)
    for k in range(1, m + 1):
        size = len({canon(k * e, m) for e in c.E})
        expect = 2 ** build_modulus(m // math.gcd(k, m)).omega
        if size != expect:
            yield {"k": k}, expect, size


@claim
def check_in08(m):
    c = _ctx(m)
    for a in range(1, m + 1):
        if pow(a, c.mod.phi, m) != pow(math.gcd(a, m), c.mod.phi, m):
            yield {"a": a}, "a^phi == gcd(a,m)^phi", "differs"


@claim
def check_in11(m):
    c = _ctx(m)
    top = min(2 * c.mod.phi, 40)
    for a in range(1, m + 1, max(1, m // 40)):
        pa = [1 % m]  # pa[j] == pow(a, j, m), for every k + n below
        for _ in range(2 * top + 5):
            pa.append(pa[-1] * a % m)
        for k in range(1, top + 1):
            for n in range(k, k + 6):
                if pa[k + n] == pa[k] and (pa[n] or m) not in c.Eset:
                    yield ({"a": a, "k": k, "n": n},
                           "a^n idempotent", "not idempotent")


@claim
def check_in12(m):
    c = _ctx(m)
    for a in range(1, m + 1):
        if (pow(a, c.mod.psi, m) or m) not in c.Eset:
            yield {"a": a}, "a^psi idempotent", "not idempotent"


# ---------------------------------------------------------------- nn series


def _power_groups(m, a, bound):
    groups: dict[int, list[int]] = {}
    x = 1 % m
    for k in range(1, bound + 1):
        x = x * a % m
        groups.setdefault(x, []).append(k)
    return groups


@claim
def check_nn02(m):
    c = _ctx(m)
    phi = c.mod.phi
    for a in range(1, m + 1):
        n = order(m, a).order
        inference = all(
            all((k - ks[0]) % n == 0 for k in ks)
            for ks in _power_groups(m, a, 2 * phi).values()
        )
        if inference != (a in c.Nset):
            yield {"a": a}, a in c.Nset, inference


@claim
def check_nn03(m):
    c = _ctx(m)
    for a in c.N:
        n = order(m, a).order
        for k in range(1, min(2 * c.mod.phi, 60) + 1):
            expect = n // math.gcd(k, n)
            actual = order(m, pow(a, k, m) or m).order
            if actual != expect:
                yield {"a": a, "k": k}, expect, actual


@claim
def check_nn04(m):
    normal = _divisor_sets(m, normal_set)
    for m1, m2 in _divisor_pairs(m):
        n1, n2 = normal[m1], normal[m2]
        for a in range(1, m + 1):
            if canon(a, m1) in n1 and canon(a, m2) in n2:
                if not is_normal(m, a):
                    yield {"m1": m1, "m2": m2, "a": a}, "normal", "not normal"
                    continue
                expect = math.lcm(order(m1, a).order, order(m2, a).order)
                actual = order(m, a).order
                if actual != expect:
                    yield {"m1": m1, "m2": m2, "a": a, "order": True}, expect, actual


@claim
def check_nn05(m):
    c = _ctx(m)
    for a in c.N:
        x = 1 % m
        for n in range(1, min(2 * c.mod.phi, 40) + 1):
            x = x * a % m
            if (x or m) not in c.Nset:
                yield {"a": a, "n": n}, "normal", "not normal"


@claim
def check_nn06(m):
    for m1, n1 in _divisor_sets(m, normal_set).items():
        for a in range(1, m + 1):
            if canon(a, m1) in n1:
                if order(m, a).order % order(m1, a).order != 0:
                    yield (
                        {"m1": m1, "a": a},
                        f"|a|_{m1} divides |a|_{m}",
                        (order(m1, a).order, order(m, a).order),
                    )


@claim
def check_nn07(m):
    c = _ctx(m)
    for b in c.N:
        nb = order(m, b).order
        eb = idem_class(m, b)
        seen: dict[int, int] = {}
        x = 1 % m
        for k in range(1, 2 * c.mod.phi + 1):
            x = x * b % m
            seen.setdefault(x or m, k)
        gs = [(k, math.gcd(k, nb)) for k in range(1, 16)]
        gset = {g for _, g in gs}
        for a, ind in seen.items():
            if a not in c.Nset or idem_class(m, a) != eb:
                continue
            idem = {g: (pow(a, nb // g, m) or m) in c.Eset for g in gset}
            for k, g in gs:
                if idem[g] and ind % g != 0:
                    yield {"a": a, "b": b, "k": k}, "(k,|b|) | ind_b(a)", (g, ind)


@claim
def check_nn08(m):
    c = _ctx(m)
    for a in c.N:
        inv = signed_power(m, a, -1)
        if not is_normal(m, inv):
            yield {"a": a}, "inverse normal", "not normal"
        if order(m, inv).order != order(m, a).order:
            yield {"a": a, "order": True}, order(m, a).order, order(m, inv).order


@claim
def check_nn08_third(m):
    """The claimed identity (a^-1)^-1 = a^(|a|+1) for all normal a.  It fails
    for normal non-regular a (e.g. m=12, a=2), so it is reported, not
    asserted elsewhere."""
    c = _ctx(m)
    for a in c.N:
        inv2 = signed_power(m, signed_power(m, a, -1), -1)
        rhs = pow(a, order(m, a).order + 1, m) or m
        if inv2 != rhs:
            yield {"a": a}, inv2, rhs


# ---------------------------------------------------------------- rn series


@claim
def check_rn02(m):
    c = _ctx(m)
    for a in c.R:
        if a not in c.Nset:
            yield {"a": a}, "regular implies normal", "not normal"


@claim
def check_rn03(m):
    c = _ctx(m)
    phi = c.mod.phi
    for a in range(1, m + 1):
        n = order(m, a).order
        groups = _power_groups(m, a, 2 * phi)
        forward = all(
            all((k - ks[0]) % n == 0 for k in ks) for ks in groups.values()
        )
        backward = all(
            pow(a, k, m) == pow(a, k + n, m) for k in range(1, min(n, 30) + 1)
        )
        if (forward and backward) != (a in c.Rset):
            yield {"a": a}, a in c.Rset, (forward, backward)
        if a in c.Rset:
            x = 1 % m
            for k in range(1, 2 * n + 1):
                x = x * a % m
                if (canon(x, m) in c.Eset) != (k % n == 0):
                    yield ({"a": a, "k": k, "second": True},
                           k % n == 0, canon(x, m) in c.Eset)


@claim
def check_rn06(m):
    c = _ctx(m)
    for e, members in c.by_class.items():
        ms = set(members)
        for a in members:
            if (a * e % m or m) != a:
                yield {"e": e, "a": a}, "e is identity", "fails"
            inv = signed_power(m, a, -1)
            if inv not in ms or canon(a * inv, m) != e:
                yield {"e": e, "a": a}, "inverse in class", inv
            if sum(1 for b in members if (a * b % m or m) == e) != 1:
                yield {"e": e, "a": a}, "unique inverse", "fails"
        for a in members[::3] or members:
            for b in members[::3] or members:
                if (a * b % m or m) not in ms:
                    yield {"e": e, "a": a, "b": b}, "closure", a * b % m or m


@claim
def check_rn07(m):
    c = _ctx(m)
    phi = c.mod.phi
    pts = sorted({-2 * phi, -phi, -3, -2, -1, 1, 2, 3, phi, 2 * phi})
    ns = range(1, min(2 * phi, 12) + 1)
    zs = {i + j for i in pts for j in pts}.union(pts, (-n for n in ns))
    for a in c.R[:: max(1, len(c.R) // 25)]:
        power = {z: signed_power(m, a, z) for z in zs}
        x = 1 % m
        for n in ns:
            x = x * a % m  # pow(a, n, m)
            if signed_power(m, x, -1) != power[-n]:
                yield {"a": a, "n": n}, "(a^n)^-1 == a^-n", "differs"
        for i in pts:
            pi = power[i]
            for j in pts:
                lhs = power[i + j]
                rhs = pi * power[j] % m or m
                if lhs != rhs:
                    yield {"a": a, "i": i, "j": j}, lhs, rhs


@claim
def check_rn09(m):
    c = _ctx(m)
    pairs = [(n, k, math.gcd(n, k)) for n in range(1, 13) for k in range(n, 13)]
    # The (n, k, rhs, lhs) that differ, once per membership vector: both
    # sides read nothing else.
    failures: dict[tuple[bool, ...], list[tuple[int, int, bool, bool]]] = {}
    for b in c.R[:: max(1, len(c.R) // 20)]:
        top = min(2 * c.orders[b], 12)
        powers = [1 % m or m] + c.first_powers(b, top)
        for cc in c.by_class[c.classes[b]]:
            tgt = c.orbits[cc]
            inside = tuple(x in tgt for x in powers)  # inside[n]: b^n in orb(c)
            if inside not in failures:
                failures[inside] = [
                    (n, k, inside[g], lhs) for n, k, g in pairs
                    if k <= top and (lhs := inside[n] and inside[k]) != inside[g]
                ]
            for n, k, rhs, lhs in failures[inside]:
                yield {"b": b, "c": cc, "n": n, "k": k}, rhs, lhs


@claim
def check_rn11(m):
    c = _ctx(m)
    for e, members in c.by_class.items():
        for b in members:
            nb = c.orders[b]
            ob = c.orbits[b]
            bk = c.first_powers(b, min(2 * nb, 10))
            for cc in members:
                D = orbit_gcd(m, b, cc)
                oc = c.orbits[cc]
                inter = ob & oc
                if nb % D != 0:
                    yield {"b": b, "c": cc}, "D | |b|", D
                bD = pow(b, D, m) or m
                if bD not in oc:
                    yield {"b": b, "c": cc, "power": True}, "b^D in orb(c)", D
                if inter != c.orbits[bD]:
                    yield ({"b": b, "c": cc, "orbits": True},
                           "orb(b) & orb(c) == orb(b^D)", D)
                if len(inter) != nb // D:
                    yield {"b": b, "c": cc, "size": True}, nb // D, len(inter)
                for k, x in enumerate(bk, 1):
                    if (x in oc) != (k % D == 0):
                        yield ({"b": b, "c": cc, "k": k},
                               k % D == 0, "membership differs")


@claim
def check_rn13(m):
    c = _ctx(m)
    for e, members in c.by_class.items():
        for b in members:
            nb = c.orders[b]
            gs = [(k, math.gcd(k, nb)) for k in range(1, 13)]
            gset = {g for _, g in gs}
            for a, ind in c.ind[b].items():
                seq = c.powers[a]
                # a^(nb/g) is idempotent, for each g = (k, nb).
                idem = {g: seq[(nb // g - 1) % len(seq)] in c.Eset for g in gset}
                for k, g in gs:
                    lhs = ind % g == 0
                    rhs = idem[g]
                    if lhs != rhs:
                        yield {"a": a, "b": b, "k": k}, lhs, rhs


@claim
def check_rn14(m):
    c = _ctx(m)
    for e, members in c.by_class.items():
        for a in members:
            na = c.orders[a]
            pa = c.powers[a]
            for b in members:
                nb = c.orders[b]
                pb = c.powers[b]
                nab = c.orders[a * b % m or m]
                g, l = math.gcd(na, nb), math.lcm(na, nb)
                if (g == 1) != (nab == na * nb):
                    yield {"a": a, "b": b, "first": True}, g == 1, nab == na * nb
                if l % nab != 0 or nab % (l // g) != 0:
                    yield ({"a": a, "b": b, "second": True},
                           f"{l // g} | |ab| | {l}", nab)
                if pa[(nb - 1) % len(pa)] == pb[(na - 1) % len(pb)] and na != nb:
                    yield {"a": a, "b": b, "third": True}, "equal orders", (na, nb)


@claim
def check_rn15(m):
    c = _ctx(m)
    for e, members in c.by_class.items():
        step = max(1, len(members) // 12)
        for b in members[::step]:
            for cc in members[::step]:
                inter = c.orbits[b] & c.orbits[cc]
                target = math.lcm(c.orders[b], c.orders[cc])
                for a in sorted(inter)[:3]:
                    d = join_witness(m, b, cc, a)
                    if c.orders[d] != target or a not in c.orbits[d]:
                        yield {"b": b, "c": cc, "a": a}, f"witness of order {target}", d


@claim
def check_rn16(m):
    for a in range(1, m + 1):
        dfn = oracle_is_regular(m, a)
        div = is_regular(m, a)
        gcd_char = math.gcd(a, m // math.gcd(a, m)) == 1
        gcd_member = is_regular(m, math.gcd(a, m))
        if not (dfn == div == gcd_char == gcd_member):
            yield ({"a": a},
                   "all characterizations agree", (dfn, div, gcd_char, gcd_member))


@claim
def check_rn17(m):
    c = _ctx(m)
    for a in c.N:
        lhs = a in c.Rset
        rhs = signed_power(m, signed_power(m, a, -1), -1) == a
        if lhs != rhs:
            yield {"a": a}, lhs, rhs


@claim
def check_rn18(m):
    c = _ctx(m)
    phi = c.mod.phi
    for a in range(1, m + 1):
        am = pow(a, m, m)
        if m - phi >= 1 and (am != pow(a, m - phi, m) or am != pow(a, m + phi, m)):
            yield {"a": a}, "a^m == a^(m-phi) == a^(m+phi)", "differs"
        if m - phi >= 1 and not is_regular(m, pow(a, m - phi, m)):
            yield {"a": a, "reg": True}, "a^(m-phi) regular", "not regular"
        if phi >= 2 and a in c.Nset and order(m, a).order < phi:
            if not is_regular(m, pow(a, phi - 1, m)):
                yield {"a": a, "third": True}, "a^(phi-1) regular", "not regular"


@claim
def check_rn19(m):
    c = _ctx(m)
    if (len(c.R) == m) != c.mod.square_free:
        yield {}, c.mod.square_free, len(c.R) == m


@claim
def check_rn20(m):
    for a in range(1, m + 1):
        if is_regular(m, a) != oracle_is_regular(m, a):
            yield {"a": a}, oracle_is_regular(m, a), is_regular(m, a)


@claim
def check_rn21(m):
    c = _ctx(m)
    phi = c.mod.phi
    for a in range(1, m + 1):
        exists = any(pow(a, n, m) == a % m for n in range(2, 2 * phi + 2))
        if exists != (a in c.Rset):
            yield {"a": a}, a in c.Rset, exists


@claim
def check_rn22(m):
    c = _ctx(m)
    regular = _divisor_sets(m, regular_set)
    for m1, m2 in _divisor_pairs(m):
        r1, r2 = regular[m1], regular[m2]
        for a in range(1, m + 1):
            both = canon(a, m1) in r1 and canon(a, m2) in r2
            if (a in c.Rset) != both:
                yield {"m1": m1, "m2": m2, "a": a}, both, a in c.Rset
            elif a in c.Rset:
                expect = math.lcm(order(m1, a).order, order(m2, a).order)
                if order(m, a).order != expect:
                    yield ({"m1": m1, "m2": m2, "a": a, "order": True},
                           expect, order(m, a).order)


@claim
def check_rn23(m):
    c = _ctx(m)
    pps = c.mod.prime_powers
    for a in range(1, m + 1):
        comp = all(is_regular(q, a) for q in pps)
        if (a in c.Rset) != comp:
            yield {"a": a}, comp, a in c.Rset
        elif a in c.Rset:
            expect = math.lcm(*(order(q, a).order for q in pps))
            if order(m, a).order != expect:
                yield {"a": a, "order": True}, expect, order(m, a).order
    formula = 1
    for p, al in c.mod.factorization.factors:
        formula *= 1 + p ** (al - 1) * (p - 1)
    if len(c.R) != formula:
        yield {"size": True}, formula, len(c.R)


@claim
def check_rn24(m):
    c = _ctx(m)
    # (b, |b|, [b^1, ..., b^10]) for each normal b.
    normals = [(b, order(m, b).order, [pow(b, n, m) or m for n in range(1, 11)])
               for b in c.N]
    for a in c.R[:: max(1, len(c.R) // 20)]:
        na = c.orders[a]
        oa = c.orbits[a]
        pa = c.first_powers(a, 10)
        for b, nbm, pb in normals:
            if nbm % na != 0:
                continue
            for n in range(1, 11):
                if pb[n - 1] in oa:
                    if index(m, b, pa[n - 1]) is None:
                        yield {"a": a, "b": b, "n": n}, "ind_b(a^n) exists", "missing"


@claim
def check_rn25(m):
    c = _ctx(m)
    sampled = c.R[:: max(1, len(c.R) // 20)]
    first = {x: c.first_powers(x, 10) for x in sampled}
    for a in sampled:
        for b in sampled:
            if c.orders[a] != c.orders[b]:
                continue
            oa, ob = c.orbits[a], c.orbits[b]
            for n, (an, bn) in enumerate(zip(first[a], first[b]), 1):
                lhs = bn in oa
                rhs = an in ob
                if lhs != rhs:
                    yield {"a": a, "b": b, "n": n}, lhs, rhs


@claim
def check_rn26(m):
    c = _ctx(m)
    sampled = c.R[:: max(1, len(c.R) // 20)]
    # (n, b^n) for the n <= min(2|b|, 10) prime to |b|.
    coprime = {}
    for b in sampled:
        nb = c.orders[b]
        first = c.first_powers(b, min(2 * nb, 10))
        coprime[b] = [(n, x) for n, x in enumerate(first, 1) if math.gcd(n, nb) == 1]
    for a in sampled:
        oa = c.orbits[a]
        for b in sampled:
            hits = [n for n, x in coprime[b] if x in oa]
            if hits and not c.orbits[b] <= oa:
                for n in hits:
                    yield ({"a": a, "b": b, "n": n},
                           "orb(b) subset of orb(a)", "not contained")


@claim
def check_rn27(m):
    c = _ctx(m)
    sampled = c.R[:: max(1, len(c.R) // 20)]
    coprime: dict[int, list[int]] = {}  # |b| -> the n <= min(2|b|, 10) prime to it
    for a in sampled:
        na = c.orders[a]
        oa = c.orbits[a]
        first = c.first_powers(a, 10)
        for b in sampled:
            nb = c.orders[b]
            if na % nb != 0:
                continue
            if nb not in coprime:
                coprime[nb] = [n for n in range(1, min(2 * nb, 10) + 1)
                               if math.gcd(n, nb) == 1]
            ob = c.orbits[b]
            hits = [n for n in coprime[nb] if first[n - 1] in ob]
            if hits and not ob <= oa:
                for n in hits:
                    yield ({"a": a, "b": b, "n": n},
                           "orb(b) subset of orb(a)", "not contained")


@claim
def check_rn28(m):
    c = _ctx(m)
    for a in c.R[:: max(1, len(c.R) // 20)]:
        na = c.orders[a]
        # The generators a^n of orb(a), n prime to |a|, in ascending n.
        gens = [x for n, x in enumerate(c.first_powers(a, na), 1)
                if math.gcd(n, na) == 1]
        for b in c.R[:: max(1, len(c.R) // 20)]:
            lhs = c.orbits[a] == c.orbits[b]
            rhs = c.orders[b] == na and any(x in c.orbits[b] for x in gens)
            if lhs != rhs:
                yield {"a": a, "b": b}, lhs, rhs


@claim
def check_rn29(m):
    c = _ctx(m)
    for a in c.R[:: max(1, len(c.R) // 16)]:
        na = c.orders[a]
        holders = [cc for cc in c.R if a in c.orbits[cc]]
        for b in c.R[:: max(1, len(c.R) // 16)]:
            if c.orders[b] % na != 0:
                continue
            joint = any(b in c.orbits[cc] for cc in holders)
            if joint != (a in c.orbits[b]):
                yield {"a": a, "b": b}, a in c.orbits[b], joint


@claim
def check_rn30(m):
    c = _ctx(m)
    for b in c.R:
        nb = c.orders[b]
        divisors = [d for d in range(1, nb + 1) if nb % d == 0]
        for a, ind in c.ind[b].items():
            for d in divisors:
                lhs = c.orders[a] == d
                q, r = divmod(ind * d, nb)
                rhs = r == 0 and math.gcd(q, d) == 1
                if lhs != rhs:
                    yield {"a": a, "b": b, "d": d}, lhs, rhs


@claim
def check_rn31(m):
    c = _ctx(m)
    # (a, a^|a|) for every residue a.
    tops = [(a, pow(a, order(m, a).order, m) or m) for a in range(1, m + 1)]
    for e in c.E:
        lhs = set(c.by_class.get(e, []))
        rhs = {e * a % m or m for a, top in tops if top == e}
        if lhs != rhs:
            yield {"e": e}, sorted(lhs), sorted(rhs)


@claim
def check_rn32(m):
    c = _ctx(m)
    for e, members in c.by_class.items():
        for a in members:
            for b in members:
                if math.gcd(c.orders[a], c.orders[b]) == 1:
                    if c.orbits[a] & c.orbits[b] != {e}:
                        yield {"a": a, "b": b}, {e}, sorted(c.orbits[a] & c.orbits[b])


@claim
def check_rn33(m):
    c = _ctx(m)
    for e, members in c.by_class.items():
        step = max(1, len(members) // 14)
        sampled = members[::step]
        first = {x: c.first_powers(x, 6) for x in sampled}
        for a in sampled:
            na = c.orders[a]
            for b in sampled:
                nb = c.orders[b]
                dab = orbit_gcd(m, a, b)
                dba = orbit_gcd(m, b, a)
                if (dab == dba) != (na == nb):
                    yield {"a": a, "b": b, "first": True}, na == nb, dab == dba
                if dab * nb != dba * na:
                    yield ({"a": a, "b": b, "second": True},
                           "D(a,b)/D(b,a) == |a|/|b|", (dab, dba, na, nb))
                inner = c.orders[pow(a, dab, m) or m]
                outer = c.orders[pow(a, inner, m) or m]
                if dab != outer:
                    yield {"a": a, "b": b, "third": True}, dab, outer
                fifth = math.gcd(na // dab, dba) == 1
                for n, (an, bn) in enumerate(zip(first[a], first[b]), 1):
                    got = orbit_gcd(m, an, b)
                    want = dab // math.gcd(n, dab)
                    if got != want:
                        yield {"a": a, "b": b, "n": n, "fourth": True}, want, got
                    if fifth:
                        got = orbit_gcd(m, a, bn)
                        want = dab * math.gcd(n, na // dab)
                        if got != want:
                            yield {"a": a, "b": b, "n": n, "fifth": True}, want, got


@claim
def check_rn35(m):
    c = _ctx(m)
    for e, members in c.by_class.items():
        step = max(1, len(members) // 14)
        sampled = members[::step]
        first = {x: c.first_powers(x, 6) for x in sampled}
        for a in sampled:
            na = c.orders[a]
            raa = relative_order(m, a, a)
            for b in sampled:
                nb = c.orders[b]
                rab = relative_order(m, a, b)
                rba = relative_order(m, b, a)
                if rab != rba:
                    yield {"a": a, "b": b, "sym": True}, rab, rba
                if raa != na:
                    yield {"a": a, "self": True}, na, raa
                if math.gcd(na, nb) == 1 and rab != 1:
                    yield {"a": a, "b": b, "coprime": True}, 1, rab
                if b in c.orbits[a] and rab != nb:
                    yield {"a": a, "b": b, "member": True}, nb, rab
                fifth = math.gcd(rab, orbit_gcd(m, a, b)) == 1
                dba = orbit_gcd(m, b, a)
                # The sixth statement's hypothesis does not depend on n.
                sixth = []
                for k, bk in enumerate(first[b][:4], 1):
                    if math.gcd(rab, orbit_gcd(m, a, bk) * dba) == 1:
                        sixth.append((k, bk, math.gcd(k, rab)))
                for n, an in enumerate(first[a], 1):
                    if fifth:
                        got = relative_order(m, an, b)
                        want = rab // math.gcd(n, rab)
                        if got != want:
                            yield {"a": a, "b": b, "n": n, "fifth": True}, want, got
                    for k, bk, gk in sixth:
                        got = relative_order(m, an, bk)
                        want = rab // math.gcd(n * gk, rab)
                        if got != want:
                            yield ({"a": a, "b": b, "n": n, "k": k, "sixth": True},
                                   want, got)


@claim
def check_rn36(m):
    c = _ctx(m)
    for e in c.E:
        m1 = mu(m, e)
        m2 = m // m1
        decomps = [
            (d, m // d)
            for d in range(1, m + 1)
            if m % d == 0 and e % d == 1 % d and e % (m // d) == 0
        ]
        if decomps != [(m1, m2)]:
            yield {"e": e}, [(m1, m2)], decomps
        for a in range(1, m + 1):
            member = math.gcd(a, m1) == 1 and a % m2 == 0
            in_class = c.classes[a] == e
            if member != in_class:
                yield {"e": e, "a": a}, in_class, member
            elif member and order(m, a).order != order(m1, a).order:
                yield ({"e": e, "a": a, "order": True},
                       order(m1, a).order, order(m, a).order)


@claim
def check_rn38(m):
    c = _ctx(m)
    for a in c.R:
        na = c.orders[a]
        counts: dict[int, int] = {}  # order -> members of orb(a) of that order
        for b in c.orbits[a]:
            counts[c.orders[b]] = counts.get(c.orders[b], 0) + 1
        for d in range(1, na + 1):
            if na % d:
                continue
            count = counts.get(d, 0)
            if count != build_modulus(d).phi:
                yield {"a": a, "d": d}, build_modulus(d).phi, count
        eq_count = sum(
            1
            for b in c.by_class[c.classes[a]]
            if c.orders[b] == na and a in c.orbits[b]
        )
        if eq_count != build_modulus(na).phi:
            yield {"a": a, "equiv": True}, build_modulus(na).phi, eq_count


@claim
def check_rn40(m):
    c = _ctx(m)
    sampled = c.R[:: max(1, len(c.R) // 14)]
    # rel[i][j] = S[i] ~ S[j], each pair of the sample S asked once.
    rel = [[c.equivalent(a, b) for b in sampled] for a in sampled]
    for i, a in enumerate(sampled):
        row = rel[i]
        if not row[i]:
            yield {"a": a}, "reflexive", "fails"
        for j, b in enumerate(sampled):
            if row[j] != rel[j][i]:
                yield {"a": a, "b": b}, "symmetric", "fails"
            if not row[j]:
                continue
            for cc, bc, ac in zip(sampled, rel[j], row):
                if bc and not ac:
                    yield {"a": a, "b": b, "c": cc}, "transitive", "fails"


@claim
def check_rn41(m):
    c = _ctx(m)
    for b in c.N:
        walk = set()
        x = 1 % m
        for _ in range(2 * c.mod.phi):
            x = x * b % m
            walk.add(x or m)
        nbm = order(m, b).order
        for a in walk:
            if a not in c.Rset:
                continue
            e = c.classes[a]
            cand = b * e % m or m
            ok = (
                c.classes[cand] == e
                and c.orders[cand] == nbm
                and a in c.orbits[cand]
            )
            if not ok:
                ok = any(
                    c.orders[cc] == nbm and a in c.orbits[cc]
                    for cc in c.by_class[e]
                )
            if not ok:
                yield {"a": a, "b": b}, f"witness of order {nbm}", "none"


@claim
def check_rn42(m):
    if m % 2 == 0:
        return
    c = _ctx(m)
    for e in c.E:
        om = build_modulus(mu(m, e)).omega
        sign = (-1) ** (2 ** (om - 1)) if om >= 1 else -1
        expect = canon(sign * e, m)
        actual = class_product(m, e)
        if actual != expect:
            yield {"e": e}, expect, actual


# ---------------------------------------------------------------- bc series


@claim
def check_bc01(m):
    c = _ctx(m)
    for k in range(1, 31):
        img = c.images(k)
        for a in c.R:
            oracle = a % m in img
            if solvable_bc01(m, k, a) != oracle:
                yield {"a": a, "k": k}, oracle, not oracle


@claim
def check_bc03(m):
    c = _ctx(m)
    phi = c.mod.phi
    ks = [(k, c.images(k), phi // math.gcd(k, phi)) for k in range(1, 31)]
    for a in range(1, m + 1):
        for k, img, exp in ks:
            if a % m in img:
                if (pow(a, exp, m) or m) not in c.Eset:
                    yield {"a": a, "k": k}, "necessary condition", "violated"


@claim
def check_bc04(m):
    c = _ctx(m)
    for b in c.R[:: max(1, len(c.R) // 16)]:
        nb = c.orders[b]
        ks = [(k, math.gcd(k, nb), c.images(k)) for k in range(1, 13)]
        for a, ind in c.ind[b].items():
            for k, g, img in ks:
                if ind % g == 0:
                    if a % m not in img:
                        yield {"a": a, "b": b, "k": k}, "solvable", "unsolvable"


@claim
def check_bc05(m):
    c = _ctx(m)
    for b in c.R[:: max(1, len(c.R) // 10)]:
        nb = c.orders[b]
        seq = c.powers[b]
        ks = []  # (k, k-th powers, nb / (k, nb), {canon(k l, nb): the l in 1..nb})
        for k in range(1, 9):
            ls: dict[int, list[int]] = {}
            for l in range(1, nb + 1):
                ls.setdefault(k * l % nb or nb, []).append(l)
            ks.append((k, c.images(k), nb // math.gcd(k, nb), ls))
        regular: dict[int, bool] = {}  # kl -> is_regular(nb, kl)
        for a, ind in c.ind[b].items():
            if not is_regular(nb, ind):
                continue
            e = idem_class(nb, ind)
            for k, img, step, ls in ks:
                if a % m not in img:
                    continue
                for l in ls.get(e, ()):  # the l with canon(k l, nb) == e
                    if e not in regular:
                        regular[e] = is_regular(nb, e)
                    if not regular[e]:
                        continue
                    for n in range(1, 4):
                        x = seq[(l * ind + n * step - 1) % len(seq)]  # b^exp
                        if pow(x, k, m) != a % m:
                            yield ({"a": a, "b": b, "k": k, "l": l, "n": n},
                                   "power lands in solution set", x)


@claim
def check_bc06(m):
    c = _ctx(m)
    counts = []  # for each k: x^k mod m -> the regular x with that power
    for k in range(1, 13):
        reg_count: dict[int, int] = {}
        for x in c.R:
            t = pow(x, k, m)
            reg_count[t] = reg_count.get(t, 0) + 1
        counts.append(reg_count)
    for e, members in c.by_class.items():
        for k, reg_count in enumerate(counts, 1):
            se = reg_count.get(e % m, 0)
            for a in members:
                na = reg_count.get(a % m, 0)
                if na and na != se:
                    yield {"a": a, "e": e, "k": k}, se, na


@claim
def check_bc07(m):
    c = _ctx(m)
    for k in range(1, 13):
        img = c.images(k)
        reg_img = {pow(x, k, m) for x in c.R}
        for a in c.R:
            if a % m in img and a % m not in reg_img:
                yield {"a": a, "k": k}, "regular solution exists", "none regular"


@claim
def check_bc08(m):
    c = _ctx(m)
    pairs = [(k1, k2, math.lcm(k1, k2)) for k1 in range(1, 9) for k2 in range(1, 9)]
    imgs = {k: c.images(k) for pair in pairs for k in pair}
    for a in c.R:
        x = a % m
        solvable = {k: x in img for k, img in imgs.items()}
        for k1, k2, l in pairs:
            both = solvable[k1] and solvable[k2]
            joint = solvable[l]
            if both != joint:
                yield {"a": a, "k1": k1, "k2": k2}, both, joint


@claim
def check_bc09(m):
    c = _ctx(m)
    phi, psi = c.mod.phi, c.mod.psi
    ks = [(k, c.images(k), [(k2, c.images(k2))
                            for k2 in (math.gcd(k, phi), math.gcd(k, psi))])
          for k in range(1, 31)]
    for a in c.R:
        x = a % m
        for k, img, reduced in ks:
            mk = x in img
            for k2, img2 in reduced:
                if mk != (x in img2):
                    yield {"a": a, "k": k, "k2": k2}, mk, not mk


# ---------------------------------------------------------------- pr series


@claim
def check_pr02(m):
    c = _ctx(m)
    G = set(gen_primitive_roots(m))
    for a in c.R:
        info = omega_info(m, a)
        extra = [b for b in info.omega_set if b not in G]
        if extra:
            yield {"a": a}, "Omega(a) subset of G", extra
    for g in G:
        if g not in frozenset(omega_info(m, g).omega_set):
            yield {"g": g}, "g in Omega(g)", "missing"
    if not G:
        yield {}, "G nonempty", "empty"


@claim
def check_pr03(m):
    c = _ctx(m)
    sampled = c.R[:: max(1, len(c.R) // 20)]
    for a in sampled:
        for b in sampled:
            if c.equivalent(a, b):
                wa = omega_value(m, a)
                wb = omega_value(m, b)
                if wa != wb:
                    yield {"a": a, "b": b}, wa, wb


@claim
def check_pr04(m):
    for m1, m2 in _divisor_pairs(m):
        g1 = set(gen_primitive_roots(m1))
        g2 = set(gen_primitive_roots(m2))
        gm = set(gen_primitive_roots(m))
        for g in range(1, m + 1):
            if canon(g, m1) in g1 and canon(g, m2) in g2 and canon(g, m) not in gm:
                yield {"m1": m1, "m2": m2, "g": g}, "g in G_m", "missing"


@claim
def check_pr05(m):
    c = _ctx(m)
    coprime: dict[int, list[bool]] = {}  # |g| -> [(n, |g|) == 1 for n in 1..2|g|]
    for a in c.R[:: max(1, len(c.R) // 16)]:
        info = omega_info(m, a)
        oset = frozenset(info.omega_set)
        for g in info.omega_set:
            ng = c.orders[g]
            if ng not in coprime:
                coprime[ng] = [math.gcd(n, ng) == 1 for n in range(1, 2 * ng + 1)]
            x = 1 % m
            for n, rhs in enumerate(coprime[ng], 1):
                x = x * g % m  # pow(g, n, m)
                lhs = (x or m) in oset
                if lhs != rhs:
                    yield {"a": a, "g": g, "n": n}, rhs, lhs


@claim
def check_pr06(m):
    c = _ctx(m)
    for a in c.R[:: max(1, len(c.R) // 16)]:
        info = omega_info(m, a)
        oset = set(info.omega_set)
        for g in c.by_class[c.classes[a]]:
            if (g in oset) != (signed_power(m, g, -1) in oset):
                yield {"a": a, "g": g}, "closed under inverse", g


@claim
def check_omega_phi_cyclic(m):
    """The remark that omega_m(a) = phi(m) is attained iff the unit-class
    group R_m^1 is cyclic."""
    c = _ctx(m)
    units = c.by_class.get(canon(1, m), [])
    cyclic = any(c.orders[u] == len(units) for u in units)
    attained = any(omega_value(m, a) == c.mod.phi for a in c.R)
    if cyclic != attained:
        yield {}, cyclic, attained


# ---------------------------------------------------------------- fs series


@claim
def check_fs02(m):
    c = _ctx(m)
    phi = c.mod.phi
    r, rho = oracle_r_count, oracle_rho_count
    for e in c.E:
        mue = mu(m, e)
        for k in range(1, min(phi, 30) + 1):
            if r(m, e, k) != r(mue, canon(1, mue), k):
                yield {"e": e, "k": k}, r(mue, canon(1, mue), k), r(m, e, k)
            if rho(m, e, k) != rho(mue, canon(1, mue), k):
                yield ({"e": e, "k": k, "rho": True},
                       rho(mue, canon(1, mue), k), rho(m, e, k))
    if c.mod.weakly_even:
        one = canon(1, m)
        for k1 in range(1, min(phi, 30) + 1):
            for k2 in range(k1, min(phi, 30) + 1):
                if math.gcd(k1, k2) != 1 or k1 * k2 > phi:
                    continue
                if r(m, one, k1 * k2) != r(m, one, k1) * r(m, one, k2):
                    yield ({"k1": k1, "k2": k2, "mult": "r"},
                           r(m, one, k1) * r(m, one, k2), r(m, one, k1 * k2))
                if rho(m, one, k1 * k2) != rho(m, one, k1) * rho(m, one, k2):
                    yield ({"k1": k1, "k2": k2, "mult": "rho"},
                           rho(m, one, k1) * rho(m, one, k2),
                           rho(m, one, k1 * k2))


@claim
def check_fs03(m):
    c = _ctx(m)
    if not c.mod.weakly_even:
        return
    one = canon(1, m)
    r, rho = oracle_r_count, oracle_rho_count
    for q in (2, 3, 5, 7, 11, 13):
        beta = 1
        while c.mod.psi % q**beta == 0:
            rho_f = rho_prime_power(m, q, beta)
            if rho_f != rho(m, one, q**beta):
                yield {"q": q, "beta": beta}, rho(m, one, q**beta), rho_f
            prev = rho(m, one, q ** (beta - 1)) if beta > 1 else 1
            if r(m, one, q**beta) != rho_f - prev:
                yield ({"q": q, "beta": beta, "r": True},
                       rho_f - prev, r(m, one, q**beta))
            beta += 1
    delta_count = sum(
        1 for p, al in c.mod.factorization.factors
        if (p ** (al - 1) * (p - 1)) % 2 == 0
    )
    if c.mod.psi % 2 == 0:
        if r(m, one, 2) != 2**delta_count - 1:
            yield ({"q": 2, "beta": 1, "rq": True},
                   2**delta_count - 1, r(m, one, 2))


@claim
def check_fs04(m):
    c = _ctx(m)
    if not c.mod.weakly_even:
        return
    one = canon(1, m)
    for k in range(1, min(2 * c.mod.phi, 60) + 1):
        if rho_closed_form(m, k) != oracle_rho_count(m, one, k):
            yield {"k": k}, oracle_rho_count(m, one, k), rho_closed_form(m, k)


@claim
def check_fs05(m):
    c = _ctx(m)
    for e in c.E:
        for k in range(1, c.mod.phi + 1):
            size = oracle_union_size(m, e, k)
            formula = k * oracle_r_count(m, e, k) // build_modulus(k).phi
            if size != formula:
                yield {"e": e, "k": k}, formula, size


@claim
def check_fs06(m):
    c = _ctx(m)
    if not c.mod.weakly_even:
        return
    phi = c.mod.phi
    for e in c.E:
        for k1 in range(1, min(phi, 24) + 1):
            for k2 in range(k1, min(phi, 24) + 1):
                if math.gcd(k1, k2) != 1 or k1 * k2 > phi:
                    continue
                u12 = oracle_union_size(m, e, k1 * k2)
                u1 = oracle_union_size(m, e, k1)
                u2 = oracle_union_size(m, e, k2)
                if u12 != u1 * u2:
                    yield {"e": e, "k1": k1, "k2": k2}, u1 * u2, u12


_FS_CORPUS = ("phi", "psi", "identity", "const", "gcd:6", "gcd:12", "gcd:30")
_FS_BOUND = 120


@lru_cache(maxsize=1)
def _fs_corpus(classify) -> dict[str, tuple]:
    """name -> (classify(f, _FS_BOUND), {x: f(x) for x <= _FS_BOUND}) for
    each _FS_CORPUS function f, which fs09 and fs10 share.  Keyed by the
    classifier the caller read at call time, so a replaced one is never
    answered from here; run_audit clears it, so it lives for one audit."""
    table = {}
    for name in _FS_CORPUS:
        f = builtin_function(name)
        table[name] = (classify(f, _FS_BOUND),
                       {x: f(x) for x in range(1, _FS_BOUND + 1)})
    return table


@claim(scope="global")
def check_fs09(_m):
    coprime = [(a, b) for a in range(1, _FS_BOUND + 1)
               for b in range(a, _FS_BOUND // a + 1) if math.gcd(a, b) == 1]
    for name, (cls, vals) in _fs_corpus(classify_function).items():
        split = all(vals[a * b] == math.lcm(vals[a], vals[b]) for a, b in coprime)
        if cls.is_qm != (cls.is_di and split):
            yield {"f": name}, cls.is_qm, (cls.is_di, split)


@claim(scope="global")
def check_fs10(_m):
    lcms = [(a, b, l) for a in range(1, _FS_BOUND + 1)
            for b in range(a, _FS_BOUND + 1) if (l := math.lcm(a, b)) <= _FS_BOUND]
    for name, (cls, vals) in _fs_corpus(classify_function).items():
        lcm_div = all(vals[l] % math.lcm(vals[a], vals[b]) == 0 for a, b, l in lcms)
        if cls.is_di != lcm_div:
            yield {"f": name}, cls.is_di, lcm_div


@claim(scope="global")
def check_fs11(_m):
    injectives = {"identity": lambda x: x, "shifted": lambda x: x * 2**x}
    for name, f in injectives.items():
        vals = {x: f(x) for x in range(1, 61)}
        cls = classify_function(f, 60)
        if not cls.is_qm:
            continue
        for a in range(1, 61):
            for b in range(1, 61):
                if (b % a == 0) != (vals[b] % vals[a] == 0):
                    yield ({"f": name, "a": a, "b": b},
                           b % a == 0, vals[b] % vals[a] == 0)


@claim
def check_fs12(m):
    c = _ctx(m)
    if not c.mod.weakly_even:
        return
    for e in c.E:
        vals = {k: oracle_rho_count(m, e, k)
                for k in range(1, min(2 * c.mod.phi, 48) + 1)}
        for k1 in vals:
            for k2 in range(2 * k1, max(vals) + 1, k1):
                if vals[k2] % vals[k1] != 0:
                    yield ({"e": e, "k1": k1, "k2": k2},
                           "rho(k1) | rho(k2)", (vals[k1], vals[k2]))


@claim(scope="global")
def check_fs13(_m):
    lifts = {
        "phi-lift": lambda q: build_modulus(q).phi,
        "identity-lift": lambda q: q,
    }
    for name, g in lifts.items():
        f = lambda x: lcm_lift(g, x)
        cls = classify_function(f, _FS_BOUND)
        if not cls.is_qm:
            yield {"g": name}, "lifted f in QM", cls.witnesses.get("QM")


# ---------------------------------------------------------------- ia series


def _failed_laws(m, *laws):
    """The counterexample of each named operator-algebra law that fails on
    E_m (algebra.verify_algebra)."""
    for law in _ctx(m).algebra.laws:
        if law.law in laws and not law.passed:
            yield {"law": law.law}, "law holds", law.counterexample


@claim
def check_ia02(m):
    return _failed_laws(m, "mixing-product", "mixing-power")


@claim
def check_ia03(m):
    return _failed_laws(m, "closure")


@claim
def check_ia05(m):
    return _failed_laws(m, "basis-map")


@claim
def check_ia06(m):
    return _failed_laws(m, "circ-group", "circ-translation-injective")


@claim
def check_ia07(m):
    return _failed_laws(m, "otimes-ring")


@claim
def check_ia08(m):
    return _failed_laws(m, "circ-group", "otimes-ring")


@claim
def check_ia09(m):
    return _failed_laws(m, "identity-catalog")


@claim
def check_ia10(m):
    return _failed_laws(m, "identity-catalog", "otimes-nary")


@claim
def check_ia11(m):
    return _failed_laws(m, "otimes-nary", "identity-catalog")


# ---------------------------------------------------------------- sd series


@claim
def check_sd02(m):
    c = _ctx(m)
    for k in range(1, m + 1):
        if math.gcd(k, m) != 1:
            continue
        scan = {x for x in range(1, m + 1) if x * x % m == k * x % m}
        built = {canon(k * e, m) for e in c.E}
        if scan != built:
            yield {"k": k}, sorted(built), sorted(scan)


@claim
def check_sd03(m):
    for a in range(0, min(m, 8)):
        for b in range(a + 1, a + 1 + min(m, 8)):
            if math.gcd(b - a, m) != 1:
                continue
            roots = [r for r in range(1, m + 1) if (r - a) * (r - b) % m == 0]
            seen = set()
            for r in roots:
                try:
                    e = root_decompose(m, a, b, r)
                except (AssertionError, ValueError) as exc:
                    yield ({"a": a, "b": b, "r": r},
                           "unique idempotent decomposition", str(exc))
                    continue
                if e in seen:
                    yield {"a": a, "b": b, "r": r}, "distinct idempotents per root", e
                seen.add(e)


@claim
def check_sd04(m):
    c = _ctx(m)
    for a in range(1, m + 1):
        if math.gcd(2 * a, m) != 1:
            continue
        roots = [r for r in range(1, m + 1) if r * r % m == a % m]
        for r1 in roots:
            matches = [
                e for e in c.E if canon(r1 - roots[0] * (2 * e - 1), m) == m
            ]
            if len(matches) != 1:
                yield ({"a": a, "r1": r1, "r2": roots[0]},
                       "unique e with r1 = r2(e - ebar)", matches)


@claim
def check_sd05(m):
    v2 = 0
    mm = m
    while mm % 2 == 0:
        mm //= 2
        v2 += 1
    if not (v2 == 0 or (v2 == 2 and mm % 2 == 1)):
        return
    c = _ctx(m)
    roots = {r for r in range(1, m + 1) if r * r % m == 1 % m}
    images = {canon(2 * e - 1, m) for e in c.E}
    if roots != images or len(images) != len(c.E):
        yield {}, sorted(roots), sorted(images)


@claim
def check_sd07(m):
    c = _ctx(m)
    for k in range(1, m + 1, max(1, m // 12)):
        ker = kernel(m, k)
        sols = set(ker.solutions)
        for r in ker.solutions:
            if ker.rbar(r) not in sols:
                yield {"k": k, "r": r}, "rbar closed", ker.rbar(r)
            for e in c.E:
                for which in ("circ", "otimes"):
                    out = kernel_op(m, k, r, e, which)
                    if out not in sols:
                        yield {"k": k, "r": r, "e": e, "op": which}, "closed", out


@claim
def check_sd08(m):
    c = _ctx(m)
    for k in range(1, m + 1, max(1, m // 12)):
        ker = kernel(m, k)
        for e in c.E:
            image = {kernel_op(m, k, r, e, "circ") for r in ker.solutions}
            if image != set(ker.solutions):
                yield ({"k": k, "e": e},
                       "circ-translation permutes kernel", sorted(image))


@claim
def check_sd10(m):
    c = _ctx(m)
    for e in c.E:
        ker = kernel(m, e)
        sols = set(ker.solutions)
        rs = list(ker.solutions)[:: max(1, len(ker.solutions) // 10)]
        for r1 in rs:
            for r2 in rs:
                for which in ("circ", "otimes"):
                    out = class_kernel_op(m, e, r1, r2, which)
                    if out not in sols:
                        yield {"e": e, "r1": r1, "r2": r2, "op": which}, "closed", out


@claim
def check_sd11(m):
    c = _ctx(m)
    for e in c.E:
        members = c.by_class.get(e, [])
        ker = kernel(m, e)
        step = max(1, len(members) // 8)
        sampled = members[::step]
        powers = {x: [pow(x, n, m) for n in (2, 3, 5)] for x in sampled}
        for r in list(ker.solutions)[:: max(1, len(ker.solutions) // 6)]:
            rb = canon(e - r, m)
            for a in sampled:
                for b in sampled:
                    x = a * r + b * rb
                    for cd, d in ((2, 5), (3, 7), (m - 1, 11)):
                        lhs = x * (cd * r + d * rb) % m
                        rhs = (a * cd % m * r + b * d % m * rb) % m
                        if lhs != rhs:
                            yield ({"e": e, "r": r, "a": a, "b": b, "c": cd, "d": d},
                                   rhs, lhs)
                    for n, an, bn in zip((2, 3, 5), powers[a], powers[b]):
                        lhs = pow(x, n, m)
                        rhs = (an * r + bn * rb) % m
                        if lhs != rhs:
                            yield {"e": e, "r": r, "a": a, "b": b, "n": n}, rhs, lhs


@claim
def check_sd12(m):
    c = _ctx(m)
    for e, members in c.by_class.items():
        ms = set(members)
        for k in members:
            inter = {x for x in kernel(m, k).solutions if x in ms}
            if inter != {k}:
                yield {"e": e, "k": k}, [k], sorted(inter)


@claim
def check_sd13(m):
    c = _ctx(m)
    bar = {e: canon(1 - e, m) for e in c.E}
    # e e2 + (1 - e)(1 - e2), an idempotent, for each pair of E.
    joined = {(e, e2): canon(e * e2 + (1 - e) * (1 - e2), m) for e in c.E for e2 in c.E}
    for k in range(1, m + 1, max(1, m // 12)):
        ker = kernel(m, k)
        for r in ker.solutions:
            circ = {e: kernel_op(m, k, r, e, "circ") for e in c.E}  # r o e
            rbar = ker.rbar(r)
            for e in c.E:
                lhs = canon(k - circ[e], m)
                if lhs != circ[bar[e]]:
                    yield {"k": k, "r": r, "e": e}, "bar of r o e == r o ebar", lhs
                if lhs != kernel_op(m, k, rbar, e, "circ"):
                    yield ({"k": k, "r": r, "e": e, "second": True},
                           "bar of r o e == rbar o e", lhs)
                for e2 in c.E:
                    left = kernel_op(m, k, circ[e], e2, "circ")
                    right = circ[joined[e, e2]]
                    if left != right:
                        yield ({"k": k, "r": r, "e1": e, "e2": e2, "assoc": True},
                               right, left)


@claim
def check_sd14(m):
    c = _ctx(m)
    for k in range(1, m + 1):
        if math.gcd(k, m) != 1:
            continue
        ker = kernel(m, k)
        for r in ker.solutions:
            images = {}
            for e in c.E:
                out = kernel_op(m, k, r, e, "circ")
                if out in images and images[out] != e:
                    yield {"k": k, "r": r}, "injective in e", (images[out], e)
                images[out] = e


@claim
def check_sd15(m):
    if m % 2 == 0:
        return
    c = _ctx(m)
    for e in c.E:
        rep = sqrt_structure(m, e)
        if len(rep.roots) != rep.size_formula:
            yield {"e": e}, rep.size_formula, len(rep.roots)
        if rep.product != rep.product_formula:
            yield {"e": e, "product": True}, rep.product_formula, rep.product
        images = {canon(e * (2 * e0 - 1), m) for e0 in c.E}
        stray = [r for r in rep.roots if r not in images]
        if stray:
            yield ({"e": e, "parametrization": True},
                   "roots of form e(e0 - ebar0)", stray)
        if e != m:
            for e0 in c.E:
                if canon(e * (2 * e0 - 1), m) == canon(e * (1 - 2 * e0), m):
                    yield {"e": e, "e0": e0}, "no self-negation", "collision"


def run_audit(lo: int, hi: int, theorems: list[str] | None = None) -> AuditReport:
    """Audit the registered statements (all, or the ids in theorems, each
    once, in first-seen order) over m in [lo, hi], deterministic."""
    if lo < 2 or hi < lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    ids = list(THEOREMS) if theorems is None else list(dict.fromkeys(theorems))
    if not ids:
        raise ValueError("no theorem ids selected")
    for tid in ids:
        if tid not in THEOREMS:
            raise ValueError(f"unknown theorem id {tid!r}")
    findings: dict[str, list[AuditFinding]] = {tid: [] for tid in ids}
    _fs_corpus.cache_clear()
    global_ids = [tid for tid in ids if THEOREMS[tid][0] == "global"]
    sweep_ids = [tid for tid in ids if tid not in global_ids]
    for m, tids in [(0, global_ids)] + [(m, sweep_ids) for m in range(lo, hi + 1)]:
        for tid in tids:
            check = THEOREMS[tid][1]  # read per call, so callers may wrap it
            findings[tid].extend(AuditFinding(tid, m, *f) for f in check(m))
    _fs_corpus.cache_clear()
    results = []
    for tid, found in findings.items():
        found.sort(key=AuditFinding.sort_key)
        status = "verified-on-range" if not found else "counterexamples"
        results.append(TheoremResult(tid, status, found))
    return AuditReport(lo, hi, results)
