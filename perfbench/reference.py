"""Independent answers for every query the benchmark sends.

Runs after the timed region.  Brute force through ``idemod.oracle`` where it
is in reach (small moduli); elsewhere sympy's ``n_order``, ``factorint`` and
``totient`` and the defining identities.  The generator built every modulus
from its primes, so the factorization is known without the program's help.
"""
from __future__ import annotations

import json
import math

from sympy import factorint, n_order, reduced_totient, totient

from workloads import Query, crt_idempotent, psi

BRUTE_MAX = 600  # oracle_is_normal is quadratic in m
# The laws `idemod algebra` reports, in order, at the commit that defined the
# benchmark: a run that checks fewer of them is a wrong answer.
ALGEBRA_LAWS = ("mixing-product", "mixing-power", "closure", "circ-group",
                "circ-translation-injective", "otimes-ring", "identity-catalog",
                "otimes-nary", "basis-map")


def canon(a: int, m: int) -> int:
    return a % m or m


def _valuation(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def order_parts(f: dict[int, int], a: int) -> tuple[int, int]:
    """(L, T): lcm of the unit orders on the prime powers coprime to a, and
    the largest ceil(alpha / v_p(a)) over the primes dividing a."""
    L = T = 1
    for p, alpha in f.items():
        q = p**alpha
        if a % p == 0:
            v = alpha if a % q == 0 else _valuation(a, p)
            T = max(T, -(-alpha // v))
        else:
            L = math.lcm(L, n_order(a % q, q))
    return L, T


def gen_order(f: dict[int, int], m: int, a: int) -> int:
    """Generalized order |a|_m: the least n with a^n idempotent."""
    if m <= BRUTE_MAX:
        from idemod.oracle import oracle_order
        return oracle_order(m, a)
    L, T = order_parts(f, a % m)
    return L * -(-T // L)


def regular(f: dict[int, int], m: int, x: int) -> bool:
    """x lies in a group iff x^(N+1) = x for some N >= 1; psi(m) is a
    multiple of every regular element's order."""
    return pow(x, psi(f) + 1, m) == x % m


def idem_class(f, m, a) -> int:
    return canon(pow(a, gen_order(f, m, a), m), m)


def normal(f, m, a) -> bool:
    if m <= BRUTE_MAX:
        from idemod.oracle import oracle_is_normal
        return oracle_is_normal(m, a)
    L, T = order_parts(f, a % m)
    return T <= L  # idempotent powers are the multiples of L from T on


def cyclic_units(f: dict[int, int]) -> bool:
    """Prime powers p^k (p odd) and 2, 4: U(m) is cyclic and the only
    regular non-unit is the zero class m."""
    m = math.prod(p**a for p, a in f.items())
    return len(f) == 1 and (2 not in f or m <= 4)


def powers(m: int, a: int, n: int) -> set[int]:
    out, x = set(), 1 % m
    for _ in range(n):
        x = x * a % m
        out.add(canon(x, m))
    return out


def class_orders(f, m, e) -> dict[int, int]:
    """Regular residues of idempotent class e, with their orders."""
    period = psi(f)
    return {b: gen_order(f, m, b) for b in range(1, m + 1)
            if regular(f, m, b) and canon(pow(b, period, m), m) == e}


def omega(f, m, a, value_only=False) -> tuple[int, list[int] | None]:
    """omega_m(a) and its maximizers.  b's orbit, a cyclic group, holds a iff
    its one subgroup of order |a|, generated by b^(|b|/|a|), equals <a>."""
    if cyclic_units(f):  # every unit lies in a generator's orbit
        if math.gcd(a, m) != 1:
            return 1, [m]
        if value_only:
            return int(totient(m)), None
        return int(totient(m)), gproots(f, m)[:-1]
    na = gen_order(f, m, a)
    e = canon(pow(a, na, m), m)
    sub = powers(m, a, na)
    hits = [(nb, b) for b, nb in class_orders(f, m, e).items()
            if nb % na == 0 and canon(pow(b, nb // na, m), m) in sub]
    best = max(nb for nb, _ in hits)
    return best, sorted(b for nb, b in hits if nb == best)


def gproots(f, m) -> list[int]:
    """G_m = {g regular : omega_m(g) = |g|_m}."""
    if cyclic_units(f):
        phi = int(totient(m))
        return sorted([g for g in range(1, m) if math.gcd(g, m) == 1
                       and n_order(g, m) == phi] + [m])
    period = psi(f)
    by_class: dict[int, dict[int, int]] = {}
    for b in range(1, m + 1):
        if regular(f, m, b):
            by_class.setdefault(canon(pow(b, period, m), m), {})[b] = gen_order(f, m, b)
    out = []
    for members in by_class.values():
        for g, ng in members.items():
            sub = powers(m, g, ng)
            if not any(nb > ng and nb % ng == 0
                       and canon(pow(b, nb // ng, m), m) in sub
                       for b, nb in members.items()):
                out.append(g)
    return sorted(out)


def tower(m: int, base: int, height: int) -> int:
    """base^^height mod m through Carmichael's lambda: a^x mod m depends only
    on x mod lambda(m) once x reaches the largest prime exponent of m."""
    if m == 1:
        return 1
    if height == 1:
        return canon(base, m)
    x = _exact_tower(base, height - 1, 1 << 70)
    if x is not None:
        return canon(pow(base, x, m), m)
    lam = int(reduced_totient(m))
    nu = max(factorint(m).values())
    y = tower(lam, base, height - 1)
    while y < nu:
        y += lam
    return canon(pow(base, y, m), m)


def _exact_tower(base: int, height: int, limit: int) -> int | None:
    v = base
    for _ in range(height - 1):
        if base == 1:
            return 1
        if v > 255:
            return None
        v = base**v
    return v if v < limit else None


# ---------------------------------------------------------------- per command


def expected(q: Query) -> dict:
    """The JSON payload a correct ``idemod <argv> --json`` prints."""
    cmd, m, f = q.argv[0], q.m, q.factors
    args = [int(x) for x in q.argv[2:] if x.lstrip("-").isdigit()]
    if cmd == "omega":
        a = canon(args[0], m)
        w, ws = omega(f, m, a)
        return {"m": m, "a": a, "omega": w, "omega_set": ws,
                "ind_sup": w // gen_order(f, m, a)}
    if cmd == "gproots":
        return {"m": m, "gproots": gproots(f, m)}
    if cmd == "solve":
        from idemod.oracle import oracle_solve
        k, a = args[0], canon(args[1], m)
        sols = sorted(oracle_solve(m, k, a))
        out = {"m": m, "k": k, "a": a, "solutions": sols,
               "regular_solutions": [x for x in sols if regular(f, m, x)],
               "solvable": bool(sols)}
        if regular(f, m, a):
            w = omega(f, m, a, value_only=True)[0]
            x = pow(a, w // math.gcd(k, w), m)
            out["criterion_verdict"] = x * x % m == x
        return out
    if cmd == "counts":
        e, k = canon(args[0], m), args[1]
        orders = class_orders(f, m, e)
        r = sum(1 for n in orders.values() if n == k)
        union: set[int] = set()
        for b, n in orders.items():
            if n == k:
                union |= powers(m, b, n)
        out = {"m": m, "e": e, "k": k, "r": r,
               "rho": sum(1 for n in orders.values() if k % n == 0),
               "union_size": len(union), "union_formula": k * r // int(totient(k))}
        if f.get(2, 0) <= 2 and e == canon(1, m):
            out["rho_closed_form"] = math.prod(
                math.gcd(k, p ** (a - 1) * (p - 1)) for p, a in f.items())
        return out
    if cmd == "sets":
        e = None
        if "--class" in q.argv:
            e = canon(int(q.argv[q.argv.index("--class") + 1]), m)
        want_reg = "--regular" in q.argv or "--normal" not in q.argv
        want_norm = "--normal" in q.argv or "--regular" not in q.argv
        out: dict = {"m": m}
        if want_reg:
            out["regular"] = [a for a in range(1, m + 1) if regular(f, m, a)
                              and (e is None or idem_class(f, m, a) == e)]
        if want_norm:
            out["normal"] = [a for a in range(1, m + 1) if normal(f, m, a)
                             and (e is None or idem_class(f, m, a) == e)]
        if e is not None:
            out["class"] = e
        return out
    if cmd == "sqrt":
        e = canon(args[0], m)
        roots = [x for x in range(1, m + 1)
                 if x * x % m == e % m and regular(f, m, x)]
        om = sum(1 for p in f if e % p)  # omega(mu(e)): primes where e = 1
        sign = 1 if om >= 2 else -1
        return {"m": m, "e": e, "roots": roots, "size_formula": 2**om,
                "product": canon(math.prod(roots), m),
                "product_formula": canon(sign * e, m)}
    if cmd == "quadratic":
        k = canon(args[0], m)
        sols = [x for x in range(1, m + 1) if x * x % m == k * x % m]
        pairs = sorted(sorted((r, canon(k - r, m))) for r in sols
                       if r <= canon(k - r, m))
        return {"m": m, "k": k, "solutions": sols, "pairs": pairs}
    if cmd == "orbit":
        a = canon(args[0], m)
        return {"m": m, "a": a, "orbit": sorted(powers(m, a, gen_order(f, m, a)))}
    if cmd == "modinfo":
        v2 = f.get(2, 0)
        return {"m": m, "factors": [[p, a] for p, a in sorted(f.items())],
                "phi": int(totient(m)), "psi": psi(f), "omega": len(f),
                "square_free": all(a == 1 for a in f.values()),
                "weakly_even": v2 <= 2, "barely_even": v2 == 1}
    if cmd == "order":
        a = canon(args[0], m)
        n = gen_order(f, m, a)
        return {"m": m, "a": a, "order": n, "idem_class": canon(pow(a, n, m), m)}
    if cmd == "classify":
        a = canon(args[0], m)
        L, T = order_parts(f, a % m)
        n = L * -(-T // L)
        e = canon(pow(a, n, m), m)
        delta = next(k for k in range(1, 130) if regular(f, m, pow(a, k, m)))
        return {"m": m, "a": a, "is_normal": T <= L, "is_regular": regular(f, m, a),
                "order": n, "idem_class": e, "mu": m // math.gcd(e % m, m),
                "delta": delta}
    if cmd == "tower":
        base, height = args
        chain, mm = [], m
        while mm > 1:
            n = gen_order(factorint(mm), mm, base)
            chain.append({"modulus": mm, "order": n})
            if n == mm:
                break
            mm = n
        return {"m": m, "base": base, "height": height,
                "value": tower(m, base, height), "chain": chain,
                "idem_power": idem_class(f, m, base)}
    if cmd == "idempotents":
        primes = sorted(f)
        subsets = range(1 << len(primes))
        es = {crt_idempotent(f, {p for i, p in enumerate(primes) if s >> i & 1})
              for s in subsets}
        return {"m": m, "idempotents": sorted(es)}
    if cmd == "idemop":
        op, zs = q.argv[2], [set(z) for z in q.extra["zero_sets"]]
        primes = set(f)
        # E_m is the Boolean ring of subsets of m's prime powers, e <-> the
        # primes where e = 0: complement, symmetric difference, intersection,
        # set minus (see idemod.algebra).
        zero = {"complement": lambda: primes - zs[0],
                "circ": lambda: zs[0] ^ zs[1],
                "otimes": lambda: zs[0] & zs[1],
                "simdiff": lambda: zs[0] - zs[1]}[op]()
        out = {"m": m, "op": op, "e1": canon(int(q.argv[3]), m),
               "result": crt_idempotent(f, zero)}
        if op != "complement":
            out["e2"] = canon(int(q.argv[4]), m)
        return out
    raise ValueError(f"no reference for {cmd}")


def check_answer(q: Query, stdout: str) -> str | None:
    """None if the printed JSON is right, else a short description."""
    try:
        got = json.loads(stdout)
    except ValueError:
        return f"unparsable output {stdout[:80]!r}"
    if q.argv[0] == "algebra":
        laws = got.get("laws", [])
        names = tuple(law.get("law") for law in laws)
        if names != ALGEBRA_LAWS:
            return f"algebra laws {names} != pinned {ALGEBRA_LAWS}"
        bad = [law for law in laws
               if not law.get("passed") or law.get("counterexample") is not None]
        if got.get("m") != q.m or not got.get("ok") or bad:
            return f"algebra laws failed: {bad or got}"
        return None
    want = expected(q)
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"mismatch in {diff}"
    return None
