"""Command-line frontend.

All residue output uses the {1..m} convention: the value m denotes the zero
class.  Sets print sorted ascending, comma-separated.  Exit codes: 0 for any
completed query (including "unsolvable" answers), 2 for bad input, 3 when a
requested enumeration exceeds the cap (IDEM_MAX_ENUM / --max-enum).

The library refuses each query over the cap (see --max-enum), but
enumerate_idempotents has no cap, since verify_algebra reads it on 40-64-bit
moduli: so idempotents is the one command whose m the CLI checks itself.
"""
from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .arith import EnumerationCapError, build_modulus, canon, check_enum, set_max_enum
from .idempotents import (
    enumerate_idempotents,
    idem_class,
    order,
    tower_mod,
)
from .residues import classify, normal_set, orbit, regular_set
from .congruence import gen_primitive_roots, omega_info, solve
from .counting import (
    builtin_function,
    classify_function,
    orbit_union_size,
    r_count,
    rho_closed_form,
    rho_count,
)
from .algebra import OPS, idem_op, verify_algebra
from .quadratic import kernel, sqrt_structure


def _fmt_set(values) -> str:
    return ",".join(str(v) for v in sorted(values))


def _emit(args, payload: dict, text_lines) -> int:
    """Print payload as JSON under --json, else the lines text_lines()
    returns, which are built only then."""
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines():
            print(line)
    return 0


# ---------------------------------------------------------------- commands


def _cmd_modinfo(args) -> int:
    mod = build_modulus(args.m)
    payload = {
        "m": mod.m,
        "factors": [[p, a] for p, a in mod.factorization.factors],
        "phi": mod.phi,
        "psi": mod.psi,
        "omega": mod.omega,
        "square_free": mod.square_free,
        "weakly_even": mod.weakly_even,
        "barely_even": mod.barely_even,
    }

    def lines():
        fact = " * ".join(
            f"{p}^{a}" if a > 1 else str(p) for p, a in mod.factorization.factors
        ) or "1"
        yield f"m = {mod.m} = {fact}"
        for name in ("phi", "psi", "omega", "square_free", "weakly_even",
                     "barely_even"):
            yield f"{name} = {payload[name]}"

    return _emit(args, payload, lines)


def _cmd_idempotents(args) -> int:
    check_enum(args.m)
    es = enumerate_idempotents(args.m).elements
    payload = {"m": args.m, "idempotents": sorted(es)}
    return _emit(args, payload, lambda: [_fmt_set(es)])


def _cmd_order(args) -> int:
    info = order(args.m, args.a)
    payload = {
        "m": args.m,
        "a": canon(args.a, args.m),
        "order": info.order,
        "idem_class": info.idem_class,
    }
    return _emit(args, payload, lambda: [
        f"|{payload['a']}|_{args.m} = {info.order}",
        f"idempotent class: {info.idem_class}",
    ])


def _cmd_classify(args) -> int:
    c = classify(args.m, args.a)
    payload = {
        "m": args.m,
        "a": c.a,
        "is_normal": c.is_normal,
        "is_regular": c.is_regular,
        "order": c.order,
        "idem_class": c.idem_class,
        "mu": c.mu,
        "delta": c.delta,
    }
    return _emit(args, payload, lambda: [
        f"a = {c.a} (mod {args.m})",
        f"normal = {c.is_normal}",
        f"regular = {c.is_regular}",
        f"order = {c.order}",
        f"idem_class = {c.idem_class}",
        f"mu = {c.mu}",
        f"delta = {c.delta}",
    ])


def _cmd_sets(args) -> int:
    e = args.cls
    want_regular = args.regular or not args.normal
    want_normal = args.normal or not args.regular
    payload: dict = {"m": args.m}
    if want_regular:
        payload["regular"] = regular_set(args.m, e)
    if want_normal:
        payload["normal"] = normal_set(args.m, e)
    if e is not None:
        payload["class"] = canon(e, args.m)
    return _emit(args, payload, lambda: [
        f"{name}: {_fmt_set(payload[name])}"
        for name in ("regular", "normal") if name in payload
    ])


def _cmd_orbit(args) -> int:
    ob = orbit(args.m, args.a)
    payload = {
        "m": args.m,
        "a": canon(args.a, args.m),
        "orbit": sorted(ob.elements),
    }
    return _emit(args, payload, lambda: [_fmt_set(ob.elements)])


def _cmd_solve(args) -> int:
    res = solve(args.m, args.k, args.a)
    payload = {
        "m": args.m,
        "k": args.k,
        "a": res.a,
        "solutions": res.solutions,
        "regular_solutions": res.regular_solutions,
        "solvable": res.solvable,
    }
    if res.bc01_verdict is not None:
        payload["criterion_verdict"] = res.bc01_verdict

    def lines():
        yield f"x^{args.k} = {res.a} (mod {args.m})"
        yield f"solutions: {_fmt_set(res.solutions) or '(none)'}"
        yield f"regular solutions: {_fmt_set(res.regular_solutions) or '(none)'}"
        yield f"solvable: {res.solvable}"
        if res.bc01_verdict is not None:
            yield f"criterion verdict: {res.bc01_verdict}"

    return _emit(args, payload, lines)


def _cmd_omega(args) -> int:
    info = omega_info(args.m, args.a)
    payload = {
        "m": args.m,
        "a": info.a,
        "omega": info.omega_a,
        "omega_set": info.omega_set,
        "ind_sup": info.ind_sup,
    }
    return _emit(args, payload, lambda: [
        f"omega_{args.m}({info.a}) = {info.omega_a}",
        f"maximizers: {_fmt_set(info.omega_set)}",
        f"ind_sup = {info.ind_sup}",
    ])


def _cmd_gproots(args) -> int:
    gs = gen_primitive_roots(args.m)
    payload = {"m": args.m, "gproots": gs}
    return _emit(args, payload, lambda: [_fmt_set(gs)])


def _cmd_counts(args) -> int:
    mod = build_modulus(args.m)
    e = canon(args.e, args.m)
    r = r_count(args.m, e, args.k)
    rho = rho_count(args.m, e, args.k)
    union = orbit_union_size(args.m, e, args.k)
    payload = {
        "m": args.m,
        "e": e,
        "k": args.k,
        "r": r,
        "rho": rho,
        "union_size": union.true_size,
        "union_formula": union.formula_value,
    }
    if mod.weakly_even and e == canon(1, args.m):
        payload["rho_closed_form"] = rho_closed_form(args.m, args.k)

    def lines():
        yield f"r_{args.m}^{e}({args.k}) = {r}"
        yield f"rho_{args.m}^{e}({args.k}) = {rho}"
        yield (f"orbit union size = {union.true_size} "
               f"(formula: {union.formula_value})")
        if "rho_closed_form" in payload:
            yield f"rho closed form = {payload['rho_closed_form']}"

    return _emit(args, payload, lines)


def _cmd_classify_fn(args) -> int:
    f = builtin_function(args.name)
    cls = classify_function(f, args.n)
    payload = {
        "function": args.name,
        "bound": args.n,
        "multiplicative": cls.is_m,
        "quasimultiplicative": cls.is_qm,
        "division_invariant": cls.is_di,
        "division_invariant_prime_powers": cls.is_di_pp,
        "witnesses": {k: list(v) for k, v in cls.witnesses.items()},
    }

    def lines():
        yield f"{args.name} on 1..{args.n}:"
        yield f"multiplicative = {cls.is_m}"
        yield f"quasimultiplicative = {cls.is_qm}"
        yield f"division-invariant = {cls.is_di}"
        yield f"division-invariant on prime powers = {cls.is_di_pp}"
        for label, w in sorted(cls.witnesses.items()):
            yield f"counterexample [{label}]: {w}"

    return _emit(args, payload, lines)


def _cmd_algebra(args) -> int:
    rep = verify_algebra(args.m)
    payload = {
        "m": args.m,
        "ok": rep.ok,
        "laws": [
            {
                "law": l.law,
                "passed": l.passed,
                "counterexample": list(l.counterexample) if l.counterexample else None,
            }
            for l in rep.laws
        ],
    }

    def lines():
        for l in rep.laws:
            yield f"{l.law}: {'ok' if l.passed else 'FAIL ' + repr(l.counterexample)}"
        yield f"all laws: {'ok' if rep.ok else 'FAIL'}"

    return _emit(args, payload, lines)


def _cmd_idemop(args) -> int:
    out = idem_op(args.m, args.op, args.e1, args.e2)
    payload = {"m": args.m, "op": args.op, "e1": canon(args.e1, args.m),
               "result": out}
    if args.e2 is not None:
        payload["e2"] = canon(args.e2, args.m)
    return _emit(args, payload, lambda: [str(out)])


def _cmd_quadratic(args) -> int:
    ker = kernel(args.m, args.k)
    payload = {
        "m": args.m,
        "k": ker.k,
        "solutions": ker.solutions,
        "pairs": sorted(
            sorted((r, ker.rbar(r))) for r in ker.solutions if r <= ker.rbar(r)
        ),
    }
    return _emit(args, payload, lambda: [
        f"x^2 = {ker.k}x (mod {args.m})",
        f"solutions: {_fmt_set(ker.solutions)}",
    ])


def _cmd_sqrt(args) -> int:
    rep = sqrt_structure(args.m, args.e)
    payload = {
        "m": args.m,
        "e": rep.e,
        "roots": rep.roots,
        "size_formula": rep.size_formula,
        "product": rep.product,
        "product_formula": rep.product_formula,
    }
    return _emit(args, payload, lambda: [
        f"regular roots of x^2 = {rep.e} (mod {args.m}): {_fmt_set(rep.roots)}",
        f"count = {len(rep.roots)} (formula: {rep.size_formula})",
        f"product = {rep.product} (formula: {rep.product_formula})",
    ])


def _cmd_tower(args) -> int:
    value = tower_mod(args.m, args.base, args.height)
    chain = []
    mm = args.m
    while mm > 1:
        n = order(mm, args.base).order
        chain.append({"modulus": mm, "order": n})
        if n == mm:
            break
        mm = n
    payload = {
        "m": args.m,
        "base": args.base,
        "height": args.height,
        "value": value,
        "chain": chain,
        "idem_power": idem_class(args.m, args.base),
    }
    def lines():
        yield str(value)
        for link in chain:
            yield (f"|{canon(args.base, link['modulus'])}|_{link['modulus']}"
                   f" = {link['order']}")
        yield (f"{canon(args.base, args.m)}^{chain[0]['order'] if chain else 1}"
               f" = {payload['idem_power']} (mod {args.m})")

    return _emit(args, payload, lines)


def _cmd_audit(args) -> int:
    # The claim registry is imported by this command only; no query needs it.
    from .audit import run_audit

    try:
        lo_s, hi_s = args.range.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"range must look like <lo>..<hi>, got {args.range!r}")
    ids = None
    if args.theorems is not None:
        ids = [t.strip() for t in args.theorems.split(",") if t.strip()]
    report = run_audit(lo, hi, ids)
    doc = report.dumps()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        for res in report.results:
            print(f"{res.theorem_id}: {res.status}"
                  + (f" ({len(res.findings)} findings)" if res.findings else ""))
    return 0


# ---------------------------------------------------------------- dispatch


def _ints(*names):
    return [((name,), {"type": int}) for name in names]


# The flags of the main parser, which every subcommand also accepts after
# its own arguments.
_GLOBAL_FLAGS = {
    "--json": {"action": "store_true", "help": "structured output"},
    "--max-enum": {"type": int, "metavar": "N",
                   "help": "the enumeration cap (IDEM_MAX_ENUM) for this call, "
                   "on m for sets, omega, gproots, idempotents, quadratic and "
                   "audit's range; on the answer's size for solve, sqrt and "
                   "orbit; on n for classify-fn; modinfo, order, classify, "
                   "tower, counts, idemop and algebra read none"},
}

# Each command's handler and the add_argument calls of its subparser, in the
# order the help lists them.  _parse reads canonical argv from this table too.
_COMMANDS = {
    "modinfo": (_cmd_modinfo, _ints("m")),
    "idempotents": (_cmd_idempotents, _ints("m")),
    "order": (_cmd_order, _ints("m", "a")),
    "classify": (_cmd_classify, _ints("m", "a")),
    "sets": (_cmd_sets, _ints("m") + [
        (("--regular",), {"action": "store_true"}),
        (("--normal",), {"action": "store_true"}),
        (("--class",), {"dest": "cls", "type": int, "default": None}),
    ]),
    "orbit": (_cmd_orbit, _ints("m", "a")),
    "solve": (_cmd_solve, _ints("m", "k", "a")),
    "omega": (_cmd_omega, _ints("m", "a")),
    "gproots": (_cmd_gproots, _ints("m")),
    "counts": (_cmd_counts, _ints("m", "e", "k")),
    "classify-fn": (_cmd_classify_fn, [(("name",), {})] + _ints("n")),
    "algebra": (_cmd_algebra, _ints("m")),
    "idemop": (_cmd_idemop, _ints("m") + [
        (("op",), {"choices": OPS}),
        (("e1",), {"type": int}),
        (("e2",), {"type": int, "nargs": "?", "default": None}),
    ]),
    "quadratic": (_cmd_quadratic, _ints("m", "k")),
    "sqrt": (_cmd_sqrt, _ints("m", "e")),
    "tower": (_cmd_tower, _ints("m", "base", "height")),
    "audit": (_cmd_audit, [
        (("range",), {"help": "<lo>..<hi>"}),
        (("--theorems",), {"help": "comma-separated theorem ids"}),
        (("--out",), {"metavar": "FILE"}),
    ]),
}


def _build_parser():
    # Only help, errors and other spellings of argv reach the parser, so a
    # query start imports neither argparse nor the audit.
    import argparse

    from .audit import THEOREMS  # the ids the --theorems help lists

    parser = argparse.ArgumentParser(
        prog="idemod",
        description="Composite moduli through their idempotent residues "
        "(residues print in {1..m}; m denotes the zero class).",
    )
    for flag, kwargs in _GLOBAL_FLAGS.items():
        parser.add_argument(flag, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, arguments) in _COMMANDS.items():
        p = sub.add_parser(name)
        # Accept the global flags after the subcommand as well; SUPPRESS
        # keeps the main parser's value when the flag precedes the command.
        for flag, kwargs in _GLOBAL_FLAGS.items():
            kwargs = {k: v for k, v in kwargs.items() if k != "help"}
            p.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
        for flags, kwargs in arguments:
            if flags == ("--theorems",):
                kwargs = dict(kwargs, help=f"{kwargs['help']} "
                              f"(known: {', '.join(THEOREMS)})")
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def _dest(flag: str, kwargs: dict) -> str:
    return kwargs.get("dest", flag.lstrip("-").replace("-", "_"))


def _read(kwargs: dict, token: str):
    """token through an argument's type and choices; ValueError where
    argparse reports an error."""
    value = kwargs.get("type", str)(token)
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"invalid choice: {token!r}")
    return value


def _read_flags(argv: list[str], i: int, flags: dict, values: dict) -> int:
    """Store the flags of argv from index i into values, up to the first
    token that is not one of flags; the index of that token."""
    while i < len(argv) and argv[i] in flags:
        kwargs = flags[argv[i]]
        if kwargs.get("action") == "store_true":
            values[_dest(argv[i], kwargs)] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            raise ValueError(f"{argv[i]} needs a value")
        values[_dest(argv[i], kwargs)] = _read(kwargs, argv[i + 1])
        i += 2
    return i


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The attributes the full parser sets for argv, read from the command
    table when argv has the form ``[global flags] command positionals
    [flags]``: every flag spelled out, a flag's value in the next token, and
    no other token starting with "-".  None for every other argv, which the
    full parser judges; importing argparse and building the parser cost more
    than most queries do."""
    flags = dict(_GLOBAL_FLAGS)
    values = {}
    try:
        i = _read_flags(argv, 0, flags, values)
        if i == len(argv) or argv[i] not in _COMMANDS:
            return None
        command = argv[i]
        fn, arguments = _COMMANDS[command]
        positionals = []
        for names, kwargs in arguments:
            if names[0].startswith("-"):
                flags[names[0]] = kwargs
            else:
                positionals.append((names[0], kwargs))
        for flag, kwargs in flags.items():
            default = False if kwargs.get("action") == "store_true" else None
            values.setdefault(_dest(flag, kwargs), kwargs.get("default", default))
        # The positionals run up to the first flag; only flags follow them.
        start = end = i + 1
        while end < len(argv) and not argv[end].startswith("-"):
            end += 1
        optional = sum(kwargs.get("nargs") == "?" for _, kwargs in positionals)
        if not len(positionals) - optional <= end - start <= len(positionals):
            return None
        for k, (name, kwargs) in enumerate(positionals):
            values[name] = (_read(kwargs, argv[start + k]) if start + k < end
                            else kwargs.get("default"))
        if _read_flags(argv, end, flags, values) < len(argv):
            return None
    except ValueError:
        return None
    return SimpleNamespace(command=command, fn=fn, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv) or _build_parser().parse_args(argv)
    if args.max_enum is not None and args.max_enum < 1:
        print(f"invalid --max-enum {args.max_enum}", file=sys.stderr)
        return 2
    if args.max_enum is not None:
        saved_cap = set_max_enum(args.max_enum)
    try:
        return args.fn(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.max_enum is not None:  # --max-enum holds for this call only
            set_max_enum(saved_cap)


if __name__ == "__main__":
    sys.exit(main())
