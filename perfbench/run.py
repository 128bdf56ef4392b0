"""The idemod benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload {audit-sweep,enum-queries,point-queries}
                             --seed N --seconds S --trace {0,1}

Run from a checkout of the repository (the program is imported from
``src/``, nothing is installed).  One client, closed loop, no threads: each
query or sweep runs in a fresh child process with cold caches and a budget.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed, seed-chosen
set of units untraced and then traced, prints each per-layer metric next to
the end-to-end metric and workload it should move, writes the spans to
``.perfbench_out/``, and prints the per-layer metrics.  The last line of
standard output is always one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import workloads
from harness import MEMORY, OK, OVER_TIME, REFUSED, REJECTED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("audit-sweep", "enum-queries", "point-queries")
# Per-unit budgets: wall clock (s) and address space (bytes).  Each is far
# from every input in both directions: the slowest and largest legitimate
# units use under a fifth of the time and under half of the memory (traced
# too), and the known-defect inputs need many times either.
BUDGETS = {
    "audit-sweep": (120.0, 1 << 30),
    "enum-queries": (20.0, 384 << 20),
    "point-queries": (2.5, 1 << 30),
}
# setup_s is the median of SETUP_STARTS fresh interpreters spread evenly
# over the run, each scaled by the host's speed.
SETUP_STARTS = 30
# Host speed.  The shared host runs the same code at speeds up to twice
# apart, changing every few seconds and drifting over minutes, and
# memory-heavy code slows most, so every timing is scaled to a reference
# speed.  The benchmark times a fixed piece of pure-Python work shaped like
# the workload's units (host_work(p): the power table of every unit mod p, as
# a dict of lists) every period_s, in a forked child the way it runs a unit;
# a timing is divided by the median of the HOST_WINDOW samples around
# it over that work's median time on the machine where the benchmark was
# defined.  For enum-queries the table is as large as the round's largest
# structure tables; for the other two workloads it stays in the CPU cache, as
# their units do.  The period keeps sampling to a few percent of the run
# (for enum-queries, a sixth), and the shorter it is, the closer the samples
# follow the host's swings.  An audit sweep is one child that runs for
# seconds, so the sweep child takes its own samples, in process and with the
# collector off, between the checks it times.  The program never runs
# host_work, so a change to the program moves the scaled figures exactly as it
# moves the raw ones.
HOST_WORK = {  # workload -> (p, reference seconds, period_s)
    "audit-sweep": (307, 0.0055, 0.2),
    "enum-queries": (863, 0.075, 0.5),
    "point-queries": (307, 0.0055, 0.2),
}
SWEEP_HOST_WORK = (307, 0.005, 0.1)  # in process: no fork, the pages are warm
HOST_WINDOW = 5
# Seconds one cold pass over a run's units took at the commit that defined
# the benchmark.  A run makes round(--seconds / this) passes, at least one, so
# both sides of a comparison measure the same units.  A unit's latency is the
# median over the passes of its scaled time.
PASS_S = {"audit-sweep": 3.4, "enum-queries": 4.6, "point-queries": 3.7}
# Audit findings at [2, 24]: sha256 of the (id, status, findings) projection
# of report.to_json(), taken at the commit that defined this benchmark.
AUDIT_DIGEST = "fb773f490f354273c5f512e0a9525bf8f9c91a5828d332d49f8322e96e80a658"
AUDIT_ERRATA = {"fs05", "nn08-third", "rn17"}

# Per-layer metrics: name, unit, better, and the workload and end-to-end
# metrics it should move (a prediction written before any change).
LAYERS = [
    ("arith.factorize.calls", "count", "lower", "point-queries latency_p50_ms, ops_per_s; ~0 on audit-sweep"),
    ("arith.factorize.self_s", "s", "lower", "point-queries latency_p50_ms, ops_per_s; ~0 on audit-sweep"),
    ("arith.multiplicative_order.self_s", "s", "lower", "point-queries latency_p50_ms, ops_per_s"),
    ("arith.build_modulus.hit_ratio", "ratio", "higher", "point-queries latency_p50_ms, ops_per_s"),
    ("idempotents.order.calls", "count", "lower", "point-queries (classify, tower); audit-sweep ops_per_s"),
    ("idempotents.order.self_s", "s", "lower", "point-queries (classify, tower); audit-sweep ops_per_s"),
    ("idempotents.order.hit_ratio", "ratio", "higher", "point-queries (classify, tower); audit-sweep ops_per_s"),
    ("idempotents.index.self_s", "s", "lower", "point-queries (classify, tower); audit-sweep ops_per_s"),
    ("idempotents.tower_mod.self_s", "s", "lower", "point-queries (classify, tower); audit-sweep ops_per_s"),
    ("residues.orbit_gcd.calls", "count", "lower", "audit-sweep ops_per_s; not point-queries"),
    ("residues.orbit_gcd.self_s", "s", "lower", "audit-sweep ops_per_s; not point-queries"),
    ("residues.relative_order.self_s", "s", "lower", "audit-sweep ops_per_s; not point-queries"),
    ("audit.claim.rn35.s", "s", "lower", "audit-sweep ops_per_s; not point-queries"),
    ("audit.claim.rn33.s", "s", "lower", "audit-sweep ops_per_s; not point-queries"),
    ("audit.claim.rest.s", "s", "lower", "audit-sweep ops_per_s; not point-queries"),
    ("residues.structure_table.calls", "count", "lower", "enum-queries latency_tail_ms, peak_rss_mib, ops_per_s"),
    ("residues.structure_table.self_s", "s", "lower", "enum-queries latency_tail_ms, peak_rss_mib, ops_per_s"),
    ("residues.structure_table.alloc_peak_mib", "MiB", "lower", "enum-queries latency_tail_ms, peak_rss_mib, ops_per_s"),
    ("residues.orbit.calls", "count", "lower", "enum-queries latency_tail_ms, peak_rss_mib, ops_per_s"),
    ("residues.orbit.self_s", "s", "lower", "enum-queries latency_tail_ms, peak_rss_mib, ops_per_s"),
    ("residues.regular_set.self_s", "s", "lower", "enum-queries latency_tail_ms, peak_rss_mib, ops_per_s"),
    ("residues.orbit_entries", "count", "lower", "enum-queries latency_tail_ms, peak_rss_mib, ops_per_s"),
    ("congruence.omega_info.calls", "count", "lower", "enum-queries latency_p50_ms, failed_frac"),
    ("congruence.omega_info.self_s", "s", "lower", "enum-queries latency_p50_ms, failed_frac"),
    ("congruence.solve.self_s", "s", "lower", "enum-queries latency_p50_ms, failed_frac"),
    ("congruence.gen_primitive_roots.self_s", "s", "lower", "enum-queries latency_p50_ms, failed_frac"),
    ("counting.orbit_union_size.self_s", "s", "lower", "enum-queries ops_per_s"),
    ("counting.rho_count.self_s", "s", "lower", "enum-queries ops_per_s"),
    ("quadratic.kernel.self_s", "s", "lower", "enum-queries ops_per_s"),
    ("quadratic.sqrt_structure.self_s", "s", "lower", "enum-queries ops_per_s"),
    ("algebra.verify_algebra.calls", "count", "lower", "point-queries latency_tail_ms, failed_frac"),
    ("algebra.verify_algebra.self_s", "s", "lower", "point-queries latency_tail_ms, failed_frac"),
    ("oracle.calls", "count", "lower", "audit-sweep ops_per_s"),
    ("oracle.self_s", "s", "lower", "audit-sweep ops_per_s"),
    ("cli.main.self_s", "s", "lower", "enum-queries and point-queries latency_p50_ms"),
    ("cli.refused", "count", "lower", "exit-3 outcomes (documented, not failures)"),
    ("cli.rejected", "count", "lower", "exit-2 outcomes (documented, not failures)"),
    ("failed_frac", "ratio", "lower", "failures over attempts, known-defect inputs included"),
    ("trace_overhead", "ratio", "higher", "traced ops_per_s over untraced, same units"),
]


def log(msg: str) -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------- units


def query_unit(q, budget, tracer=None, op=0) -> dict:
    prepare = None
    if tracer is not None:
        def prepare():
            tracer.reset(op)
            tracer.rss0_kib = harness.maxrss_kib()
            return tracer.unit_summary
    return harness.run_unit(lambda: harness.run_cli(q.argv + ["--json"]),
                            *budget, prepare)


def sweep_unit(budget, tracer=None) -> dict:
    """One cold run_audit over the whole registry.  Untraced, the checks of
    every claim on each modulus are timed, so the sweep has a per-modulus
    latency: what auditing one more modulus costs, scaled by the host speed
    the child samples between checks.  (Claim-sized units, most of them a
    millisecond or two, swing with the host twice as much.)"""
    from idemod import audit

    host = HostSpeed(*SWEEP_HOST_WORK, in_process=True)

    def prepare():
        if tracer is not None:
            tracer.reset(0)
            tracer.rss0_kib = harness.maxrss_kib()
            tracer.wrap_claims(audit.THEOREMS)
            return tracer.unit_summary
        checks: list[tuple[int, float, int]] = []  # (m, seconds, host sample)
        for tid, (scope, check) in list(audit.THEOREMS.items()):
            def timed(m, _check=check):
                j = host.due()
                t0 = time.perf_counter()
                found = list(_check(m))
                checks.append((m, time.perf_counter() - t0, j))
                return found
            audit.THEOREMS[tid] = (scope, timed)

        def finish():
            host.finish()
            raw: dict[int, float] = {}
            scaled: dict[int, float] = {}
            for m, secs, j in checks:
                raw[m] = raw.get(m, 0.0) + secs
                scaled[m] = scaled.get(m, 0.0) + secs / host.factor(j)
            return {"raw": raw, "scaled": scaled}
        return finish

    def body():
        t0 = time.perf_counter()
        report = audit.run_audit(workloads.AUDIT_LO, workloads.AUDIT_HI)
        secs = time.perf_counter() - t0 - host.spent_s
        theorems = [{k: t[k] for k in ("id", "status", "findings")}
                    for t in report.to_json()["theorems"]]
        digest = hashlib.sha256(json.dumps(theorems, sort_keys=True).encode())
        return OK, secs, {
            "digest": digest.hexdigest(),
            "claims": len(theorems),
            "statuses": {t["id"]: t["status"] for t in theorems},
            "with_findings": sorted(t["id"] for t in theorems if t["findings"]),
        }

    return harness.run_unit(body, *budget, prepare)


def audit_ok(res: dict) -> str | None:
    p = res.get("payload") or {}
    if set(p.get("with_findings", ())) != AUDIT_ERRATA:
        return f"claims with findings {p.get('with_findings')} != {sorted(AUDIT_ERRATA)}"
    bad = [t for t, s in p["statuses"].items()
           if t not in AUDIT_ERRATA and s != "verified-on-range"]
    if bad:
        return f"claims not verified-on-range: {bad}"
    if p["digest"] != AUDIT_DIGEST:
        return f"findings digest {p['digest']} != pinned {AUDIT_DIGEST}"
    return None


# ---------------------------------------------------------------- statistics


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


SETUP_CODE = """\
import contextlib, io, time
t0 = time.perf_counter()
import idemod, idemod.cli
with contextlib.redirect_stdout(io.StringIO()):
    idemod.cli.main(["modinfo", "1"])
print(time.perf_counter() - t0)
"""


def setup_start() -> float:
    """One fresh interpreter's `import idemod` plus the cheapest complete CLI
    call (parser build, modinfo 1), which every CLI call pays."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def host_work(p: int) -> int:
    """Fixed pure-Python work shaped like the program's own: the power
    sequence of every unit mod p, kept in a dict of lists."""
    table = {}
    for x in range(1, p):
        seq = [x]
        y = x * x % p
        while y != x:
            seq.append(y)
            y = y * x % p
        table[x] = seq
    return sum(map(len, table.values()))


def time_host_work(p: int) -> float:
    t0 = time.perf_counter()
    host_work(p)
    return time.perf_counter() - t0


class HostSpeed:
    """Samples of the host's speed, in the order they were taken.  A timing
    made after sample j, and before sample j + 1, is scaled by factor(j)."""

    def __init__(self, p: int, ref_s: float, period_s: float,
                 in_process: bool = False):
        self.p, self.ref_s = p, ref_s
        self.period_s = period_s
        self.in_process = in_process
        self.samples: list[float] = []
        self.last = float("-inf")
        self.spent_s = 0.0  # time spent taking samples

    def _sample(self) -> None:
        t0 = time.perf_counter()
        if self.in_process:
            # With the collector off, so that the program's own objects do
            # not weigh on the sample.  A forked sample runs with it on, as
            # the units do: the parent's objects are frozen before each fork.
            gc.disable()
            try:
                self.samples.append(time_host_work(self.p))
            finally:
                gc.enable()
        else:
            res = harness.run_unit(lambda: (OK, time_host_work(self.p), None),
                                   60.0, 1 << 30)
            if res["outcome"] != OK:
                raise RuntimeError(f"host_work({self.p}) failed: {res}")
            self.samples.append(res["secs"])
        self.last = time.monotonic()
        self.spent_s += time.perf_counter() - t0

    def due(self) -> int:
        """Take a sample if period_s has passed since the last one; return
        the index of the latest."""
        if time.monotonic() - self.last >= self.period_s:
            self._sample()
        return len(self.samples) - 1

    def finish(self) -> None:
        """Samples after the last timing, so its window is full too."""
        for _ in range(HOST_WINDOW // 2):
            self._sample()

    def factor(self, j: int) -> float:
        """How much slower than the reference the host ran around sample j."""
        lo = max(0, min(j - HOST_WINDOW // 2, len(self.samples) - HOST_WINDOW))
        return statistics.median(self.samples[lo:lo + HOST_WINDOW]) / self.ref_s


class SetupTimer:
    """Starts the setup_s interpreters as a run's units complete, at even
    steps over the whole run, the same way on every workload, and scales each
    by the host's speed around it."""

    def __init__(self, units: int, host: HostSpeed):
        setup_start()  # writes the bytecode cache that later CLI starts reuse
        self.units = units
        self.host = host
        self.done = 0
        self.starts: list[tuple[float, int]] = []  # (seconds, host sample)

    def unit_done(self) -> None:
        self.done += 1
        while (len(self.starts) < SETUP_STARTS
               and self.done * SETUP_STARTS >= self.units * (len(self.starts) + 1)):
            j = self.host.due()
            self.starts.append((setup_start(), j))

    def value(self) -> float:
        return statistics.median(s / self.host.factor(j) for s, j in self.starts)


# ---------------------------------------------------------------- checking


class Tally:
    """Outcomes and answer checks of every unit a run attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0  # unexpected: wrong answer, traceback, over budget
        self.wrong = 0
        self.known_defect_failures = 0
        self.refused = 0
        self.rejected = 0

    def add_query(self, q, res) -> None:
        import reference  # imports sympy, which no timed child should inherit

        self.attempted += 1
        outcome = res["outcome"]
        self.refused += outcome == REFUSED
        self.rejected += outcome == REJECTED
        problem = None
        if outcome not in q.accept:
            problem = f"outcome {outcome}"
            if res.get("traceback"):
                problem += "\n" + res["traceback"]
        elif outcome == OK and res["payload"] is not None:
            problem = reference.check_answer(q, res["payload"]["stdout"])
            self.wrong += problem is not None
        elif outcome in (OVER_TIME, MEMORY):
            self.known_defect_failures += 1
        if problem:
            self.failed += 1
            log(f"FAILED {' '.join(q.argv)}: {problem}")

    def add_sweep(self, res) -> None:
        self.attempted += 1
        problem = f"outcome {res['outcome']} {res.get('traceback', '')}"
        if res["outcome"] == OK:
            problem = audit_ok(res)
            self.wrong += problem is not None
        if problem:
            self.failed += 1
            log(f"FAILED audit sweep: {problem}")

    @property
    def failed_frac(self) -> float:
        return (self.failed + self.known_defect_failures) / max(1, self.attempted)


# ---------------------------------------------------------------- workloads


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics.  The run makes `passes` cold passes over one fixed
    set of units (the moduli of one audit sweep, or one round of queries); a
    unit's latency is the median over the passes of its time scaled by the
    host's speed."""
    budget = BUDGETS[workload]
    passes = max(1, round(seconds / PASS_S[workload]))
    host = HostSpeed(*HOST_WORK[workload])
    raw: dict[int, list[float]] = {}  # unit -> its time in each pass
    scaled: dict[int, list[float]] = {}  # the same, scaled by the host's speed
    rss_kib = 0
    if workload == "audit-sweep":
        setup = SetupTimer(passes, host)
        for _ in range(passes):
            res = sweep_unit(budget)
            tally.add_sweep(res)
            if res["outcome"] == OK:
                # JSON keys: str(m).  Global claims run once, as modulus 0:
                # in the sweep time, not a unit.
                for m, secs in res["extra"]["raw"].items():
                    raw.setdefault(int(m), []).append(secs)
                    scaled.setdefault(int(m), []).append(res["extra"]["scaled"][m])
                rss_kib = max(rss_kib, res["maxrss_kib"])
            setup.unit_done()
        host.finish()
    else:
        checks = [(q, query_unit(q, budget)) for q in workloads.defects(workload)]
        t0 = time.monotonic()
        units = workloads.query_round(workload, seed)
        setup = SetupTimer(passes * len(units), host)
        first_out: dict[int, str] = {}
        timed: list[tuple[int, float, int]] = []  # (unit, seconds, host sample)
        for k in range(passes):
            for i, q in enumerate(units):
                j = host.due()
                res = query_unit(q, budget)
                if res["outcome"] == OK:
                    timed.append((i, res["secs"], j))
                    rss_kib = max(rss_kib, res["maxrss_kib"])
                    # Keep one copy of each answer, so that the benchmark's
                    # own memory, which every child inherits, stays flat.
                    out = res["payload"]["stdout"]
                    if first_out.setdefault(i, out) == out and k:
                        res["payload"] = None  # checked with the first copy
                checks.append((q, res))
                setup.unit_done()
        host.finish()
        for i, secs, j in timed:
            raw.setdefault(i, []).append(secs)
            scaled.setdefault(i, []).append(secs / host.factor(j))
        log(f"{workload}: {passes} passes over {len(units)} queries in "
            f"{time.monotonic() - t0:.1f} s")
        t0 = time.monotonic()
        for q, res in checks:
            tally.add_query(q, res)
        log(f"answers checked in {time.monotonic() - t0:.1f} s")
    best = {u: statistics.median(v) for u, v in scaled.items()}
    total_s = sum(best.values())
    raw_total_s = sum(statistics.median(v) for v in raw.values())
    if workload == "audit-sweep":
        best.pop(0, None)  # the global claims: in the sweep time, not a unit
    ops = len(best) / total_s
    lat = list(best.values())
    high = tail(lat)
    if high is None:
        raise SystemExit("too few units completed")
    factors = [host.factor(j) for j in range(len(host.samples))]
    log(f"latency: median of {passes} passes per unit; tail = p{high[1]:.2f} "
        f"of {len(lat)} units; setup_s: median of {len(setup.starts)} starts")
    log(f"host speed: {len(host.samples)} samples between units, slower than "
        f"the reference by a factor {min(factors):.3f} to {max(factors):.3f}; "
        f"unscaled ops_per_s {len(best) / raw_total_s:.6g} 1/s")
    return {
        "setup_s": (setup.value(), "s"),
        "ops_per_s": (ops, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (high[0] * 1e3, "ms"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


def trace(workload: str, seed: int, tally: Tally) -> dict:
    """Per-layer metrics: one fixed set of units, each run untraced and then
    traced, back to back, so that the tracing overhead compares runs made at
    about the same host speed."""
    from tracing import Tracer

    budget = BUDGETS[workload]
    tracer = Tracer()
    if workload == "audit-sweep":
        # A sweep is seconds long: the untraced figure is the mean of one
        # sweep before the traced one and one after.
        plain = [sweep_unit(budget)]
        tracer.install()
        traced = [sweep_unit(budget, tracer)]
        tracer.uninstall()
        plain.append(sweep_unit(budget))
        tally.add_sweep(plain[0])
        failed_frac = tally.failed_frac
        for res in traced + plain[1:]:
            tally.add_sweep(res)
        ops = [2.0 / (plain[0]["secs"] + plain[1]["secs"]), 1.0 / traced[0]["secs"]]
    else:
        units = workloads.query_round(workload, seed)
        checks = [(q, query_unit(q, budget)) for q in workloads.defects(workload)]
        plain, traced = [], []
        for op, q in enumerate(units):
            plain.append(query_unit(q, budget))
            tracer.install()
            traced.append(query_unit(q, budget, tracer, op))
            tracer.uninstall()
        for q, res in checks + list(zip(units, plain)):
            tally.add_query(q, res)
        failed_frac = tally.failed_frac  # one copy of the work, defects included
        for q, res in zip(units, traced):
            tally.add_query(q, res)
        done = [i for i, r in enumerate(plain) if r["outcome"] == OK
                and traced[i]["outcome"] == OK]
        ops = [len(done) / sum(rs[i]["secs"] for i in done) for rs in (plain, traced)]
    refused = sum(r["outcome"] == REFUSED for r in traced)
    rejected = sum(r["outcome"] == REJECTED for r in traced)
    metrics = layer_metrics(traced, refused, rejected)
    metrics["failed_frac"] = failed_frac
    metrics["trace_overhead"] = ops[1] / ops[0]
    write_spans(workload, seed, traced, metrics)
    if workload == "point-queries":
        stray = [n for n in metrics if n.startswith(("residues.", "congruence."))
                 and metrics[n]]
        log(f"isolation: non-zero residues.*/congruence.* metrics: {stray or 'none'}")
    if workload == "audit-sweep":
        share = metrics["arith.factorize.self_s"] / traced[0]["secs"]
        log(f"isolation: arith.factorize.self_s is {share:.3%} of the traced sweep")
    log(f"{'per-layer metric':42} {'value':>14}  should move")
    for name, unit, _, moves in LAYERS:
        log(f"{name:42} {metrics[name]:>14.6g}  {moves}")
    return {name: (metrics[name], unit) for name, unit, _, _ in LAYERS}


def layer_metrics(traced: list[dict], refused: int, rejected: int) -> dict:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    hits: dict[str, list[int]] = {}
    entries = peak_kib = 0
    for res in traced:
        ex = res.get("extra")
        if not ex:
            continue
        for i, name in enumerate(ex["names"]):
            calls[name] = calls.get(name, 0) + ex["calls"][i]
            self_s[name] = self_s.get(name, 0.0) + ex["self_s"][i]
            total_s[name] = total_s.get(name, 0.0) + ex["total_s"][i]
        entries += ex["orbit_entries"]
        peak_kib = max(peak_kib, ex["table_peak_kib"])
        for name, (h, m) in ex["cache_stats"].items():
            acc = hits.setdefault(name, [0, 0])
            acc[0] += h
            acc[1] += m

    def ratio(cache):
        h, m = hits.get(cache, (0, 0))
        return h / (h + m) if h + m else 0.0

    out = {}
    for name, _, _, _ in LAYERS:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(base, 0)
        elif kind == "self_s":
            out[name] = self_s.get(base, 0.0)
    claims = {n: s for n, s in total_s.items() if n.startswith("audit.claim.")}
    out["audit.claim.rn35.s"] = claims.pop("audit.claim.rn35", 0.0)
    out["audit.claim.rn33.s"] = claims.pop("audit.claim.rn33", 0.0)
    out["audit.claim.rest.s"] = sum(claims.values())
    out["arith.build_modulus.hit_ratio"] = ratio("idemod.arith.build_modulus")
    out["idempotents.order.hit_ratio"] = ratio("idemod.idempotents.order")
    out["residues.structure_table.alloc_peak_mib"] = peak_kib / 1024
    out["residues.orbit_entries"] = entries
    out["cli.refused"] = refused
    out["cli.rejected"] = rejected
    return out


def write_spans(workload: str, seed: int, traced: list[dict], metrics: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}"
    dropped = 0
    with open(f"{stem}-spans.jsonl", "w") as fh:
        for unit, res in enumerate(traced):
            ex = res.get("extra") or {}
            names = ex.get("names", [])
            dropped += ex.get("dropped", 0)
            for idx, start, end, parent, op in ex.get("spans", []):
                fh.write(json.dumps({"unit": unit, "name": names[idx], "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
    with open(f"{stem}-layers.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans_not_written": dropped,
                   "metrics": [{"name": n, "unit": u, "value": metrics[n],
                                "should_move": mv} for n, u, _, mv in LAYERS]},
                  fh, indent=1)
    log(f"spans written to {stem}-spans.jsonl ({dropped} beyond the per-unit cap "
        f"counted but not written)")


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "idemod" / "__init__.py").is_file():
        print(f"error: no idemod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import idemod.cli  # noqa: F401  (children fork with the program loaded)

    tally = Tally()
    if args.trace:
        metrics = trace(args.workload, args.seed, tally)
    else:
        metrics = measure(args.workload, args.seed, args.seconds, tally)
        for name, (val, unit) in metrics.items():
            log(f"{name} = {val:.6g} {unit}")
    log(f"attempted {tally.attempted}, failed {tally.failed} (wrong answers "
        f"{tally.wrong}), known-defect failures {tally.known_defect_failures}, "
        f"refused {tally.refused}, rejected {tally.rejected}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
