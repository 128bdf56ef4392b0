"""Run one timed unit of work in a budgeted child process.

A unit is one CLI query or one audit sweep.  Each runs in a fresh fork of the
benchmark process, which is what a new CLI process sees: every idemod
``lru_cache`` is cleared and checked empty before the clock starts.  The child
holds a wall-clock budget (SIGALRM) and an address-space budget (RLIMIT_AS),
so a run over budget or out of memory comes back as a counted outcome rather
than a hung or OOM-killed benchmark.  The child reports its own peak RSS.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import select
import signal
import sys
import time
import traceback

OK, REJECTED, REFUSED = "answer", "rejected", "refused"
OVER_TIME, MEMORY, ERROR = "over_time", "memory", "error"
EXIT_OUTCOME = {0: OK, 2: REJECTED, 3: REFUSED}  # documented CLI exit codes
# Grace the parent allows past the budget before it kills a child stuck in
# native code, where SIGALRM cannot interrupt it.
KILL_GRACE_S = 10.0


class BudgetExceeded(BaseException):
    """Raised by SIGALRM.  A BaseException, so the CLI's own handlers for
    ValueError/OSError (TimeoutError is an OSError) cannot swallow it."""


def idemod_caches() -> dict[str, object]:
    """Every lru_cache bound in an idemod module namespace, by dotted name."""
    found = {}
    for modname, module in list(sys.modules.items()):
        if modname != "idemod" and not modname.startswith("idemod."):
            continue
        for attr, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                found[f"{modname}.{attr}"] = obj
    return found


def reset_caches() -> None:
    """Clear every idemod lru_cache and check that each is empty."""
    caches = idemod_caches()
    for fn in caches.values():
        fn.cache_clear()
    for name, fn in caches.items():
        if fn.cache_info().currsize != 0:
            raise RuntimeError(f"cache {name} not empty after cache_clear()")


def cache_stats() -> dict[str, list[int]]:
    out = {}
    for name, fn in idemod_caches().items():
        info = fn.cache_info()
        out[name] = [info.hits, info.misses]
    return out


def maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def run_cli(argv: list[str]):
    """Body of a query unit: one ``idemod.cli.main(argv)`` with its output
    captured.  Returns (outcome, seconds, payload)."""
    from idemod import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    secs = time.perf_counter() - t0
    outcome = EXIT_OUTCOME.get(code, f"exit-{code}")
    return outcome, secs, {"stdout": out.getvalue()}


def run_unit(body, budget_s: float, mem_bytes: int, prepare=None) -> dict:
    """Fork, run ``body()`` under the budget, and return the child's report.

    ``body`` returns (outcome, seconds, payload); ``prepare()`` runs in the
    child after the cache reset, outside the clock, and may return a
    ``finish()`` callable whose result is added to the report as "extra".
    """
    rfd, wfd = os.pipe()
    # Move the benchmark's own objects out of the collector's reach, so the
    # child's collections, like a fresh CLI process's, walk only its own.
    gc.freeze()
    pid = os.fork()
    if pid == 0:  # child
        os.close(rfd)
        report = {"outcome": ERROR, "secs": None}
        try:
            resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))
            reset_caches()
            finish = prepare() if prepare else None
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            try:
                t0 = time.perf_counter()
                outcome, secs, payload = body()
                report.update(outcome=outcome, secs=secs, payload=payload)
            except BudgetExceeded:
                report.update(outcome=OVER_TIME, secs=time.perf_counter() - t0)
            except MemoryError:
                report.update(outcome=MEMORY, secs=time.perf_counter() - t0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            report["maxrss_kib"] = maxrss_kib()
            if finish:
                report["extra"] = finish()
        except BaseException:  # report the traceback; the child exits anyway
            report.update(outcome=ERROR, traceback=traceback.format_exc())
        try:
            data = json.dumps(report).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + budget_s + KILL_GRACE_S
    killed = False
    with os.fdopen(rfd, "rb") as fh:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([fh], [], [], left)
            if ready:
                chunk = os.read(fh.fileno(), 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if killed:
        return {"outcome": OVER_TIME, "secs": budget_s, "killed": True}
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return {"outcome": ERROR, "secs": None,
                "traceback": f"child ended without a report (status {status})"}
