"""The MSSP benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload episode-warm --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, their times in seconds of a
nominal host (each op paired with a reference loop; see
``workloads.Paired``); ``--trace 1`` runs the same workload with the
span ledger fed from ``engine.events`` and prints the per-layer metrics
instead (spans are written to
``perfbench/out/spans-<workload>-<seed>.jsonl``).  The last line of
standard output is the JSON result; the lines before it restate the
metrics under the names of each workload, with this host's own times,
the resolved engine configuration and the host.  The exit status is 0
only when every op matched SEQ, every simulated statistic repeated
exactly and the ledger closed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: The names each workload's figures go by in the printed summary.
NAMES = {
    "episode-warm": ("episode_ips", "episode_s"),
    "episode-squash": ("episode_ips", "episode_s"),
    "pipeline-cold": ("pipeline_ips", "pipeline_s"),
    "serve-open": ("serve_sat_ips", "serve_burst_s"),
}


def declared_units(root: Path) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def source_digest(src: Path) -> str:
    """Digest of the program's Python source under ``src/repro``."""
    digest = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def pin_environment() -> None:
    """Drop every ``REPRO_*`` setting: the config passed in code rules."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def pin_cpu() -> int:
    """Run every thread of this process on one CPU; returns which.

    The interpreter lock lets one thread run Python at a time, so the
    server's two worker threads gain nothing from a second CPU.  On one
    CPU the reference loop runs where the ops run, and the lock passes
    between threads without waking another CPU: nine serve-open runs
    spread 0.07 pinned against 0.09, with a 1.5x outlier, unpinned.
    Threads started later inherit the mask.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fresh_cache(path: Path) -> None:
    """Point the program's artifact cache at an empty private directory."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    os.environ["REPRO_BENCH_CACHE"] = str(path)


def check_identity(out: Path, code: str, workload: str, seed: int,
                   fingerprint: dict) -> list:
    """Compare this run's simulated statistics with earlier same-seed runs.

    Only runs of the same program source (``code``, its digest) are
    compared: a change to the program may change what it simulates.
    """
    path = out / "identity" / code / f"{workload}-{seed}.json"
    errors = []
    known = {}
    if path.exists():
        known = json.loads(path.read_text())
        for label, identity in fingerprint.items():
            if label in known and known[label] != identity:
                errors.append(
                    f"{label}: {identity} != earlier run {known[label]}"
                )
    if not errors:
        path.parent.mkdir(parents=True, exist_ok=True)
        known.update(fingerprint)
        path.write_text(json.dumps(known, sort_keys=True, indent=1))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    units = declared_units(root)
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    pin_environment()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomized per process, and with it the
        # speed of the program (measured: ~20% between runs of one
        # seed).  Re-executing with a fixed hash seed removes that noise
        # without starting a second process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    cpu = pin_cpu()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2

    from ledger import LedgerError, check_closure, now
    from repro.machine.flatmem import resolve_mem_backend
    from repro.machine.jit import resolve_exec_tier
    from repro.mssp.runtime.executors import resolve_runtime
    from workloads import CONFIG, NOMINAL_REFERENCE_S, WORKLOADS, Paired

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    out = root / "perfbench" / "out"
    scratch = out / f"tmp-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                        bool(args.trace))
    errors = []
    try:
        setups = Paired()
        for rep in range(SETUP_REPS):
            fresh_cache(scratch / f"setup-{rep}")
            if rep:
                workload.discard_setup()
            setups.sample()
            start = now()
            workload.setup(rep)
            setups.add("setup", now() - start)
        setups.sample()
        fresh_cache(scratch / "measure")
        workload.cache_root = str(scratch)
        metrics = workload.measure()
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    # Like every time metric, in seconds of the nominal host (see
    # workloads.Paired); this host's own figures are printed beside.
    metrics["setup_s"] = setups.nominal("setup")
    workload.host_metrics["setup_s"] = setups.host("setup")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    try:
        check_closure(workload.ledger)
    except LedgerError as error:
        errors.append(f"ledger does not close: {error}")
    errors += workload.identity_errors
    errors += check_identity(out, source_digest(src), args.workload,
                             args.seed, workload.fingerprint())

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env python={platform.python_version()} nproc={os.cpu_count()} "
          f"exec_tier={resolve_exec_tier(CONFIG.exec_tier)} "
          f"mem_backend={resolve_mem_backend(CONFIG.mem_backend)} "
          f"runtime={resolve_runtime(CONFIG.runtime)} cpu={cpu}")
    print(f"ops attempted={workload.attempted} "
          f"failed={len(workload.failures)} "
          f"rounds={int(workload.counts['rounds'])} "
          f"setups={', '.join(f'{s:.3f}' for s in setups.raw['setup'])}")
    print(f"host reference_s={workload.reference_s:.4f} "
          f"(nominal {NOMINAL_REFERENCE_S})")
    if args.trace:
        result_metrics = workload.layer_metrics()
        spans = out / f"spans-{args.workload}-{args.seed}.jsonl"
        workload.ledger.write_jsonl(spans)
        print(f"spans {len(workload.ledger.spans)} -> {spans.relative_to(root)}")
    else:
        result_metrics = metrics
        print("time metrics in nominal seconds, this host's own in brackets")
        throughput, latency = NAMES[args.workload]
        aliases = {"throughput_ips": throughput, "op_s": latency}
        for key, value in result_metrics.items():
            mark = (f" ({workload.host_metrics[key]:.6g})"
                    if key in workload.host_metrics else "")
            print(f"  {aliases.get(key, key):<16} {value:>16.6g} "
                  f"{units[key]}{mark}")
        for key, value in workload.extra.items():
            print(f"  {key:<16} {value:>16.6g}")
    for message in workload.failures + errors:
        print(f"FAILED {message}", file=sys.stderr)
    correct = not workload.failures and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result_metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
