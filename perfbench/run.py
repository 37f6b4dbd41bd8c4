"""conelab benchmark: seeded workloads through the public library, checked item by item.

One run:

    python3 perfbench/run.py --workload interior-dicing --seed 1 --seconds 30 --trace 0

All workloads, untraced and traced, with a summary table:

    python3 perfbench/run.py --all --seed 1 --seconds 30

Run from anywhere; the checkout root is the parent of this directory and
conelab is imported from its `src/`.  Everything is single-threaded in
one process, except the `setup_s` probes, which are fresh interpreters
started one at a time and waited for.

The seed fixes a run's pool of items (`workloads.pool`).  The first pass
draws the pool's items and its outcomes are what `attempted` and `failed`
count; every later pass replays the same items, and each pass is checked
again and must end the same way.  A run makes at least MIN_PASSES passes
and starts another only while it is expected to end before `--seconds`.
`wall_s` is the time of one pass over the pool in reference seconds: each
item's time is scaled by the machine's speed while it ran, measured with a
fixed reference kernel (reference.py), and `wall_s` is the sum over items
of each item's median scaled time across the passes.  `setup_s` is scaled
the same way.  With `--trace 1` the passes alternate untraced and traced,
and the per-layer metrics come from the first traced pass, whose work
counts repeat exactly for a seed.  The last line of stdout is the JSON
result; the full report, with every failed item by seed and index, goes
to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from reference import REF_S, SpeedSampler, reference_sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
SETUP_INTERVAL_S = 0.02
# untraced passes a --trace 0 run makes whatever --seconds says; a
# --trace 1 run makes at least one untraced and one traced pass
MIN_PASSES = 3
# Seed kept out of development; used once to confirm the figures hold.
HOLD_OUT_SEED = 7321

# Reported with --trace 1: <module>.<function>.<stat>.  Every function
# gets calls and self_s; the extra stats are work counts read off the
# call's arguments and result (see tracer.EXTRA).
LAYER_FUNCTIONS = {
    "lp.solve_standard_min": ("rows", "columns", "non_optimal"),
    "lp.solve_lp": (),
    "exact.solve_exact": (),
    "exact.rank": (),
    "exact.invert": (),
    "exact.int_determinant": (),
    "exact.ldlt_decompose": (),
    "delone.delone_subdivision": ("window_errors", "cells"),
    "delone.dicing_subdivision": (),
    "delone.voronoi_polytope": (),
    "delone.minkowski_sum_vertices": (),
    "delone._locate_cell": (),
    "delone._cross_facet": (),
    "delone._facets_of_cell": (),
    "delone._cell_meets_box": (),
    "delone._ellipsoid_inside_window": (),
    "delone._degenerate_delone": (),
    "quadforms.enumerate_in_ellipsoid": ("points",),
    "quadforms.minimal_vectors": (),
    "quadforms.is_well_suited": (),
    "quadforms.rational_rank_normal_form": (),
    "cones.find_supporting_functional": (),
    "cones.membership": (),
    "tumatrix.is_totally_unimodular": (),
    "verify.verify_r10": (),
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_conelab():
    """Import conelab from this checkout's src/, never from elsewhere."""
    if not (SRC / "conelab" / "__init__.py").is_file():
        raise ImportError(f"no conelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conelab
    import conelab.cli  # noqa: F401  (imports every module, as each CLI call does)

    if Path(conelab.__file__).resolve().parent != SRC / "conelab":
        raise ImportError(f"conelab was imported from {conelab.__file__}")
    return conelab


# ---------------------------------------------------------------------------
# machine facts


def git_commit() -> str:
    """HEAD of the checkout, read from .git; the benchmark copy may have none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "conelab").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "conelab_commit": git_commit(),
        "conelab_source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# passes


def run_pass(groups, window_error, tracer=None):
    """Run each group's candidates until its quota of outputs is met, then check.

    A quota of None runs every candidate (a replayed pass).  Returns the
    pass wall time (the sum of the items' times) and one record per item
    run, with the item itself.  Only the library calls are timed; the
    checks run after the pass.  An untraced pass also samples the machine's
    speed with the reference kernel around and inside every item and
    scales each item's time by it (see reference.py).
    """
    drawn = []
    ctx = {}
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            tracer.reset()
            tracer.install()
            stack.callback(tracer.uninstall)
            sampler = None
        else:
            sampler = stack.enter_context(SpeedSampler())
            before = reference_sample()
        for _, quota, candidates in groups:
            produced = 0
            for item in candidates:
                if produced == quota:
                    break
                if sampler is not None:
                    sampler.arm()
                t0 = time.perf_counter()
                try:
                    out, err = item.run(ctx), None
                    produced += 1
                except window_error as e:
                    out, err = None, ("WindowError", str(e))
                except Exception as e:  # an item that raises is a failure, the run goes on
                    out, err = None, ("other", f"{type(e).__name__}: {e}")
                t1 = time.perf_counter()
                timing = {"item_s": t1 - t0}
                if sampler is not None:
                    sampler.disarm()
                    inside = sampler.inside(t0, t1)
                    after = reference_sample()
                    refs = [before, after] + [ref for _, ref in inside]
                    timing["item_s"] -= sum(h for h, _ in inside)
                    timing["samples"] = len(refs)
                    timing["norm_s"] = timing["item_s"] * REF_S * statistics.fmean(
                        1 / ref for ref in refs)
                    before = after
                drawn.append((item, out, err, timing))

    records = []
    for index, (item, out, err, timing) in enumerate(drawn):
        if err is None:
            try:
                msg = item.check(out)
            except Exception as e:  # a check that cannot run counts against the output
                msg = f"check raised {type(e).__name__}: {e}"
            if msg is not None:
                err = ("mismatch", msg)
        records.append({"index": index, "label": item.label,
                        "kind": err[0] if err else "ok",
                        "detail": err[1] if err else "", **timing, "item": item})
    return sum(d[3]["item_s"] for d in drawn), records


def item_median_sum(passes, key: str) -> float:
    """One pass over the pool: the sum of each item's median time across passes."""
    return sum(statistics.median(p[i][key] for p in passes)
               for i in range(len(passes[0])))


def measure_setup() -> list:
    """Seconds from starting a fresh interpreter until it is ready for its first item.

    Returns (seconds, reference seconds) per probe.  The reference kernel
    is timed three times just before and three times just after each probe,
    and the probe samples it every SETUP_INTERVAL_S while it imports and
    loads; the probe reports those samples and the time they took, which
    is taken out of the probe's time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    samples = []
    for k in range(SETUP_PROBES + 1):
        before = statistics.median(reference_sample() for _ in range(3))
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        word, _, payload = line.partition(" ")
        if word != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        after = statistics.median(reference_sample() for _ in range(3))
        inside = json.loads(payload)
        dt -= sum(h for h, _ in inside)
        refs = [before, after] + [ref for _, ref in inside]
        if k:  # the first probe also compiles bytecode; users pay that once
            samples.append((dt, dt * REF_S * statistics.fmean(1 / r for r in refs)))
    return samples


def layer_metrics(snap: dict, traced_wall: float, overhead: float) -> dict:
    funcs = snap["functions"]
    m = {}
    for name, extras in LAYER_FUNCTIONS.items():
        f = funcs.get(name, {})
        m[f"{name}.calls"] = (f.get("calls", 0), "count")
        m[f"{name}.self_s"] = (f.get("self_s", 0.0), "s")
        for stat in extras:
            m[f"{name}.{stat}"] = (f.get(stat, 0), "count")
    mods = snap["modules_self_s"]
    for mod in tracer.MODULES:
        m[f"{mod}.self_s"] = (mods.get(mod, 0.0), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.uncovered_s"] = (traced_wall - snap["covered_s"], "s")
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        import_conelab()
    except ImportError as e:
        return fail(str(e))
    import workloads
    from conelab.delone import WindowError

    if workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {workload!r}")
    setup = [] if trace else measure_setup()
    fx = workloads.load_fixtures()

    tr = tracer.Tracer() if trace else None
    groups = workloads.pool(workload, fx, seed)
    untraced, traced = [], []  # records of each pass
    untraced_wall, traced_wall, snaps = [], [], []
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes, so the
        # overhead compares equal work
        use_tracer = tr if trace and len(untraced) > len(traced) else None
        t = time.perf_counter()
        wall, records = run_pass(groups, WindowError, use_tracer)
        if not untraced:
            # the first pass draws the pool; later passes replay its items
            groups = [("replay", None, [r["item"] for r in records])]
        if use_tracer is None:
            untraced.append(records)
            untraced_wall.append(wall)
        else:
            traced.append(records)
            traced_wall.append(wall)
            snaps.append(tr.snapshot())
        elapsed = time.perf_counter() - start
        done = (len(untraced) >= 1 and len(traced) >= 1) if trace \
            else len(untraced) >= MIN_PASSES
        if done and elapsed + (time.perf_counter() - t) > seconds:
            break

    # the first pass is what the run attempted; every pass must end the same way
    first = untraced[0]
    attempted = len(first)
    by_kind = {}
    for r in first:
        if r["kind"] != "ok":
            by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    failed = sum(by_kind.values())
    mismatch = any(r["kind"] == "mismatch" for p in untraced + traced for r in p)
    inconsistent = sorted({
        r["index"] for p in untraced[1:] + traced for r in p
        if r["kind"] != first[r["index"]]["kind"]
    })

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {
        "workload_why": workloads.WHY[workload],
        "unmeasured": workloads.UNMEASURED,
        "hold_out_seed": HOLD_OUT_SEED,
    }
    fail_ratio = failed / attempted
    wall_s = item_median_sum(untraced, "norm_s")
    raw_wall_s = item_median_sum(untraced, "item_s")
    setup_s = statistics.median(n for _, n in setup) if setup else None
    raw_setup_s = statistics.median(d for d, _ in setup) if setup else None

    def plain(passes):
        return [[{k: v for k, v in r.items() if k != "item"} for r in p] for p in passes]

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "notes": notes,
        "untraced_pass_wall_s": untraced_wall, "traced_pass_wall_s": traced_wall,
        "reference_s": REF_S,
        "wall_s": wall_s, "raw_wall_s": raw_wall_s,
        "setup_s": setup_s, "raw_setup_s": raw_setup_s,
        "setup_s_samples": setup,
        "fail_ratio": fail_ratio, "failures_by_kind": by_kind,
        "failed_items": [
            {"seed": seed, "pass": 0, "index": r["index"], "label": r["label"],
             "kind": r["kind"], "detail": r["detail"]}
            for r in first if r["kind"] != "ok"
        ],
        "inconsistent_items": inconsistent,
        "untraced_passes": plain(untraced),
        "traced_passes": plain(traced),
    }
    if trace:
        # the first traced pass replays the drawn pool, so its work counts
        # repeat exactly for a seed
        metrics = layer_metrics(snaps[0], traced_wall[0],
                                statistics.median(traced_wall)
                                - statistics.median(untraced_wall))
        report["spans"] = snaps[0]
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    mach = report["machine"]
    print(f"workload {workload} seed {seed}: {workloads.WHY[workload]}")
    print(f"machine: {mach['cpu_model']}, nproc {mach['nproc']}, "
          f"Python {mach['python']}, conelab {mach['conelab_commit']}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced, "
          f"{attempted} items in the pool")
    for r in report["failed_items"]:
        print(f"failed item seed={seed} index={r['index']} kind={r['kind']}: "
              f"{r['label']}: {r['detail']}")
    if inconsistent:
        print(f"items that ended differently between passes: {inconsistent}")
    kinds = ", ".join(f"{k} {n}" for k, n in sorted(by_kind.items())) or "none"
    print(f"fail_ratio {fail_ratio:.4f} ({failed}/{attempted}; {kinds})")
    if not trace:
        print(f"wall_s {wall_s:.4f} s in reference seconds ({raw_wall_s:.4f} s measured; "
              f"sum of item medians over {len(untraced)} passes of "
              f"{', '.join(f'{w:.3f}' for w in untraced_wall)} s)")
        print(f"setup_s {setup_s:.4f} s in reference seconds ({raw_setup_s:.4f} s measured; "
              f"median of {len(setup)} fresh interpreters)")
        print(f"peak_rss_mb {peak_rss_mb:.2f} MB")
    else:
        covered = sum(v for name, (v, _) in metrics.items()
                      if name.count(".") == 1 and name.endswith(".self_s"))
        print(f"trace.wall_s {traced_wall[0]:.4f} s = layer self time {covered:.4f} s "
              f"+ trace.uncovered_s {metrics['trace.uncovered_s'][0]:.4f} s")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not mismatch and not inconsistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


# ---------------------------------------------------------------------------
# all workloads


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced then traced, one child process at a time."""
    try:
        import_conelab()
    except ImportError as e:
        return fail(str(e))
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                return fail(f"{name} --trace {trace} exited {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            results[(name, trace)] = json.loads(lines[-1])

    print(f"\nseed {seed}, {seconds:g} s per run")
    print(f"{'workload':18} {'wall_s':>10} {'fail_ratio':>11} {'setup_s':>9} {'peak_rss_mb':>12}")
    for name in workloads.WORKLOADS:
        res = results[(name, 0)]
        m = res["metrics"]
        ratio = res["failed"] / res["attempted"]
        print(f"{name:18} {m['wall_s']['value']:8.3f} s {ratio:11.4f} "
              f"{m['setup_s']['value']:7.3f} s {m['peak_rss_mb']['value']:9.1f} MB")
    summary = {
        name: {"end_to_end": results[(name, 0)], "per_layer": results[(name, 1)]}
        for name in workloads.WORKLOADS
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"all-seed{seed}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"per-layer metrics: {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced, print a summary")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        with SpeedSampler() as sampler:
            sampler.arm(SETUP_INTERVAL_S)
            t0 = time.perf_counter()
            try:
                import_conelab()
            except ImportError as e:
                return fail(str(e))
            import workloads

            workloads.load_fixtures()
            sampler.disarm()
            inside = sampler.inside(t0, time.perf_counter())
        print("ready", json.dumps(inside), flush=True)
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        return fail("--workload or --all is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
