"""lspfit benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 bench/run.py --workload single-fit --seed 1 --seconds 20 --trace 0

The run sets up the workload's inputs from ``--seed`` (several times, to time
set-up), then repeats whole rounds of its operations, each round pinned to
the next core in turn, until the next round would end past ``--seconds``,
checking every output. With ``--trace 0`` it prints the end-to-end metrics:
medians over rounds, at the nominal host speed of hostspeed.py. With
``--trace 1`` it prints the per-layer metrics of a traced run. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it gives operation counts, host facts, the unscaled medians, the
harness's own peak resident set and the notes that are not counted.
"""

from __future__ import annotations

import os

# One BLAS thread per process: with one worker per core, worker processes
# and their threads never exceed the core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_setup(runner) -> float:
    """Median over SETUP_REPEATS, on each core in turn, of the time a fresh
    interpreter takes to import the CLI plus the time to write the inputs,
    at the nominal host speed."""
    import hostspeed
    from workloads import CPUS, pin
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_REPEATS):
        cores = (CPUS[i % len(CPUS)],)
        before = hostspeed.probe(cores)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lspfit.cli"], env=env,
                       check=True)
        runner.setup()
        seconds = time.perf_counter() - t0
        times.append(seconds * hostspeed.scale(before,
                                               hostspeed.probe(cores)))
    pin(CPUS)
    return statistics.median(times)


def peak_rss_mb(children: bool = True) -> float:
    """Largest peak resident set of this process or of any one waited-for
    child (not their sum: ``ru_maxrss`` gives no more)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def host_facts() -> dict:
    import numpy
    import scipy
    from workloads import workers
    return {"cores": workers(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def run(args) -> int:
    from workloads import CPUS, END_TO_END, Runner, pin, round_metrics

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, workdir, args.seed, tracer)
        setup_s = timed_setup(runner)
        # the harness's own share: lspfit imported, inputs written and kept
        harness_rss_mb = peak_rss_mb(children=False)
        if tracer is not None:
            tracer.install()
        ops = runner.ops()
        counts = {op.name: [0, 0] for op in ops}
        per_round, unexpected, notes = [], 0, {}
        start = time.perf_counter()
        while True:  # whole rounds, each on the next core in turn
            began = time.perf_counter()
            cpu = CPUS[len(per_round) % len(CPUS)]
            runner.results.clear()
            outcomes = []
            for op in ops:
                if tracer is not None:
                    tracer.op = (len(per_round), op.name)
                o = runner.run_op(op, cpu)
                outcomes.append(o)
                counts[op.name][0] += 1
                counts[op.name][1] += o.failed
                unexpected += o.unexpected
                for note in o.notes:
                    notes.setdefault(op.name, set()).add(note)
            per_round.append(outcomes)
            now = time.perf_counter()
            if now - start + (now - began) > args.seconds:
                break
        pin(CPUS)

        def medians(scaled):
            rounds = [round_metrics(o, runner, scaled) for o in per_round]
            return {k: statistics.median(r[k] for r in rounds)
                    for k in rounds[0]}
        e2e = medians(scaled=True)
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = peak_rss_mb()
        if tracer is None:
            metrics = {k: {"value": e2e[k], "unit": u}
                       for k, u in END_TO_END.items()}
        else:
            from tracing import PER_LAYER, per_layer_metrics
            tracer.uninstall()
            tracer.op = (-1, "layers")
            layer = per_layer_metrics(tracer, runner, len(per_round))
            metrics = {k: {"value": layer[k], "unit": u}
                       for k, (u, _) in PER_LAYER.items()}
        info = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "rounds": len(per_round),
                "operations": {k: {"attempted": a, "failed": f}
                               for k, (a, f) in counts.items()},
                "host": host_facts(),
                "harness_rss_mb": harness_rss_mb,
                "uncounted": {k: sorted(v) for k, v in notes.items()},
                "unscaled": medians(scaled=False)}
        if tracer is not None:
            info["end_to_end_traced"] = e2e
        print(json.dumps(info))
        attempted = sum(a for a, _ in counts.values())
        failed = sum(f for _, f in counts.values())
        print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lspfit", "__init__.py")):
        print(f"error: no lspfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
