"""Each workload's checks pass on real outputs and fail on corrupted ones."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
from checks import ChainSpec
from tracing import PER_LAYER
import inputs
from workloads import (ALL_FUNCTIONALS, CPUS, DERIVE_REPEATS, END_TO_END,
                       KINDS, WORKLOADS, BrickSpec, Op, Runner, WorkloadSpec)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

TINY = WorkloadSpec(
    ChainSpec(400, 201, 2),
    BrickSpec(2, 3, ChainSpec(60, 31, 3), ALL_FUNCTIONALS,
              ("median", "q025", "q975", "width95")),
    (3, 4), True)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    r = Runner("ingest", str(tmp_path_factory.mktemp("bench")), seed=5)
    r.spec = TINY
    r.setup()
    return r


def ops(runner):
    return {op.name: op for op in runner.ops()}


def run_and_check(runner, name):
    op = ops(runner)[name]
    out = op.run()
    assert op.check(out) == []
    return out


def rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def set_field(lines, row, col, value):
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)


@pytest.mark.parametrize("kind", KINDS)
def test_fit_check(runner, kind):
    run_and_check(runner, f"fit.{kind}")
    prefix = runner.fit_prefix(kind)
    spec = runner.spec.fit

    def check(**kw):
        args = dict(prefix=prefix, kind=kind, series=runner.series, spec=spec,
                    loglik=runner.loglik)
        args.update(kw)
        return checks.check_fit(**args)

    assert check(loglik=lambda k, d: runner.loglik(k, d) * (1 + 1e-8))
    assert check(spec=ChainSpec(400, 201, 4))
    rewrite(prefix + "_chain.csv", lambda lines: set_field(lines, 5, 3, "400"))
    assert any("prior support" in p for p in check())
    run_and_check(runner, f"fit.{kind}")


def test_truth_check(tmp_path):
    head = "alpha1,alpha2,alpha3,alpha4,alpha5,alpha6,alpha7,sigma2"
    prefix = str(tmp_path / "fit")

    def write(a4, a7):
        rows = [f"0.2,0.5,0.1,{a4 + d},0,0.1,{a7 + d},0.003"
                for d in np.linspace(-6.0, 6.0, 101).tolist()]
        with open(prefix + "_chain.csv", "w", encoding="utf-8") as fh:
            fh.write("\n".join([head] + rows) + "\n")
        return checks.check_truth(prefix, inputs.TRUTH)

    assert write(120.0 + 5.9, 280.0 - 5.9) == []
    assert any("alpha4" in p for p in write(120.0 + 6.1, 280.0))
    assert any("alpha7" in p for p in write(120.0, 280.0 - 6.1))
    assert len(write(138.0, 187.0)) == 2  # a chain away from the truth


def test_quickstart_fits_check_the_truth(tmp_path):
    r = Runner("single-fit", str(tmp_path), seed=5)
    r.spec = WorkloadSpec(TINY.fit, TINY.brick, TINY.csv_grid, False,
                          quickstart=True)
    r.setup()
    by_name = {op.name: op for op in r.ops()}
    assert {f"fit.{k}.quickstart" for k in KINDS} <= by_name.keys()
    quick, seeded = by_name["fit.beta.quickstart"], by_name["fit.beta"]
    assert quick.metric == seeded.metric == "fit.beta"
    assert quick.watch is None and seeded.watch is not None
    quick.run()  # a 400-iteration chain from the default start: far off
    assert any("posterior median" in p for p in quick.check(None))
    seeded.run()
    assert not any("posterior median" in p for p in seeded.check(None))


def test_derive_check(runner):
    run_and_check(runner, "fit.beta")
    run_and_check(runner, "derive")
    prefix = runner.path("derive")
    chain = runner.fit_prefix("beta") + "_chain.csv"
    for name, edit in (
            ("season_length", lambda v: repr(float(v) + 1e-9)),
            ("delta", lambda v: repr(float(v) * (1 + 1e-9))),
            ("auc", lambda v: repr(float(v) * (1 + 1e-5))),
            ("predictive_180", lambda v: "1.5"),
            ("fitted_240", lambda v: repr(float(v) + 1e-6))):
        path = f"{prefix}_{name}_samples.csv"
        saved = open(path, encoding="utf-8").read()

        def corrupt(lines):
            lines[1] = edit(lines[1])
        rewrite(path, corrupt)
        assert checks.check_derive(prefix, chain, (120.0, 180.0, 240.0)), name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(saved)
    assert checks.check_derive(prefix, chain, (120.0, 180.0, 240.0)) == []


def test_fit_brick_check(runner):
    run_and_check(runner, "fit-brick")
    prefix = runner.path("brick")
    b = runner.spec.brick

    def check(pixels=((0, 0), (1, 2))):
        return checks.check_fit_brick(prefix, runner.brick, b.functionals,
                                      b.statistics, pixels,
                                      runner.serial_chain)
    assert check() == []

    npz = prefix + "_samples.npz"
    with np.load(npz) as z:
        arrays = dict(z)
    bad = dict(arrays, samples=arrays["samples"].copy())
    bad["samples"][1, 2, 0, 3] = np.nextafter(bad["samples"][1, 2, 0, 3], 0)
    np.savez_compressed(npz, **bad)
    assert any("serial chain" in p for p in check())
    np.savez_compressed(npz, **arrays)

    for name, row, col, value in (("alpha4_median", 1, 2, "1.0"),
                                  ("auc_median", 6, 4, None),
                                  ("auc_width95", 3, 4, "7"),
                                  ("alpha7_q975", 2, 1, "5")):
        path = f"{prefix}_{name}.csv"
        saved = open(path, encoding="utf-8").read()

        def corrupt(lines):
            v = value
            if v is None:  # a relative error above the AUC tolerance
                v = repr(float(lines[row].split(",")[col]) * (1 + 1e-5))
            set_field(lines, row, col, v)
        rewrite(path, corrupt)
        assert check(), name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(saved)

    with open(prefix + "_skipped.csv", "a", encoding="utf-8") as fh:
        fh.write('0,0,"too few observations"\n')
    assert any("skipped" in p for p in check())
    run_and_check(runner, "fit-brick")


def test_ingest_checks(runner):
    from lspfit import Brick
    runner.results.clear()
    pooled = run_and_check(runner, "ingest.pooled")
    annual = run_and_check(runner, "ingest.annual")
    read = run_and_check(runner, "ingest.roundtrip")

    values = pooled.values.copy()
    values[2, 1, 5] = np.float32(0.5) if np.isnan(values[2, 1, 5]) else np.nan
    assert checks.check_ingest_pooled(
        Brick(values, pooled.doys, pooled.georef), runner.csv)
    shifted = (pooled.georef[0] + 1.0,) + pooled.georef[1:]
    assert checks.check_ingest_pooled(Brick(pooled.values, pooled.doys,
                                            shifted), runner.csv)
    one_year = {k: v for k, v in annual.items() if k == 2019}
    assert checks.check_ingest_annual(one_year, runner.csv)

    lspb = runner.path("roundtrip.lspb")
    flipped = read.values.copy()
    flipped.view(np.uint32)[0, 0, 0] ^= 1
    assert checks.check_roundtrip(lspb, pooled,
                                  Brick(flipped, read.doys, read.georef))
    with open(lspb, "ab") as fh:
        fh.write(b"\0")
    assert checks.check_roundtrip(lspb, pooled, read)


def test_leap_day_is_the_tracked_fault(runner):
    op = ops(runner)["ingest.leap"]
    try:
        out = op.run()
    except ValueError as exc:  # today's fault: day 366 is a malformed row
        assert op.known_fault(exc)
    else:
        assert op.check(out) == []
    first = runner.leap.first_line
    with open(runner.leap.path, encoding="utf-8") as fh:
        assert fh.read().splitlines()[first - 1].split(",")[5] == "366"
    for other in (TypeError("bad operand"),
                  ValueError(f"malformed row at line {first}: unparseable "
                             "x/y/doy field"),
                  ValueError(f"malformed row at line {first + 1}: doy must "
                             "be in [1, 365] and coordinates finite")):
        assert not op.known_fault(other)
    doys = np.array([1.0, 366.0])
    values = np.full((2, 3, 2), 0.3, dtype=np.float32)
    for (r, c), v in runner.leap.values.items():
        values[r, c, 1] = v
    leap = runner.leap.values
    assert checks.check_leap(_LeapBrick(values, doys), leap) == []
    values[1, 2, 1] += np.float32(0.01)
    assert checks.check_leap(_LeapBrick(values, doys), leap)


def test_only_the_tracked_fault_is_expected(runner):
    leap = ops(runner)["ingest.leap"]
    if runner.run_op(leap, CPUS[0]).error is not None:
        assert runner.run_op(leap, CPUS[0]).tracked

    def crash():
        raise TypeError("unsupported operand")
    other = Op("ingest.leap", crash, leap.check, known_fault=leap.known_fault)
    outcome = runner.run_op(other, CPUS[0])
    assert outcome.failed and not outcome.tracked and outcome.unexpected


class _LeapBrick:
    """Stands in for an accepted leap-year brick; lspfit rejects day 366."""

    def __init__(self, values, doys):
        self.values, self.doys = values, doys


def test_benchmark_json_names_the_code_s_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "ingest", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _run(workload, trace):
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace)], cwd=ROOT,
                         capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr[-2000:]
    info, result = (json.loads(line)
                    for line in out.stdout.strip().splitlines()[-2:])
    return info, result


def test_ingest_run_counts_only_the_leap_day_as_failed():
    info, result = _run("ingest", 0)
    assert result["correct"] is True
    failed = {k: v["failed"] for k, v in info["operations"].items()
              if v["failed"]}
    assert failed == {"ingest.leap": info["rounds"]}
    assert result["failed"] == info["rounds"]
    per_round = {k: v["attempted"] / info["rounds"]
                 for k, v in info["operations"].items()}
    assert per_round == {**dict.fromkeys(per_round, 1),
                         "derive": DERIVE_REPEATS}
    assert result["attempted"] == info["rounds"] * sum(per_round.values())
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    _, result = _run("brick-summary", 1)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
