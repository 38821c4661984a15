"""Tests of the benchmark itself: span arithmetic, patching, metric names
and seeded inputs.  Run with ``python3 -m pytest bench/tests -q``."""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import spans  # noqa: E402


def span(name, start, end, parent=-1, item="x"):
    return {"name": name, "start": start, "end": end, "parent": parent, "item": item}


def test_self_time_nested():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    s = [span("a", 0, 10), span("b", 1, 4, 0), span("c", 5, 9, 0), span("d", 6, 7, 2)]
    assert spans.self_times(s) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_recursive():
    # membership on the axis path calls membership on the tetra point
    s = [span("domains.membership", 0.0, 5.0),
         span("domains.membership", 1.0, 4.0, 0),
         span("opcore.op_norm", 2.0, 2.5, 1)]
    assert spans.self_times(s) == pytest.approx([2.0, 2.5, 0.5])
    calls, total = spans.aggregate(s)["domains.membership"]
    assert calls == 2
    assert total == pytest.approx(4.5)  # never more than the outer duration


def test_tracer_patches_every_binding():
    import mudilate
    import mudilate.fundamentals as fundamentals
    import mudilate.gallery as gallery
    import mudilate.opcore as opcore

    original = opcore.numerical_radius
    with spans.Tracer():
        assert fundamentals.numerical_radius is not original
        assert fundamentals.numerical_radius is opcore.numerical_radius
        assert mudilate.numerical_radius is opcore.numerical_radius
        assert gallery.chain_report is fundamentals.chain_report
    assert fundamentals.numerical_radius is original
    assert mudilate.numerical_radius is original


@pytest.mark.parametrize("case,expected", [("exam1", 24), ("exam2", 16)])
def test_numerical_radius_calls_per_case(case, expected):
    import mudilate.gallery as gallery

    tracer = spans.Tracer()
    with tracer:
        gallery.run_example(gallery.GalleryCase(case, dict(trunc=8, z_samples=8)))
    assert tracer.names.count("opcore.numerical_radius") == expected
    assert tracer.names[0] == "gallery.run_example"
    assert not tracer.stack


def _inputs(seed):
    return [(e["label"], e["matrix"].tobytes() if "matrix" in e else e["coords"])
            for r in gen.domains_mix(seed, rounds=2) for e in r]


def test_same_seed_same_inputs():
    assert _inputs(5) == _inputs(5)
    assert _inputs(5) != _inputs(6)


def test_generator_truths():
    r = gen.domains_mix(3, rounds=1)[0]
    points = [e for e in r if "coords" in e]
    assert len(points) == sum(gen.CLOSED_PER_ROUND.values()) + len(gen.SEARCH_CLASSES)
    for p in points:
        assert 0.5 <= p["scale"] <= 2.0
        # |a11| (|a21| for penta) never exceeds the norm of the realiser
        assert p["first_abs"] <= p["realiser_norm"] + 1e-12
    for e in r:
        if "matrix" in e:
            assert e["radius"] <= e["ref_mu"] <= e["norm"]


@pytest.mark.parametrize("name", list(gen.MU_STRUCTURES))
def test_reference_mu(name):
    blocks, _, ref = gen.MU_STRUCTURES[name]
    assert gen.torus_mu(gen.mu_base(name), blocks, levels=6) == pytest.approx(ref, rel=1e-9)


def _printed(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _printed("gallery-t8", trace)
        assert res["correct"] and res["failed"] == 0
        printed = {k: v["unit"] for k, v in res["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "gallery-t8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pace_scales_by_the_kernel_batches_around_a_call():
    import run

    pace = run.Pace()
    pace.batches = [[0.01, 1], [0.09, 3], [0.02, 1]]
    # a call between batches 0 and 1 ran at their pooled pace, 0.1 s / 4 runs
    assert pace.scale(0) == pytest.approx(pace.ref / 0.025)
    assert pace.scale(1) == pytest.approx(pace.ref / 0.0275)
    # after the last batch there is nothing later to pool with
    assert pace.scale(2) == pytest.approx(pace.ref / 0.02)


def test_pace_batch_grows_with_the_gap():
    import run

    pace = run.Pace()
    pace.kernel = lambda: 0.001
    assert pace.tick() == 0 and pace.batches == [[0.001, 1]]
    assert pace.tick() == 0  # not due yet
    pace.last -= 10 * run.CAL_EVERY
    assert pace.tick() == 1 and pace.batches[1][1] == 10
    pace.last -= 1000 * run.CAL_EVERY
    assert pace.tick() == 2 and pace.batches[2][1] == run.CAL_MAX


def test_trimmed_mean_drops_the_extremes():
    import run

    assert run.TRIM == 0.1
    # ten calls: the fastest and the slowest are dropped
    assert run.trimmed_mean([100.0, 1, 2, 3, 4, 5, 6, 7, 8, 0.0]) == pytest.approx(4.5)
    # too few calls to trim: the plain mean
    assert run.trimmed_mean([1.0, 2.0, 6.0]) == pytest.approx(3.0)
