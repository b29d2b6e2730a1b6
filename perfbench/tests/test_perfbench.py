"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from tracer import self_time

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _protocol() -> dict:
    return json.loads((BENCH / "protocol.json").read_text())


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        (0, None, "replay", 0.0, 10.0, 1),
        (1, 0, "submit", 1.0, 4.0, 1),
        (2, 0, "drain", 3.0, 6.0, 1),      # overlaps submit: 1..6 covered
        (3, 0, "late", 9.0, 12.0, 1),      # clipped at the parent's end
        (4, 1, "grandchild", 1.0, 2.0, 1),  # inside submit, not direct
    ]
    assert self_time(spans, "replay") == pytest.approx(10 - 5 - 1)
    assert self_time(spans, "submit") == pytest.approx(3 - 1)
    assert self_time(spans, "drain") == pytest.approx(3)


def test_self_time_ignores_children_of_other_processes():
    spans = [
        (0, None, "replay", 0.0, 10.0, 1),
        (0, None, "shard", 0.0, 8.0, 2),
        (1, 0, "invoke", 0.0, 8.0, 2),  # parent id 0 of pid 2, not pid 1
    ]
    assert self_time(spans, "replay") == pytest.approx(10)
    assert self_time(spans, "shard") == pytest.approx(0)


# ----------------------------------------------------------------------
# metric names and the manifest
# ----------------------------------------------------------------------


def test_metric_names_and_units_follow_the_grammar():
    manifest = _manifest()
    names = [w["name"] for w in manifest["workloads"]]
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    for w in manifest["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_manifest_matches_protocol():
    manifest, protocol = _manifest(), _protocol()
    assert ({w["name"]: w["why"] for w in manifest["workloads"]}
            == {k: v["why"] for k, v in protocol["workloads"].items()})
    assert ([(m["name"], m["unit"], m["better"])
             for m in manifest["per_layer"]]
            == [(m["name"], m["unit"], m["better"])
                for m in protocol["per_layer"]])
    end_to_end = set(protocol["end_to_end"]) - {"about"}
    assert {m["name"] for m in manifest["end_to_end"]} == end_to_end
    for m in protocol["per_layer"]:
        assert set(m["moves"]) <= end_to_end
        assert set(m["on"]) <= set(protocol["workloads"])


def test_references_cover_seed_zero_and_the_held_out_seed():
    refs = json.loads((BENCH / "references.json").read_text())
    seeds = {"0", str(_protocol()["held_out_seed"])}
    for workload in _protocol()["workloads"]:
        assert set(refs[workload]) >= seeds, workload


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------

_REPLAY_OUT = """\
replayed 1000 invocations on 8 nodes (random / fixed)
  cold-start fraction : 0.0057
  latency p50/p90/p99 : 10.0 / 27.5 / 307.7 ms
  mean queueing       : 1.25 ms
  node imbalance      : 1.01x
"""
_SERVICE_OUT = """\
service replay: 1000 requests over 8 shards / 1 workers in 3.20s
  coverage            : complete (ledger ec33d0c3fbc56af9)
  request outcomes    : ok=1000
  latency p50/p90/p99 : 10.0 / 27.5 / 316.6 ms
"""


def test_output_check_accepts_the_reference():
    for out, service in ((_REPLAY_OUT, False), (_SERVICE_OUT, True)):
        summary = bench.parse_summary(out, service)
        assert bench.check_replay(summary, service, 1000, summary) == 0


@pytest.mark.parametrize("service, old, new", [
    (False, "307.7 ms", "307.8 ms"),
    (False, "0.0057", "0.0058"),
    (False, "1.25 ms", "1.26 ms"),
    (False, "1.01x", "1.02x"),
    (True, "ec33d0c3fbc56af9", "ec33d0c3fbc56af0"),
    (True, "316.6 ms", "316.5 ms"),
])
def test_output_check_fails_on_a_perturbed_summary(service, old, new):
    out = _SERVICE_OUT if service else _REPLAY_OUT
    reference = bench.parse_summary(out, service)
    perturbed = bench.parse_summary(out.replace(old, new), service)
    with pytest.raises(bench.CheckFailed, match="summary differs"):
        bench.check_replay(perturbed, service, 1000, reference)


def test_output_check_requires_one_record_per_request():
    summary = bench.parse_summary(_REPLAY_OUT, False)
    with pytest.raises(bench.CheckFailed, match="records for"):
        bench.check_replay(summary, False, 1001, None)
    service = bench.parse_summary(_SERVICE_OUT, True)
    with pytest.raises(bench.CheckFailed, match="scheduled"):
        bench.check_replay(service, True, 999, None)


def test_output_check_counts_failed_requests():
    out = _REPLAY_OUT + "  ok fraction         : 0.9900\n"
    assert bench.check_replay(bench.parse_summary(out, False), False,
                              1000, None) == 10
    out = _SERVICE_OUT.replace("ok=1000", "ok=990, error=10")
    assert bench.check_replay(bench.parse_summary(out, True), True,
                              1000, None) == 10


# ----------------------------------------------------------------------
# traced / untraced parity
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_spec(tmp_path_factory) -> Path:
    spec = tmp_path_factory.mktemp("spec") / "spec.json"
    _cli(["shrinkray", "--trace", "huawei", "--max-rps", "3",
          "--duration", "10", "--seed", "1", "--no-cache",
          "--out", str(spec)])
    return spec


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _cli(args: list[str], spans: Path | None = None) -> str:
    prefix = ([sys.executable, str(BENCH / "traced_cli.py"), str(spans),
               "--"] if spans is not None
              else [sys.executable, "-m", "repro.cli"])
    done = subprocess.run(prefix + args, env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout


@pytest.mark.parametrize("replay_args", [
    ["--scheduler", "random"],
    ["--scheduler", "random", "--node-memory", "700"],
    [],
    ["--service", "--workers", "1"],
])
def test_traced_replay_matches_untraced(small_spec, tmp_path, replay_args):
    service = "--service" in replay_args
    args = ["replay", "--spec", str(small_spec), "--seed", "1",
            *replay_args]
    plain = _cli(args + (["--service-dir", str(tmp_path / "a")]
                         if service else []))
    spans = tmp_path / "spans.json"
    traced = _cli(args + (["--service-dir", str(tmp_path / "b")]
                          if service else []), spans=spans)
    assert (bench.parse_summary(traced, service)
            == bench.parse_summary(plain, service))

    counts = json.loads(spans.read_text())["counts"]
    if replay_args == ["--scheduler", "random"]:
        # the bulk path ran: no scalar invoke, every row committed bulk
        assert counts.get("platform.sim.scalar_rows", 0) == 0
        assert counts["platform.sim.bulk_rows"] == counts[
            "loadgen.generate_requests"]
    else:
        assert counts["platform.sim.scalar_rows"] == counts[
            "loadgen.generate_requests"]
    if service:
        assert json.loads(spans.read_text())["worker_files"] == 1
