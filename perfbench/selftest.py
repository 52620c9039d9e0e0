#!/usr/bin/env python3
"""The host benchmark's own tests.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does) and checks that:
  1. fabricated outcomes breaking an invariant, and a frame labelled with the
     wrong object, count as failures (the binary's --selftest);
  2. every workload at tiny size, untraced and traced, ends with no failed
     operation, so every pass matched the first pass's digest, traced or not;
  3. a different seed changes the inputs and so the digest;
  4. the held-out seed runs cleanly on every workload;
  5. the metric names and units the binary prints are those BENCHMARK.json
     lists;
  6. fleet_sweep's cells are scale_fleet's: at tiny size (scale_fleet's smoke
     grid) its exported metrics, SLO and sample files are byte-identical to
     those scale_fleet --smoke --slo writes for the same seed;
  7. the benchmark's C++ passes the arnet-analyze rules that gate bench/.
Exits 0 when all pass. Takes a few minutes after the build.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

ROOT = run.ROOT
BINARY = str(run.BINARY)
COMMITTED_SEED = 1
# Reserved for confirming later performance claims; never used to tune.
HELD_OUT_SEED = 20261
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def tiny_run(workload: str, seed: int, trace: int) -> tuple[dict, str, str]:
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if trace:
        cmd += ["--spans-out", str(ROOT / ".bench_build" / "spans" / f"selftest-{workload}.tsv")]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        return {}, "", out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), "")
    return json.loads(lines[-1]), digest, out.stderr


def metric_defs(result: dict) -> list[tuple[str, str]]:
    return [(name, m["unit"]) for name, m in result["metrics"].items()]


def scale_fleet_match() -> None:
    """Run scale_fleet's smoke sweep and fleet_sweep's tiny pass on one seed
    and compare every exported file."""
    out_dir = ROOT / ".bench_build" / "selftest"
    shutil.rmtree(out_dir, ignore_errors=True)
    subprocess.run(["cmake", "--build", str(run.BUILD_DIR), "--target", "perfbench_scale_fleet",
                    "-j", "4"], check=True, stdout=subprocess.DEVNULL)
    ref = subprocess.run([str(run.BUILD_DIR / "perfbench_scale_fleet"), "--smoke", "yes",
                          "--slo", "yes", "--seed", str(COMMITTED_SEED),
                          "--out-dir", str(out_dir / "scale_fleet")],
                         capture_output=True, text=True, timeout=170)
    ours = subprocess.run([BINARY, "--workload", "fleet_sweep", "--seed", str(COMMITTED_SEED),
                           "--seconds", "1", "--trace", "0", "--size", "tiny",
                           "--artifacts-out", str(out_dir / "perfbench")],
                          capture_output=True, text=True, timeout=170)
    ran = ref.returncode == 0 and ours.returncode == 0
    check(ran, "scale_fleet --smoke and fleet_sweep tiny both run"
          + ("" if ran else ":\n" + ref.stderr + ours.stderr))
    for name in ("scale_fleet_metrics.jsonl", "scale_fleet_slo.jsonl",
                 "scale_fleet_samples.jsonl"):
        a, b = out_dir / "scale_fleet" / name, out_dir / "perfbench" / name
        same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
        check(same and a.stat().st_size > 0,
              f"fleet_sweep tiny exports {name} byte-identical to scale_fleet --smoke")


def analyzer_gate() -> None:
    """arnet-analyze scopes its rules by path, so lint a copy placed at
    bench/perfbench/ under a scratch root inside the build tree."""
    scratch = ROOT / ".bench_build" / "analyze"
    shutil.rmtree(scratch, ignore_errors=True)
    dest = scratch / "bench" / "perfbench"
    dest.mkdir(parents=True)
    for f in sorted((ROOT / "perfbench").iterdir()):
        if f.suffix in (".cpp", ".hpp"):
            shutil.copy(f, dest / f.name)
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "arnet_analyze"),
                          "--root", str(scratch), "bench"],
                         capture_output=True, text=True)
    check(out.returncode == 0, "arnet-analyze bench/ rules pass on perfbench C++"
          + ("" if out.returncode == 0 else ":\n" + out.stdout + out.stderr))


def main() -> int:
    run.build()
    (ROOT / ".bench_build" / "spans").mkdir(parents=True, exist_ok=True)

    out = subprocess.run([BINARY, "--selftest"], capture_output=True, text=True)
    print(out.stdout, end="")
    check(out.returncode == 0, "fabricated broken outcomes are counted as failures")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    want_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads are the benchmark's workloads")

    for w in run.WORKLOADS:
        res, digest, err = tiny_run(w, COMMITTED_SEED, 0)
        check(bool(res) and res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              f"{w}: tiny untraced run has error_rate 0 and one digest" + ("" if res else err))
        if not res:
            continue
        check(sorted(metric_defs(res)) == sorted(want_e2e),
              f"{w}: end-to-end metrics match BENCHMARK.json")
        traced, traced_digest, err = tiny_run(w, COMMITTED_SEED, 1)
        check(bool(traced) and traced["correct"] and traced["failed"] == 0,
              f"{w}: tiny traced run has error_rate 0" + ("" if traced else err))
        check(traced_digest == digest, f"{w}: traced digest equals untraced digest")
        if traced:
            check(sorted(metric_defs(traced)) == sorted(want_layer),
                  f"{w}: per-layer metrics match BENCHMARK.json")
            coverage = traced["metrics"]["bench.span_coverage"]["value"]
            check(coverage >= 0.95, f"{w}: spans cover {coverage:.4f} >= 0.95 of pass time")
        other, other_digest, err = tiny_run(w, COMMITTED_SEED + 1, 0)
        check(bool(other) and other_digest != digest,
              f"{w}: a different seed changes the digest" + ("" if other else err))
        held, _, err = tiny_run(w, HELD_OUT_SEED, 0)
        check(bool(held) and held["correct"] and held["failed"] == 0,
              f"{w}: held-out seed {HELD_OUT_SEED} runs cleanly" + ("" if held else err))

    scale_fleet_match()
    analyzer_gate()
    print("selftest " + ("ok" if not failures else f"FAILED ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
