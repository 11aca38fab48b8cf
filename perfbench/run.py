#!/usr/bin/env python3
"""CirSTAG benchmark runner (see README.md).

    python3 perfbench/run.py --workload analyze-14k --seed 1 --trace 0

Run from the repository root. Builds the program (Release) and the benchmark
binaries into .bench_build/, generates the workload's inputs from --seed,
measures for --seconds, checks the outputs, prints a readable report, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced run. Exits 1 when a correctness check fails, 2 when the program
cannot be built or run.
"""

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "program"
BENCH = BUILD / "perfbench"
WORK = BUILD / "work"
CLI = PROGRAM / "tools" / "cirstag_cli"
CIRSTAG_BENCH = BENCH / "perfbench_cirstag"
LOADGEN = BENCH / "perfbench_load"

BUILD_JOBS = 4
# The settings every workload shares (pool width, GNN training, set-ups per
# run, served circuit name, ...) live in workload.hpp; the benchmark
# binaries print them and run.py reads them from there.
# Each workload's circuit is fixed (generator seed CIRCUIT_SEED); --seed
# draws the surrogate's initial weights (analyze-14k) or the request stream
# (serve). Run-to-run noise on one input is already ~10% on a shared 4-vCPU
# machine, and circuits drawn per seed added as much again.
CIRCUIT_SEED = 1
ANALYZE_GATES = 5000   # 14,194 pins
SERVE_GATES = 600      # 1,732 pins
R2_FLOOR = 0.8                # surrogate quality below this fails the run
CANARY_MIN_OVERLAP = 0.8      # top-decile agreement with reference_ranking.json
# The load generator is one thread. Busier than this share of one core, it
# would be what limits a serve workload's throughput, not the daemon.
LOADGEN_MAX_CPU_FRAC = 0.9
MIN_MEDIAN_SAMPLES = 2 * benchlib.MIN_BEYOND  # enough for a reported p50

WORKLOADS = ("analyze-14k", "serve-mixed", "serve-query")


class BenchError(Exception):
    """The program could not be built or run (not a wrong answer)."""


def log(msg):
    print(msg, flush=True)


def run_cmd(cmd, logfile, timeout):
    with open(logfile, "a") as out:
        proc = subprocess.run([str(c) for c in cmd], stdout=out,
                              stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"'{' '.join(map(str, cmd))}' failed "
                         f"(exit {proc.returncode}); see {logfile}")


def build():
    """Configure and build the program and the benchmark binaries. A no-op
    rebuild takes a few seconds."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no program sources next to {HERE.name}/")
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    jobs = str(BUILD_JOBS)
    run_cmd(["cmake", "-S", ROOT, "-B", PROGRAM, "-DCMAKE_BUILD_TYPE=Release",
             "-DCIRSTAG_BUILD_TESTS=OFF", "-DCIRSTAG_BUILD_BENCH=OFF",
             "-DCIRSTAG_BUILD_EXAMPLES=OFF"], logfile, 300)
    run_cmd(["cmake", "--build", PROGRAM, "-j", jobs], logfile, 1200)
    run_cmd(["cmake", "-S", HERE, "-B", BENCH, "-DCMAKE_BUILD_TYPE=Release",
             f"-DCIRSTAG_PROGRAM_BUILD={PROGRAM}"], logfile, 300)
    run_cmd(["cmake", "--build", BENCH, "-j", jobs], logfile, 600)


def run_json(cmd, timeout):
    """Run a benchmark binary and parse the JSON object it prints."""
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} {cmd[1]} failed "
                         f"(exit {proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def fingerprint(args, facts, ticks_before):
    """Machine and build facts of a result. host_steal_frac is the share of
    CPU time the hypervisor gave to other guests during the run: on a shared
    machine it explains most of the run-to-run spread."""
    ticks_after = cpu_ticks()
    steal = None
    if ticks_before and ticks_after:
        steal = benchlib.ratio(ticks_after[0] - ticks_before[0],
                               ticks_after[1] - ticks_before[1])
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "cpu": cpu_model(), "nproc": os.cpu_count(),
            "simd": facts["simd"], "build_type": facts["build_type"],
            "git_describe": facts["git_describe"],
            "pool_width": int(facts["threads"]), "host_steal_frac": steal}


# -- analyze-14k ---------------------------------------------------------------

def canary_overlap(canary):
    """Share of the committed reference top decile found in this run's."""
    with open(HERE / "reference_ranking.json") as f:
        ref = json.load(f)
    if (ref["gates"], ref["seed"], ref["pins"]) != (
            canary["gates"], canary["seed"], canary["pins"]):
        return 0.0
    return benchlib.ratio(len(set(ref["top_decile"]) &
                              set(canary["top_decile"])),
                          len(ref["top_decile"]))


def r2_check(out):
    return {"surrogate R2 >= %.2f (%.4f)" % (R2_FLOOR, out["r2"]):
            out["r2"] >= R2_FLOOR}


def run_analyze(args):
    common = ["--gates", ANALYZE_GATES, "--seed", CIRCUIT_SEED, "--gnn-seed",
              args.seed]
    if args.trace:
        out = run_json([CIRSTAG_BENCH, "trace", *common], 170)
        checks = r2_check(out)
        checks["scores finite"] = out["nonfinite_scores"] == 0
        checks["health report has no errors"] = out["health_errors"] == 0
        checks["node-score checksum identical across %d analyze() calls"
               % out["pairs"]] = out["analyze_checksums_agree"]
        checks["composed pipeline checksum == analyze() checksum"] = \
            out["composed_checksum"] == out["analyze_checksum"]
        checks["1-thread checksum == 4-thread checksum"] = \
            out["serial_checksum"] == out["analyze_checksum"]
        layers = {name: 0.0 for name in benchlib.PER_LAYER}
        layers.update(out["layers"])
        # The analyze() and composed pairs, and the 1-thread analyze().
        pairs = int(out["pairs"])
        attempted = 2 * pairs + 1
        failed = 0 if all(checks.values()) else attempted
        info = {"analyze_s": (out["analyze_s"], "s", pairs),
                "composed_s": (out["composed_s"], "s", pairs),
                "serial_analyze_s": (out["serial_analyze_s"], "s", 1)}
        return out, checks, attempted, failed, layers, info

    out = run_json([CIRSTAG_BENCH, "analyze", *common, "--seconds",
                    args.seconds], 175)
    checks = r2_check(out)
    sums = out["checksums"]
    bad_calls = [i for i in range(len(sums))
                 if out["nonfinite_scores"][i] > 0
                 or out["health_errors"][i] > 0 or sums[i] != sums[0]]
    checks["every score finite"] = sum(out["nonfinite_scores"]) == 0
    checks["health reports have no errors"] = sum(out["health_errors"]) == 0
    checks["node-score checksum identical across %d calls" % len(sums)] = \
        len(set(sums)) == 1
    overlap = canary_overlap(out["canary"])
    checks["canary top decile agrees with reference (%.3f >= %.2f)" % (
        overlap, CANARY_MIN_OVERLAP)] = overlap >= CANARY_MIN_OVERLAP
    attempted = len(sums) + 1  # analyze() calls + the canary analysis
    failed = len(bad_calls) + (0 if overlap >= CANARY_MIN_OVERLAP else 1)
    if out["r2"] < R2_FLOOR:
        failed = attempted
    analyze_s = out["analyze_s"]
    values = {
        "setup_s": benchlib.median(out["setup_s"]),
        "peak_rss_mb": out["peak_rss_mb"],
        # At the median call time: one call slowed by a neighbour's burst on
        # the shared machine does not move it.
        "throughput_ops": 1.0 / benchlib.median(analyze_s),
    }
    info = {
        "setup_s": (values["setup_s"], "s", len(out["setup_s"])),
        "peak_rss_mb": (values["peak_rss_mb"], "MB", 1),
        "analyze_s": (benchlib.median(analyze_s), "s", len(analyze_s)),
        "failed_frac": (benchlib.ratio(failed, attempted), "frac", attempted),
        "setup.sta_s": (benchlib.median(out["sta_s"]), "s", len(out["sta_s"])),
        "setup.train_s": (benchlib.median(out["train_s"]), "s",
                          len(out["train_s"])),
        "setup.embed_s": (benchlib.median(out["embed_s"]), "s",
                          len(out["embed_s"])),
    }
    return out, checks, attempted, failed, values, info


# -- serve workloads -----------------------------------------------------------

class Daemon:
    """`cirstag_cli serve` as a child process on an ephemeral port."""

    def __init__(self, config, tag, access_log=None):
        self.config = config
        self.stdout_path = WORK / f"daemon-{tag}.out"
        self.stderr_path = WORK / f"daemon-{tag}.err"
        cmd = [str(CLI), "serve", "--threads", str(int(config["threads"])),
               "--workers", str(int(config["workers"])), "--port", "0"]
        if access_log is not None:
            cmd += ["--access-log", str(access_log)]
        with open(self.stdout_path, "w") as out, \
                open(self.stderr_path, "w") as err:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        self.port = self._wait_port(30.0)
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=120)

    def _wait_port(self, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.stdout_path.read_text()
            marker = "listening on 127.0.0.1:"
            if marker in text and text.endswith("\n"):
                return int(text.split(marker, 1)[1].split()[0])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchError(f"daemon did not start; see {self.stderr_path}")

    def request(self, method, path, body=None):
        payload = None if body is None else json.dumps(body)
        self.conn.request(method, path, payload)
        resp = self.conn.getresponse()
        return resp.status, resp.read().decode()

    def load(self, netlist):
        name = self.config["circuit"]
        status, body = self.request("POST", "/load", {
            "name": name, "path": str(netlist), "mode": "fast",
            "epochs": int(self.config["epochs"]),
            "hidden": int(self.config["hidden"])})
        if status != 200:
            raise BenchError(f"/load answered {status}: {body[:200]}")
        for _ in range(1000):
            status, body = self.request("GET", "/health")
            if status == 200 and any(c.get("name") == name
                                     for c in json.loads(body)["circuits"]):
                return
            time.sleep(0.01)
        raise BenchError("/health never listed the loaded circuit")

    def stats(self):
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_loaded_daemon(config, tag, netlist, access_log=None):
    """Daemon start + /load until /health lists the circuit; returns the
    daemon and the seconds that took."""
    t0 = time.monotonic()
    daemon = Daemon(config, tag, access_log)
    try:
        daemon.load(netlist)
    except Exception:
        daemon.stop()
        raise
    return daemon, time.monotonic() - t0


def drive(daemon, args, mix, pins, tag, samples, seconds, min_count):
    """Closed-loop load on a loaded daemon for `seconds` (and until
    `min_count` /analyze (serve-mixed) and read answers arrived), added to
    `samples`. Returns (wall_s, the load generator's CPU seconds, the ranking
    taken right after /load)."""
    status, topk = daemon.request("POST", "/top-k",
                                  {"circuit": daemon.config["circuit"],
                                   "k": 10})
    if status != 200:
        raise BenchError(f"/top-k after /load answered {status}")
    ref_path = WORK / f"topk-{tag}.json"
    ref_path.write_text(topk)
    samples_path = WORK / f"samples-{tag}.txt"
    out = run_json([LOADGEN, "--port", daemon.port, "--mix", mix, "--pins",
                    pins, "--seconds", seconds, "--seed", args.seed,
                    "--topk-ref", ref_path,
                    "--min-analyze", min_count if mix == "mixed" else 0,
                    "--min-reads", min_count,
                    "--out", samples_path], 3 * seconds + 30)
    with open(samples_path) as f:
        for line in f:
            samples.add_line(line)
    samples.end_window(out["wall_s"])
    samples_path.unlink()
    return (out["wall_s"], out["cpu_s"],
            [n["node"] for n in json.loads(topk)["nodes"]])


def serve_summary(samples, wall_s, cpu_s, mix):
    attempted, failed = samples.attempted, samples.failed
    analyze = samples.latencies(("analyze",))
    reads = samples.latencies(benchlib.READ_ENDPOINTS)
    completed = attempted - failed
    info = {
        "throughput_rps": (completed / wall_s, "1/s", completed),
        "throughput_ops": (benchlib.median(samples.slice_rates), "1/s",
                           len(samples.slice_rates)),
        "loadgen_cpu_frac": (cpu_s / wall_s, "frac", 1),
        "read_p50_ms": (benchlib.percentile(reads, 0.5), "ms", len(reads)),
        "failed_frac": (benchlib.ratio(failed, attempted), "frac", attempted),
    }
    if mix == "mixed":
        info["analyze_p50_ms"] = (benchlib.percentile(analyze, 0.5), "ms",
                                  len(analyze))
        info["analyze_p90_ms"] = (benchlib.percentile(analyze, 0.9), "ms",
                                  len(analyze))
    else:
        info["read_p99_ms"] = (benchlib.percentile(reads, 0.99), "ms",
                               len(reads))
    return attempted, failed, info


def counter_deltas(before, after):
    a, b = after["counters"], before["counters"]
    return lambda name: a.get(name, 0) - b.get(name, 0)


def serve_layers(stats0, stats1, window_s, threads, pins, probe, access_log,
                 samples, overhead):
    """Per-layer metrics of a traced serve run: counter deltas of the traced
    window from /stats, serve.* from the access log, and the in-process
    layer times from the probe on the served circuit."""
    d = counter_deltas(stats0, stats1)
    busy = d("runtime.pool.busy_ns") * 1e-9
    layers = {name: 0.0 for name in benchlib.PER_LAYER}
    # The probe measures what no counter can: phase times, set-up pieces,
    # the 1-thread speed-up.
    for name in ("core.embedding_s", "core.manifold_x_s", "core.manifold_y_s",
                 "core.stability_s", "core.remainder_s", "graphs.knn_s",
                 "graphs.sketch_s", "graphs.sparsify_s", "gnn.train_s",
                 "gnn.embed_s", "circuit.sta_s", "runtime.speedup_t4_vs_t1"):
        layers[name] = probe["layers"][name]
    hits = d("solver_cache.hits")
    reused = d("arena.bytes_reused")
    evaluated = d("sta.incremental_gates_evaluated")
    layers.update({
        "runtime.pool_regions": d("runtime.pool.runs"),
        "runtime.pool_tasks": d("runtime.pool.tasks"),
        "runtime.busy_s": busy,
        "runtime.idle_s": d("runtime.pool.idle_ns") * 1e-9,
        "runtime.efficiency": benchlib.ratio(busy, window_s * threads),
        "graphs.knn_edges": d("knn.edges"),
        "graphs.sketch_cg_iters": d("sketch.cg_iterations"),
        "graphs.sparsify_kept_frac": benchlib.ratio(
            d("sparsify.kept_edges"), d("sparsify.input_edges")),
        "graphs.solver_cache_hit_frac": benchlib.ratio(
            hits, hits + d("solver_cache.misses")),
        "linalg.blockcg_col_iters": d("blockcg.column_iterations"),
        "linalg.blockcg_sweeps": d("blockcg.sweeps"),
        "linalg.eigen_subspace_iters": d("eigen.subspace_iterations"),
        "linalg.ritz_refine_sweeps": d("eigen.ritz_refine_sweeps"),
        "linalg.lanczos_restarts": d("lanczos.restarts"),
        "gnn.incremental_row_frac": benchlib.ratio(
            d("gnn.incremental_rows"), d("gnn.incremental_forwards") * pins),
        "circuit.sta_cone_frac": benchlib.ratio(
            evaluated, evaluated + d("sta.incremental_gates_skipped")),
        "core.knn_requery_frac": benchlib.ratio(
            d("knn.requeried_points"), d("knn.delta_updates") * pins),
        "core.subspace_sweep_frac": (
            stats1["gauges"].get("sweep.subspace_sweep_fraction", 0.0)
            if d("sweep.runs") > 0 else 0.0),
        "serve.batch_occupancy": benchlib.ratio(
            d("serve.scheduler.batched_requests"),
            d("serve.scheduler.batches_formed")),
        "util.arena_reuse_frac": benchlib.ratio(
            reused, reused + d("arena.bytes_allocated")),
        "trace.overhead_frac": overhead,
    })
    with open(access_log) as lines:
        layers.update(benchlib.aggregate_access_log(lines,
                                                    samples.round_trip_us))
    return layers


def run_serve(args, mix):
    netlist = WORK / "serve.ckt"
    gen = run_json([CIRSTAG_BENCH, "gen", "--gates", SERVE_GATES, "--seed",
                    CIRCUIT_SEED, "--out", netlist], 60)
    pins = int(gen["pins"])
    setups = int(gen["setups"])
    checks = {}
    daemons = []
    try:
        # Each set-up's daemon then serves one window of the run; the
        # windows' samples are pooled, so a daemon that lands in a slow
        # thread placement weighs a third.
        setup_s, rss, rankings = [], [], []
        samples = benchlib.Samples()
        wall_s = cpu_s = 0.0
        for i in range(setups):
            daemon, seconds = start_loaded_daemon(gen, f"setup{i}", netlist)
            daemons.append(daemon)
            setup_s.append(seconds)
            wall, cpu, ranking = drive(daemon, args, mix, pins, f"window{i}",
                                       samples, args.seconds / setups,
                                       math.ceil(MIN_MEDIAN_SAMPLES / setups))
            wall_s += wall
            cpu_s += cpu
            rankings.append(ranking)
            rss.append(daemon.peak_rss_mb())
            daemon.stop()
        peak_rss = benchlib.median(rss)
        attempted, failed, info = serve_summary(samples, wall_s, cpu_s, mix)
        checks["every response 200 with well-formed JSON; /top-k equals the "
               "ranking taken after /load (%d of %d failed)" % (
                   failed, attempted)] = failed == 0
        info["setup_s"] = (benchlib.median(setup_s), "s", len(setup_s))
        info["peak_rss_mb"] = (peak_rss, "MB", len(rss))
        checks["every daemon ranks alike after /load"] = all(
            r == rankings[0] for r in rankings)
        loadgen_cpu = info["loadgen_cpu_frac"][0]
        checks["load generator not the bottleneck (%.2f of one core <= %.2f)"
               % (loadgen_cpu, LOADGEN_MAX_CPU_FRAC)] = \
            loadgen_cpu <= LOADGEN_MAX_CPU_FRAC
        if not args.trace:
            values = {"setup_s": info["setup_s"][0], "peak_rss_mb": peak_rss,
                      "throughput_ops": info["throughput_ops"][0]}
            return gen, checks, attempted, failed, values, info

        # Traced run: a second daemon with the access log armed, the same
        # load, /stats around the window, and the in-process probe.
        access_log = WORK / "access.jsonl"
        traced, _ = start_loaded_daemon(gen, "traced", netlist, access_log)
        daemons.append(traced)
        stats0 = traced.stats()
        t_samples = benchlib.Samples(benchlib.sampled_trace)
        t_wall, t_cpu, t_ranking = drive(traced, args, mix, pins, "traced",
                                         t_samples, args.seconds,
                                         MIN_MEDIAN_SAMPLES)
        stats1 = traced.stats()
        traced.stop()
        t_attempted, t_failed, t_info = serve_summary(t_samples, t_wall,
                                                      t_cpu, mix)
        checks["traced window: every response correct (%d of %d failed)" % (
            t_failed, t_attempted)] = t_failed == 0
        checks["traced daemon ranks like the untraced ones"] = \
            t_ranking == rankings[0]
        probe = run_json([CIRSTAG_BENCH, "trace", "--gates", SERVE_GATES,
                          "--seed", CIRCUIT_SEED], 120)
        checks["probe: composed pipeline checksum == analyze() checksum"] = \
            probe["composed_checksum"] == probe["analyze_checksum"]
        checks["probe: node-score checksum identical across analyze() "
               "calls"] = probe["analyze_checksums_agree"]
        overhead = (info["throughput_ops"][0] /
                    t_info["throughput_ops"][0] - 1.0)
        layers = serve_layers(stats0, stats1, t_wall, gen["threads"], pins,
                              probe, access_log, t_samples, overhead)
        access_log.unlink()
        info.update({f"traced.{k}": v for k, v in t_info.items()})
        return (gen, checks, attempted + t_attempted, failed + t_failed,
                layers, info)
    finally:
        for d in daemons:
            d.stop()


# -- main ----------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        ticks_before = cpu_ticks()
        if args.workload == "analyze-14k":
            facts, checks, attempted, failed, values, info = run_analyze(args)
        else:
            facts, checks, attempted, failed, values, info = run_serve(
                args, "mixed" if args.workload == "serve-mixed" else "query")
    except (BenchError, subprocess.TimeoutExpired, OSError,
            http.client.HTTPException) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    correct = all(checks.values())
    units = benchlib.PER_LAYER if args.trace else benchlib.END_TO_END
    fp = fingerprint(args, facts, ticks_before)
    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    log("fingerprint " + json.dumps(fp))
    log("reported:")
    for name, (value, unit, count) in info.items():
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        log(f"  {name:<32} {shown} {unit} (n={count})")
    log(f"  attempted={attempted} failed={failed}")
    log("per-layer metrics:" if args.trace else "gated metrics:")
    for name, unit in units.items():
        log(f"  {name:<32} {values[name]:.6g} {unit}")
    for name, ok in checks.items():
        log(f"  check {'PASS' if ok else 'FAIL'}: {name}")
    result = {"fingerprint": fp, "checks": checks,
              "info": {k: {"value": v, "unit": u, "n": n}
                       for k, (v, u, n) in info.items()},
              "metrics": {k: values[k] for k in units}}
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))
    print(benchlib.result_line(correct, attempted, failed, values, units),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
