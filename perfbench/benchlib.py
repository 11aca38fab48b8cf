"""Pure logic of the benchmark: statistics, failure accounting, access-log
aggregation and the metric tables. Nothing here touches processes or files,
so test_benchlib.py exercises it directly."""

import json
import math
import statistics
import zlib
from array import array

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

# A serve window's throughput is counted in this many equal slices, and a run
# reports the median slice rate. On a shared host, a burst of load from other
# guests can stall the daemon for part of a window; it moves the few slices
# it falls in, and so not the median.
SLICES_PER_WINDOW = 10

ENDPOINTS = ("analyze", "top-k", "score-region")
READ_ENDPOINTS = ("top-k", "score-region")

# End-to-end metrics: every workload reports each of them (README.md maps
# what each means per workload). name -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_ops": "1/s",
}

# Per-layer metrics of the traced run, in report order. name -> unit
PER_LAYER = {
    "runtime.pool_regions": "count",
    "runtime.pool_tasks": "count",
    "runtime.busy_s": "s",
    "runtime.idle_s": "s",
    "runtime.efficiency": "frac",
    "runtime.speedup_t4_vs_t1": "x",
    "core.embedding_s": "s",
    "core.manifold_x_s": "s",
    "core.manifold_y_s": "s",
    "core.stability_s": "s",
    "core.remainder_s": "s",
    "graphs.knn_s": "s",
    "graphs.knn_edges": "count",
    "graphs.sketch_s": "s",
    "graphs.sketch_cg_iters": "count",
    "graphs.sparsify_s": "s",
    "graphs.sparsify_kept_frac": "frac",
    "graphs.solver_cache_hit_frac": "frac",
    "linalg.blockcg_col_iters": "count",
    "linalg.blockcg_sweeps": "count",
    "linalg.eigen_subspace_iters": "count",
    "linalg.ritz_refine_sweeps": "count",
    "linalg.lanczos_restarts": "count",
    "gnn.train_s": "s",
    "gnn.embed_s": "s",
    "circuit.sta_s": "s",
    "gnn.incremental_row_frac": "frac",
    "circuit.sta_cone_frac": "frac",
    "core.knn_requery_frac": "frac",
    "core.subspace_sweep_frac": "frac",
    **{f"serve.{part}_ms.{ep}": "ms"
       for part in ("queue", "compute", "render") for ep in ENDPOINTS},
    "serve.http_ms": "ms",
    "serve.batch_occupancy": "count",
    "util.arena_reuse_frac": "frac",
    "trace.overhead_frac": "frac",
}


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of `values`: the smallest sample
    with at least a q share of the samples at or below it. None when fewer
    than MIN_BEYOND samples lie above its rank, or when there are none."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values):
    return statistics.median(values) if values else None


def ratio(num, den):
    return num / den if den > 0 else 0.0


# -- serve samples -------------------------------------------------------------

def is_failure(status, ok):
    """Non-200 (including 429/503/504 rejections and transport errors, which
    the load generator records as status 0) or a failed correctness check."""
    return status != 200 or not ok


def slice_rates(done_s, wall_s, slices=SLICES_PER_WINDOW):
    """Completions per second in each of `slices` equal slices of a window
    that lasted `wall_s`, from the completion times (s since its start)."""
    width = wall_s / slices
    counts = [0] * slices
    for t in done_s:
        counts[min(int(t / width), slices - 1)] += 1
    return [c / width for c in counts]


class Samples:
    """Streaming summary of perfbench_load --out lines: counts, latencies of
    successful requests per endpoint, slice rates of the windows (see
    SLICES_PER_WINDOW), and client round trips by trace id for the requests
    `keep_trace` selects (the access-log join)."""

    def __init__(self, keep_trace=lambda trace_id: False):
        self.attempted = 0
        self.failed = 0
        self.latency_ms = {ep: array("d") for ep in ENDPOINTS}
        self.slice_rates = []
        self.round_trip_us = {}
        self._keep_trace = keep_trace
        self._done_s = array("d")  # completion times in the open window

    def add_line(self, line):
        fields = line.split()
        if len(fields) != 6:
            return
        endpoint, status, ok, start_us, latency_us, trace_id = fields
        self.attempted += 1
        if is_failure(int(status), ok == "1"):
            self.failed += 1
            return
        self.latency_ms[endpoint].append(float(latency_us) / 1e3)
        self._done_s.append((float(start_us) + float(latency_us)) / 1e6)
        if self._keep_trace(trace_id):
            self.round_trip_us[trace_id] = float(latency_us)

    def end_window(self, wall_s):
        """Close the window whose lines were added since the last call."""
        self.slice_rates.extend(slice_rates(self._done_s, wall_s))
        self._done_s = array("d")

    def latencies(self, endpoints):
        out = array("d")
        for ep in endpoints:
            out.extend(self.latency_ms[ep])
        return out


def sampled_trace(trace_id):
    """About one trace id in 16, chosen by a hash of the id: enough requests
    for a steady serve.http_ms median without holding every id in memory.
    The daemon's ids are a counter, so a rule on the id's digits would keep
    every 16th arrival and could land on one endpoint of an alternating
    mix; a hash does not."""
    return zlib.crc32(trace_id.encode()) % 16 == 0


# -- access log ----------------------------------------------------------------

def aggregate_access_log(lines, round_trip_us):
    """serve.* per-layer metrics from the daemon's --access-log JSONL lines.

    Per endpoint: medians of queue, compute and render time (ms); 0 for an
    endpoint the log never saw. serve.http_ms: median, over the requests in
    both the log and `round_trip_us` (client round trip by trace id), of the
    round trip minus the server's queue + compute + render."""
    parts = ("queue", "compute", "render")
    per_ep = {ep: {part: array("d") for part in parts} for ep in ENDPOINTS}
    http = array("d")
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        ep = rec.get("endpoint")
        if ep not in per_ep:
            continue
        for part in parts:
            per_ep[ep][part].append(rec[f"{part}_us"] / 1e3)
        rtt = round_trip_us.get(rec["trace_id"])
        if rtt is not None:
            http.append((rtt - rec["queue_us"] - rec["compute_us"] -
                         rec["render_us"]) / 1e3)
    out = {}
    for part in parts:
        for ep in ENDPOINTS:
            out[f"serve.{part}_ms.{ep}"] = median(per_ep[ep][part]) or 0.0
    out["serve.http_ms"] = median(http) or 0.0
    return out


# -- result line ---------------------------------------------------------------

def result_line(correct, attempted, failed, values, units):
    """The benchmark's last stdout line."""
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
