"""SEQ-TDBHT vs PAR-TDBHT benchmark, from raw series to dendrogram.

Run from the repository root:

    python3 perfbench/run.py --workload seq-crop-p1 --seed 0 \
        --seconds 25 --trace 0

One iteration is what a user of the library does with a data set: compute
the similarity with ``repro.datasets.correlation_matrices`` and cluster it
with ``repro.spark.pipeline.seq_tdbht`` or ``par_tdbht``. Every iteration's
output (dendrogram merges, group and bubble arrays) is hashed and compared
with a reference, ``seq_tdbht`` at the same prefix: pinned in
``perfbench/pins.json`` for seed 0; for other seeds computed untimed in a
child process on the Spark workloads, and on the driver-only workload the
first timed iteration's output, which later ones must repeat. Every run,
whatever its seed, also checks the seed-0 input against its pin. A mismatch
counts as a failed operation and makes the run exit non-zero.

A run is laid out so that one-off costs never enter the warm timing:

1. set-up: imports, input generation and, on Spark workloads, a ready
   SparkSession. ``setup_s`` is its median over this process and, on the
   driver-only workload, four child processes that only set up;
2. untimed warm-up: the cold first iteration, on the seed-0 input (with
   ``--trace 1`` its time is ``cold.e2e_s``), and, on Spark workloads, one
   more while the JIT settles;
3. warm iterations until ``--seconds`` have passed.

The host's speed drifts by tens of percent over minutes. ``HostReference``
is a fixed piece of single-threaded work in the driver's idiom that runs no
program code; it is timed before and after every warm iteration and three
times right after each set-up. ``e2e_s`` is the mean warm iteration time
rescaled to the host speed at which the reference takes ``REF_NOMINAL_S``:
total wall time / total reference time x ``REF_NOMINAL_S``, the reference
of an iteration being the mean of the two around it. On the driver-only
workload each set-up sample is rescaled by the references after it before
the median is taken; on the Spark workloads set-up is mostly the JVM start,
which the reference does not track, so ``setup_s`` is plain wall time. The
raw wall times go to standard error.

``--trace 1`` spends half the warm time untraced and half with the layer
wrappers of ``perfbench/tracing.py`` installed, and reports the per-layer
medians instead of the end-to-end metrics. The last line of standard output
is the JSON result.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

# dataset id in repro.datasets.UCR_LITE, TMFG prefix, pipeline
WORKLOADS = {
    "seq-crop-p1": (17, 1, "seq"),
    "par-crop-p1": (17, 1, "par"),
    "par-ecg-p50": (6, 50, "par"),
}
# Untimed iterations before the warm ones. The JVM's JIT is still warming
# during the second Spark iteration (about 10% slower than later ones).
WARMUP = {"seq": 1, "par": 2}
# Set-ups per run: this process and set-up-only child processes. A child
# costs about 1.5 s on seq but a JVM start on par, so par takes one.
SETUP_SAMPLES = {"seq": 5, "par": 1}
# HostReference time at the nominal host speed (about its median on the host
# the benchmark was tuned on); timings are rescaled to it
REF_NOMINAL_S = 0.25
MIN_WARM = 3
DEADLINE_S = 150.0  # stop starting iterations; the run must end by 180 s


def _prepare_env() -> None:
    """Keep every file Spark and Python write inside the checkout, and let
    the Python workers import ``repro``."""
    for sub in ("tmp", "spark-local", "warehouse"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    # no JVM perf-data files under /tmp (the launcher JVM reads this)
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(BUILD, "spark-local")
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, SRC)


def _driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to 2..8 (the tier-1 test formula)."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, g))}g"
    except OSError:
        pass
    return "2g"


def start_spark():
    cores = len(os.sched_getaffinity(0))
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join([
        "--master", f"local[{cores}]",
        "--driver-memory", _driver_memory(),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", "spark.driver.extraJavaOptions=-XX:-UsePerfData"
        " -Djava.io.tmpdir=" + os.environ["TMPDIR"],
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        # the program's own session settings (repro.bench.get_spark)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(BUILD, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def jvm_peak_rss_mb() -> float:
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    if proc is None:
        return 0.0
    with open(f"/proc/{proc.pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def load_inputs(workload: str, seed: int):
    from repro.datasets import load_ucr_lite

    dataset, prefix, _ = WORKLOADS[workload]
    return load_ucr_lite(dataset, seed=seed), prefix


def set_up(workload: str, seed: int):
    """What a user pays once per session: imports, inputs and, on Spark
    workloads, the SparkSession. Returns (inputs, prefix, spark, seconds
    since process start)."""
    from repro.spark import pipeline  # noqa: F401 - the entry points

    ds, prefix = load_inputs(workload, seed)
    spark = start_spark() if WORKLOADS[workload][2] == "par" else None
    return ds, prefix, spark, time.perf_counter() - T_START


def tmfg_placement(n: int, prefix: int) -> dict:
    """Where ``par_tdbht`` builds the TMFG: the rule of
    ``repro.bench.run_par_tdbht``, read from the program's own constant."""
    from repro import bench

    return {"spark_tmfg": (n - 4) / prefix <= bench.SPARK_TMFG_MAX_ROUNDS}


def digest(run) -> str:
    import numpy as np

    h = hashlib.sha256()
    res = run.result
    for a in (res.dendrogram.merges, res.assignments.group,
              res.assignments.bubble):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def reference_digest(workload: str, seed: int) -> str:
    from repro import datasets
    from repro.spark.pipeline import seq_tdbht

    ds, prefix = load_inputs(workload, seed)
    S, D = datasets.correlation_matrices(ds.X)
    return digest(seq_tdbht(S, D, prefix=prefix))


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def start_child(mode: str, workload: str, seed: int) -> subprocess.Popen:
    """Run this script in a child process: ``reference`` prints the digest
    of ``seq_tdbht`` on the workload's input, ``setup`` only sets up and
    prints its set-up time and host reference."""
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", mode,
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)


def child_result(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child process failed with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


class HostReference:
    """A fixed piece of work in the program's idiom: binary-heap Dijkstras
    over a numpy distance array and keyed sorts of a dict, on inputs built
    from a fixed seed. It runs no program code, so its time tracks host
    speed alone."""

    def __init__(self):
        rng = random.Random(0)
        self.adj = [[] for _ in range(600)]
        for u in range(600):
            for v in rng.sample(range(600), 6):
                if v != u:
                    w = rng.random()
                    self.adj[u].append((v, w))
                    self.adj[v].append((u, w))
        self.gains = {f: (rng.randrange(600), rng.random())
                      for f in range(2500)}

    def seconds(self) -> float:
        import numpy as np

        adj = self.adj
        t0 = time.perf_counter()
        for src in range(40):
            dist = np.full(len(adj), np.inf)
            dist[src] = 0.0
            heap = [(0.0, src)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    if d + w < dist[v]:
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))
        for _ in range(80):
            sorted(self.gains.items(), key=lambda kv: (-kv[1][1], kv[0]))
        return time.perf_counter() - t0


class Runner:
    """Times iterations of one workload and checks each output."""

    def __init__(self, spark, ds, prefix: int):
        self.spark, self.ds, self.prefix = spark, ds, prefix
        self.placement = tmfg_placement(ds.n, prefix) if spark else {}
        self.host = HostReference()
        self.expected = None  # reference digest
        self.attempted = 0
        self.failed = 0
        self.last = None  # the last iteration's TimedRun

    def once(self, span=contextlib.nullcontext, ds=None):
        """Run one iteration on ``ds`` (default: the run's input) inside
        ``span()``; return (seconds, digest)."""
        gc.collect()
        with span():
            t0 = time.perf_counter()
            self.last = self.run_pipeline(self.ds if ds is None else ds)
            elapsed = time.perf_counter() - t0
        return elapsed, digest(self.last)

    def run_pipeline(self, ds):
        """Raw series to dendrogram, through the public entry points."""
        from repro import datasets
        from repro.spark import pipeline

        S, D = datasets.correlation_matrices(ds.X)
        if self.spark is None:
            return pipeline.seq_tdbht(S, D, prefix=self.prefix)
        return pipeline.par_tdbht(self.spark, S, D, prefix=self.prefix,
                                  **self.placement)

    def check(self, got: str, expected: str | None = None) -> None:
        """Count one operation, failed if ``got`` differs from ``expected``
        (default: the run's reference). With no reference yet, ``got``
        becomes the reference."""
        expected = expected or self.expected
        if expected is None:
            self.expected = got
            print(f"reference digest {got} (first output)", file=sys.stderr)
            return
        self.attempted += 1
        if got != expected:
            self.failed += 1
            print(f"output mismatch: {got} != {expected}", file=sys.stderr)

    def warm(self, seconds: float, min_runs: int, tracer=None):
        """Iterate for ``seconds`` (at least ``min_runs`` times). Return the
        wall times and, for each, the host reference timed around it (the
        mean of the host reference just before and just after)."""
        times, refs = [], [self.host.seconds()]
        t_end = time.perf_counter() + seconds
        while len(times) < min_runs or time.perf_counter() < t_end:
            if times and time.perf_counter() - T_START > DEADLINE_S:
                break
            span = contextlib.nullcontext
            if tracer is not None:
                span = functools.partial(tracer.iteration, len(times))
            elapsed, got = self.once(span)
            refs.append(self.host.seconds())
            times.append(elapsed)
            self.check(got)
        return times, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def setup_ref(host: HostReference) -> float:
    """The host reference right after set-up: median of three."""
    return statistics.median(host.seconds() for _ in range(3))


def setup_scaled(workload: str, setups) -> float:
    """Median set-up time; on the driver-only workload each sample is first
    rescaled to the nominal host speed by the reference timed after it."""
    if WORKLOADS[workload][2] == "seq":
        return statistics.median(x["setup_s"] * REF_NOMINAL_S / x["ref"]
                                 for x in setups)
    return statistics.median(x["setup_s"] for x in setups)


def e2e_s(times, refs) -> float:
    """Mean warm iteration time at the nominal host speed: total wall time
    over total host reference time, times ``REF_NOMINAL_S``."""
    return sum(times) / sum(refs) * REF_NOMINAL_S


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("reference", "setup"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    _prepare_env()
    if args.child == "reference":
        print(json.dumps({"digest": reference_digest(args.workload,
                                                     args.seed)}))
        return 0
    if args.child == "setup":
        _, _, spark, setup_s = set_up(args.workload, args.seed)
        if spark is not None:
            stop_spark(spark)
        print(json.dumps({"setup_s": setup_s,
                          "ref": setup_ref(HostReference())}))
        return 0

    ds, prefix, spark, setup_s = set_up(args.workload, args.seed)
    try:
        runner = Runner(spark, ds, prefix)
        if args.trace:
            metrics = traced_run(args, runner)
        else:
            metrics = timed_run(args, runner, setup_s)
    finally:
        if spark is not None:
            stop_spark(spark)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if runner.failed == 0 else 1


def warm_up(args, runner: Runner, overlap_reference: bool) -> float:
    """Run the untimed iterations and settle the reference digest; return
    the first iteration's wall time.

    The first iteration runs the seed-0 input and is checked against its
    pinned digest, so every run, whatever its seed, compares an output with
    a fixed reference. The reference for the run's own input is its pinned
    digest, else ``seq_tdbht`` in a child process (started alongside the
    first iteration when ``overlap_reference``), else, on the driver-only
    workload, the output of the first timed iteration, which every later
    one must repeat."""
    pins = load_pins()[args.workload]
    seed0 = runner.ds if args.seed == 0 else load_inputs(args.workload, 0)[0]
    runner.expected = pins.get(str(args.seed))
    ref = None
    if runner.expected is None and runner.spark is not None:
        ref = start_child("reference", args.workload, args.seed)
        if not overlap_reference:
            runner.expected, ref = child_result(ref)["digest"], None
    try:
        cold_s, got = runner.once(ds=seed0)
        if ref is not None:
            runner.expected = child_result(ref)["digest"]
    finally:
        if ref is not None and ref.poll() is None:  # the iteration failed
            ref.kill()
            ref.wait()
    runner.check(got, pins["0"])
    if runner.expected is not None:
        print(f"reference digest {runner.expected}", file=sys.stderr)
    for _ in range(WARMUP[WORKLOADS[args.workload][2]] - 1):
        runner.check(runner.once()[1])
    return cold_s


def timed_run(args, runner: Runner, setup_s: float) -> dict:
    """End-to-end metrics, with no wrappers installed."""
    from repro.core.metrics import ari

    setups = [{"setup_s": setup_s, "ref": setup_ref(runner.host)}] + [
        child_result(start_child("setup", args.workload, args.seed))
        for _ in range(SETUP_SAMPLES[WORKLOADS[args.workload][2]] - 1)]
    warm_up(args, runner, overlap_reference=True)
    times, refs = runner.warm(args.seconds, MIN_WARM)
    print("setup wall " + " ".join(f"{x['setup_s']:.4f}" for x in setups)
          + " refs " + " ".join(f"{x['ref']:.4f}" for x in setups),
          file=sys.stderr)
    print(f"warm wall {len(times)}: " + " ".join(f"{t:.4f}" for t in times)
          + " refs " + " ".join(f"{r:.4f}" for r in refs), file=sys.stderr)
    labels = runner.last.result.dendrogram.cut_k(runner.ds.n_classes)
    return {
        "e2e_s": e2e_s(times, refs),
        "setup_s": setup_scaled(args.workload, setups),
        "driver_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ari": ari(runner.ds.y, labels),
    }


def traced_run(args, runner: Runner) -> dict:
    """Per-layer metrics: half the warm time untraced, half traced."""
    sys.path.insert(0, HERE)
    from tracing import Tracer

    cold_s = warm_up(args, runner, overlap_reference=False)
    untraced, untraced_refs = runner.warm(args.seconds / 2, 2)
    sc = runner.spark.sparkContext if runner.spark is not None else None
    tracer = Tracer(sc)
    with tracer.installed():
        traced, traced_refs = runner.warm(args.seconds / 2, 2, tracer=tracer)
    if tracer.missing:
        print("missing spans: " + ", ".join(tracer.missing), file=sys.stderr)
    with open(os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json"),
              "w") as f:
        json.dump([vars(s) for s in tracer.spans], f)

    summaries = [tracer.summary(i) for i in range(len(traced))]
    out = {k: statistics.median(s[k] for s in summaries)
           for k in summaries[0]}
    rounds = runner.last.tmfg.rounds
    out.update({
        "tmfg.rounds": rounds,
        "tmfg.round_s": out["tmfg.busy_s"] / rounds,
        "assign.converging_bubbles":
            len(runner.last.result.assignments.converging),
        "trace.overhead_s":
            e2e_s(traced, traced_refs) - e2e_s(untraced, untraced_refs),
        "trace.missing_spans": len(tracer.missing),
        "cold.e2e_s": cold_s,
        "host.ref_loop_s": statistics.median(untraced_refs + traced_refs),
        "host.e2e_wall_s": statistics.median(untraced),
        "spark.jvm_peak_rss_mb":
            jvm_peak_rss_mb() if runner.spark is not None else 0.0,
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
