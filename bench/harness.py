"""Runs one workload for a fixed time and reduces it to metrics.

The end-to-end metrics come from a run with tracing off.  The
per-layer metrics come from a separate traced run, in which every
other op is traced and the ops in between are not, so the tracing
overhead is the difference of the two medians.  Nothing runs
concurrently, so no layer ever waits for another: wait time is zero
by construction and is not reported.

End-to-end times are rescaled by the machine's speed, measured while
the ops run (see `Clock`); the report keeps the raw times beside them.
"""

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter

import numpy as np

from tracing import Tracer, self_times
from workloads import WORKLOADS

SETUPS = 3


def _reference_work(matrix):
    # the mix kgzsl's layers run: string hashing, seeding small random
    # streams, dict and sort churn in Python and small float64 matmuls;
    # it never changes, so its time tracks only how fast the machine is
    # running at the moment
    table = {}
    x = np.ones(matrix.shape[0])
    for i in range(200):
        digest = hashlib.sha256(f"probe\x1f{i}".encode()).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))
        table[str(i)] = int(rng.random(20).argmax())
        x = np.tanh(matrix @ x)
        e = np.exp(x - x.max())
        x = (e / e.sum()) @ matrix + float(x @ (matrix @ e)) * 1e-3
        sorted((v, k) for k, v in list(table.items())[-8:])


def probe_readings(probes):
    """Each probe as the median of itself and its neighbours.

    One probe hit by a hiccup then does not distort the stretches on
    either side of it.
    """
    return [statistics.median(probes[max(0, i - 1):i + 2]) for i in range(len(probes))]


class Clock:
    """Op timer that rescales time by the machine's speed.

    On a shared machine one core's speed swings by tens of percent
    within a second, which swamps the differences the benchmark exists
    to show.  So every EVERY_S seconds the clock pauses and times a
    fixed piece of reference work (a probe).  An op's time is cut into
    stretches at the probes, and each stretch is rescaled by the probes
    on either side of it: a rescaled second is a second on a machine
    where the reference work takes REFERENCE_S, about its fastest time
    on a 2.1 GHz Xeon vCPU (9 to 12 ms there under load).  Ops call
    `tick` at their natural boundaries so that long ops are cut too; a
    tick is a no-op unless a probe is due.  Raw times are kept beside
    the rescaled ones.

    The garbage collector is off while a probe runs: a collection there
    would walk the op's live heap, and the reading would then depend on
    the program's memory and not only on the machine's speed.
    """

    REFERENCE_S = 0.006
    EVERY_S = 0.2

    def __init__(self):
        self._matrix = np.random.default_rng(0).standard_normal((16, 16)) / 4.0
        self.probes = []
        self._stretches = []
        self._probe()

    def _probe(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _reference_work(self._matrix)
            self._since = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.probes.append(self._since - start)

    def start(self):
        self._stretches = []
        self._mark = time.perf_counter()

    def tick(self):
        now = time.perf_counter()
        if now - self._since >= self.EVERY_S:
            self._stretches.append((now - self._mark, len(self.probes) - 1))
            self._probe()
            self._mark = time.perf_counter()

    def stop(self):
        """Raw seconds and stretches of the op just run."""
        self._stretches.append((time.perf_counter() - self._mark, len(self.probes) - 1))
        return sum(s for s, _ in self._stretches), self._stretches

    def idle(self):
        """Between ops: probe if one is due."""
        if time.perf_counter() - self._since >= self.EVERY_S:
            self._probe()

    def close(self):
        """Probe once more, so the last stretch has a probe on each side."""
        self._probe()
        self.readings = probe_readings(self.probes)

    def rescale(self, stretches):
        """Rescaled seconds of one op's stretches; call after `close`."""
        read = self.readings
        return sum(
            seconds * 2.0 * self.REFERENCE_S / (read[i] + read[i + 1])
            for seconds, i in stretches
        )


# items_per_s and op_ms_p50 are in rescaled time (see `Clock`), and
# their units say so; setup_s is rescaled too, but a set-up time is
# reported in plain seconds by the benchmark's contract
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/ref-s",
    "op_ms_p50": "ref-ms",
}

# span name -> per-layer metric holding that layer's self time per op
BUSY = {
    "aggregators": "aggregators.busy_s",
    "autodiff.backward": "autodiff.backward_busy_s",
    "autodiff.adam": "autodiff.adam_busy_s",
    "zeroshot.score": "zeroshot.score_busy_s",
    "zeroshot.predict": "zeroshot.predict_busy_s",
    "encoders": "encoders.busy_s",
    "sampler": "sampler.busy_s",
    "kg.ingest": "kg.ingest_busy_s",
    "evaluation": "evaluation.busy_s",
    "op": "op.self_s",
}

# What each per-layer metric should move (end-to-end metric, workload):
#   aggregators.*              items_per_s on train-attr and infer-wide
#   autodiff.*                 items_per_s on train-attr; none on the others
#   zeroshot.score_busy_s      items_per_s on train-attr
#   zeroshot.predict_*         items_per_s on infer-wide
#   encoders.busy_s            items_per_s on train-attr and infer-wide
#   sampler.*, kg.ingest_*     items_per_s on sample-big; setup_s elsewhere
#   synth.generate_s           setup_s everywhere
#   evaluation.busy_s          items_per_s on infer-wide
#   op.self_s, trace.*         nothing: the benchmark's own glue and cost
PER_LAYER = {
    **{metric: "s/op" for metric in BUSY.values()},
    "aggregators.encode_calls": "count/op",
    "aggregators.dag_nodes_per_encode": "count",
    "aggregators.tape_nodes_per_encode": "count",
    "autodiff.tape_nodes_per_step": "count",
    "zeroshot.predict_calls": "count/op",
    "sampler.calls": "count/op",
    "sampler.misses": "count/op",
    "sampler.hit_ratio": "ratio",
    "synth.generate_s": "s",
    "op.total_s": "s/op",
    "trace.overhead_s": "s/op",
}


def _git(*args):
    # the search for a repository stops at the working directory, so a
    # checkout that is not a repository reports None, not a parent's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=30, env=env, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed, workload):
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "workload": workload.params(),
    }


def tail(times):
    """The highest of p99.9, p99 and p90 with at least 10 samples beyond it, in ms."""
    ordered = sorted(times)
    for q in (99.9, 99.0, 90.0):
        beyond = int(len(ordered) * (100.0 - q) / 100.0)
        if beyond >= 10:
            return {"percentile": q, "ms": 1000.0 * ordered[-beyond - 1], "samples": len(ordered)}
    return None


def layer_metrics(tracer, traced_s, untraced_s, generate_s):
    """Per-layer metrics from the spans and counters of the traced ops.

    Layer times are raw span seconds.  The overhead compares the
    rescaled times of the traced and the untraced ops (`traced_s`,
    `untraced_s`), since the two kinds ran at different moments.
    """
    spans = tracer.spans
    ops = [s for s in spans if s.name == "op"]
    n = len(ops)
    own = self_times(spans)
    calls = Counter(s.name for s in spans)
    counts = tracer.counts
    encodes = calls["aggregators"]
    out = {metric: own[name] / n for name, metric in BUSY.items()}
    out.update({
        "aggregators.encode_calls": encodes / n,
        "aggregators.dag_nodes_per_encode": counts["features.lookups"] / encodes if encodes else 0.0,
        "aggregators.tape_nodes_per_encode": counts["aggregators.tape_nodes"] / encodes if encodes else 0.0,
        "autodiff.tape_nodes_per_step": counts["autodiff.tape_nodes"] / n,
        "zeroshot.predict_calls": calls["zeroshot.predict"] / n,
        "sampler.calls": counts["sampler.calls"] / n,
        "sampler.misses": counts["sampler.misses"] / n,
        "sampler.hit_ratio": (
            1.0 - counts["sampler.misses"] / counts["sampler.calls"] if counts["sampler.calls"] else 0.0
        ),
        "synth.generate_s": statistics.median(generate_s),
        "op.total_s": sum(s.end - s.start for s in ops) / n,
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced_s),
    })
    total = out["op.total_s"]
    shares = {metric: own[name] / n / total for name, metric in BUSY.items()}
    accounted = sum(own[name] for name in BUSY) / n
    trace = {
        "traced_ops": n,
        "self_time_share": shares,
        "unaccounted_s_per_op": total - accounted,
        "overhead_share": out["trace.overhead_s"] / statistics.median(untraced_s),
    }
    return out, trace


def write_spans(spans, path):
    """One JSON object per span, in the order the spans were opened."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")


def run_workload(name, seed, seconds, trace, size="full", workdir=".bench_out"):
    """(report, result) for one run; result is the benchmark's last line.

    A traced run also writes its spans to `workdir`.
    """
    tracer = Tracer() if trace else None
    clock = Clock()
    setups, generate_s = [], []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
        clock.start()
        workload = WORKLOADS[name](seed, size, tracer, workdir)
        setups.append(clock.stop())
        clock.idle()
        generate_s.append(workload.generate_s)
    try:
        report, result = _measure(workload, seed, seconds, tracer, clock, setups, generate_s)
    finally:
        workload.close()
    if tracer is not None:
        os.makedirs(workdir, exist_ok=True)
        report["spans_file"] = os.path.join(workdir, f"spans-{name}-seed{seed}.jsonl")
        write_spans(tracer.spans, report["spans_file"])
    return report, result


def _measure(workload, seed, seconds, tracer, clock, setups, generate_s):
    if tracer is not None:
        tracer.reset()
    # a traced run probes only between ops: a probe inside an op would
    # land in some layer's span
    tick = clock.tick if tracer is None else (lambda: None)
    ops = {False: [], True: []}
    items = 0
    errors, failures = [], []
    attempted = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (workload.needs_more() and not errors):
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.op = attempted
            tracer.begin("op")
        clock.start()
        try:
            done, output = workload.op(traced, tick)
        except Exception as exc:  # a failed op is counted and recorded; the run goes on
            errors.append(f"op {attempted}: {type(exc).__name__}: {exc}")
            continue
        finally:
            timing = clock.stop()
            if traced:
                tracer.end()
            clock.idle()
        ops[traced].append(timing)
        items += done
        try:
            failures += workload.check(output, traced)
        except Exception as exc:  # a check that cannot run is a failed check
            failures.append(f"check of op {attempted} raised {type(exc).__name__}: {exc}")
    clock.close()
    if tracer is not None:
        tracer.op = None

    extra = {}
    try:
        extra, final_failures = workload.finish()
        failures += final_failures
    except Exception as exc:  # same as a failed check
        failures.append(f"final checks raised {type(exc).__name__}: {exc}")
    if tracer is not None and not ops[True]:
        failures.append("no traced op completed")
    untraced = ops[False]
    raw = [seconds for seconds, _ in untraced]
    report = {
        "workload": workload.name,
        "environment": environment(seed, workload),
        "setup_s_raw": [seconds for seconds, _ in setups],
        "ops_attempted": attempted,
        "ops_failed": len(errors),
        "op_errors": errors[:20],
        "check_failures": failures[:20],
        "untraced_ops": len(untraced),
        **extra,
    }
    correct = not failures and bool(untraced)
    metrics, units = {}, END_TO_END
    if correct:
        report["op_ms_p50_raw"] = 1000.0 * statistics.median(raw)
        report["op_ms_tail_raw"] = tail(raw)
        if tracer is None:
            scaled = [clock.rescale(stretches) for _, stretches in untraced]
            report["op_ms_tail"] = tail(scaled)
            report["items_per_s_raw"] = items / sum(raw)
            report["probe_ms"] = {
                "count": len(clock.probes),
                "min": 1000.0 * min(clock.probes),
                "p50": 1000.0 * statistics.median(clock.probes),
                "max": 1000.0 * max(clock.probes),
            }
            metrics = {
                "setup_s": statistics.median(clock.rescale(stretches) for _, stretches in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "items_per_s": items / sum(scaled),
                "op_ms_p50": 1000.0 * statistics.median(scaled),
            }
        else:
            metrics, report["trace"] = layer_metrics(
                tracer,
                [clock.rescale(stretches) for _, stretches in ops[True]],
                [clock.rescale(stretches) for _, stretches in untraced],
                generate_s,
            )
            units = PER_LAYER
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report, result
