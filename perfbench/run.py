#!/usr/bin/env python3
"""The repository benchmark. See perfbench/README.md.

    python3 perfbench/run.py --workload pump_cache|daemon_mixed \
        --seed N --seconds S --trace 0|1

Builds the program from source (into $CARGO_TARGET_DIR, default
.bench_build), generates the workload's inputs from the seed, runs every
phase in its own process, checks every output against known answers, and
prints one JSON line: end-to-end metrics with --trace 0, per-layer metrics
(from a separate traced replay) with --trace 1.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import gen  # noqa: E402

WORKLOADS = ("pump_cache", "daemon_mixed")
NPROC = os.cpu_count() or 1
NJOBS = min(4, NPROC)
CONNS = max(1, NPROC - 2)
# The pump lifecycle runs at one job: there the explored work is the same in
# every run, while at N jobs the edit's parallel import does up to ~10% more
# or less work from run to run (its peak RSS ranged 3.56-3.95 GB).
PUMP_JOBS = 1
SETUP_REPS = 3          # set-up runs per run; setup_s is their median
QUICKSTART_REPS = 16    # repeats of each quickstart lifecycle phase (fastest)
# The pump lifecycle, at the end of a pump_cache run. A warm repeat hits the
# unedited artifact and only rewrites ancestor pointers, so the repeats
# before and after the edit do the same work; warm_repeat_s is the fastest.
PUMP_PHASES = ("cache_cold", "warm_repeat", "warm_repeat", "warm_edit",
               "warm_repeat", "warm_repeat")
TRACE_SAMPLE = 120      # daemon requests replayed by the traced run
OVERHEAD_REPS = 5       # tracing-overhead passes per side (recording off / on)
RUN_BUDGET_S = 170      # every process is killed past this point

PUMP_SPEC = ("pump.psv", "board.pss", "board_edit.pss")
QUICKSTART_SPEC = ("quickstart.psv", "fast.pss", "fast_edit.pss")


class Failure(Exception):
    """A run that cannot produce a result (build error, timeout, crash)."""


class Run:
    """Operations attempted and failed across the whole run."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.answers = {}  # (model, phase) -> per-requirement results

    def op(self, problems, what):
        """Count one operation; `problems` lists what was wrong with it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append("%s: %s" % (what, "; ".join(problems)))

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise Failure("run budget of %d s exhausted" % RUN_BUDGET_S)
        return left


# --- processes ---------------------------------------------------------------

def wait_rusage(proc, timeout):
    """wait4() the child with a kill timer; returns (status, ru_maxrss MB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise Failure("%s timed out" % proc.args[0])
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_process(run, cmd, log):
    """Run one phase process; returns (wall s, peak RSS MB, exit code)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        code, rss = wait_rusage(proc, run.remaining())
        return time.perf_counter() - start, rss, code


def start_server(bins, cache_dir, log):
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            [bins["psv_serve"], "--port", "0", "--cache-dir", cache_dir, "--quiet"],
            stdout=subprocess.PIPE, stderr=err, text=True)
    line = proc.stdout.readline()
    if not line.startswith("psv_serve: listening on "):
        proc.kill()
        proc.wait()
        raise Failure("psv_serve did not become ready: %r" % line)
    return proc, int(line.rsplit(":", 1)[1])


def stop_server(run, proc):
    """SIGTERM drain; returns the server's peak RSS in MB."""
    proc.send_signal(signal.SIGTERM)
    code, rss = wait_rusage(proc, run.remaining())
    proc.stdout.close()
    if code != 0:
        raise Failure("psv_serve exited with %d" % code)
    return rss


def psvbench(run, bins, args, log):
    wall, _, code = run_process(run, [bins["psvbench"]] + args, log)
    if code != 0:
        raise Failure("psvbench %s failed (exit %d, see %s)" % (args[0], code, log))
    return wall


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure("no repository sources next to perfbench/; nothing to build")
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    with open(log, "w") as out:
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step = subprocess.run(
                ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                stdout=out, stderr=subprocess.STDOUT)
            if step.returncode != 0:
                raise Failure("cmake configure failed, see %s" % log)
        step = subprocess.run(["cmake", "--build", cmake_dir, "-j", str(NJOBS)],
                              stdout=out, stderr=subprocess.STDOUT)
        if step.returncode != 0:
            raise Failure("build failed, see %s" % log)
    return {name: os.path.join(cmake_dir, name)
            for name in ("psv_verify", "psv_serve", "psvbench")}


# --- known answers -----------------------------------------------------------

def expected_answers(known, edit):
    """Per requirement: PIM maximum, Lemma-2 total, verified M-C maximum and
    verdict; plus the Lemma-1 figures. The edit raises one output ceiling,
    which raises that Output-Delay and the edited requirements' Lemma-2
    totals and verified maxima by the same amount."""
    lemma1 = dict(known["lemma1"])
    reqs = {}
    for text in known["requirements"]:
        name = text.split(":", 1)[0]
        reqs[name] = {"pim_max_delay": known["pim_max_delay"][name],
                      "lemma2_total": known["lemma2_total"][name],
                      "psm_mc_delay": known["verified_mc"][name],
                      "passed": known["passed"][name]}
    if edit is not None:
        spec = known["edit"]
        lemma1[spec["output"]] = edit
        for name in spec["requirements"]:
            reqs[name]["lemma2_total"] += edit - spec["base"]
            reqs[name]["psm_mc_delay"] += edit - spec["base"]
    return reqs, lemma1


def check_requirements(got, known, edit):
    """Compare one phase's per-requirement results with the known answers."""
    reqs, lemma1 = expected_answers(known, edit)
    problems = []
    if sorted(r["name"] for r in got) != sorted(reqs):
        return ["requirements %s" % [r["name"] for r in got]]
    for r in got:
        for key, want in reqs[r["name"]].items():
            if r[key] != want:
                problems.append("%s %s=%s, expected %s" % (r["name"], key, r[key], want))
        if "lemma1" in r and r["lemma1"] != {k: v for k, v in lemma1.items() if k in r["lemma1"]}:
            problems.append("%s Lemma-1 %s, expected %s" % (r["name"], r["lemma1"], lemma1))
    return problems


def stats_requirements(path):
    with open(path) as f:
        scheme = json.load(f)["batch"][0]["schemes"][0]
    return [{"name": r["name"], "pim_max_delay": r["pim_max_delay"],
             "lemma2_total": r["lemma2_total"], "psm_mc_delay": r["psm_mc_delay"],
             "passed": r["passed"] and scheme["constraints_hold"]}
            for r in scheme["requirements"]]


# --- the psv_verify lifecycle ------------------------------------------------

def verify_phase(run, bins, work, spec, known, name, jobs, edit=None, cache_dir=None):
    """One psv_verify process, checked against the known answers; returns
    (wall s, peak RSS MB) and records its results in run.answers."""
    model, scheme, edited = spec
    stats = os.path.join(work, "stats-%s.json" % name)
    cmd = [bins["psv_verify"], os.path.join(work, model),
           os.path.join(work, edited if edit is not None else scheme)]
    cmd += known["requirements"]
    cmd += ["--jobs", str(jobs), "--stats-json", stats]
    cmd += ["--cache-dir", cache_dir] if cache_dir else ["--no-cache"]
    wall, rss, code = run_process(run, cmd, os.path.join(work, "phases.log"))
    problems = [] if code == 0 else ["exit %d" % code]
    got = []
    if os.path.isfile(stats):
        got = stats_requirements(stats)
        problems += check_requirements(got, known, edit)
        os.remove(stats)
    else:
        problems.append("no stats written")
    run.op(problems, "%s %s" % (model, name))
    run.answers[(model, name)] = got
    return wall, rss


def cache_files(path):
    return [os.path.join(base, name) for base, _, names in os.walk(path) for name in names]


def dir_mb(path):
    return sum(os.path.getsize(f) for f in cache_files(path)) / (1024.0 * 1024.0)


def settle_cache(path):
    """Flush the previous phase's artifact writes and read the artifacts
    back, so the next phase neither competes with write-back nor depends on
    what other guests left of the page cache (not timed)."""
    os.sync()
    for name in cache_files(path):
        with open(name, "rb") as f:
            while f.read(1 << 23):
                pass


# A lifecycle repeated `reps` times returns every repeat's wall time per
# phase, and the metric is the fastest. The phases repeated are the
# quickstart probes (tens of ms), and this guest's speed switches between
# two levels ~1.5x apart several times a second: the median of a few samples
# jumps between the levels, the fastest does not. The repeats run in two
# blocks, before and after the daemon loop, so that a slow spell of a few
# seconds cannot cover all of them.

def cold_lifecycle(run, bins, work, spec, known, reps):
    """Cold, no cache, at 1 job and at NJOBS jobs."""
    walls = {"cold_1job": [], "cold_njobs": []}
    for _ in range(reps):
        for phase, jobs in (("cold_1job", 1), ("cold_njobs", NJOBS)):
            walls[phase].append(verify_phase(run, bins, work, spec, known, phase, jobs)[0])
    return walls


class CacheLifecycle:
    """Cache-cold, warm repeat and one-constant edit phases on one fresh
    cache directory, run one at a time with `phase`. A warm repeat may run
    several times, also after the edit: it hits the unedited artifact and
    only rewrites ancestor pointers, so every repeat does the same work."""

    def __init__(self, run, bins, work, spec, known, edit, jobs):
        self.args = (run, bins, work, spec, known)
        self.edit = edit
        self.jobs = jobs
        self.walls = {"cache_cold": [], "warm_repeat": [], "warm_edit": [], "cache_disk_mb": []}
        self.rss = []
        self.cache_dir = os.path.join(work, "cache-%s" % spec[0])
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def phase(self, name):
        settle_cache(self.cache_dir)
        wall, peak = verify_phase(*self.args, name, self.jobs,
                                  self.edit if name == "warm_edit" else None, self.cache_dir)
        self.walls[name].append(wall)
        self.rss.append(peak)
        if name == "warm_edit":
            self.walls["cache_disk_mb"].append(dir_mb(self.cache_dir))

    def close(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def cache_lifecycle(run, bins, work, spec, known, edit, reps, jobs):
    """The whole lifecycle `reps` times, each on a fresh cache directory;
    returns every phase's wall times and the cache sizes after the edit."""
    walls = {}
    for _ in range(reps):
        life = CacheLifecycle(run, bins, work, spec, known, edit, jobs)
        for phase in ("cache_cold", "warm_repeat", "warm_edit"):
            life.phase(phase)
        life.close()
        for key, values in life.walls.items():
            walls.setdefault(key, []).extend(values)
    return walls


# --- metrics -----------------------------------------------------------------

def percentile(values, q):
    """q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def daemon_metrics(load):
    verify, synth = load["verify_ms"], load["synth_ms"]
    if len(verify) < 2 or len(synth) < 2:
        raise Failure("the daemon loop completed too few requests to measure")
    return {
        "verify_p50_ms": statistics.median(verify),
        "verify_p99_ms": percentile(verify, 99),
        "synth_p50_ms": statistics.median(synth),
        "synth_p90_ms": percentile(synth, 90),
        "req_per_s": (len(verify) + len(synth)) / load["elapsed_s"],
    }


class Trace:
    """Spans of one traced process (Chrome trace-event JSON)."""

    def __init__(self, path):
        with open(path) as f:
            data = json.load(f)
        self.other = data["otherData"]
        self.spans = {e["args"]["id"]: e for e in data["traceEvents"]}
        self.children = {}
        for e in self.spans.values():
            self.children.setdefault(e["args"]["parent"], []).append(e)

    def named(self, name, phase=None):
        return [e for e in self.spans.values()
                if e["name"] == name and (phase is None or self.phase(e) == phase)]

    def phase(self, span):
        while span["args"]["parent"] >= 0:
            span = self.spans[span["args"]["parent"]]
        return span["name"]

    def self_ms(self, span):
        """Duration minus the union of the intervals its children cover."""
        intervals = sorted((c["ts"], c["ts"] + c["dur"]) for c in self.children.get(span["args"]["id"], []))
        covered, end = 0.0, None
        for lo, hi in intervals:
            if end is None or lo > end:
                covered += hi - lo
                end = hi
            elif hi > end:
                covered += hi - end
                end = hi
        return (span["dur"] - covered) / 1e3


def layer_metrics(traces, overhead_ms, server):
    def spans(name, phase=None):
        return [e for t in traces for e in t.named(name, phase)]

    def total_ms(name, phase=None):
        return sum(e["dur"] for e in spans(name, phase)) / 1e3

    def arg_sum(name, key, phase=None):
        return sum(e["args"].get(key, 0) for e in spans(name, phase))

    def ratio(a, b):
        return a / b if b else 0.0

    explores = spans("mc.explore")
    one_job = [e for e in explores if e["args"]["jobs"] == 1]
    cold = spans("mc.explore", "phase.cold_1job") + spans("mc.explore", "phase.cold_njobs")
    trips = [e for e in spans("net.roundtrip") if not e["args"].get("synth")]
    reused = arg_sum("mc.explore", "warm_reused")
    revalidated = arg_sum("mc.explore", "warm_revalidated")
    return {
        "lang.parse_ms": total_ms("lang.parse"),
        "core.transform_ms": total_ms("core.transform"),
        "ta.fingerprint_ms": total_ms("ta.fingerprint"),
        "core.verify_ms": total_ms("core.verify"),
        "core.verify_self_ms": sum(t.self_ms(e) for t in traces for e in t.named("core.verify")),
        "core.pool_hit_ratio": ratio(sum(e["args"]["cache_hits"] for e in trips),
                                     sum(e["args"]["cache_hits"] + e["args"]["cache_misses"]
                                         for e in trips)),
        "core.synth_ms": total_ms("core.synth"),
        "core.synth_explored": arg_sum("core.synth", "explored"),
        "core.synth_pruned_ratio": ratio(arg_sum("core.synth", "pruned"),
                                         arg_sum("core.synth", "candidates")),
        "mc.explore_ms": total_ms("mc.explore"),
        "mc.states_stored": arg_sum("mc.explore", "states_stored"),
        "mc.states_explored": arg_sum("mc.explore", "states_explored"),
        "mc.transitions_fired": arg_sum("mc.explore", "transitions_fired"),
        "mc.subsumed": arg_sum("mc.explore", "subsumed"),
        "mc.states_per_s": ratio(sum(e["args"]["states_explored"] for e in one_job),
                                 sum(e["dur"] for e in one_job) / 1e6),
        "mc.parallel_speedup": ratio(total_ms("mc.explore", "phase.cold_1job"),
                                     total_ms("mc.explore", "phase.cold_njobs")),
        "mc.bytes_per_state": ratio(sum(e["args"]["rss_growth"] for e in cold),
                                    sum(e["args"]["states_stored"] for e in cold)),
        "mc.artifact_load_ms": total_ms("mc.artifact_load"),
        "mc.artifact_store_ms": total_ms("mc.artifact_store"),
        "mc.artifact_bytes_per_state": ratio(arg_sum("mc.artifact_store", "bytes"),
                                             arg_sum("mc.artifact_store", "states")),
        "mc.warm_reused": reused,
        "mc.warm_revalidated": revalidated,
        "mc.fresh_states": arg_sum("mc.explore", "states_explored")
                           - arg_sum("mc.explore", "warm_seed_expansions"),
        "mc.warm_reuse_ratio": ratio(reused, reused + revalidated),
        "net.encode_ms": total_ms("net.encode"),
        "net.decode_ms": total_ms("net.decode"),
        "net.wait_ms": sum(e["dur"] / 1e3 - e["args"]["stage_ms"] for e in trips),
        "net.busy_rejects": server["requests_busy"],
        "server.explorations_total": server["explorations_total"],
        "server.cache_hits_total": server["cache_hits_total"],
        "server.cache_misses_total": server["cache_misses_total"],
        "trace.overhead_ms": overhead_ms,
    }


# --- the run -----------------------------------------------------------------

def generate(work, seed):
    """Write every input the program sees; returns (plan path, edits)."""
    inputs = os.path.join(work, "inputs")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    edits = {"pump": gen.pump_inputs(ROOT, inputs, seed),
             "quickstart": gen.quickstart_inputs(ROOT, inputs, seed)}
    return gen.daemon_plan(ROOT, inputs, seed, "quickstart.psv"), edits


def setup(run, bins, work, seed):
    """Generate the inputs and start psv_serve, SETUP_REPS times, keeping the
    last. Returns (server, port, plan, edits, per-rep seconds)."""
    # Let write-back and freeing left over from an earlier run finish first.
    os.sync()
    times = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        plan, edits = generate(work, seed)
        cache_dir = os.path.join(work, "serve-cache")
        shutil.rmtree(cache_dir, ignore_errors=True)
        server, port = start_server(bins, cache_dir, os.path.join(work, "serve.log"))
        times.append(time.perf_counter() - start)
        if rep + 1 < SETUP_REPS:
            stop_server(run, server)
    return server, port, plan, edits, times


def quickstart_probes(run, bins, work, workload, known, edits, reps):
    """The psv_verify lifecycle phases this workload does not run on the
    pump, on quickstart, `reps` times; returns each phase's wall times."""
    inputs = os.path.join(work, "inputs")
    qs = known["quickstart"]
    walls = cold_lifecycle(run, bins, inputs, QUICKSTART_SPEC, qs, reps)
    if workload != "pump_cache":
        walls.update(cache_lifecycle(run, bins, inputs, QUICKSTART_SPEC, qs,
                                     edits["quickstart"], reps, NJOBS))
    return walls


def traced(run, bins, work, trace_dir, workload, known, edits, plan):
    """The traced run: every lifecycle phase of this workload replayed
    in-process through the layer functions, and a sample of the daemon plan
    replayed over the wire and in-process, all with spans.

    Bounds and verdicts of every replayed phase must equal the known answers
    and, where this run also ran the phase untraced, the untraced results.
    The tracing overhead is measured in the replaying process: the same
    replay with recording off and on, alternating, fastest against fastest,
    over the quickstart lifecycle and the daemon sample. (Replaying the pump
    phases that often would not fit the run's time limit; they carry the
    same spans per request as the quickstart phases.)"""
    inputs = os.path.join(work, "inputs")
    os.makedirs(trace_dir, exist_ok=True)
    traces = []
    overhead_ms = 0.0

    def replay(spec, answers, mode, edit, jobs):
        nonlocal overhead_ms
        model, scheme, edited = spec
        out = os.path.join(trace_dir, "%s-%s.json" % (model.split(".")[0], mode))
        reps = OVERHEAD_REPS if spec == QUICKSTART_SPEC else 0
        cmd = ["replay", "--mode", mode, "--model", os.path.join(inputs, model),
               "--scheme", os.path.join(inputs, scheme), "--jobs", str(jobs),
               "--overhead-reps", str(reps), "--out", out]
        for text in answers["requirements"]:
            cmd += ["--req", text]
        if mode == "cache":
            cmd += ["--edit-scheme", os.path.join(inputs, edited),
                    "--cache-dir", os.path.join(work, "replay-cache")]
        psvbench(run, bins, cmd, os.path.join(work, "replay.log"))
        trace = Trace(out)
        traces.append(trace)
        overhead_ms += trace.other["overhead_ms"]
        keys = ("name", "pim_max_delay", "lemma2_total", "psm_mc_delay", "passed")
        for phase, result in trace.other["phases"].items():
            problems = check_requirements(result["requirements"], answers,
                                          edit if phase == "warm_edit" else None)
            if (model, phase) in run.answers:
                untraced = [{k: r[k] for k in keys} for r in run.answers[(model, phase)]]
                if [{k: r[k] for k in keys} for r in result["requirements"]] != untraced:
                    problems.append("differs from the untraced run")
            run.op(problems, "traced %s %s" % (model, phase))

    pump, qs = known["pump"], known["quickstart"]
    replay(QUICKSTART_SPEC, qs, "cold", None, NJOBS)
    if workload == "pump_cache":
        replay(PUMP_SPEC, pump, "cache", edits["pump"], PUMP_JOBS)
    else:
        replay(QUICKSTART_SPEC, qs, "cache", edits["quickstart"], NJOBS)

    cache_dir = os.path.join(work, "trace-serve-cache")
    server, port = start_server(bins, cache_dir, os.path.join(work, "serve.log"))
    out = os.path.join(trace_dir, "daemon.json")
    try:
        psvbench(run, bins, ["daemon-trace", "--plan", plan, "--port", str(port),
                             "--sample", str(TRACE_SAMPLE), "--threads", str(NJOBS),
                             "--overhead-reps", str(OVERHEAD_REPS),
                             "--cache-dir", os.path.join(work, "daemon-trace-cache"),
                             "--out", out],
                 os.path.join(work, "daemon-trace.log"))
    finally:
        stop_server(run, server)
    trace = Trace(out)
    traces.append(trace)
    run.attempted += trace.other["attempted"]
    run.failed += trace.other["failed"]
    run.reasons += ["traced daemon: %s x%d" % kv for kv in trace.other["failures"].items()]
    overhead_ms += trace.other["overhead_ms"]
    return layer_metrics(traces, overhead_ms, trace.other["server"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bins = build(build_dir)
    run = Run(time.monotonic() + RUN_BUDGET_S)
    work = os.path.join(build_dir, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(os.path.join(HERE, "known_answers.json")) as f:
        known = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    server = None
    try:
        if args.trace:
            # The traced run needs no set-up timing and no untraced daemon
            # loop: daemon-trace drives its own server.
            plan, edits = generate(work, args.seed)
            quickstart_probes(run, bins, work, args.workload, known, edits, 1)
            trace_dir = os.path.join(build_dir, "traces", "%s-seed%d-%d" % (
                args.workload, args.seed, os.getpid()))
            metrics = traced(run, bins, work, trace_dir, args.workload, known, edits, plan)
        else:
            server, port, plan, edits, setup_times = setup(run, bins, work, args.seed)
            walls = quickstart_probes(run, bins, work, args.workload, known, edits,
                                      QUICKSTART_REPS // 2)
            # The daemon mix runs the same way, at the same point of the run,
            # on every workload: before any pump phase. A loop that followed
            # the pump's phases, which allocate and free gigabytes, spread
            # several times wider than the same loop on daemon_mixed.
            load_out = os.path.join(work, "load.json")
            psvbench(run, bins, ["load", "--plan", plan, "--port", str(port),
                                 "--conns", str(CONNS), "--seconds", str(args.seconds),
                                 "--setup-reps", str(SETUP_REPS), "--threads", str(NJOBS),
                                 "--out", load_out],
                     os.path.join(work, "load.log"))
            with open(load_out) as f:
                load = json.load(f)
            server_rss = stop_server(run, server)
            server = None
            run.attempted += load["attempted"]
            run.failed += load["failed"]
            run.reasons += ["daemon: %s x%d" % kv for kv in load["failures"].items()]

            later = quickstart_probes(run, bins, work, args.workload, known, edits,
                                      QUICKSTART_REPS - QUICKSTART_REPS // 2)
            for phase, values in later.items():
                walls[phase] += values
            pump = None
            if args.workload == "pump_cache":
                pump = CacheLifecycle(run, bins, os.path.join(work, "inputs"), PUMP_SPEC,
                                      known["pump"], edits["pump"], PUMP_JOBS)
                for phase in PUMP_PHASES:
                    pump.phase(phase)
                pump.close()
                walls.update(pump.walls)
            metrics = daemon_metrics(load)
            # Set-up: inputs, server start and references (median of
            # SETUP_REPS), plus the daemon warm-up, which runs once.
            metrics["setup_s"] = statistics.median(
                s + r for s, r in zip(setup_times, load["ref_s"])) + load["warmup_s"]
            metrics["peak_rss_mb"] = max(pump.rss) if pump is not None else server_rss
            metrics.update({k if k == "cache_disk_mb" else k + "_s": min(v)
                            for k, v in walls.items()})
            metrics["ok_frac"] = 1.0 - run.failed / max(1, run.attempted)
    finally:
        if server is not None:
            server.kill()
            server.wait()
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise Failure("metrics %s differ from BENCHMARK.json" % sorted(set(metrics) ^ set(units)))
    for reason in run.reasons[:20]:
        print("FAILED %s" % reason, file=sys.stderr)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)}}
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
