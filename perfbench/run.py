#!/usr/bin/env python3
"""The repository benchmark: real `seldon` / `seldond` runs on a corpus on
disk, end to end, plus an in-process traced run for per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout. It builds the program and the
benchmark's helper binary from source under .bench_build/, writes the workload's
seeded corpus there, measures, checks every output, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. The line before it records the host and per-operation detail.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

JOBS = 4
THRESHOLD = 0.1
SETUP_REPEATS = 3
PROCESS_START_REPEATS = 21

WORKLOADS = {
    # name: (projects, kind)
    "learn_cold": (1200, "learn"),
    "relearn_edit": (1200, "relearn"),
    "serve_read": (1200, "serve"),
    "serve_write": (300, "serve"),
}
# Macro-F1 floor of a learned spec at threshold 0.1, by corpus size: the
# seed commit scored at least 0.963 (1200 projects) and 0.851 (300) on
# seeds 1-12, so a spec below these has lost quality (see README.md).
SPEC_F1_FLOOR = {1200: 0.95, 300: 0.82}
WRITER_PERIOD_S = 1.0
TRACE_ROOTS = ("learn", "request", "probe", "setup")

BUILD_DIR = os.path.join(".bench_build", "cmake")
SELDON = os.path.join(BUILD_DIR, "seldon", "tools", "seldon")
SELDOND = os.path.join(BUILD_DIR, "seldon", "tools", "seldond")
TOOL = os.path.join(BUILD_DIR, "benchtool")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------

def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(needed):
            raise BenchError("not a checkout of the repository: %s is "
                             "missing (run from the repository root)" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(".bench_build", "build.log"), "ab") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", "perfbench/tool", "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=out, stderr=out, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(JOBS),
                        "--target", "seldon", "seldond", "benchtool"],
                       stdout=out, stderr=out, check=True)


def host_row():
    row = json.loads(subprocess.run([TOOL, "host"], capture_output=True,
                                    text=True, check=True).stdout)
    build_type = "unknown"
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    commit = "unknown"
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        commit = r.stdout.strip() or commit
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            digest.update(p.encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    row.update(build_type=build_type, commit=commit,
               source_sha256=digest.hexdigest()[:16])
    return row


# --- processes ----------------------------------------------------------

def run_timed(argv, stdout=subprocess.DEVNULL):
    """Runs argv to completion; (seconds, peak RSS in MB, rc, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, err.decode()


def process_start_s():
    """Median wall time of a process that starts and exits at once."""
    samples = []
    for _ in range(PROCESS_START_REPEATS):
        seconds, _, rc, _ = run_timed([SELDON, "seed"])
        if rc != 0:
            raise BenchError("seldon seed failed")
        samples.append(seconds)
    return statistics.median(samples)


class Daemon:
    """One `seldond --socket` process; started() returns the seconds from
    spawn to the first answered `status`."""

    def __init__(self, work, name, corpus, extra):
        # Relative to the checkout root, the cwd of every process here:
        # Unix socket paths must stay under ~100 bytes wherever the checkout
        # lives.
        self.sock_path = os.path.relpath(os.path.join(work, name + ".sock"))
        argv = [SELDOND, "--socket", self.sock_path, "--jobs", str(JOBS),
                "--seed", corpus.seed_file] + extra + corpus.dirs
        self.log = open(os.path.join(work, name + ".log"), "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self.log, stderr=self.log)
        self.conn = None

    def started(self, timeout=120.0):
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError("seldond exited during start-up")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.sock_path)
                self.conn = s.makefile("rwb")
                break
            except OSError:
                s.close()
                if time.perf_counter() > deadline:
                    raise BenchError("seldond did not start")
                time.sleep(0.002)
        self.request('"op":"status"}')
        return time.perf_counter() - self.t0

    def request(self, body):
        self.conn.write(b'{"v":1,"id":0,' + body.encode() + b"\n")
        self.conn.flush()
        line = self.conn.readline().decode().rstrip("\n")
        if not line:
            raise BenchError("seldond closed the connection")
        return line

    def stop(self):
        """Stops the daemon and returns its peak RSS in MB."""
        if self.proc.returncode is not None:
            return None
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + 60
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.log.close()
        return usage.ru_maxrss / 1024.0


def result_payload(line):
    """The `result` member of an ok response line, as raw bytes of JSON."""
    head = '"ok":true,"result":'
    at = line.find(head)
    if at < 0:
        raise BenchError("not ok: %s" % line[:300])
    return line[at + len(head):-1]


# --- corpus -------------------------------------------------------------

class Corpus:
    def __init__(self, root, seed, projects):
        self.root = root
        # One edit per project, so no speed-up can exhaust the sequence.
        out = subprocess.run([TOOL, "gen-corpus", "--seed", str(seed),
                              "--projects", str(projects), "--edits",
                              str(projects), "--out", root],
                             capture_output=True, text=True)
        if out.returncode != 0:
            raise BenchError("gen-corpus failed: " + out.stderr)
        self.summary = json.loads(out.stdout)
        self.seed_file = os.path.join(root, "seed.spec")
        with open(os.path.join(root, "projects.txt")) as f:
            self.dirs = [os.path.join(root, p) for p in f.read().split()]
        with open(self.seed_file) as f:
            self.seed_reps = benchlib.parse_seed_reps(f.read())
        with open(os.path.join(root, "truth.tsv")) as f:
            self.truth = benchlib.parse_truth(f.read())
        with open(os.path.join(root, "edits.tsv")) as f:
            self.edits = [line.split("\t") for line in f.read().splitlines()]

    def f1(self, spec_path):
        with open(spec_path) as f:
            scores = benchlib.parse_learned_spec(f.read())
        return benchlib.macro_f1(scores, self.truth, self.seed_reps, THRESHOLD)

    def apply_edit(self, k):
        _, target, edit = self.edits[k]
        with open(os.path.join(self.root, edit)) as f:
            text = f.read()
        with open(os.path.join(self.root, target), "a") as f:
            f.write(text)


def learn_argv(corpus, out, extra=(), jobs=JOBS):
    return ([SELDON, "learn", "--jobs", str(jobs), "--seed", corpus.seed_file,
             "--out", out] + list(extra) + corpus.dirs)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# --- end-to-end workloads -----------------------------------------------

class Tally:
    """Operations attempted and failed, and the failed checks' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)
        return ok


def check_f1(tally, corpus, f1):
    floor = SPEC_F1_FLOOR[len(corpus.dirs)]
    tally.check(f1 >= floor, "spec_f1 %.4f below the floor %.2f" % (f1, floor))


def learn_metrics(walls, rss, f1s, setup_s, seconds):
    if not walls:
        raise BenchError("no learn succeeded")
    label, tail = benchlib.tail_percentile(walls)
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": len(walls) / seconds,
        "peak_rss_mb": max(rss),
        "spec_f1": statistics.median(f1s),
    }, {"op": "learn", "samples": len(walls), "tail": label}


def solver_of(stderr):
    """(backend, whether SIMD kernels ran) from `--solver-stats` output."""
    for line in stderr.splitlines():
        if line.startswith("solver: ") and " backend" in line:
            return line.split()[1], "(avx2)" in line
    return "unknown", False


def workload_learn_cold(corpus, work, seconds, tally):
    setup_s = process_start_s()
    # The --jobs 1 reference every measured spec must equal byte for byte;
    # it also warms the page cache.
    ref = os.path.join(work, "ref.spec")
    _, _, rc, err = run_timed(learn_argv(corpus, ref, ["--solver-stats"],
                                         jobs=1))
    if rc != 0:
        raise BenchError("reference learn failed: " + err[-500:])
    backend, simd = solver_of(err)
    ref_bytes = read_bytes(ref)
    ref_f1 = corpus.f1(ref)
    check_f1(tally, corpus, ref_f1)
    walls, rss, f1s = [], [], []
    out = os.path.join(work, "out.spec")
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        if os.path.exists(out):
            os.remove(out)
        wall, peak, rc, err = run_timed(learn_argv(corpus, out))
        ok = tally.check(rc == 0, "learn exited %d" % rc)
        ok = ok and tally.check(read_bytes(out) == ref_bytes,
                                "spec differs from the --jobs 1 reference")
        if ok:
            walls.append(wall)
            rss.append(peak)
            f1s.append(ref_f1)
    metrics, detail = learn_metrics(walls, rss, f1s, setup_s,
                                    time.perf_counter() - t0)
    detail.update(solver_backend=backend, simd_kernels=simd)
    return metrics, detail


def workload_relearn_edit(corpus, work, seconds, tally):
    # Set-up: the cache-populating cold learn, repeated into fresh caches.
    setups = []
    for i in range(SETUP_REPEATS):
        cache = os.path.join(work, "cache%d" % i)
        out = os.path.join(work, "out%d.spec" % i)
        wall, _, rc, err = run_timed(learn_argv(
            corpus, out, ["--cache-dir", cache, "--shard-cache",
                          "--solver-stats"]))
        if rc != 0:
            raise BenchError("populating learn failed: " + err[-500:])
        setups.append(wall)
    backend, simd = solver_of(err)
    walls, rss, f1s = [], [], []
    k = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        if k == len(corpus.edits):
            raise BenchError("edit sequence exhausted")
        corpus.apply_edit(k)
        k += 1
        wall, peak, rc, err = run_timed(learn_argv(
            corpus, out, ["--cache-dir", cache, "--shard-cache",
                          "--cache-stats"]))
        ok = tally.check(rc == 0, "re-learn exited %d" % rc)
        ok = ok and tally.check(
            "cache: %d hit(s), 1 miss(es)" % (len(corpus.dirs) - 1) in err
            and "shards: %d replayed, 1 re-extracted" % (len(corpus.dirs) - 1)
            in err, "edit %d: expected 1 graph miss and 1 shard rebuilt: %s"
            % (k - 1, [l for l in err.splitlines() if "cache:" in l
                       or "shards:" in l]))
        ok = ok and tally.check("warm start: seeding" in err,
                                "re-learn did not warm-start")
        if ok:
            f1 = corpus.f1(out)
            check_f1(tally, corpus, f1)
            walls.append(wall)
            rss.append(peak)
            f1s.append(f1)
    metrics, detail = learn_metrics(walls, rss, f1s,
                                    statistics.median(setups),
                                    time.perf_counter() - t0)
    detail.update(op="edit+relearn", solver_backend=backend,
                  simd_kernels=simd, edits=k)
    return metrics, detail


def write_pools(corpus, work, spec_path, seed):
    """Request pools for the load client: queries over the learned spec,
    inline taint of corpus files, feedback verdicts."""
    with open(spec_path) as f:
        pairs = sorted(benchlib.parse_learned_spec(f.read()))
    if not pairs:
        raise BenchError("learned spec is empty")
    queries = ['"op":"query","rep":%s,"role":"%s"}' % (json.dumps(rep), role)
               for rep, role in pairs]
    rnd = random.Random(seed)
    taints = []
    for d in rnd.sample(corpus.dirs, min(64, len(corpus.dirs))):
        files = sorted(os.path.join(r, f) for r, _, fs in os.walk(d)
                       for f in fs if f.endswith(".py"))
        with open(files[0]) as f:
            src = f.read()
        taints.append('"op":"taint","files":%s}' % json.dumps(
            {os.path.basename(files[0]): src}, separators=(",", ":")))
    feedback = ['"op":"feedback","%s":[{"rep":%s,"role":"%s"}]}'
                % ("accept" if i % 2 == 0 else "reject", json.dumps(rep), role)
                for i, (rep, role) in enumerate(rnd.sample(pairs, len(pairs)))]
    paths = {}
    for name, lines in (("query", queries), ("taint", taints),
                        ("feedback", feedback)):
        paths[name] = os.path.join(work, name + "_pool.txt")
        with open(paths[name], "w") as f:
            f.write("\n".join(lines) + "\n")
    return pairs, paths


def workload_serve(name, corpus, work, seconds, seed, tally):
    writes = name == "serve_write"
    served = os.path.join(work, "served.spec")
    _, _, rc, err = run_timed(learn_argv(corpus, served, ["--solver-stats"]))
    if rc != 0:
        raise BenchError("learn failed: " + err[-500:])
    backend, simd = solver_of(err)
    f1 = corpus.f1(served)
    check_f1(tally, corpus, f1)
    pairs, pools = write_pools(corpus, work, served, seed)
    # A fixed sample of query answers, checked against `seldon explain`.
    checks = [pairs[0], pairs[len(pairs) // 2]]
    expected = []
    for rep, role in checks:
        r = subprocess.run([SELDON, "explain", "--json", "--jobs", str(JOBS),
                            "--seed", corpus.seed_file, "--rep", rep,
                            "--role", role] + corpus.dirs,
                           capture_output=True, text=True)
        if r.returncode != 0:
            raise BenchError("explain failed: " + r.stderr[-500:])
        expected.append(r.stdout.rstrip("\n"))

    setups = []
    daemon = None
    peak = None
    try:
        for i in range(SETUP_REPEATS):
            extra = ["--state-dir", os.path.join(work, "state%d" % i)] \
                if writes else []
            daemon = Daemon(work, "d%d" % i, corpus, extra)
            setups.append(daemon.started())
            if i + 1 < SETUP_REPEATS:
                daemon.stop()
        for (rep, role), want in zip(checks, expected):
            got = result_payload(daemon.request(
                '"op":"query","rep":%s,"role":"%s"}'
                % (json.dumps(rep), role)))
            tally.check(got == want, "query %s/%s differs from seldon explain"
                        % (rep, role))
        load_out = os.path.join(work, "load.json")
        argv = [TOOL, "load", "--socket", daemon.sock_path,
                "--readers", str(3 if writes else 4), "--seconds",
                str(seconds), "--seed", str(seed),
                "--query-pool", pools["query"], "--taint-pool", pools["taint"],
                "--out", load_out]
        if writes:
            argv += ["--writer-period", str(WRITER_PERIOD_S),
                     "--feedback-pool", pools["feedback"]]
        r = subprocess.run(argv, capture_output=True, text=True)
        if r.returncode != 0:
            raise BenchError("load failed: " + r.stderr[-500:])
        with open(load_out) as f:
            load = json.load(f)
        status = json.loads(result_payload(daemon.request('"op":"status"}')))
    finally:
        if daemon is not None:
            peak = daemon.stop()

    latencies = []
    detail = {"op": "query+taint" + ("+feedback" if writes else ""),
              "solver_backend": backend, "simd_kernels": simd,
              "unanswered": load["unanswered"]}
    for op in ("query", "taint", "feedback"):
        stats = load[op]
        tally.attempted += stats["ok"] + stats["failed"]
        tally.failed += stats["failed"]
        if stats["failed"]:
            tally.reasons.append("%d %s request(s) failed" %
                                 (stats["failed"], op))
        lat = stats["latency_ms"]
        latencies += lat
        if lat:
            label, tail = benchlib.tail_percentile(lat)
            detail[op] = {"samples": len(lat),
                          "p50_ms": statistics.median(lat),
                          label + "_ms": tail}
            if stats["late_ms"]:
                detail[op]["generator_late_ms_max"] = max(stats["late_ms"])
    tally.check(load["unanswered"] == 0,
                "%d request(s) unanswered" % load["unanswered"])
    tally.check(status["requests"]["failed"] == 0,
                "daemon counted failed requests")
    if writes:
        dur = status["durability"]
        accepted = load["feedback"]["ok"]
        tally.check(dur["appends"] == accepted,
                    "durability appends %d != %d accepted feedback ops"
                    % (dur["appends"], accepted))
        tally.check(dur["fsyncs"] >= dur["appends"],
                    "fsyncs %d < appends %d" % (dur["fsyncs"], dur["appends"]))
        tally.check(accepted > 0, "no feedback op completed")
    if not latencies:
        raise BenchError("no request completed")
    label, tail = benchlib.tail_percentile(latencies)
    detail["tail"] = label
    detail["samples"] = len(latencies)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail,
        "ops_per_s": len(latencies) / load["seconds"],
        "peak_rss_mb": peak,
        "spec_f1": f1,
    }, detail


END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "ops_per_s": "1/s", "peak_rss_mb": "MB", "spec_f1": "ratio",
    "ok_rate": "ratio",
}


def run_end_to_end(name, corpus, work, seconds, seed):
    tally = Tally()
    kind = WORKLOADS[name][1]
    if kind == "learn":
        metrics, detail = workload_learn_cold(corpus, work, seconds, tally)
    elif kind == "relearn":
        metrics, detail = workload_relearn_edit(corpus, work, seconds, tally)
    else:
        metrics, detail = workload_serve(name, corpus, work, seconds, seed,
                                         tally)
    metrics["ok_rate"] = (tally.attempted - tally.failed) / tally.attempted
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, \
        detail


# --- traced run ---------------------------------------------------------

def run_traced(name, corpus, work, seconds, seed):
    out = os.path.join(work, "trace.json")
    argv = [TOOL, "trace", "--workload", name, "--dir", corpus.root,
            "--seed", str(seed), "--out", out]
    r = subprocess.run(argv, capture_output=True, text=True)
    tally = Tally()
    tally.check(r.returncode == 0, "trace run failed: " + r.stderr[-300:])
    with open(out) as f:
        t = json.load(f)
    reg = t["registry"]
    counters, timers = reg["counters"], reg["timers"]

    def count(key):
        return counters.get(key, 0)

    def timer(key):
        return timers.get(key, {}).get("total_seconds", 0.0)

    layers, wall = benchlib.layer_self_times(t["spans"], TRACE_ROOTS)

    def layer(key):
        return layers.get(key, 0.0)

    hits, misses = count("cache.hits"), count("cache.misses")
    iters = t["counts"]["iterations"]
    m = {
        "pysem.load_s": (layer("pysem.load"), "s"),
        "pysem.files": (t["counts"]["files_loaded"], "count"),
        "pyast.parse_files": (count("parse.files"), "count"),
        "pyast.parse_s": (timer("parse.file_seconds"), "s"),
        "propgraph.build_s": (layer("propgraph.build"), "s"),
        "propgraph.events": (t["counts"]["events"], "count"),
        "pointsto.worklist_pops": (count("pointsto.worklist_pops"), "count"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                            "ratio"),
        "cache.bytes_read": (count("cache.bytes_read") +
                             count("shard.bytes_read"), "B"),
        "cache.load_s": (timer("cache.load_seconds") +
                         timer("shard.load_seconds"), "s"),
        "cache.store_s": (timer("cache.store_seconds") +
                          timer("shard.store_seconds"), "s"),
        "constraints.gen_s": (layer("constraints.gen"), "s"),
        "constraints.rows": (t["counts"]["rows"], "count"),
        "constraints.shards_hit": (count("shard.hits"), "count"),
        "constraints.shards_rebuilt": (count("shard.misses"), "count"),
        "constraints.merge_s": (timer("incr.merge_seconds"), "s"),
        "constraints.explain_s": (layer("constraints.explain"), "s"),
        "solver.solve_s": (layer("solver.solve"), "s"),
        "solver.iterations": (count("solve.iterations"), "count"),
        "solver.best_updates": (count("solve.best_updates"), "count"),
        "solver.useful_iter_ratio": (
            count("solve.best_updates") / max(count("solve.iterations"), 1),
            "ratio"),
        "solver.iter_us": (layer("solver.solve") * 1e6 / max(iters, 1), "us"),
        "spec.write_s": (layer("spec.write"), "s"),
        "spec.bytes": (t["counts"]["spec_bytes"], "B"),
        "service.start_s": (layer("service.start"), "s"),
        "service.handle_s.query": (layer("service.handle.query"), "s"),
        "service.handle_s.taint": (layer("service.handle.taint"), "s"),
        "service.handle_s.feedback": (layer("service.handle.feedback"), "s"),
        "service.transport_wait_s": (
            statistics.median(t["transport_client_s"]) -
            statistics.median(t["transport_handle_s"]), "s"),
        "taint.graph_s": (layer("taint.graph"), "s"),
        "taint.analyze_s": (layer("taint.analyze"), "s"),
        "state.appends": (count("journal.appends"), "count"),
        "state.fsyncs": (count("journal.fsyncs"), "count"),
        "state.journal_bytes": (count("journal.bytes"), "B"),
        "state.snapshots": (count("snapshot.writes"), "count"),
        "state.append_s": (layer("state.append"), "s"),
        "state.snapshot_s": (layer("state.snapshot"), "s"),
        "trace_wall_s": (wall, "s"),
        "unattributed_s": (wall - sum(layers.values()), "s"),
        "trace_overhead_frac": (
            statistics.median(t["traced_wall_s"]) /
            statistics.median(t["untraced_wall_s"]) - 1.0, "ratio"),
    }
    unknown = set(layers) - {
        "pysem.load", "propgraph.build", "constraints.gen",
        "constraints.explain", "solver.solve", "spec.write", "service.start",
        "service.handle.query", "service.handle.taint",
        "service.handle.feedback", "service.handle.status", "taint.graph",
        "taint.analyze", "state.append", "state.snapshot"}
    tally.check(not unknown, "spans without a layer metric: %s" % unknown)
    tally.check(t["ok"], "a traced operation failed")
    detail = {"op": "trace", "spans": len(t["spans"]),
              "traced_ops": len(t["traced_wall_s"]),
              "status": t["status"]}
    return tally, m, detail


# --- main ---------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: build failed: %s" % e)
        return 2

    work = os.path.abspath(os.path.join(
        ".bench_build", "work", "%s-%d-%d" % (args.workload, args.seed,
                                              os.getpid())))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        host = host_row()
        projects = WORKLOADS[args.workload][0]
        corpus = Corpus(os.path.join(work, "data"), args.seed, projects)
        runner = run_traced if args.trace else run_end_to_end
        tally, metrics, detail = runner(args.workload, corpus, work,
                                        args.seconds, args.seed)
    except BenchError as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if "simd_kernels" in detail:
        # The CLI reports only whether SIMD kernels ran; they run at the
        # host's tier.
        detail["simd_dispatched"] = (host["host_simd"]
                                     if detail.pop("simd_kernels") else "none")
    for reason in tally.reasons:
        log("check failed: %s" % reason)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": host,
                      "corpus": corpus.summary, "detail": detail},
                     sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
