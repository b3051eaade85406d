#!/usr/bin/env python3
"""End-to-end benchmark for libcfm: what users run, file to verdict.

Run from the repository root:

  python3 perfbench/run.py --workload oneshot_100k --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload cert_mls --seed 1 --seconds 15 --trace 1
  python3 perfbench/run.py --ledger            # the ROADMAP baseline ledger

The first run builds the release binaries (cfmc, cfmd, cfmproof-check),
perfbench-layers and perfbench-calibrate from source into .bench_build/.
Each run sets up its seeded inputs several times (setup_s is their median),
then measures for --seconds, checks every operation against a known answer,
and prints a human table followed by one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 times subprocess runs of the release binaries (the end-to-end
metrics); --trace 1 runs perfbench-layers, which calls each layer's entry
points in-process under spans (the per-layer metrics). perfbench/README.md
explains the workloads and the metric map; compare.py diffs two --out files.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-release")
WORK_ROOT = ".bench_work"  # Relative to ROOT, the working directory.
LATTICE_FILE = os.path.join("examples", "programs", "mls.lattice")
PROC_TIMEOUT_S = 150
# perfbench-calibrate's median time on the host the bounds were set on; every
# end-to-end time is reported at that host speed (README, "Host speed").
CALIBRATE_REF_MS = 45.0

# Input sizes per profile. "smoke" runs every workload in seconds; the tests
# use it.
PROFILES = {
    "full": {
        "oneshot_stmts": 100_000,
        "cert_stmts": 10_000,
        "editor_chunks": 100,
        "editor_chunk_stmts": 1_000,
        "cold_stmts": 20_000,
        "cold_period_ms": 500,
        "batch_programs": 64,
        "batch_stmts": 20_000,
        "batch_trace_every": 8,
        "setup_reps": 3,
    },
    "smoke": {
        "oneshot_stmts": 3_000,
        "cert_stmts": 1_000,
        "editor_chunks": 4,
        "editor_chunk_stmts": 500,
        "cold_stmts": 500,
        "cold_period_ms": 100,
        "batch_programs": 8,
        "batch_stmts": 500,
        "batch_trace_every": 2,
        "setup_reps": 2,
    },
}

# The metrics BENCHMARK.json names: every end-to-end one for every workload
# untraced, every per-layer one traced. Each workload binds "primary" and
# "secondary" to its two user operations (ROLES); the table it prints first
# names them as the issue does (check_s, lint_s, ...).
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
    SPEC = json.load(spec)
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

ROLES = {
    "oneshot_100k": ("cfmc check --json", "cfmc lint --json"),
    "cert_mls": ("cfmc check --emit-cert", "cfmproof-check"),
    "daemon_mix": ("cfmd one-statement edit round trip, 90th percentile",
                   "cfmd cold check, timed from when due"),
    "batch_64": ("cfmc batch --jobs=4", "cfmc check --json of one corpus program"),
}

# Layers only some workloads reach: the traced run prints these in its
# ledger, beside the per-layer metrics every workload reports.
WORKLOAD_LAYERS = {
    "cert_mls": (("logic.emit_s", "s"), ("logic.cert_bytes_per_src_byte", "ratio"),
                 ("certcheck.verify_s", "s"), ("certcheck.mb_per_s", "MB/s")),
    "daemon_mix": (("service.busy_edit_ms", "ms"), ("service.busy_cold_ms", "ms"),
                   ("service.queue_wait_ms", "ms"), ("service.warm_ratio", "ratio"),
                   ("service.cache_hit_ratio", "ratio"),
                   ("service.stmts_recertified_per_edit", "count"),
                   ("service.cold_lag_ms", "ms")),
    "batch_64": (("batch.speedup_4v1", "ratio"), ("batch.worker_busy_frac", "ratio")),
}


class BenchError(Exception):
    """A failure of the benchmark itself: no result line is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- build and provenance ----------------------------------------------------


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no libcfm sources next to perfbench/ (run from a full checkout)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        build_step(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type.lower() != "release":
        raise BenchError("%s is a '%s' build, not Release; numbers from it are not "
                         "comparable" % (BUILD_DIR, build_type or "unset"))
    build_step(["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))])


def build_step(command):
    with open(os.path.join(BUILD_DIR, "build.log"), "ab") as build_log:
        status = subprocess.run(command, stdout=build_log, stderr=subprocess.STDOUT).returncode
    if status != 0:
        raise BenchError("build step failed (see %s/build.log): %s"
                         % (BUILD_DIR, " ".join(command)))


def cache_value(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def binary(name):
    sub = "" if name.startswith("perfbench-") else "cfm_tools"
    return os.path.join(BUILD_DIR, sub, name)


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def provenance(args, inputs):
    with open(os.path.join(ROOT, "src", "gen", "program_gen.h")) as f:
        match = re.search(r"kGenStreamVersion\s*=\s*(\d+)", f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
        "gen_stream_version": int(match.group(1)) if match else None,
        "input_bytes": inputs.get("bytes", 0),
        "input_stmts": inputs.get("stmts", 0),
        "input_files": inputs.get("files", 0),
        "git_commit": commit,
        "source_digest": source_digest(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
    }


# --- processes ---------------------------------------------------------------


class Proc:
    def __init__(self, exit_code, wall_s, rss_mb, out, err):
        self.exit_code = exit_code
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.out = out
        self.err = err


def run(args, timeout=PROC_TIMEOUT_S, out_path=None):
    """Runs a program from the repository root; returns its wall time, its
    own peak RSS (wait4) and its output."""
    with tempfile.TemporaryFile() as out_tmp, tempfile.TemporaryFile() as err_tmp:
        out = open(out_path, "wb") if out_path else out_tmp
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=ROOT, stdout=out, stderr=err_tmp)
            reaped = {}

            def reap():
                reaped["wait"] = os.wait4(proc.pid, 0)
                reaped["end"] = time.perf_counter()

            reaper = threading.Thread(target=reap)
            reaper.start()
            reaper.join(timeout)
            if reaper.is_alive():
                proc.kill()
                reaper.join()
                proc.returncode = -9
                raise BenchError("timed out after %ss: %s" % (timeout, " ".join(args)))
            _, status, usage = reaped["wait"]
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if out_path:
                out.close()
        out_tmp.seek(0)
        err_tmp.seek(0)
        stdout = b"" if out_path else out_tmp.read()
        return Proc(proc.returncode, reaped["end"] - start, usage.ru_maxrss / 1024.0,
                    stdout, err_tmp.read())


def cfmc(*args, **kwargs):
    return run([binary("cfmc")] + list(args), **kwargs)


def gen(path, stmts, seed):
    proc = cfmc("gen", path, "--scale=%d" % stmts, "--seed=%d" % seed)
    match = re.search(rb"wrote (\d+) statements", proc.err)
    if proc.exit_code != 0 or not match:
        raise BenchError("cfmc gen failed: %s" % proc.err.decode(errors="replace"))
    return int(match.group(1))


def gen_many(jobs):
    """Generates (path, stmts, seed) programs four processes at a time."""
    counts = [0] * len(jobs)
    errors = []

    def worker(indices):
        for i in indices:
            try:
                counts[i] = gen(*jobs[i])
            except BenchError as error:
                errors.append(error)

    threads = [threading.Thread(target=worker, args=(range(k, len(jobs), 4),))
               for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sum(counts)


# --- program rewriting (known answers) ---------------------------------------

DECL = re.compile(r"^(\s+)(\w+) : (integer|boolean|semaphore[^;]*);$", re.M)
# Appended to the root block: pz0 is read before its only assignment
# (use-before-init) and the first store to pz1 is overwritten unread
# (dead-assign), two findings any correct lint run reports on that line.
LINT_SENTINEL = ("\n  pz0 : integer;\n  pz1 : integer;",
                 ";\n  pz1 := pz0;\n  pz1 := 1;\n  pz0 := pz1")
# The rejecting twin starts its root block with this: pz3 must be at least
# topsecret (it receives pz2) but is bound to bottom. Placed first, no earlier
# statement's global flow reaches it, so there is exactly one violation.
# Twins with many violations are avoided because rejection reports grow
# quadratically with the violation count (see perfbench/README.md).
TWIN = ("\n  pz2 : integer class topsecret;\n  pz3 : integer class unclassified;",
        "\n  pz3 := pz2;")


def split_program(text):
    head, body = text.split("\nbegin", 1)
    return head, "\nbegin" + body


def annotate(text, classes):
    """Adds `class C` to each declaration named in `classes`."""
    head, body = split_program(text)

    def sub(match):
        name = match.group(2)
        if name not in classes:
            return match.group(0)
        return "%s%s : %s class %s;" % (match.group(1), name, match.group(3), classes[name])

    return DECL.sub(sub, head) + body


def append(text, addition):
    """Adds (declarations, statements) to a program, the statements at the
    end of its root block; returns the new text and their first line."""
    decls, stmts = addition
    head, body = split_program(text)
    end = body.rstrip().rfind("\nend")
    prefix = head.rstrip() + decls + body[:end]
    return prefix + stmts + body[end:], prefix.count("\n") + 2


def make_twin(text):
    """The rejecting twin of a program, and the line of its one violation."""
    decls, stmt = TWIN
    head, body = split_program(text)
    prefix = head.rstrip() + decls + "\nbegin"
    return prefix + stmt + body[len("\nbegin"):], prefix.count("\n") + 2


def check_report(proc):
    """The certification JSON on the first line of `cfmc check --json`."""
    try:
        return json.loads(proc.out.split(b"\n", 1)[0])
    except ValueError:
        return {}


def certified(proc):
    report = check_report(proc)
    return report.get("certified") is True and report.get("violations") == []


def twin_rejected(proc, line):
    report = check_report(proc)
    violations = report.get("violations", [])
    return (proc.exit_code == 1 and report.get("certified") is False
            and len(violations) == 1 and violations[0].get("line") == line)


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def read(path):
    with open(path) as f:
        return f.read()


# --- measuring ---------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        return self.record(1, 0 if ok else 1, what) == 0

    def record(self, attempted, failed, what):
        self.attempted += attempted
        if failed:
            self.failures += [what] * failed
            log("FAILED (%d of %d): %s" % (failed, attempted, what))
        return failed


def timed_loop(seconds, operations, between):
    """Runs the operations round-robin until `seconds` have passed, calling
    `between` after each; each operation starts only inside the window and
    always completes."""
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or index == 0:
        operations[index % len(operations)]()
        between()
        index += 1


class HostSpeed:
    """Times perfbench-calibrate, fixed work that shares no code with libcfm.
    Its median time in a run says how fast the host ran during the run."""

    def __init__(self):
        self.samples = []
        self.outputs = set()

    def sample(self, count=1):
        for _ in range(count):
            proc = run([binary("perfbench-calibrate")])
            self.outputs.add(proc.out)
            if proc.exit_code != 0 or len(self.outputs) != 1:
                raise BenchError("perfbench-calibrate failed or changed its output")
            self.samples.append(proc.wall_s * 1e3)

    @contextlib.contextmanager
    def alongside(self):
        """Samples the host one calibration after another while the block
        runs."""
        stop = threading.Event()
        errors = []

        def loop():
            try:
                while not stop.is_set():
                    self.sample()
            except BenchError as error:
                errors.append(error)

        thread = threading.Thread(target=loop)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
        if errors:
            raise errors[0]

    def factor(self):
        """Scales a time measured in this run to CALIBRATE_REF_MS speed."""
        return CALIBRATE_REF_MS / median(self.samples)


def repeated_setup(reps, setup, teardown):
    """Sets the workload up `reps` times from scratch and keeps the last;
    returns the median set-up time and the kept state."""
    times = []
    state = None
    for rep in range(reps):
        if state is not None:
            teardown(state)
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return median(times), times, state


class Workload:
    """One workload: seeded set-up, the timed loop, and known-answer checks."""

    def __init__(self, args, work):
        self.args = args
        self.profile = PROFILES[args.profile]
        self.work = work
        self.outcome = Outcome()
        self.table = []  # (name, value, unit, note)
        self.inputs = {}
        self.e2e = {}
        self.layers = {}
        self.layer_bases = {}  # Per-layer metric -> the base of its ratio.
        self.samples = {}  # Timed operation -> every wall time of this run.
        self.host = HostSpeed()

    def note(self, name, value, unit, detail=""):
        self.table.append((name, value, unit, detail))

    def timing(self, name, samples, unit):
        """Records one operation's samples and prints their median, which
        its end-to-end metric takes, scaled (README, "Host speed")."""
        self.samples[name] = samples
        self.note(name, median(samples), unit, "median, n=%d" % len(samples))
        return median(samples)

    def reset_dir(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def teardown(self, state):
        pass

    def trace(self, files, *flags):
        trace_dir = os.path.join(WORK_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-seed%d.trace.json" % (self.args.workload,
                                                                   self.args.seed))
        proc = run([binary("perfbench-layers"), "trace", "--trace-out=" + trace_out]
                   + list(flags) + list(files))
        if self.outcome.record(len(files), 0 if proc.exit_code == 0 else len(files),
                               "traced run: " + proc.err.decode(errors="replace")[-400:]):
            raise BenchError("traced run failed")
        result = json.loads(proc.out)
        self.layers.update(result["metrics"])
        self.trace_result = result
        self.trace_out = trace_out

    def run_workload(self):
        if not self.args.trace:
            self.host.sample(5)
        setup_s, setup_times, state = repeated_setup(
            1 if self.args.trace else self.profile["setup_reps"], self.setup, self.teardown)
        try:
            if self.args.trace:
                self.traced(state)
            else:
                self.e2e["setup_s"] = setup_s
                self.samples["setup_s"] = setup_times
                self.note("setup_s", setup_s, "s", "median of %d: %s" % (
                    len(setup_times), ", ".join("%.3f" % t for t in setup_times)))
                self.measure(state)
                self.scale_times()
        finally:
            self.teardown(state)

    def scale_times(self):
        """Reports every end-to-end time at the reference host speed: the
        table keeps the raw times, the metrics carry the scaled ones."""
        factor = self.host.factor()
        for name, unit in END_TO_END:
            if unit in ("s", "ms"):
                self.e2e[name] *= factor
        self.samples["calibrate_ms"] = self.host.samples
        self.note("calibrate_ms", median(self.host.samples), "ms",
                  "median, n=%d; metric times scaled by %.4f" % (len(self.host.samples), factor))


class OneShot(Workload):
    """oneshot_100k: one ~10^5-statement program, checked and linted as fresh
    processes against the Hasse lattice file."""

    def setup(self):
        d = self.reset_dir("oneshot")
        stmts = gen(os.path.join(d, "gen.cfm"), self.profile["oneshot_stmts"], self.args.seed)
        # Unannotated variables are all bottom: a uniform binding, which
        # certifies by construction.
        text, sentinel_line = append(read(os.path.join(d, "gen.cfm")), LINT_SENTINEL)
        twin_text, twin_line = make_twin(text)
        program = os.path.join(d, "program.cfm")
        twin = os.path.join(d, "twin.cfm")
        write(program, text)
        write(twin, twin_text)
        self.inputs = {"bytes": len(text), "stmts": stmts, "files": 1}
        return {"program": program, "twin": twin, "sentinel_line": sentinel_line,
                "twin_line": twin_line}

    def lint_ok(self, proc, sentinel_line, seen):
        try:
            report = json.loads(proc.out)
        except ValueError:
            return False
        found = {(f["pass"], f["line"]) for f in report.get("findings", [])
                 if "pz" in f.get("message", "")}
        errors = report.get("summary", {}).get("errors", -1)
        digest = hashlib.sha256(proc.out).hexdigest()
        seen.add(digest)
        return (report.get("schema_version") == 2
                and found == {("use-before-init", sentinel_line), ("dead-assign", sentinel_line)}
                and proc.exit_code == (1 if errors > 0 else 0)
                and len(seen) == 1)

    def measure(self, st):
        lattice = "--lattice-file=" + LATTICE_FILE
        checks, lints, lint_digests = [], [], set()

        def check():
            proc = cfmc("check", st["program"], "--json", lattice)
            checks.append(proc)
            self.outcome.check(proc.exit_code == 0 and certified(proc),
                               "check of the certifying program")

        def lint():
            proc = cfmc("lint", st["program"], "--json", lattice)
            lints.append(proc)
            self.outcome.check(self.lint_ok(proc, st["sentinel_line"], lint_digests),
                               "lint known answer")

        timed_loop(self.args.seconds, [check, lint], self.host.sample)
        if not lints:
            lint()
        twin = cfmc("check", st["twin"], "--json", lattice)
        self.outcome.check(twin_rejected(twin, st["twin_line"]), "the twin must be rejected")
        check_s = self.timing("check_s", [p.wall_s for p in checks], "s")
        check_rss = max(p.rss_mb for p in checks)
        self.note("check_rss_mb", check_rss, "MB")
        lint_s = self.timing("lint_s", [p.wall_s for p in lints], "s")
        peak = max(p.rss_mb for p in checks + lints)
        self.note("peak_rss_mb", peak, "MB")
        self.e2e.update(primary_ms=check_s * 1e3, secondary_ms=lint_s * 1e3,
                        primary_rss_mb=check_rss, peak_rss_mb=peak)

    def traced(self, st):
        self.trace([st["program"]], "--lattice-file=" + LATTICE_FILE)


class CertMls(Workload):
    """cert_mls: a ~10^4-statement program whose pinned sources climb the mls
    lattice; emit its certificate, then verify it standalone."""

    def setup(self):
        d = self.reset_dir("cert")
        gen_path = os.path.join(d, "gen.cfm")
        stmts = gen(gen_path, self.profile["cert_stmts"], self.args.seed)
        text = read(gen_path)
        names = [m.group(2) for m in DECL.finditer(split_program(text)[0])
                 if m.group(3) == "integer"]
        # Pins of one class are always satisfiable. (Mixed classes almost
        # never are: at this size every variable reaches every other.)
        pins = {name: "secret" for name in random.Random(self.args.seed).sample(names, 3)}
        binding = self.least_binding(gen_path, pins)
        if not binding:
            raise BenchError("cfmc infer found no binding for the pinned sources")
        # The least binding certifies by construction (it comes from
        # inference, not from the certifier being timed).
        text = annotate(text, binding)
        twin_text, twin_line = make_twin(text)
        program = os.path.join(d, "program.cfm")
        twin = os.path.join(d, "twin.cfm")
        write(program, text)
        write(twin, twin_text)
        self.inputs = {"bytes": len(text), "stmts": stmts, "files": 1}
        self.pins = pins
        return {"program": program, "twin": twin, "cert": os.path.join(d, "program.cfmcert"),
                "twin_line": twin_line}

    def least_binding(self, path, pins):
        args = ["infer", path, "--lattice-file=" + LATTICE_FILE]
        args += ["--pin=%s=%s" % item for item in sorted(pins.items())]
        proc = cfmc(*args)
        if proc.exit_code != 0:
            return None
        return dict(re.findall(r"sbind\((\w+)\) = (\w+)", proc.out.decode()))

    def measure(self, st):
        lattice = "--lattice-file=" + LATTICE_FILE
        emits, verifies, digests = [], [], set()

        def emit():
            proc = cfmc("check", st["program"], "--json", lattice, "--emit-cert=" + st["cert"])
            emits.append(proc)
            ok = proc.exit_code == 0 and certified(proc)
            if ok:
                with open(st["cert"], "rb") as f:
                    digests.add(hashlib.sha256(f.read()).hexdigest())
            self.outcome.check(ok and len(digests) == 1, "emit-cert of the pinned program")

        def verify():
            proc = run([binary("cfmproof-check"), "--quiet", st["cert"]])
            verifies.append(proc)
            self.outcome.check(proc.exit_code == 0, "cfmproof-check of an emitted certificate")

        timed_loop(self.args.seconds, [emit, verify], self.host.sample)
        if not verifies:
            verify()
        cert_mb = os.path.getsize(st["cert"]) / 1e6
        tampered = st["cert"] + ".tampered"
        flip_byte(st["cert"], tampered)
        reject = run([binary("cfmproof-check"), "--quiet", tampered])
        self.outcome.check(reject.exit_code == 1, "cfmproof-check must reject a flipped byte")
        twin = cfmc("check", st["twin"], "--json", lattice)
        self.outcome.check(twin_rejected(twin, st["twin_line"]), "the twin must be rejected")
        emit_s = self.timing("emit_cert_s", [p.wall_s for p in emits], "s")
        verify_s = self.timing("verify_cert_s", [p.wall_s for p in verifies], "s")
        emit_rss = max(p.rss_mb for p in emits)
        peak = max(p.rss_mb for p in emits + verifies)
        self.e2e.update(primary_ms=emit_s * 1e3, secondary_ms=verify_s * 1e3,
                        primary_rss_mb=emit_rss, peak_rss_mb=peak)
        self.note("cert_mb", cert_mb, "MB")
        self.note("peak_rss_mb", peak, "MB")
        self.note("pins", 0, "", ", ".join("%s=%s" % p for p in sorted(self.pins.items())))

    def traced(self, st):
        self.trace([st["program"]], "--lattice-file=" + LATTICE_FILE, "--cert")


def flip_byte(src, dst):
    """Copies a certificate with one byte changed where the verifier must
    notice: a `v` token mid-file becomes `q`, else the header magic."""
    with open(src, "rb") as f:
        data = bytearray(f.read())
    at = data.find(b" v ", len(data) // 2)
    index = at + 1 if at >= 0 else 0
    data[index] = ord("q") if data[index] != ord("q") else ord("z")
    with open(dst, "wb") as f:
        f.write(data)


class Daemon(Workload):
    """daemon_mix: one cfmd; two editors with resident 10^5-statement
    documents, taking turns in a closed loop, and one open-loop sender of
    cold full-text requests."""

    def setup(self):
        d = self.reset_dir("daemon")
        seed = self.args.seed
        cold_count = int(self.args.seconds * 1000 / self.profile["cold_period_ms"]) + 1
        editors = [os.path.join(d, "ed%d.cfm" % i) for i in range(2)]
        colds = [os.path.join(d, "cold%02d.cfm" % k) for k in range(cold_count)]
        chunks, chunk_stmts = self.profile["editor_chunks"], self.profile["editor_chunk_stmts"]
        parts = [[os.path.join(d, "ed%d.part%03d.cfm" % (i, j)) for j in range(chunks)]
                 for i in range(len(editors))]
        jobs = [(part, chunk_stmts, seed * 100000 + i * 1000 + j)
                for i, editor_parts in enumerate(parts) for j, part in enumerate(editor_parts)]
        jobs += [(c, self.profile["cold_stmts"], seed * 100 + 10 + k)
                 for k, c in enumerate(colds)]
        stmts = gen_many(jobs)
        for editor, editor_parts in zip(editors, parts):
            write(editor.replace(".cfm", ".init.cfm"), join_programs(editor_parts))
        self.inputs = {"bytes": sum(os.path.getsize(j[0]) for j in jobs),
                       "stmts": stmts, "files": len(editors) + len(colds)}
        sock = os.path.join(d, "cfmd.sock")
        daemon = subprocess.Popen([binary("cfmd"), "--socket=" + sock], cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        state = {"daemon": daemon, "sock": sock, "editors": editors, "colds": colds,
                 "docs": os.path.join(d, "docs.json"), "log": os.path.join(d, "requests.log")}
        deadline = time.perf_counter() + 30
        while not os.path.exists(sock):
            if daemon.poll() is not None or time.perf_counter() > deadline:
                self.teardown(state)
                raise BenchError("cfmd did not start")
            time.sleep(0.005)
        load = run([binary("perfbench-layers"), "daemon-load", "--socket=" + sock]
                   + ["%s=%s" % (e, e.replace(".cfm", ".init.cfm")) for e in editors],
                   out_path=state["docs"])
        if load.exit_code != 0:
            self.teardown(state)
            raise BenchError("loading the editor documents failed: " + load.err.decode())
        return state

    def teardown(self, state):
        daemon = state.get("daemon")
        if daemon is None or "rss_mb" in state:
            return
        try:
            request(state["sock"], {"method": "shutdown"})
        except OSError:
            daemon.kill()
        try:
            _, _, usage = wait4(daemon, 30)
        except BenchError:
            daemon.kill()
            _, _, usage = wait4(daemon, 30)
        state["rss_mb"] = usage.ru_maxrss / 1024.0

    def run_client(self, st):
        args = [binary("perfbench-layers"), "daemon-client", "--socket=" + st["sock"],
                "--docs=" + st["docs"], "--seconds=%g" % self.args.seconds,
                "--seed=%d" % self.args.seed, "--log=" + st["log"],
                "--cold-period-ms=%g" % self.profile["cold_period_ms"]]
        args += ["--cold=" + c for c in st["colds"]]
        # The client is one process for the whole window, so the host is
        # timed alongside it, on a core the daemon and the client leave idle.
        with contextlib.nullcontext() if self.args.trace else self.host.alongside():
            proc = run(args)
        if proc.exit_code != 0:
            raise BenchError("daemon client failed: " + proc.err.decode())
        result = json.loads(proc.out)
        o = self.outcome
        edits = []
        for editor in result["editors"]:
            edits += editor["latency_ms"]
            o.record(len(editor["latency_ms"]) + editor["errors"],
                     editor["errors"] + editor["wrong"],
                     "edit responses of %s (dropped or wrong)" % editor["file"])
            # The sample: the final edited text, one-shot, byte for byte.
            oneshot = cfmc("check", editor["file"], "--json")
            o.check(oneshot.exit_code == 0 and oneshot.out.decode() == editor["output"],
                    "daemon edit response differs from one-shot cfmc for " + editor["file"])
        cold = result["cold"]
        for sample in cold:
            o.check(sample["ok"] and (sample["method"] == "lint" or sample["exit"] == 0),
                    "cold %s of %s" % (sample["method"], sample["file"]))
        sampled = {id(s): s for s in cold[:2] + cold[-2:]}.values()
        for sample in sampled:
            oneshot = cfmc(sample["method"], sample["file"], "--json")
            o.check(oneshot.exit_code == sample["exit"]
                    and oneshot.out.decode() == sample["output"]
                    and oneshot.err.decode() == sample["errout"],
                    "daemon %s of %s differs from one-shot cfmc"
                    % (sample["method"], sample["file"]))
        return result, edits, cold

    def measure(self, st):
        result, edits, cold = self.run_client(st)
        self.teardown(st)
        cold_ms = {m: [s["latency_ms"] for s in cold if s["method"] == m]
                   for m in ("check", "lint")}
        self.timing("edit_p50_ms", edits, "ms")
        # Edits run at two speeds about 1.5x apart, in phases of a second or
        # two, and the share of each moves from run to run: the median jumps
        # between the two, while the 90th percentile stays in the slower one.
        edit_ms = percentile(edits, 0.9)
        self.note("edit_p90_ms", edit_ms, "ms", "n=%d; the end-to-end metric" % len(edits))
        if len(edits) >= 1000:
            self.note("edit_p99_ms", percentile(edits, 0.99), "ms", "n=%d" % len(edits))
        self.note("edits_per_s", len(edits) / result["measured_s"], "1/s",
                  "2 editors taking turns, closed loop")
        # Checks and lints alternate, so one statistic over both would fall
        # between their clusters; the end-to-end metric takes the checks.
        cold_check_ms = self.timing("cold_check_p50_ms", cold_ms["check"], "ms")
        self.timing("cold_lint_p50_ms", cold_ms["lint"], "ms")
        self.note("cold_period_ms", self.profile["cold_period_ms"], "ms", "open loop")
        self.note("peak_rss_mb", st["rss_mb"], "MB", "cfmd")
        self.e2e.update(primary_ms=edit_ms, secondary_ms=cold_check_ms,
                        primary_rss_mb=st["rss_mb"], peak_rss_mb=st["rss_mb"])

    def traced(self, st):
        result, edits, cold = self.run_client(st)
        self.teardown(st)
        self.trace(st["editors"], "--lattice=two", "--replay=" + st["log"])
        stats_before = context_stats(result["stats_before"])
        stats_after = context_stats(result["stats_after"])
        delta = {k: stats_after.get(k, 0) - stats_before.get(k, 0) for k in stats_after}
        warm, cold_runs = delta.get("warm_hits", 0), delta.get("cold_runs", 0)
        hits, misses = delta.get("hits", 0), delta.get("misses", 0)
        self.layers["service.queue_wait_ms"] = median(edits) - self.layers["service.busy_edit_ms"]
        self.layers["service.warm_ratio"] = warm / max(1, warm + cold_runs)
        self.layers["service.cache_hit_ratio"] = hits / max(1, hits + misses)
        self.layers["service.stmts_recertified_per_edit"] = (
            delta.get("stmts_recertified", 0) / max(1, len(edits)))
        self.layers["service.cold_lag_ms"] = median([s["lag_ms"] for s in cold])
        self.layer_bases = {
            "service.warm_ratio": "%d warm of %d" % (warm, warm + cold_runs),
            "service.cache_hit_ratio": "%d hits of %d lookups" % (hits, hits + misses),
            "service.stmts_recertified_per_edit": "over %d edits" % len(edits),
        }


def join_programs(paths):
    """One document whose root block runs each program's root block in turn.
    Generated programs share one declaration list, so the first one's serves;
    equal-sized top-level chunks keep edit cost alike from seed to seed."""
    texts = [read(p) for p in paths]
    head = split_program(texts[0])[0]
    blocks = [split_program(t)[1].strip() for t in texts]
    return head + "\nbegin\n" + ";\n".join(blocks) + "\nend\n"


def context_stats(payload):
    stats = {}
    for context in payload.get("stats", {}).get("contexts", []):
        for group in ("cache", "engine"):
            for key, value in context.get(group, {}).items():
                stats[key] = stats.get(key, 0) + value
    return stats


def frame(payload):
    data = json.dumps(payload).encode()
    return struct.pack(">I", len(data)) + data


def read_frame(conn):
    header = b""
    while len(header) < 4:
        chunk = conn.recv(4 - len(header))
        if not chunk:
            raise OSError("daemon closed the connection")
        header += chunk
    (length,) = struct.unpack(">I", header)
    data = b""
    while len(data) < length:
        chunk = conn.recv(length - len(data))
        if not chunk:
            raise OSError("daemon closed the connection")
        data += chunk
    return json.loads(data)


def request(sock_path, payload):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(30)
        conn.connect(sock_path)
        read_frame(conn)
        conn.sendall(frame(payload))
        return read_frame(conn)


def wait4(proc, timeout):
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return pid, status, usage
        if time.perf_counter() > deadline:
            raise BenchError("process %d did not exit" % proc.pid)
        time.sleep(0.01)


class Batch(Workload):
    """batch_64: 64 programs of ~20k statements through `cfmc batch --jobs=4`
    with the lattice file (the only path that compiles the lattice)."""

    def setup(self):
        d = self.reset_dir("batch")
        corpus = os.path.join(d, "corpus")
        os.makedirs(corpus)
        n = self.profile["batch_programs"]
        paths = [os.path.join(corpus, "p%02d.cfm" % i) for i in range(n)]
        stmts = gen_many([(p, self.profile["batch_stmts"], self.args.seed * 1000 + i)
                          for i, p in enumerate(paths)])
        # The last program is replaced by its rejecting twin, so every batch
        # must report exactly one REJECTED row among certified ones.
        twin = paths[-1]
        write(twin, make_twin(read(twin))[0])
        self.inputs = {"bytes": sum(os.path.getsize(p) for p in paths),
                       "stmts": stmts, "files": n}
        return {"corpus": corpus, "paths": paths, "twin": twin}

    def batch_ok(self, proc, st):
        rows = re.findall(rb"^(CERTIFIED|REJECTED|ERROR) +(\S+)", proc.out, re.M)
        expected = [(b"REJECTED" if p == st["twin"] else b"CERTIFIED", p.encode())
                    for p in sorted(st["paths"])]
        return proc.exit_code == 1 and sorted(rows, key=lambda r: r[1]) == expected

    def measure(self, st):
        lattice = "--lattice-file=" + LATTICE_FILE
        batches, singles = [], []

        def batch():
            proc = cfmc("batch", st["corpus"], "--jobs=4", lattice)
            batches.append(proc)
            self.outcome.check(self.batch_ok(proc, st), "batch verdicts")

        def single():
            proc = cfmc("check", st["paths"][0], "--json", lattice)
            singles.append(proc)
            self.outcome.check(proc.exit_code == 0 and certified(proc),
                               "one-shot check of a corpus program")

        # Three one-shot checks per batch: the check is short, so its median
        # needs more samples than the batch's does.
        timed_loop(self.args.seconds, [batch, single, single, single], self.host.sample)
        if not singles:
            single()
        batch_s = self.timing("batch_s", [p.wall_s for p in batches], "s")
        single_s = self.timing("check_one_s", [p.wall_s for p in singles], "s")
        batch_rss = max(p.rss_mb for p in batches)
        peak = max(p.rss_mb for p in batches + singles)
        self.e2e.update(primary_ms=batch_s * 1e3, secondary_ms=single_s * 1e3,
                        primary_rss_mb=batch_rss, peak_rss_mb=peak)
        self.note("batch_programs_per_s", len(st["paths"]) / median(self.samples["batch_s"]),
                  "1/s", "over the median batch")
        self.note("peak_rss_mb", peak, "MB")

    def traced(self, st):
        # The per-request chain runs over a sample of the certifying
        # programs; BatchCertifier runs over the whole corpus, twin included.
        sampled = st["paths"][:-1][::self.profile["batch_trace_every"]]
        self.trace(sampled, "--lattice-file=" + LATTICE_FILE, "--batch=" + st["corpus"])
        self.outcome.check(self.layers["batch.programs"] == len(st["paths"])
                           and self.layers["batch.rejected"] == 1,
                           "in-process batch verdicts")
        self.layer_bases = {"batch.speedup_4v1": "jobs=1 wall / jobs=4 wall, %d programs"
                            % len(st["paths"])}


CLASSES = {"oneshot_100k": OneShot, "cert_mls": CertMls, "daemon_mix": Daemon,
           "batch_64": Batch}


# --- reporting -----------------------------------------------------------------


def print_table(workload):
    print("== %s (seed %d, %s profile, trace %d)" % (
        workload.args.workload, workload.args.seed, workload.args.profile, workload.args.trace))
    for name, value, unit, detail in workload.table:
        if unit:
            print("  %-24s %14.6f %-6s %s" % (name, value, unit, detail))
        else:
            print("  %-24s %s" % (name, detail))
    if not workload.args.trace:
        primary, secondary = ROLES[workload.args.workload]
        print("  primary   = %s" % primary)
        print("  secondary = %s" % secondary)
    o = workload.outcome
    print("  %-24s %14.6f %-6s %d of %d operations" % (
        "failed_frac", len(o.failures) / max(1, o.attempted), "ratio", len(o.failures),
        o.attempted))


def print_layers(workload):
    layers = workload.layers
    bases = workload.layer_bases
    extra = WORKLOAD_LAYERS.get(workload.args.workload, ())
    print("  per-layer metrics (traced run)")
    for name, unit in PER_LAYER + extra:
        print("    %-38s %16.6f %-6s %s" % (name, layers.get(name, float("nan")), unit,
                                           bases.get(name, "")))
    result = workload.trace_result
    wall = result["wall_s"]
    print("  self time by span (traced wall %.3f s, %d spans; Chrome trace: %s)" % (
        wall, result["spans"], workload.trace_out))
    for name, seconds in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
        print("    %-38s %12.6f s %6.1f%%" % (name, seconds, 100 * seconds / wall))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(CLASSES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--out", help="append this run's record (JSON line) to a file")
    parser.add_argument("--ledger", action="store_true",
                        help="print the ROADMAP baseline ledger instead of a workload run")
    args = parser.parse_args(argv)
    if not args.ledger and not args.workload:
        parser.error("--workload is required")
    os.chdir(ROOT)
    try:
        build()
        if args.ledger:
            import ledger
            ledger.main(args)
            return 0
        return run_once(args)
    except (BenchError, OSError) as error:
        log("perfbench: %s" % error)
        return 1


def run_once(args):
    work = os.path.join(WORK_ROOT, "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    workload = CLASSES[args.workload](args, work)
    try:
        workload.run_workload()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov = provenance(args, workload.inputs)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print_table(workload)
    if args.trace:
        print_layers(workload)
        chosen = PER_LAYER
        values = workload.layers
    else:
        chosen = END_TO_END
        values = workload.e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in chosen}
    o = workload.outcome
    result = {"correct": not o.failures, "attempted": max(1, o.attempted),
              "failed": len(o.failures), "metrics": metrics}
    if args.out:
        record = dict(result, provenance=prov,
                      table={n: {"value": v, "unit": u} for n, v, u, _ in workload.table if u})
        if args.trace:
            record["layers"] = workload.layers
        else:
            record["samples"] = workload.samples
        with open(args.out, "a") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
