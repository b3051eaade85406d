"""The ROADMAP baseline ledger (stage x 10^5 / 10^6 statements), regenerated
from the tree: `python3 perfbench/run.py --ledger [--seed N]`.

Stage rows come from one traced run per size (perfbench-layers trace, the
two-point lattice); the end-to-end rows are medians of three fresh cfmc
processes; the batch row times `cfmc batch` over 64 programs of 20k
statements at one and four jobs.
"""

import json
import os
import shutil

import run as bench

SIZES = (100_000, 1_000_000)


def traced(path, cert):
    args = [bench.binary("perfbench-layers"), "trace", "--lattice=two", path]
    proc = bench.run(args + (["--cert"] if cert else []))
    if proc.exit_code != 0:
        raise bench.BenchError("traced run failed: " + proc.err.decode(errors="replace"))
    return json.loads(proc.out)["metrics"]


def timed(args, reps=3):
    procs = [bench.run(args) for _ in range(reps)]
    if any(p.exit_code != 0 for p in procs):
        raise bench.BenchError("failed: " + " ".join(args))
    return bench.median([p.wall_s for p in procs]), max(p.rss_mb for p in procs)


def main(args):
    work = os.path.join(bench.WORK_ROOT, "ledger-%d" % os.getpid())
    os.makedirs(work)
    try:
        columns = {}
        for size in SIZES:
            path = os.path.join(work, "p%d.cfm" % size)
            bench.gen(path, size, args.seed)
            metrics = traced(path, cert=size < 1_000_000)
            check = timed([bench.binary("cfmc"), "check", path, "--json"])
            emit = None
            if size < 1_000_000:
                cert = os.path.join(work, "p.cfmcert")
                emit = timed([bench.binary("cfmc"), "check", path, "--json",
                              "--emit-cert=" + cert])
            columns[size] = (os.path.getsize(path), metrics, check, emit)
        corpus = os.path.join(work, "corpus")
        os.makedirs(corpus)
        bench.gen_many([(os.path.join(corpus, "p%02d.cfm" % i), 20_000, args.seed * 1000 + i)
                        for i in range(64)])
        batch = {jobs: timed([bench.binary("cfmc"), "batch", corpus, "--jobs=%d" % jobs])[0]
                 for jobs in (1, 4)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_ledger(columns, batch, args.seed)
    return 0


def cell(size, columns, render):
    if size not in columns:
        return "—"
    value = render(*columns[size])
    return value if value is not None else "—"


def print_ledger(columns, batch, seed):
    def secs(key):
        return lambda nbytes, m, c, e: "%.3f s" % m[key]

    rows = [
        ("lex only", lambda nbytes, m, c, e: "%.3f s (%.1f M tokens, %.0f ns/token)" % (
            m["lang.lex_s"], m["lang.tokens"] / 1e6, m["lang.lex_ns_per_token"])),
        ("parse (incl. lex)", secs("lang.parse_s")),
        ("certify (Figure 2)", secs("core.certify_s")),
        ("Denning baseline", secs("core.denning_s")),
        ("bytecode + footprints", lambda nbytes, m, c, e: "%.3f s" % (
            m["runtime.bytecode_s"] + m["runtime.footprints_s"])),
        ("lint passes (nine)", lambda nbytes, m, c, e: "%.3f s" % sum(
            v for k, v in m.items() if k.startswith("analysis.pass."))),
        ("prove / in-process check", lambda nbytes, m, c, e: "%.3f s / %.3f s" % (
            m["logic.prove_s"], m["logic.proof_check_s"])),
        ("emit `cfmcert 1` / verify", lambda nbytes, m, c, e: None if "logic.emit_s" not in m
         else "%.3f s / %.3f s (%.0f MB cert)" % (
             m["logic.emit_s"], m["certcheck.verify_s"],
             m["logic.cert_bytes_per_src_byte"] * nbytes / 1e6)),
        ("`cfmc check --json`, end to end", lambda nbytes, m, c, e: "%.3f s, %.0f MB peak RSS"
         % c),
        ("`cfmc check --emit-cert`, end to end", lambda nbytes, m, c, e: None if e is None
         else "%.3f s, %.0f MB peak RSS" % e),
    ]
    header = " | ".join("10^%d stmts (%.1f MB)" % (len(str(size)) - 1, columns[size][0] / 1e6)
                        for size in SIZES)
    print("Baseline ledger: release build, %d CPUs, `cfmc gen --scale=N --seed=%d`, "
          "two-point lattice." % (os.cpu_count(), seed))
    print()
    print("| stage / command | %s |" % header)
    print("|---|%s" % ("---|" * len(SIZES)))
    for name, render in rows:
        print("| %s | %s |" % (name, " | ".join(cell(size, columns, render) for size in SIZES)))
    print()
    print("`cfmc batch`, 64 programs x 20k statements: %.3f s with `--jobs=1`, %.3f s with "
          "`--jobs=4` (%.1fx)." % (batch[1], batch[4], batch[1] / batch[4]))
