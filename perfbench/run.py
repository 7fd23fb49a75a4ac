#!/usr/bin/env python3
"""regcluster benchmark: one command per workload, from the repository root.

    python3 perfbench/run.py --workload mine_tight --seed 1 --seconds 10 --trace 0

Builds the repository's libraries, the `regcluster` CLI and the in-process
harness (perfbench/harness.cc) into .bench_build, generates the workload's
inputs from --seed, sets up (several times; the median is `setup_s`), then
measures for --seconds:

  --trace 0  the end-to-end metrics, through the real surfaces: one
             `regcluster mine` process per operation, or a `regcluster serve`
             daemon driven over loopback by four closed-loop clients;
  --trace 1  the per-layer metrics, from the harness replaying the same
             operations through the library calls with spans around them.

Every operation's output bytes are compared with a reference built during
set-up; a mismatch is a failed operation, makes "correct" false and the exit
code 1.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; earlier lines carry the
provenance and the details (sample counts, counters).  Metric names and
units come from BENCHMARK.json.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3


class BenchError(Exception):
    """A set-up or environment failure: no result line, exit code 2."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Workload parameters.  "toy" shrinks every input for the smoke test.
# ---------------------------------------------------------------------------

SCALES = {
    "full": {
        "mine_tight": dict(matrices=4, genes=5000, conditions=40, clusters=30,
                           ming=30, minc=6, gamma=0.1, epsilon=0.01,
                           min_ops=8),
        "mine_loose": dict(matrices=4, genes=3000, conditions=40, clusters=30,
                           ming=30, minc=6, gamma=0.1, epsilon=0.5,
                           min_ops=8),
        "serve_mixed": dict(matrices=8, genes=2000, conditions=30,
                            clusters=20, ming=20, minc=5, cache_mb=24,
                            tc_genes=1500, tc_clusters=30,
                            tc_gene_fraction=0.015, tc_appends=12,
                            min_requests=300),
        "timecourse_append": dict(chains=3, genes=3000, baseline=30,
                                  perturb=10, clusters=30, appends=32,
                                  period=8, ming=30, minc=6),
    },
    "toy": {
        "mine_tight": dict(matrices=2, genes=400, conditions=14, clusters=3,
                           gene_fraction=0.05, ming=10, minc=4, gamma=0.1,
                           epsilon=0.01, min_ops=2),
        "mine_loose": dict(matrices=2, genes=300, conditions=14, clusters=3,
                           gene_fraction=0.05, ming=10, minc=4, gamma=0.1,
                           epsilon=0.5, min_ops=2),
        "serve_mixed": dict(matrices=3, genes=300, conditions=14, clusters=3,
                            gene_fraction=0.05, ming=10, minc=4, cache_mb=1,
                            tc_genes=300, tc_clusters=3,
                            tc_gene_fraction=0.05, tc_appends=3,
                            min_requests=12),
        "timecourse_append": dict(chains=2, genes=300, baseline=8, perturb=8,
                                  clusters=3, gene_fraction=0.05, appends=4,
                                  period=4, ming=10, minc=4),
    },
}

THREADS = 4


# ---------------------------------------------------------------------------
# Build, provenance, processes.
# ---------------------------------------------------------------------------

def require_checkout():
    for rel in ("src/CMakeLists.txt", "tools/regcluster_cli.cc",
                "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError("not a regcluster checkout: %s is missing" % rel)


def build():
    """Configures (once) and builds the CLI and the harness; returns paths."""
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    with open(log_path, "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                raise BenchError("cmake configure failed; see " + log_path)
        cmd = ["cmake", "--build", BUILD, "-j", str(THREADS), "--target",
               "regcluster_cli", "perfbench_harness"]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            raise BenchError("build failed; see " + log_path)
    return os.path.join(BUILD, "regcluster"), \
        os.path.join(BUILD, "perfbench_harness")


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not be
    a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or "none" when it is not a git repository of
    its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


class Proc:
    """Result of one child process: wall time, exit code, peak RSS, output."""

    def __init__(self, wall_s, code, maxrss_mib, stdout, stderr):
        self.wall_s = wall_s
        self.code = code
        self.maxrss_mib = maxrss_mib
        self.stdout = stdout
        self.stderr = stderr


def run_proc(args, err_path, capture=False):
    """Runs a child to completion; wall time from spawn to reaping."""
    with open(err_path, "w+") as err:
        start = time.perf_counter()
        p = subprocess.Popen(args, stdout=subprocess.PIPE if capture
                             else subprocess.DEVNULL, stderr=err)
        out = p.stdout.read() if capture else b""
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        if capture:
            p.stdout.close()
        err.seek(0)
        text = err.read()
    return Proc(wall, p.returncode, usage.ru_maxrss / 1024.0,
                out.decode(errors="replace"), text)


def must(proc, what):
    if proc.code != 0:
        raise BenchError("%s failed (exit %d): %s" %
                         (what, proc.code, proc.stderr.strip()[-400:]))
    return proc


def harness_json(harness, args, err_path):
    p = must(run_proc([harness] + args, err_path, capture=True),
             "harness " + args[0])
    return json.loads(p.stdout.strip().splitlines()[-1])


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def corrupt(path):
    """Flips one byte of a reference, or adds one to an empty reference
    (smoke test of the output gate)."""
    data = bytearray(read_bytes(path)) or bytearray(b"\0")
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as f:
        f.write(bytes(data))


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def mine_flags(p):
    return ["--ming=%d" % p["ming"], "--minc=%d" % p["minc"],
            "--gamma=%r" % p["gamma"], "--epsilon=%r" % p["epsilon"]]


def tc_flags(p):
    return ["--gamma-policy=absolute", "--gamma=1.0", "--epsilon=0.3",
            "--ming=%d" % p["ming"], "--minc=%d" % p["minc"]]


def generate(cli, d, name, genes, conditions, clusters, seed, p):
    path = os.path.join(d, name)
    args = [cli, "generate", "--out-matrix=" + path, "--genes=%d" % genes,
            "--conditions=%d" % conditions, "--clusters=%d" % clusters,
            "--seed=%d" % seed]
    if "gene_fraction" in p:
        args.append("--gene-fraction=%r" % p["gene_fraction"])
    must(run_proc(args, os.path.join(d, "gen.err")), "generate")
    return path


# ---------------------------------------------------------------------------
# Workloads.  Each has setup(dir) (timed, repeated), measure(seconds) for the
# end-to-end run and trace(seconds) for the per-layer run.
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, name, cli, harness, seed, params):
        self.name = name
        self.cli = cli
        self.harness = harness
        self.seed = seed
        self.p = params
        self.attempted = 0
        self.failed = 0
        self.details = {}

    def input_seed(self, tag):
        """Generator seed for one input, derived from --seed and the input's
        tag.  It lies in [0, 2^31) whatever --seed is (large, negative), so
        it fits the int seed flags of the CLI and the harness."""
        h = hashlib.sha256(("%d/%s" % (self.seed, tag)).encode()).digest()
        return int.from_bytes(h[:4], "big") & 0x7fffffff

    def record(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1

    def teardown(self):
        pass

    def summarize(self, walls, elapsed, rss):
        """End-to-end metrics from per-operation wall times (s)."""
        self.details["samples"] = len(walls)
        return {"p50_ms": percentile(walls, 50) * 1e3,
                "p90_ms": percentile(walls, 90) * 1e3,
                "ops_per_s": len(walls) / elapsed,
                "peak_rss_mib": rss}


class MineWorkload(Workload):
    """`regcluster mine` as a process over a rotation of seed-derived
    matrices; reference = the --threads=1 archive made during set-up."""

    def setup(self, d):
        p = self.p
        self.dir = d
        binary = self.name == "mine_loose"
        self.matrices = []
        for i in range(p["matrices"]):
            text = generate(self.cli, d, "m%d.tsv" % i, p["genes"],
                            p["conditions"], p["clusters"],
                            self.input_seed("m%d" % i), p)
            if binary:
                path = os.path.join(d, "m%d.bin" % i)
                must(run_proc([self.cli, "convert", "--in=" + text,
                               "--out=" + path, "--out-format=bin"],
                              os.path.join(d, "conv.err")), "convert")
                os.remove(text)
            else:
                path = text
            self.matrices.append(path)
        # Serial references, one process per matrix, run side by side.
        self.refs = [os.path.join(d, "ref%d.txt" % i)
                     for i in range(len(self.matrices))]
        procs = []
        for path, ref in zip(self.matrices, self.refs):
            err = open(os.path.join(d, os.path.basename(ref) + ".err"), "w")
            procs.append((subprocess.Popen(
                [self.cli, "mine", "--matrix=" + path, "--out=" + ref,
                 "--threads=1"] + mine_flags(p),
                stdout=subprocess.DEVNULL, stderr=err), err))
        for proc, err in procs:
            code = proc.wait()
            err.close()
            if code != 0:
                raise BenchError("reference mine failed (exit %d)" % code)
        self.ref_bytes = [read_bytes(r) for r in self.refs]
        # Warm-up: one checked mine, so binaries and inputs are paged in.
        r = self.mine_once(0)
        if not r[0]:
            raise BenchError("warm-up mine differs from its reference")

    def mine_once(self, i):
        out = os.path.join(self.dir, "out.txt")
        r = run_proc([self.cli, "mine", "--matrix=" + self.matrices[i],
                      "--out=" + out, "--threads=%d" % THREADS] +
                     mine_flags(self.p), os.path.join(self.dir, "mine.err"))
        ok = r.code == 0 and read_bytes(out) == self.ref_bytes[i]
        return ok, r

    def apply_corruption(self):
        corrupt(self.refs[0])
        self.ref_bytes[0] = read_bytes(self.refs[0])

    def measure(self, seconds):
        walls, rss = [], 0.0
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while time.perf_counter() < deadline or len(walls) < self.p["min_ops"]:
            ok, r = self.mine_once(i % len(self.matrices))
            self.record(ok)
            walls.append(r.wall_s)
            rss = max(rss, r.maxrss_mib)
            i += 1
        return self.summarize(walls, time.perf_counter() - start, rss)

    def trace(self, seconds):
        return harness_json(self.harness, [
            "trace-mine", "--matrices=" + ",".join(self.matrices),
            "--references=" + ",".join(self.refs),
            "--format=" + ("bin" if self.name == "mine_loose" else "text"),
            "--out-dir=" + self.dir, "--seconds=%r" % seconds,
            "--threads=%d" % THREADS,
            "--spans-out=" + os.path.join(WORK, self.name + ".spans.json")]
            + mine_flags(self.p), os.path.join(self.dir, "trace.err"))


class Chain:
    """One time course: its inputs, references and seed state."""

    def __init__(self, d):
        self.dir = d
        self.base = os.path.join(d, "base.bin")
        self.seed_state = os.path.join(d, "seed.inc")
        self.refs = []
        self.ref_bytes = []


class TimecourseWorkload(Workload):
    """Time courses grown one array per `mine --append` process.  Several
    seed-derived chains are stepped in turn, so a run's median does not
    hinge on one time course's data."""

    def setup(self, d):
        p = self.p
        self.dir = d
        self.chains = []
        for i in range(p["chains"]):
            c = Chain(os.path.join(d, "chain%d" % i))
            args = ["--dir=" + c.dir,
                    "--seed=%d" % self.input_seed("chain%d" % i),
                    "--genes=%d" % p["genes"], "--baseline=%d" % p["baseline"],
                    "--perturb=%d" % p["perturb"],
                    "--clusters=%d" % p["clusters"],
                    "--appends=%d" % p["appends"], "--period=%d" % p["period"]]
            if "gene_fraction" in p:
                args.append("--gene-fraction=%r" % p["gene_fraction"])
            harness_json(self.harness, ["gen-timecourse"] + args,
                         os.path.join(d, "gen.err"))
            harness_json(self.harness, [
                "ref-timecourse", "--dir=" + c.dir,
                "--appends=%d" % p["appends"], "--jobs=%d" % THREADS]
                + tc_flags(p), os.path.join(d, "ref.err"))
            c.refs = [os.path.join(c.dir, "ref_%03d.txt" % k)
                      for k in range(p["appends"] + 1)]
            c.ref_bytes = [read_bytes(r) for r in c.refs]
            # Seed of the chain: a full mine recording per-root state.
            out = os.path.join(c.dir, "seed.txt")
            must(run_proc([self.cli, "mine", "--matrix=" + c.base,
                           "--out=" + out, "--incremental-out=" + c.seed_state,
                           "--threads=%d" % THREADS] + tc_flags(p),
                          os.path.join(d, "seed.err")), "seed mine")
            if read_bytes(out) != c.ref_bytes[0]:
                raise BenchError("seed mine differs from its reference")
            self.chains.append(c)
        # Warm-up: the first append step, into scratch outputs.
        c = self.chains[0]
        ok, _ = self.step(c, 1, c.seed_state, c.base,
                          os.path.join(d, "warm.inc"),
                          os.path.join(d, "warm.bin"))
        if not ok:
            raise BenchError("warm-up append differs from its reference")

    def step(self, c, k, state, matrix, next_state, next_matrix):
        out = os.path.join(self.dir, "step.txt")
        r = run_proc([self.cli, "mine", "--matrix=" + matrix,
                      "--append=" + os.path.join(c.dir, "col_%03d.tsv" % k),
                      "--prev-outcome=" + state,
                      "--incremental-out=" + next_state,
                      "--matrix-out=" + next_matrix, "--out=" + out,
                      "--threads=%d" % THREADS] + tc_flags(self.p),
                     os.path.join(self.dir, "step.err"))
        ok = r.code == 0 and read_bytes(out) == c.ref_bytes[k]
        return ok, r

    def apply_corruption(self):
        c = self.chains[0]
        corrupt(c.refs[2])
        c.ref_bytes[2] = read_bytes(c.refs[2])

    def measure(self, seconds):
        p = self.p
        walls, rss = [], 0.0
        start = time.perf_counter()
        deadline = start + seconds
        # The first pass always runs every chain to its end, so every run
        # crosses the widest widths; later passes stop at the deadline.
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            heads = [(c.seed_state, c.base) for c in self.chains]
            for k in range(1, p["appends"] + 1):
                if passes > 0 and time.perf_counter() >= deadline:
                    break
                for i, c in enumerate(self.chains):
                    nstate = os.path.join(c.dir, "s%d.inc" % (k % 2))
                    nmatrix = os.path.join(c.dir, "m%d.bin" % (k % 2))
                    ok, r = self.step(c, k, heads[i][0], heads[i][1], nstate,
                                      nmatrix)
                    self.record(ok)
                    walls.append(r.wall_s)
                    rss = max(rss, r.maxrss_mib)
                    heads[i] = (nstate, nmatrix)
            passes += 1
        return self.summarize(walls, time.perf_counter() - start, rss)

    def trace(self, seconds):
        return harness_json(self.harness, [
            "trace-timecourse",
            "--dirs=" + ",".join(c.dir for c in self.chains),
            "--out-dir=" + os.path.join(self.dir, "trace"),
            "--appends=%d" % self.p["appends"], "--seconds=%r" % seconds,
            "--threads=%d" % THREADS,
            "--spans-out=" + os.path.join(WORK, self.name + ".spans.json")]
            + tc_flags(self.p), os.path.join(self.dir, "trace.err"))


# ---------------------------------------------------------------------------
# serve_mixed: a daemon and four closed-loop clients.
# ---------------------------------------------------------------------------

class Client:
    """One closed-loop connection's request stream (deterministic per seed).

    Analysts pick a matrix by Zipf(1) over the text matrices and gamma /
    epsilon from two values each; the time-course client alternates an
    append of the next column with a mine of its binary matrix until its
    appends run out, then keeps mining, and scrapes /metrics every 10th
    request.

    The analysts' draws are stratified, so that a run's mix of requests
    is the same for every seed and only their order is seeded: matrices
    by smooth weighted round-robin over the Zipf weights (from a seeded
    starting credit), the four (gamma, epsilon) pairs in seeded blocks of
    four.  With independent draws, the run-to-run share of the costly
    pairs moved the median latency by more than a cache or admission
    change would."""

    def __init__(self, conn, kind, transport, seed, wl):
        self.conn = conn
        self.kind = kind
        self.transport = transport
        self.rng = random.Random("%d/%d" % (seed, conn))
        self.wl = wl
        self.n = 0
        self.appended = 0
        total = sum(wl.zipf)
        self.credit = [self.rng.uniform(0, total) for _ in wl.zipf]
        self.pairs = []

    def next(self):
        """(method, target, body, expected reference key or None)."""
        self.n += 1
        wl = self.wl
        if self.kind == "analyst":
            for j, w in enumerate(wl.zipf):
                self.credit[j] += w
            i = max(range(len(wl.zipf)), key=self.credit.__getitem__)
            self.credit[i] -= sum(wl.zipf)
            if not self.pairs:
                self.pairs = [(g, e) for g in (0.1, 0.15)
                              for e in (0.01, 0.05)]
                self.rng.shuffle(self.pairs)
            g, e = self.pairs.pop()
            key = "m%d_g%s_e%s" % (i, g, e)
            return "POST", "/mine", wl.keys[key], key
        if self.n % 10 == 0:
            return "GET", "/metrics", "", None
        if self.n % 2 == 0 and self.appended < wl.p["tc_appends"]:
            self.appended += 1
            return "POST", "/append", wl.append_bodies[self.appended], None
        key = "tc_w%d" % self.appended
        return "POST", "/mine", wl.keys[key], key


def http_call(port, method, target, body):
    data = body.encode()
    head = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
            "application/json\r\nContent-Length: %d\r\n\r\n" %
            (method, target, len(data))).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=120) as s:
        s.sendall(head + data)
        chunks = []
        while True:
            c = s.recv(65536)
            if not c:
                break
            chunks.append(c)
    raw = b"".join(chunks)
    head_end = raw.find(b"\r\n\r\n")
    status = int(raw.split(b" ", 2)[1]) if raw.startswith(b"HTTP/") else 0
    return status, raw[head_end + 4:] if head_end >= 0 else b""


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        c = sock.recv(n - len(buf))
        if not c:
            raise ConnectionError("daemon closed the framed connection")
        buf += c
    return buf


def frame_call(sock, payload):
    data = payload.encode()
    sock.sendall(struct.pack(">I", len(data)) + data)
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    return recv_exact(sock, length)


def frame_payload(method, target, body):
    op = {"/mine": "mine", "/append": "append", "/metrics": "metrics"}[target]
    if not body:
        return json.dumps({"op": op})
    return '{"op":"%s",%s' % (op, body.lstrip()[1:])


class ServeWorkload(Workload):
    def setup(self, d):
        p = self.p
        self.dir = d
        self.matrices = [
            generate(self.cli, d, "a%d.tsv" % i, p["genes"], p["conditions"],
                     p["clusters"], self.input_seed("a%d" % i), p)
            for i in range(p["matrices"])]
        self.zipf = [1.0 / (i + 1) for i in range(len(self.matrices))]
        tc_dir = os.path.join(d, "tc")
        harness_json(self.harness, [
            "gen-timecourse", "--dir=" + tc_dir,
            "--seed=%d" % self.input_seed("tc"),
            "--genes=%d" % p["tc_genes"], "--clusters=%d" % p["tc_clusters"],
            "--gene-fraction=%r" % p["tc_gene_fraction"],
            "--appends=%d" % p["tc_appends"], "--period=4"],
            os.path.join(d, "gen.err"))
        self.tc_base = os.path.join(tc_dir, "base.bin")
        self.tc_path = os.path.join(d, "tc.bin")
        shutil.copyfile(self.tc_base, self.tc_path)
        # Request bodies, one per distinct (matrix, options, width) key.
        self.keys = {}
        key_lines = []
        for i, path in enumerate(self.matrices):
            for g in (0.1, 0.15):
                for e in (0.01, 0.05):
                    key = "m%d_g%s_e%s" % (i, g, e)
                    body = json.dumps({
                        "matrix": path, "ming": p["ming"], "minc": p["minc"],
                        "gamma": g, "epsilon": e,
                        "deterministic_output": True})
                    self.keys[key] = body
                    key_lines.append("%s\t%s\t-\t%s" % (key, path, body))
        cols = [os.path.join(tc_dir, "col_%03d.tsv" % k)
                for k in range(1, p["tc_appends"] + 1)]
        self.append_bodies = {}
        for k in range(p["tc_appends"] + 1):
            key = "tc_w%d" % k
            body = json.dumps({
                "matrix": self.tc_path, "gamma_policy": "absolute",
                "gamma": 1.0, "epsilon": 0.3, "ming": p["ming"],
                "minc": p["minc"], "deterministic_output": True})
            self.keys[key] = body
            key_lines.append("%s\t%s\t%s\t%s" % (
                key, self.tc_base, ",".join(cols[:k]) or "-", body))
            if k > 0:
                with open(cols[k - 1]) as f:
                    lines = f.read().split("\n")
                name = lines[0].split("\t")[1]
                values = [ln.split("\t")[1] for ln in lines[1:] if ln]
                # Column values stay verbatim text so the daemon parses the
                # same digits the reference read from the TSV.
                self.append_bodies[k] = (
                    '{"matrix":%s,"names":[%s],"columns":[[%s]]}' %
                    (json.dumps(self.tc_path), json.dumps(name),
                     ",".join(values)))
        self.keys_file = os.path.join(d, "keys.tsv")
        with open(self.keys_file, "w") as f:
            f.write("\n".join(key_lines) + "\n")
        self.ref_dir = os.path.join(d, "refs")
        harness_json(self.harness, [
            "ref-serve", "--keys=" + self.keys_file,
            "--out-dir=" + self.ref_dir, "--jobs=%d" % THREADS],
            os.path.join(d, "ref.err"))
        self.refs = {k: read_bytes(os.path.join(self.ref_dir, k + ".json"))
                     for k in self.keys}
        self.start_daemon()
        # Warm-up: one checked mine per transport.
        for transport in ("http", "frame"):
            key = "m0_g0.1_e0.01"
            if transport == "http":
                status, body = http_call(self.port, "POST", "/mine",
                                         self.keys[key])
            else:
                with socket.create_connection(("127.0.0.1", self.port),
                                              timeout=120) as s:
                    status, body = 200, frame_call(
                        s, frame_payload("POST", "/mine", self.keys[key]))
            if status != 200 or body != self.refs[key]:
                raise BenchError("warm-up %s mine differs from its reference"
                                 % transport)

    def daemon_flags(self):
        """The daemon's settings; the traced replay builds its in-process
        service from the same flags."""
        return ["--threads=2", "--max-active=2", "--max-queued=8",
                "--cache-mb=%d" % self.p["cache_mb"]]

    def start_daemon(self):
        self.daemon_err = open(os.path.join(self.dir, "daemon.err"), "w")
        self.daemon = subprocess.Popen(
            [self.cli, "serve", "--port=0"] + self.daemon_flags(),
            stdout=subprocess.PIPE, stderr=self.daemon_err, text=True)
        line = self.daemon.stdout.readline()
        if not line.startswith("listening port="):
            self.stop_daemon()
            raise BenchError("daemon did not report listening: %r" % line)
        self.port = int(line.split("port=")[1].split()[0])

    def daemon_hwm_mib(self):
        with open("/proc/%d/status" % self.daemon.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop_daemon(self):
        if getattr(self, "daemon", None) is None:
            return
        if self.daemon.poll() is None:
            self.daemon.send_signal(signal.SIGTERM)
            try:
                self.daemon.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        self.daemon.stdout.close()
        self.daemon_err.close()
        self.daemon = None

    def teardown(self):
        self.stop_daemon()

    def apply_corruption(self):
        key = "m0_g0.1_e0.05"
        corrupt(os.path.join(self.ref_dir, key + ".json"))
        self.refs[key] = read_bytes(os.path.join(self.ref_dir, key + ".json"))

    def closed_loop(self, seconds, min_requests):
        """Four connections, each sending a fixed quota of its requests
        (min_requests shared out) and going on until the deadline.  The
        quota makes every run send the same requests: the clients' costs
        differ, so a shared count would let the mix drift with timing.
        Returns per-request latencies and the replayable request log."""
        clients = [Client(0, "analyst", "http", self.seed, self),
                   Client(1, "analyst", "http", self.seed, self),
                   Client(2, "analyst", "frame", self.seed, self),
                   Client(3, "timecourse", "http", self.seed, self)]
        lock = threading.Lock()
        lat, log_lines, scrapes = [], [], []
        first_body = {}
        state = {"attempted": 0, "failed": 0, "error": None}
        quota = -(-min_requests // len(clients))
        start = time.perf_counter()
        deadline = start + seconds

        def run(client):
            sock = None
            try:
                if client.transport == "frame":
                    sock = socket.create_connection(("127.0.0.1", self.port),
                                                    timeout=120)
                while client.n < quota or time.perf_counter() < deadline:
                    method, target, body, key = client.next()
                    t0 = time.perf_counter()
                    if sock is not None:
                        status = 200
                        resp = frame_call(sock, frame_payload(method, target,
                                                              body))
                    else:
                        status, resp = http_call(self.port, method, target,
                                                 body)
                    dt = time.perf_counter() - t0
                    ok = status == 200
                    if ok and key is not None:
                        ok = resp == self.refs[key]
                        with lock:
                            ok = ok and first_body.setdefault(key, resp) == resp
                    elif ok and target == "/append":
                        ok = resp.startswith(b'{"status":"ok"')
                    elif ok and target == "/metrics":
                        sample = {}
                        for m in re.finditer(
                                rb"^regcluster_server_(shed|queue_depth)"
                                rb"(?:_total)?\s+(\S+)", resp, re.M):
                            sample[m.group(1).decode()] = float(m.group(2))
                        ok = len(sample) == 2
                    payload = frame_payload(method, target, body) \
                        if sock is not None else body
                    with lock:
                        state["attempted"] += 1
                        if not ok:
                            state["failed"] += 1
                        lat.append(dt)
                        if target == "/metrics" and ok:
                            scrapes.append(sample)
                        log_lines.append("%d\t%s\t%s\t%s\t%s\t%s" % (
                            client.conn, client.transport, method, target,
                            payload, key or "-"))
            except Exception as e:  # reported by the main thread
                with lock:
                    state["error"] = "connection %d: %s" % (client.conn, e)
            finally:
                if sock is not None:
                    sock.close()

        threads = [threading.Thread(target=run, args=(c,)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        if state["error"]:
            raise BenchError(state["error"])
        self.attempted += state["attempted"]
        self.failed += state["failed"]
        return lat, elapsed, log_lines, scrapes

    def measure(self, seconds):
        lat, elapsed, _, _ = self.closed_loop(seconds, self.p["min_requests"])
        return self.summarize(lat, elapsed, self.daemon_hwm_mib())

    def trace(self, seconds):
        # Half the time (and half the minimum) on the daemon: transport, and
        # admission as sampled by /metrics.  Then the same request log
        # in-process.
        lat, _, log_lines, scrapes = self.closed_loop(
            seconds / 2.0, self.p["min_requests"] // 2)
        self.stop_daemon()
        shutil.copyfile(self.tc_base, self.tc_path)
        requests = os.path.join(self.dir, "requests.tsv")
        with open(requests, "w") as f:
            f.write("\n".join(log_lines) + "\n")
        res = harness_json(self.harness, [
            "trace-serve", "--requests=" + requests, "--keys=" + self.keys_file,
            "--ref-dir=" + self.ref_dir] + self.daemon_flags() + [
            "--spans-out=" + os.path.join(WORK, self.name + ".spans.json")],
            os.path.join(self.dir, "trace.err"))
        req_p50_ms = percentile(lat, 50) * 1e3
        res["server.transport_ms_p50"] = req_p50_ms - res["server.handle_ms_p50"]
        res["server.shed"] = max([s["shed"] for s in scrapes] or [0])
        res["server.queue_depth_max"] = max(
            [s["queue_depth"] for s in scrapes] or [0])
        res["req_p50_ms"] = req_p50_ms
        return res


WORKLOADS = {
    "mine_tight": MineWorkload,
    "mine_loose": MineWorkload,
    "serve_mixed": ServeWorkload,
    "timecourse_append": TimecourseWorkload,
}


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------

def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="toy shrinks every input (smoke test)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="flip a byte of one reference after set-up; the "
                         "output gate must then fail the run")
    args = ap.parse_args()

    try:
        require_checkout()
        end_to_end, per_layer = metric_specs()
        cli, harness = build()
        info = harness_json(harness, ["info"], os.path.join(BUILD, "info.err"))
        run_dir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
        params = SCALES[args.scale][args.workload]
        wl = WORKLOADS[args.workload](args.workload, cli, harness, args.seed,
                                      params)
        try:
            setup_s = []
            for rep in range(SETUP_REPEATS):
                d = os.path.join(run_dir, "setup%d" % rep)
                os.makedirs(d)
                wl.teardown()
                t0 = time.perf_counter()
                wl.setup(d)
                setup_s.append(time.perf_counter() - t0)
            if args.corrupt_reference:
                wl.apply_corruption()
            if args.trace:
                values = wl.trace(args.seconds)
                wl.attempted += int(values.pop("attempted"))
                wl.failed += int(values.pop("failed"))
                specs = per_layer
            else:
                values = wl.measure(args.seconds)
                values["setup_s"] = statistics.median(setup_s)
                specs = end_to_end
        finally:
            wl.teardown()
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 2

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "simd": info["simd"], "compiler": info["compiler"],
        "build_type": info["build_type"], "commit": git_commit(),
        "source_digest": source_digest(),
    }
    detail = dict(wl.details)
    detail["setup_runs_s"] = setup_s if not args.trace else None
    for k in ("counters", "serial_s", "traced_p50_s", "untraced_p50_s",
              "req_p50_ms", "server.lookup_hit_ratio"):
        if k in values:
            detail[k] = values[k]
    metrics = {}
    for m in specs:
        if m["name"] not in values:
            if not args.trace:
                log("perfbench: no value for " + m["name"])
                return 2
            # A layer this workload does not pass through.
            values[m["name"]] = 0
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = wl.failed == 0 and wl.attempted > 0
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
