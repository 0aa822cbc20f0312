#!/usr/bin/env python3
"""End-to-end benchmark of the `dn-hunter` binary, plus a traced per-layer run.

    python3 perfbench/run.py --workload pcap-seq --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. It builds `dn-hunter`, `gen-trace`
and the tracer (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), generates the seed's inputs with `gen-trace --profile
EU1-ADSL1`, and then:

* `--trace 0`: runs the workload's `dn-hunter` command line over and over
  for `--seconds`, one invocation per operation, and reports the medians of
  the end-to-end metrics. Every output is written to a file and hashed after
  the invocation has exited; it must match the digest of a reference run
  taken through a different code path.
* `--trace 1`: runs `perfbench-tracer`, which replays the same inputs
  through each layer's public functions with a span around every call, and
  reports the per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md for the
workloads, the metrics and the layer map.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

PROFILE = "EU1-ADSL1"
# gen-trace scales tried in order until the trace has enough records; the
# inputs are then cut to a fixed size, so every seed measures equal work.
SCALES = ("0.05", "0.1", "0.2")
FRAMES = 72_000
EXPORT_RECORDS = 12_000
# Traces per untraced run, from gen-trace seeds 4S .. 4S+3. A dozen clients
# make one trace's traffic mix vary by about 7% in cost from seed to seed
# (13% for flowrec); cycling through four traces halves that.
TRACES = 4
PCAP_HEADER = 24
DNFR_HEADER = 6
# Set-up runs per benchmark run; their median is `setup_s`.
SETUP_RUNS = 9
# Rounds (one invocation per trace) always made, even when --seconds is
# already spent.
MIN_ROUNDS = 3
# An invocation still running after this long is killed and counts failed.
OP_TIMEOUT_S = 60

WINDOW_FLAGS = ["--window", "1h", "--slide", "5m", "--rotate", "10m"]

# Each workload: the measured command line, the reference command line whose
# output it must equal byte for byte, and what is fed on stdin and where the
# checked output goes. `{pcap}`, `{dnfr}` and `{out}` are filled in per run.
WORKLOADS = {
    "pcap-seq": {
        "argv": ["{pcap}", "--json"],
        "ref_argv": ["{pcap}", "--json", "--workers", "2"],
        "records": FRAMES,
    },
    "pcap-par": {
        "argv": ["{pcap}", "--json", "--workers", "2", "--dispatchers", "2"],
        "ref_argv": ["{pcap}", "--json"],
        "records": FRAMES,
    },
    "stream-window": {
        "argv": ["-", "--workers", "2", "--stream-analytics", "{out}"] + WINDOW_FLAGS,
        "stdin": "pcap",
        "ref_argv": ["{pcap}", "--workers", "2", "--stream-analytics", "{out}"]
        + WINDOW_FLAGS,
        "output": "file",
        "records": FRAMES,
    },
    "flowrec": {
        "argv": ["{dnfr}", "--flowrec", "--stream-analytics", "{out}"],
        "ref_argv": ["-", "--flowrec", "--stream-analytics", "{out}"],
        "ref_stdin": "dnfr",
        "output": "file",
        "records": EXPORT_RECORDS,
    },
}


class BenchError(Exception):
    """A condition that voids the run: no result is printed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, target):
    """Build the binaries and the tracer; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for extra in (
        ["-p", "dnhunter", "--bin", "dn-hunter", "-p", "dnhunter-simnet", "--bin", "gen-trace"],
        ["--manifest-path", os.path.join("perfbench", "tracer", "Cargo.toml")],
    ):
        done = subprocess.run(cargo + extra, cwd=root, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, stdin=subprocess.DEVNULL)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cargo + extra)}")
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name)
            for name in ("dn-hunter", "gen-trace", "perfbench-tracer")}


def cut_pcap(f, dst, n):
    """Copy the global header and the first `n` records; False if fewer."""
    with open(dst, "wb") as out:
        header = f.read(PCAP_HEADER)
        out.write(header)
        order = "<" if header[:4] == b"\xd4\xc3\xb2\xa1" else ">"
        for _ in range(n):
            rec = f.read(16)
            if len(rec) < 16:
                return False
            incl_len = struct.unpack_from(order + "I", rec, 8)[0]
            out.write(rec)
            out.write(f.read(incl_len))
    return True


def cut_dnfr(f, dst, n):
    """Copy the DNFR header and the first `n` records; False if fewer."""
    with open(dst, "wb") as out:
        out.write(f.read(DNFR_HEADER))
        for _ in range(n):
            head = f.read(5)
            if len(head) < 5:
                return False
            out.write(head)
            out.write(f.read(struct.unpack_from("<I", head, 1)[0]))
    return True


def make_inputs(bins, work, seed):
    """The seed's pcap and DNFR, cut to fixed sizes, plus header-only twins.
    gen-trace writes into FIFOs, so only the cut part reaches the disk."""
    os.makedirs(work)
    paths = {k: os.path.join(work, k) for k in ("pcap", "dnfr", "empty_pcap", "empty_dnfr")}
    fifos = os.path.join(work, "full.pcap"), os.path.join(work, "full.dnfr")
    for fifo in fifos:
        os.mkfifo(fifo)
    for scale in SCALES:
        gen = subprocess.Popen(
            [bins["gen-trace"], "--profile", PROFILE, "--scale", scale, "--seed", str(seed),
             "-o", fifos[0], "--flowrec-out", fifos[1]],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, stdin=subprocess.DEVNULL)
        # gen-trace writes the whole pcap, then the whole DNFR; each is cut,
        # and the rest is read and dropped.
        with open(fifos[0], "rb") as f:
            enough = cut_pcap(f, paths["pcap"], FRAMES)
            while f.read(1 << 20):
                pass
        with open(fifos[1], "rb") as f:
            enough = cut_dnfr(f, paths["dnfr"], EXPORT_RECORDS) and enough
            while f.read(1 << 20):
                pass
        err = gen.communicate()[1]
        if gen.returncode != 0:
            raise BenchError(f"gen-trace failed: {err.decode(errors='replace')}")
        if enough:
            break
    else:
        raise BenchError(f"seed {seed}: no scale in {SCALES} gives {FRAMES} frames")
    for kind, size in (("pcap", PCAP_HEADER), ("dnfr", DNFR_HEADER)):
        with open(paths[kind], "rb") as f, open(paths["empty_" + kind], "wb") as out:
            out.write(f.read(size))
    return paths


def feed(path, pipe):
    """Writer thread: copy `path` into the child's stdin, then close it."""
    try:
        with open(path, "rb") as f:
            size, offset = os.fstat(f.fileno()).st_size, 0
            while offset < size:
                sent = os.sendfile(pipe.fileno(), f.fileno(), offset, size - offset)
                if sent == 0:
                    break
                offset += sent
    except BrokenPipeError:
        pass  # the child exited early; its exit status tells why
    finally:
        try:
            pipe.close()
        except BrokenPipeError:
            pass


def invoke(argv, stdin_path, stdout_path):
    """One operation: spawn, feed stdin, wait. Wall time is spawn to exit;
    CPU time and peak RSS are the kernel's accounting for the child, read
    once by wait4(2) when it is reaped."""
    stderr_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err,
                                 stdin=subprocess.PIPE if stdin_path else subprocess.DEVNULL)
        writer = None
        if stdin_path:
            writer = threading.Thread(target=feed, args=(stdin_path, child.stdin))
            writer.start()
        # A hung child is killed from SIGALRM, which needs no third thread.
        signal.signal(signal.SIGALRM, lambda *_: child.kill())
        signal.alarm(OP_TIMEOUT_S)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if writer:
        writer.join()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,
        "code": child.returncode,
        "stderr": stderr_path,
    }


class Workload:
    """One workload's command lines over one seed's inputs."""

    def __init__(self, name, bins, inputs, work):
        self.spec = WORKLOADS[name]
        self.bin = bins["dn-hunter"]
        self.inputs = inputs
        self.work = work

    def _argv(self, key, out, empty):
        names = {"pcap": "empty_pcap" if empty else "pcap",
                 "dnfr": "empty_dnfr" if empty else "dnfr"}
        fill = {k: self.inputs[v] for k, v in names.items()}
        fill["out"] = out
        return [self.bin] + [a.format(**fill) for a in self.spec[key]]

    def run(self, tag, reference=False, empty=False):
        """Invoke once; returns the measurement and the checked output file."""
        stdout = os.path.join(self.work, f"{tag}.stdout")
        out = os.path.join(self.work, f"{tag}.out")
        key = "ref_argv" if reference else "argv"
        stdin = self.spec.get("ref_stdin" if reference else "stdin")
        if stdin:
            stdin = self.inputs["empty_" + stdin if empty else stdin]
        op = invoke(self._argv(key, out, empty), stdin, stdout)
        op["output"] = out if self.spec.get("output") == "file" else stdout
        return op


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def validate_reference(name, op):
    """Structural checks on the reference output, beyond byte equality."""
    if op["code"] != 0:
        raise BenchError(f"{name}: reference run exited {op['code']}")
    with open(op["output"], "rb") as f:
        lines = f.read().decode().splitlines()
    if not lines:
        raise BenchError(f"{name}: reference output is empty")
    rows = [json.loads(line) for line in lines]
    if name.startswith("pcap-") and not all("key" in r and "protocol" in r for r in rows):
        raise BenchError(f"{name}: reference database has rows without a flow key")
    if name == "stream-window":
        footer = rows[-1]
        if (footer.get("rotations", 0) < 1 or footer.get("late_bucket_events") != 0
                or footer.get("dropped_bucket_events") != 0):
            raise BenchError(f"stream-window: unexpected footer {footer}")
    if name == "flowrec":
        with open(op["stderr"]) as f:
            err = f.read()
        # "flow-record ingest: D dns, F flow, S skew-overflow, L late"
        words = err.split("flow-record ingest:")[-1].replace(",", " ").split()
        if len(words) < 8 or int(words[0]) + int(words[2]) != EXPORT_RECORDS or words[4] != "0":
            raise BenchError(f"flowrec: reference ingest summary is off: {err.strip()}")


def median(values):
    return statistics.median(values) if values else 0.0


def measure(name, wls, seconds):
    """The untraced run: set-up runs, then rounds of one invocation per
    trace until `seconds` have passed. Each metric is a median over rounds
    of the round's figure, so every trace weighs the same in it."""
    expected = []
    for wl in wls:
        reference = wl.run("reference", reference=True)
        validate_reference(name, reference)
        expected.append(digest(reference["output"]))

    attempted = failed = 0
    setups = []
    for i in range(SETUP_RUNS):
        op = wls[0].run(f"setup{i}", empty=True)
        attempted += 1
        if op["code"] == 0:
            setups.append(op["wall"])
        else:
            failed += 1

    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        ops = []
        for wl, digest_ok in zip(wls, expected):
            op = wl.run("op")
            attempted += 1
            # Hashed after the invocation has exited, so hashing costs it nothing.
            if op["code"] == 0 and digest(op["output"]) == digest_ok:
                ops.append(op)
            else:
                failed += 1
                log(f"{name}: operation failed (exit {op['code']})")
        if len(ops) == len(wls):
            rounds.append(ops)
        elif failed > len(wls) * MIN_ROUNDS:
            break
    records = WORKLOADS[name]["records"]
    log(f"{name}: {len(rounds)} rounds of {len(wls)} operations, "
        f"{len(setups)} set-up runs, {failed} failed, {os.cpu_count()} hardware threads")
    metrics = {
        "records_per_s": (median([records * len(r) / sum(op["wall"] for op in r)
                                  for r in rounds]), "records/s"),
        "cpu_s": (median([statistics.fmean(op["cpu"] for op in r) for r in rounds]), "s"),
        "peak_rss_mb": (median([statistics.fmean(op["rss_mib"] for op in r)
                                for r in rounds]), "MiB"),
        "setup_s": (median(setups), "s"),
    }
    return failed == 0 and bool(rounds), attempted, failed, metrics


def trace(name, wl, bins, seconds, spans):
    """The traced run: the tracer replays this seed's inputs layer by layer
    and compares what it renders with the binary's output."""
    op = wl.run("expected")
    validate_reference(name, op)
    done = subprocess.run(
        [bins["perfbench-tracer"], "--workload", name, "--pcap", wl.inputs["pcap"],
         "--dnfr", wl.inputs["dnfr"], "--expect", op["output"], "--seconds", str(seconds),
         "--spans", spans],
        stdout=subprocess.PIPE, stderr=sys.stderr, stdin=subprocess.DEVNULL,
        timeout=seconds + OP_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"tracer exited {done.returncode}")
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    with open("BENCHMARK.json") as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise BenchError(f"tracer did not report {missing}")
    metrics = {n: (result["metrics"][n], u) for n, u in units.items()}
    attempted = 1 + result["reps"]
    return result["correct"], attempted, result["mismatches"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        log("not the root of a dn-hunter source checkout (no Cargo.toml and crates/)")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bench_dir = os.path.join(target, "perfbench")
    work = os.path.join(bench_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        bins = build(root, target)
        # The traced run replays the first trace only. Two traces are
        # generated at a time, one per core, before anything is timed.
        subs = [os.path.join(work, f"trace{k}") for k in range(1 if args.trace else TRACES)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            made = pool.map(lambda k: make_inputs(bins, subs[k], TRACES * args.seed + k),
                            range(len(subs)))
            wls = [Workload(args.workload, bins, inputs, sub)
                   for inputs, sub in zip(made, subs)]
        # Write back the build and the inputs now, so that no writeback runs
        # while anything is timed.
        os.sync()
        if args.trace:
            spans = os.path.join(bench_dir, f"spans-{args.workload}-seed{args.seed}.json")
            correct, attempted, failed, metrics = trace(
                args.workload, wls[0], bins, args.seconds, spans)
        else:
            correct, attempted, failed, metrics = measure(args.workload, wls, args.seconds)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        log(f"a metric is not a finite number: {metrics}")
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
