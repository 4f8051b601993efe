#!/usr/bin/env python3
"""Wall-clock serving benchmark of the LedgerDB reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload append_heavy --seed 1 --seconds 15 --trace 0

It builds perfbench/perfbench.exe with dune, generates the workload's inputs
from the seed, starts the server in its own process (a Crypto_profile.Real
ledger on the in-memory Stream_store, no persist, served by Net_server with
workers = nproc and lock-free reads), and drives it over loopback TCP with
the closed-loop verifying generator (min(nproc, 16) connections, one per
domain).
Set-up is repeated (3 to 9 times) and its median reported.  Every response
is verified; an end-of-run integrity check re-verifies a seeded sample of
receipts against the final commitment, and every replica pulled against the
server's final state.

--trace 0 prints the end-to-end metrics; --trace 1 runs a traced window
between two untraced halves, with the server's span recording on only
inside it, replays the window's request frames through the layer calls
and prints the per-layer metrics, the residual at each level and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is non-zero on
any build, verification or integrity failure.
"""

import argparse
import json
import os
import platform
import select
import socket
import statistics
import struct
import subprocess
import sys
import time
import zlib

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
# Set-up is timed at least SETUP_MIN times and until SETUP_BUDGET_S of
# set-up has been spent (at most SETUP_MAX times): a cheap set-up is
# repeated more, so its median is as steady as an expensive one's.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 4.0
WORKLOADS = ("append_heavy", "read_verify", "audit_scan")

def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


class Lines:
    """The standard output of a child process, line by line, with a
    deadline: unbuffered, so that select() sees every line."""

    def __init__(self, proc):
        self.fd = proc.stdout.fileno()
        self.buf = b""

    def next(self, deadline):
        """The next line, or None at end of output."""
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError("timed out waiting for a child process")
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 65536)
                if not chunk:
                    return None
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def expect(self, prefix, timeout):
        """The rest of the next line starting with [prefix]."""
        deadline = time.monotonic() + timeout
        while True:
            line = self.next(deadline)
            if line is None:
                raise RuntimeError("process exited before " + prefix)
            if line.startswith(prefix):
                return line[len(prefix):].strip()


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise RuntimeError("connection closed")
        buf += chunk
    return buf


def first_op(port):
    """One Get_checkpoint round trip in the Net_framing wire format:
    "LDBW" len:u32be payload crc:u32be, crc over len ++ payload."""
    payload = bytes([10])
    ln = struct.pack(">I", len(payload))
    frame = b"LDBW" + ln + payload + struct.pack(">I", zlib.crc32(ln + payload))
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(frame)
        hdr = recv_exact(s, 8)
        n = struct.unpack(">I", hdr[4:])[0]
        body = recv_exact(s, n + 4)
    if hdr[:4] != b"LDBW" or struct.unpack(">I", body[n:])[0] != zlib.crc32(hdr[4:] + body[:n]):
        raise RuntimeError("first op: bad response frame")


def start_server(paths, trace):
    proc = subprocess.Popen(
        [EXE, "server", "--inputs", paths["inputs"], "--seeded", paths["seeded"],
         "--trace", str(trace), "--spans", paths["server_spans"]],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    return proc, Lines(proc)


def tell(proc, line):
    proc.stdin.write((line + "\n").encode())
    proc.stdin.flush()


def stop_server(server):
    proc, out = server
    tell(proc, "STOP")
    stats = json.loads(out.expect("STATS ", 60))
    proc.wait(timeout=60)
    return stats


def run_load(cmd, server, timeout, procs):
    """Run the load generator to its end and return its LOAD record.  Its
    [CTL trace X] lines switch the server's span recording: each is passed
    to the server, and acknowledged to the generator once the server has
    switched."""
    gen = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    procs.append(gen)
    out = Lines(gen)
    deadline = time.monotonic() + timeout
    record = None
    while True:
        line = out.next(deadline)
        if line is None:
            break
        if line.startswith("CTL trace "):
            x = line.split()[2]
            tell(server[0], "TRACE " + x)
            server[1].expect("TRACED " + x, 30)
            tell(gen, "OK")
        elif line.startswith("LOAD "):
            record = json.loads(line[len("LOAD "):])
    gen.wait(timeout=max(1, deadline - time.monotonic()))
    if gen.returncode != 0 or record is None:
        raise RuntimeError("load generator failed (exit %d)" % gen.returncode)
    return record


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def per_request(stats):
    """Server handler time per request in the traced window: a mutation
    passes the read closure (a miss) and then the locked handle."""
    n = stats["read_n"] + stats["handle_n"]
    total = sum(stats[k + "_n"] * stats[k + "_mean_us"]
                for k in ("read", "handle", "read_miss") if stats[k + "_n"])
    return total / n if n else float("nan")


def layer_metrics(d, stats):
    """Every per-layer figure of a traced run; NaN where the workload
    does not make the call.  Client and server figures are both taken
    over the traced window only."""
    t = d["traced"]
    lay = dict(d["layers"])
    rpo = t["requests_per_op"]
    served = stats["traced_served"]
    per_served = lambda x: x / served * rpo if served else float("nan")
    out = {k: lay[k] for k in lay if k not in ("net.rtt_mean_us", "service.handle_replay_us")}
    handle_mean = stats["handle_mean_us"]
    out.update({
        "client.cpu_util": t["client_cpu_util"],
        "client.gc_minor_per_op": t["client_gc_minor_per_op"],
        "net.overhead_us": lay["net.rtt_mean_us"] - per_request(stats),
        "net.requests_per_op": rpo,
        "net.req_bytes_per_op": t["req_bytes_per_op"],
        "net.resp_bytes_per_op": t["resp_bytes_per_op"],
        "net_server.read_served_frac": stats["traced_read_served"] / served if served else float("nan"),
        "server.cpu_us_per_op": per_served(stats["traced_cpu_s"] * 1e6),
        "server.gc_minor_per_op": per_served(stats["traced_gc_minor"]),
        "server.gc_major_per_kop": per_served(stats["traced_gc_major"] * 1000),
        "service.handle_mean_us": handle_mean,
        "service.handle_p99_us": stats["handle_p99_us"],
        "service.read_mean_us": stats["read_mean_us"],
        "service.read_p99_us": stats["read_p99_us"],
        "service.handler_residual_us": handle_mean - lay["service.handle_replay_us"],
        "tracing.overhead_frac": 1 - d["traced_ops_per_s"] / d["untraced_ops_per_s"],
    })
    return out


def unit_of(name):
    if name in ("client.cpu_util", "net_server.read_served_frac", "tracing.overhead_frac"):
        return "fraction"
    if name.endswith("_bytes") or "bytes_per_op" in name:
        return "B"
    if name.startswith("server.gc") or name in ("client.gc_minor_per_op", "net.requests_per_op"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "us"


def fmt(v):
    return "nan" if v is None else "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    work = os.path.join(WORK, a.workload)
    os.makedirs(work, exist_ok=True)
    paths = {k: os.path.join(work, k + ext) for k, ext in
             (("inputs", ".bin"), ("seeded", ".bin"), ("server_spans", ".txt"))}
    subprocess.run([EXE, "gen", "--workload", a.workload, "--seed", str(a.seed),
                    "--out", paths["inputs"]], cwd=ROOT, check=True, timeout=120)

    procs = []
    try:
        setups = []
        while True:
            t0 = time.perf_counter()
            server = start_server(paths, a.trace)
            procs.append(server[0])
            port = int(server[1].expect("READY ", 120))
            first_op(port)
            setups.append(time.perf_counter() - t0)
            if len(setups) >= SETUP_MAX or (
                    len(setups) >= SETUP_MIN and sum(setups) >= SETUP_BUDGET_S):
                break
            stop_server(server)
        # the window (twice over when traced) plus warm-up, the pull in
        # flight at its end, the integrity check and the replay
        timeout = (2 if a.trace else 1) * a.seconds + 90
        d = run_load(
            [EXE, "load", "--workload", a.workload, "--seed", str(a.seed),
             "--port", str(port), "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--inputs", paths["inputs"], "--seeded", paths["seeded"], "--work", work],
            server, timeout, procs)
        stats = stop_server(server)
    except Exception as e:  # noqa: BLE001 - any failure voids the run
        fail(str(e))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()

    u = d["untraced"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[a.workload]
    stamp = {
        "workload": a.workload, "why": why, "seed": a.seed,
        "seconds": a.seconds, "nproc": os.cpu_count(), "server_workers": stats["workers"],
        "connections": d["connections"], "crypto": "Real", "clock": "wall",
        "transport": "loopback TCP", "flush": "in-memory Stream_store, no persist",
        "ocaml": d["ocaml"], "git_commit": git_commit(),
        "seeded_journals": d["seeded_journals"], "final_ledger_size": stats["size"],
        "python": platform.python_version(),
    }
    attempted = u["attempted"] + d["integrity_checked"]
    failed = u["failed"] + d["integrity_bad"] + stats["framing_errors"]
    if a.trace:
        attempted += d["traced"]["attempted"]
        failed += d["traced"]["failed"]
    correct = d["correct"] and failed == 0

    e2e = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (u["ops_per_s"], "ops/s", u["ops"]),
        "op_p50_ms": (u["op_p50_ms"], "ms", u["op_n"]),
        "op_p99_ms": (u["op_p99_ms"], "ms", u["op_n"]),
        "wire_bytes_per_op": (u["wire_bytes_per_op"], "B", u["ops"]),
        "peak_rss_mb": (stats["vm_hwm_kb"] / 1024, "MiB", 1),
    }
    # reported where they apply, not gated: each is absent from some workload
    extra = {
        "append_p50_ms": (u["append_p50_ms"], "ms", u["append_n"]),
        "append_p99_ms": (u["append_p99_ms"], "ms", u["append_n"]),
        "read_p50_ms": (u["read_p50_ms"], "ms", u["read_n"]),
        "read_p99_ms": (u["read_p99_ms"], "ms", u["read_n"]),
        "scan_page_p50_ms": (u["scan_page_p50_ms"], "ms", u["scan_page_n"]),
        "scan_rows_per_s": (u["scan_rows_per_s"], "rows/s", u["scan_rows"]),
        "pull_journals_per_s": (u["pull_journals_per_s"], "journals/s", u["pulled_journals"]),
        "error_rate": (failed / max(1, attempted), "fraction", attempted),
        "stored_bytes_per_user_byte": (stats["stored_bytes"] / stats["payload_bytes"], "ratio", 1),
    }
    saturated = u["client_cpu_util"] >= 0.9
    print("perfbench %s seed=%d: %s" % (a.workload, a.seed, "correct" if correct else "FAILED"))
    print("end-to-end (untraced%s window):" % (", first half" if a.trace else ""))
    for name, (v, unit, n) in list(e2e.items()) + list(extra.items()):
        shown = fmt(v) if n else "n/a (no samples on this workload)"
        print("  %-28s %14s %-10s n=%d" % (name, shown, unit, n))
    print("  client.cpu_util              %14s fraction   %s" % (
        fmt(u["client_cpu_util"]),
        "GENERATOR-SATURATED: ops_per_s may be generator-bound" if saturated else "ok"))
    print("integrity: %d checks, %d mismatches" % (d["integrity_checked"], d["integrity_bad"]))

    if a.trace:
        layers = layer_metrics(d, stats)
        print("per-layer (traced window):")
        for name in sorted(layers):
            v = layers[name]
            shown = "n/a (not exercised on this workload)" if v != v else fmt(v)
            print("  %-34s %14s %s" % (name, shown, unit_of(name)))
        rtt = d["layers"]["net.rtt_mean_us"]
        print("residuals:")
        print("  client   e2e - (make + rtt + parse + verify)    %s us/op" % fmt(layers["client.residual_us"]))
        print("  server   rtt - handler (net.overhead_us)        %s us/request" % fmt(layers["net.overhead_us"]))
        print("  handler  handle - replayed decode+append+encode %s us/append" % fmt(layers["service.handler_residual_us"]))
        print("  ledger   append_signed - replayed parts         %s us/append" % fmt(layers["ledger.append_unattributed_us"]))
        print("  (mean rtt %s us; server handler %s us/request)" % (fmt(rtt), fmt(per_request(stats))))
        print("tracing overhead: traced %s ops/s vs untraced %s ops/s (both halves) -> %s" % (
            fmt(d["traced_ops_per_s"]), fmt(d["untraced_ops_per_s"]), fmt(layers["tracing.overhead_frac"])))
        print("replay: %d appends, faithful=%s" % (d["replayed_appends"], d["replay_faithful"]))
        # the result carries the per-layer metrics every workload measures
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit, _) in e2e.items()}
    print("perfbench-stamp " + json.dumps(stamp, sort_keys=True))
    bad = [k for k, m in metrics.items() if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
    if bad:
        correct = False
        print("perfbench: metrics without a value: " + ", ".join(bad), file=sys.stderr)
    for m in metrics.values():
        if m["value"] != m["value"]:
            m["value"] = None
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
