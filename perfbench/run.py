#!/usr/bin/env python3
"""End-to-end benchmark of zpm: offline analysis, continuous monitor and
journal queries on seeded campus traffic mixes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (the script also finds the root from its own
path). It builds what it runs into .bench_build/ (Release), generates the
workload's traces and their ground truth from --seed under .bench_work/,
and deletes them on exit, also when it fails.

--trace 0 times the shipped user paths as separate processes, round after
round for --seconds: `zpm_analyze`, then `campus_monitor --daemon --replay
--loops 1 --report-dir`, then the seeded query mix through
query::run_query_on_manifest (pb_query). --trace 1 runs pb_trace instead,
which times calls into each layer from the benchmark's own code.

Every output is checked (see README.md); the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics, whose
names and units are those of BENCHMARK.json.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TARGETS = ["zpm_analyze", "campus_monitor", "pb_gen", "pb_query", "pb_trace"]
JOBS = max(1, min(4, os.cpu_count() or 1))

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups

# Each site is one generated trace: the first `seconds` seconds of a
# simulated campus day (sim::CampusConfig with `meetings` per peak hour and
# `background` ratio; pb_gen fixes the rest), at most `max_packets` packets.
# The seed picks among schedules that start `window_meetings` meetings in
# those seconds, with about `window_streams` tap-visible media streams and
# `window_stream_seconds` of them by the trace's end (pb_gen), so every seed
# gives the workload the same make-up; the targets are medians over
# schedules. The daemons close an epoch every `epoch_seconds` of capture
# time, so every seed gives the same epochs too.
WORKLOADS = {
    "campus-background": {
        "sites": [dict(name="campus", seconds=56, max_packets=800_000, meetings=60,
                       background=1.0, window_meetings=5, window_streams=55,
                       window_stream_seconds=1538)],
        "threads": 1,
        "epoch_seconds": 14,
    },
    "meetings-dense": {
        "sites": [dict(name="campus", seconds=60, max_packets=800_000, meetings=400,
                       background=0.0, window_meetings=35, window_streams=440,
                       window_stream_seconds=13463)],
        "threads": 3,
        "epoch_seconds": 15,
    },
    "journal-multisite": {
        "sites": [dict(name=f"site-{i}", seconds=60, max_packets=100_000, meetings=30,
                       background=0.0, window_meetings=3, window_streams=30,
                       window_stream_seconds=960) for i in (1, 2, 3)],
        "threads": 1,
        "epoch_seconds": 1,
    },
}


class BenchError(Exception):
    """A failure of the benchmark itself (build, missing tool): no result."""


_children = []


def _stop_children():
    for p in _children:
        if p.poll() is None:
            p.kill()
            p.wait()
    _children.clear()


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def tool(name):
    return os.path.join(BUILD, name)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("the repository's src/ is missing; run from a full checkout")
    steps = [["cmake", "--build", BUILD, "-j", str(JOBS), "--target", *TARGETS]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for argv in steps:
        p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            raise BenchError(f"{' '.join(argv[:2])} exited {p.returncode}")


def run_timed(argv, out_path):
    """Runs argv to completion with stdout in out_path; returns (exit code,
    wall seconds from exec to exit, peak RSS in MiB)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        _children.append(p)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(p)
    return p.returncode, wall, usage.ru_maxrss / 1024.0


def run_capture(argv):
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return p.returncode, p.stdout, p.stderr


def key_values(text):
    return {k: v for k, v in (tok.split("=", 1) for tok in text.split() if "=" in tok)}


def site_seed(seed, index):
    return seed * 1000 + index + 1


def generate(workload, seed, work, time_calls):
    """Writes every trace of the workload; returns (seconds, ground truth).
    The seconds leave out pb_gen's search for a schedule of the workload's
    make-up: it is the benchmark's own work, and its length depends on the
    seed (17 to 1,096 schedules tried on meetings-dense, seeds 1-10)."""
    truth = {}
    search = 0.0
    t0 = time.perf_counter()
    for i, site in enumerate(workload["sites"]):
        pcap = os.path.join(work, f"{site['name']}.pcap")
        argv = [tool("pb_gen"), "--out", pcap, "--seed", str(site_seed(seed, i)),
                "--meetings", str(site["meetings"]), "--background", str(site["background"]),
                "--seconds", str(site["seconds"]), "--max-packets", str(site["max_packets"]),
                "--window-meetings", str(site["window_meetings"]),
                "--window-streams", str(site["window_streams"]),
                "--window-stream-seconds", str(site["window_stream_seconds"])]
        if time_calls:
            argv.append("--time-calls")
        rc, out, err = run_capture(argv)
        if rc != 0:
            raise BenchError(f"pb_gen failed for {site['name']}: {err.strip()}")
        kv = {k: int(v) for k, v in key_values(out).items()}
        kv["pcap"] = pcap
        truth[site["name"]] = kv
        search += kv["search_ns"] / 1e9
        # Write the trace back now, so its dirty pages do not stall the
        # daemons' per-epoch fsyncs in the timed rounds.
        fd = os.open(pcap, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return time.perf_counter() - t0 - search, truth


def _untimed(truth):
    return {site: {k: v for k, v in t.items() if not k.endswith("_ns")}
            for site, t in truth.items()}


def number(text):
    return int(text.replace(",", ""))


def check_report(text, truth, site):
    """Checks a zpm_analyze report against the generator's ground truth."""
    fails = []
    m = re.search(r"^packets: ([\d,]+) total, ([\d,]+) Zoom", text, re.M)
    p2p = re.search(r"\| p2p ([\d,]+) \|", text)
    if not m or not p2p:
        return [f"{site}: report has no traffic section"]
    total, zoom, p2p = number(m.group(1)), number(m.group(2)), number(p2p.group(1))
    meetings = len(re.findall(r"^meeting \d+:", text, re.M))
    if total != truth["packets"]:
        fails.append(f"{site}: report counts {total} packets, {truth['packets']} written")
    if zoom - p2p != truth["zoom_server"]:
        fails.append(f"{site}: report counts {zoom - p2p} server-side Zoom packets, "
                     f"generator wrote {truth['zoom_server']}")
    if p2p > truth["zoom_p2p"]:
        fails.append(f"{site}: report counts {p2p} P2P packets, more than the "
                     f"{truth['zoom_p2p']} written")
    # A participant who joined in the trace's last second may not be tied
    # to their meeting by any packet yet and show as a meeting of its own.
    if not truth["meetings"] <= meetings <= truth["meetings"] + truth["late_joins"]:
        fails.append(f"{site}: report lists {meetings} meetings, {truth['meetings']} in the "
                     f"trace ({truth['late_joins']} participants joined in its last second)")
    return fails


def daemon_argv(workload, site, pcap, report_dir, threads):
    argv = [tool("campus_monitor"), "--daemon", "--replay", pcap, "--loops", "1",
            "--report-dir", report_dir, "--site", site, "--quiet"]
    if threads > 1:
        argv += ["--threads", str(threads)]
    return argv + ["--epoch-seconds", str(workload["epoch_seconds"])]


def run_daemons(workload, truth, report_dir, threads, out_path):
    """One daemon per site into report_dir; returns (summed wall seconds,
    peak RSS in MiB, packets of the daemons that exited non-zero)."""
    os.makedirs(report_dir)
    wall, rss, failed = 0.0, 0.0, 0
    for site in workload["sites"]:
        name = site["name"]
        rc, w, r = run_timed(daemon_argv(workload, name, truth[name]["pcap"], report_dir,
                                         threads), out_path)
        wall += w
        rss = max(rss, r)
        if rc != 0:
            log(f"{name}: campus_monitor --daemon exited {rc}")
            failed += truth[name]["packets"]
    return wall, rss, failed


def query_argv(report_dir, seed):
    return [tool("pb_query"), "--dir", report_dir, "--seed", str(seed)]


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def measure(workload, seed, seconds, truth, work, units):
    """The untraced run: rounds of the three user paths for `seconds`.
    Returns (metrics, attempted, failed, check failures)."""
    threads = workload["threads"]
    packets = sum(t["packets"] for t in truth.values())
    out_path = os.path.join(work, "stdout.txt")
    rounds = []
    digest = None
    fails = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    report_dir = None
    while not rounds or time.perf_counter() < deadline:
        analyze_wall, analyze_rss = 0.0, 0.0
        for site in workload["sites"]:
            name = site["name"]
            argv = [tool("zpm_analyze"), truth[name]["pcap"]]
            if threads > 1:
                argv += ["--threads", str(threads)]
            rc, wall, rss = run_timed(argv, out_path)
            analyze_wall += wall
            analyze_rss = max(analyze_rss, rss)
            attempted += truth[name]["packets"]
            if rc != 0:
                log(f"{name}: zpm_analyze exited {rc}")
                failed += truth[name]["packets"]
                continue
            with open(out_path, encoding="utf-8", errors="replace") as f:
                fails += check_report(f.read(), truth[name], name)
        if report_dir:
            shutil.rmtree(report_dir)
        report_dir = os.path.join(work, f"report-{len(rounds)}")
        monitor_wall, monitor_rss, daemon_failed = run_daemons(workload, truth, report_dir,
                                                               threads, out_path)
        attempted += packets
        failed += daemon_failed
        report_bytes = dir_bytes(report_dir)
        _, out, _ = run_capture(query_argv(report_dir, seed))
        kv = key_values(out)
        if "queries" not in kv:
            raise BenchError(f"pb_query printed no result on {report_dir}")
        attempted += int(kv["queries"])
        failed += int(kv["failed"])
        lat = [int(x) for x in kv.get("latencies_ns", "").split(",") if x]
        if "digest" in kv and int(kv["failed"]) == 0:
            if digest is None:
                digest = kv["digest"]
            elif kv["digest"] != digest:
                fails.append("the query mix answered differently in two rounds")
        rounds.append(dict(analyze_mpps=packets / analyze_wall / 1e6,
                           analyze_peak_rss_mib=analyze_rss,
                           monitor_mpps=packets / monitor_wall / 1e6,
                           monitor_peak_rss_mib=monitor_rss,
                           report_dir_kib_per_mpkt=report_bytes / 1024 / (packets / 1e6)))
        # Each round's p50 and p99 over the whole mix (1152 samples, so
        # 11 beyond the p99); the run reports the median over rounds, so
        # a burst of host interference spoils one round's tail, not the run's.
        if len(lat) >= 2:
            rounds[-1]["query_p50_us"] = statistics.median(lat) / 1e3
            rounds[-1]["query_p99_us"] = statistics.quantiles(lat, n=100)[98] / 1e3

    # Untimed checks on the last round's journals: the property checks of
    # the query layer, and the same answers from a daemon run with the
    # other shard count.
    other_dir = os.path.join(work, "report-other-shards")
    _, _, other_failed = run_daemons(workload, truth, other_dir, 1 if threads > 1 else 3,
                                     out_path)
    if other_failed:
        fails.append(f"campus_monitor --daemon failed on {other_failed} packets "
                     "of the other shard count")
    argv = query_argv(report_dir, seed) + ["--compare-dir", other_dir]
    for name, t in truth.items():
        argv += ["--check", f"{name}={t['packets']}"]
    rc, out, err = run_capture(argv)
    if rc != 0:
        fails += [line for line in err.splitlines() if line] or [f"pb_query --check exited {rc}"]
    elif digest is not None and key_values(out).get("digest") != digest:
        fails.append("the query mix answered differently in the checked run")

    log(f"{len(rounds)} rounds")
    metrics = {}
    for name in ("analyze_mpps", "analyze_peak_rss_mib", "monitor_mpps",
                 "monitor_peak_rss_mib", "report_dir_kib_per_mpkt", "query_p50_us",
                 "query_p99_us"):
        values = [r[name] for r in rounds if name in r]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": units[name]}
        else:
            fails.append(f"no round measured {name}")
    return metrics, attempted, failed, fails


def traced(workload, seed, seconds, truth, work):
    """The traced run: pb_trace times each layer from the benchmark's code."""
    argv = [tool("pb_trace"), "--work-dir", work, "--seconds", str(seconds),
            "--shards", str(workload["threads"]), "--query-seed", str(seed)]
    argv += ["--epoch-seconds", str(workload["epoch_seconds"])]
    for name, t in truth.items():
        argv += ["--site", f"{name}={t['pcap']}:{t['packets']}:{t['zoom_server']}:"
                           f"{t['zoom_p2p']}:{t['meetings']}:{t['late_joins']}"]
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    _children.append(p)
    out, _ = p.communicate()
    _children.remove(p)
    kv = key_values(out)
    fails = [] if p.returncode == 0 else [f"pb_trace exited {p.returncode}"]
    attempted = int(kv.pop("attempted", 0))
    return {k: float(v) for k, v in kv.items()}, attempted, fails


def metric_units():
    """Units of every end-to-end and per-layer metric, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _on_signal)
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    try:
        end_to_end_units, per_layer_units = metric_units()
        build()
        os.makedirs(work)
        fails = []
        setups, truth = [], None
        for _ in range(SETUP_REPEATS):
            secs, t = generate(workload, args.seed, work, time_calls=bool(args.trace))
            setups.append((secs, t))
            if truth is not None and _untimed(t) != _untimed(truth):
                fails.append("the same seed generated different traces")
            truth = t
        packets = sum(t["packets"] for t in truth.values())
        log(f"{args.workload} seed {args.seed}: {packets} packets, "
            f"{sum(t['meetings'] for t in truth.values())} meetings")
        if args.trace:
            layer, attempted, run_fails = traced(workload, args.seed, args.seconds, truth, work)
            layer["sim.generate_ns_per_pkt"] = statistics.median(
                sum(t["next_ns"] + t["write_ns"] for t in tr.values()) / packets
                for _, tr in setups)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in per_layer_units.items() if name in layer}
            missing = sorted(set(per_layer_units) - set(metrics))
            if missing:
                run_fails.append(f"pb_trace did not report {', '.join(missing)}")
            failed = 0
        else:
            metrics, attempted, failed, run_fails = measure(workload, args.seed, args.seconds,
                                                            truth, work, end_to_end_units)
            metrics["setup_s"] = {"value": statistics.median(s for s, _ in setups),
                                  "unit": end_to_end_units["setup_s"]}
        fails += run_fails
    except (BenchError, OSError) as e:
        log(f"error: {e}")
        return 1
    finally:
        _stop_children()
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    for f in fails:
        log(f"check failed: {f}")
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
