#!/usr/bin/env python3
"""schevo benchmark: three workloads against the release build, outputs checked.

Run from the root of a schevo checkout:

    python3 benchmark/run.py --workload study-cold --seed 2019 --seconds 10 --trace 0

Workloads (see README.md in this directory):
  study-cold     one fresh `schevo study --seed S` process per iteration
  serve-warm     2 closed-loop clients against a resident `schevo serve`
  append-resume  `schevo append` then `schevo study ... --resume`, per round

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of the traced run (done
in-process by the harness in this directory). Human-readable tables and
host facts go to stderr. The exit code is non-zero when any output check
fails; a checkout without the schevo sources fails before building.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("study-cold", "serve-warm", "append-resume")
# The end-to-end metrics every --trace 0 run prints, in BENCHMARK.json order.
END_TO_END = (("setup_s", "s"), ("study_wall_s", "s"), ("studies_per_s", "1/s"), ("peak_rss_mb", "MB"))
# What this script shares with the traced run, read from the harness
# (`schevo-benchmark policy`) once it is built: the canonical seed, the
# histories appended per round, and the paper's funnel (SQL collection,
# Lib-io, cloned, analyzed) and Fig. 4 taxon counts. Every timed study
# runs on the canonical corpus and timed appends use fixed batches (see
# README.md: the corpora of other seeds differ by ~17% in study time,
# more than any bound allows); the run's --seed picks the held-out
# inputs that each run checks untimed.
POLICY = {}
SETUPS = {"study-cold": 3, "serve-warm": 2, "append-resume": 2}
# append-resume's peak_rss_mb is the peak over the first rounds only: a
# resume's RSS follows the size of the batch it mines (48 to 143 MB over
# batches 1-12), so a peak over however many rounds fit in the time
# would jump with the machine's speed. Every run does at least these.
RSS_ROUNDS = 5
CHILD_TIMEOUT_S = 150

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(), "git_revision": rev,
            "profile": "release (cargo defaults; no [profile] overrides)"}


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "schevo"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 os.path.join(BENCH_DIR, "Cargo.toml")]):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "schevo"), os.path.join(release, "schevo-benchmark")


def run_child(cmd, cwd, name):
    """Run one child to completion; return (wall seconds, max RSS in MB, exit code).

    stdout/stderr go to `<name>.out`/`<name>.err` in `cwd`. A child still
    running after CHILD_TIMEOUT_S is killed.
    """
    with open(os.path.join(cwd, name + ".out"), "wb") as out, open(os.path.join(cwd, name + ".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def check_study(path, golden, paper_counts=True):
    """Check a published study_results.json; return its bytes."""
    if not os.path.isfile(path):
        raise CheckFailed(f"{path} was not published")
    body = read(path, "rb")
    if golden is not None and body != golden:
        raise CheckFailed(f"{path} differs from the committed study_results.json")
    if paper_counts:
        doc = json.loads(body)
        f = doc["funnel"]
        funnel = (f["sql_collection"], f["lib_io"], f["cloned"], f["analyzed"])
        taxa = tuple(t["count"] for t in doc["taxa"])
        paper = (tuple(POLICY["paper_funnel"]), tuple(POLICY["paper_taxa"]))
        if (funnel, taxa) != paper:
            raise CheckFailed(f"{path}: funnel {funnel} / taxa {taxa} differ from the paper's "
                              f"{paper[0]} / {paper[1]}")
    return body


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Ledger:
    """Attempted and failed operations; every failed check counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail_summary(name, values, unit):
    """Median, plus p90 only when at least 10 samples lie beyond it."""
    xs = sorted(values)
    line = f"  {name + '_p50_' + unit:<24} {median(xs):>12.4f} {unit:<5} n={len(xs)}"
    if len(xs) >= 100:
        p90 = statistics.quantiles(xs, n=10)[-1]
        line += f"\n  {name + '_p90_' + unit:<24} {p90:>12.4f} {unit:<5} n={len(xs)}"
    else:
        line += f"   (p90 not reported: {len(xs)} samples < 100)"
    return line


def heldout_batch(seed):
    """The `schevo append --batch` of the run's held-out histories; timed
    rounds use batches 1, 2, ... (below 1,000,000)."""
    return 1_000_000 + seed % 1_000_000


def study_cold(schevo, seed, seconds, work, golden, ledger):
    def one(tag, corpus_seed):
        d = fresh_dir(os.path.join(work, tag))
        wall, rss, code = run_child([schevo, "study", "--seed", str(corpus_seed), "--out", "out"], d, "study")
        try:
            if code != 0:
                raise CheckFailed(f"schevo study --seed {corpus_seed} exited {code}")
            check_study(os.path.join(d, "out", "study_results.json"),
                        golden if corpus_seed == POLICY["canonical_seed"] else None)
        except CheckFailed as e:
            return wall, rss, str(e)
        return wall, rss, None

    setups = []
    for _ in range(SETUPS["study-cold"]):
        wall, _, err = one("setup", POLICY["canonical_seed"])
        if err:
            raise CheckFailed(err)
        setups.append(wall)
    walls, rss_all, measured = [], [], 0.0
    while measured < seconds:
        wall, rss, err = one("run", POLICY["canonical_seed"])
        measured += wall
        if ledger.op(err is None, err):
            walls.append(wall)
            rss_all.append(rss)
    # The seed's own corpus, untimed: the paper's counts hold on every seed.
    _, _, err = one("heldout", seed)
    ledger.op(err is None, err)
    log(f"  {'study_wall_s':<24} {median(walls):>12.4f} s     n={len(walls)}")
    return {"setup_s": median(setups), "study_wall_s": median(walls),
            "studies_per_s": len(walls) / sum(walls) if walls else 0.0,
            "peak_rss_mb": median(rss_all)}


def serve_setup(schevo, d, golden):
    """Store and batch result, daemon start, first (cold) study.
    Returns (seconds, daemon)."""
    fresh_dir(d)
    started = time.perf_counter()
    _, _, code = run_child([schevo, "study", "--seed", str(POLICY["canonical_seed"]), "--store-dir", "store",
                            "--out", "batch"], d, "batch")
    if code != 0:
        raise CheckFailed(f"batch study exited {code}")
    batch = check_study(os.path.join(d, "batch", "study_results.json"), golden)
    with open(os.path.join(d, "daemon.out"), "wb") as out, open(os.path.join(d, "daemon.err"), "wb") as err:
        daemon = subprocess.Popen([schevo, "serve", "--store-dir", "store", "--socket", "d.sock"], cwd=d,
                                  stdout=out, stderr=err)
    try:
        deadline = time.monotonic() + 60
        while b"listening on" not in read(os.path.join(d, "daemon.out"), "rb"):
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise CheckFailed("daemon did not start")
            time.sleep(0.01)
        _, _, code = run_child([schevo, "serve", "--connect", "unix:d.sock", "--op", "study", "--id", "cold",
                                "--out", "cold.json"], d, "cold")
        if code != 0 or read(os.path.join(d, "cold.json"), "rb") != batch:
            raise CheckFailed("the daemon's cold study differs from the batch result")
    except BaseException:
        stop_daemon(schevo, daemon, d)
        raise
    return time.perf_counter() - started, daemon


def stop_daemon(schevo, daemon, d):
    if daemon.poll() is None:
        run_child([schevo, "serve", "--connect", "unix:d.sock", "--op", "shutdown"], d, "shutdown")
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


def daemon_peak_rss_mb(pid):
    try:
        status = read(f"/proc/{pid}/status")
    except OSError as e:
        raise CheckFailed(f"daemon RSS unavailable: {e}")
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise CheckFailed("daemon RSS unavailable")


def serve_heldout(schevo, seed, d):
    """Untimed: append the seed's histories, then the daemon's next study
    must equal a from-scratch batch study of the appended store."""
    steps = (("heldout-append", ["append", "--store", "store", "--count", str(POLICY["append_count"]),
                                 "--batch", str(heldout_batch(seed))]),
             ("heldout-serve", ["serve", "--connect", "unix:d.sock", "--op", "study", "--id", "heldout",
                                "--out", "heldout.json"]),
             ("heldout-batch", ["study", "--store-dir", "store", "--store-as-is", "--out", "heldout"]))
    for name, cmd in steps:
        _, _, code = run_child([schevo] + cmd, d, name)
        if code != 0:
            raise CheckFailed(f"held-out step `schevo {' '.join(cmd)}` exited {code}")
    expect = check_study(os.path.join(d, "heldout", "study_results.json"), None, paper_counts=False)
    if json.loads(expect)["funnel"]["analyzed"] != POLICY["paper_funnel"][3] + POLICY["append_count"]:
        raise CheckFailed("the held-out store does not analyze the appended histories")
    if read(os.path.join(d, "heldout.json"), "rb") != expect:
        raise CheckFailed("the daemon's study of the appended store differs from the batch result")


def serve_warm(schevo, harness, seed, seconds, work, golden, ledger):
    setups, daemon, d = [], None, None
    try:
        for k in range(SETUPS["serve-warm"]):
            if daemon is not None:
                stop_daemon(schevo, daemon, d)
            d = os.path.join(work, f"setup{k}")
            wall, daemon = serve_setup(schevo, d, golden)
            setups.append(wall)
        clients = min(2, os.cpu_count() or 1)
        _, _, code = run_child([harness, "serve-load", "--addr", "unix:d.sock", "--clients", str(clients),
                                "--seconds", str(seconds), "--expect", "batch/study_results.json"], d, "load")
        if code != 0:
            raise CheckFailed(f"load client exited {code}")
        load = json.loads(read(os.path.join(d, "load.out")).strip().splitlines()[-1])
        rss = daemon_peak_rss_mb(daemon.pid)
        try:
            serve_heldout(schevo, seed, d)
            ledger.op(True)
        except CheckFailed as e:
            ledger.op(False, str(e))
    finally:
        if daemon is not None:
            stop_daemon(schevo, daemon, d)
    ledger.attempted += load["attempted"]
    ledger.failed += load["failed"]
    for e in load["errors"][:10]:
        log(f"FAILED: {e}")
    log(tail_summary("study", load["study_ms"], "ms"))
    log(tail_summary("result", load["result_ms"], "ms"))
    log(f"  refused busy/draining: {load['refused']}, mismatched bodies: {load['mismatched']}")
    return {"setup_s": median(setups), "study_wall_s": median(load["study_ms"]) / 1e3,
            "studies_per_s": load["studies_per_s"], "peak_rss_mb": rss}


def journal_counts(err_path):
    """(replayed, mined fresh) from the study's `journal:` stderr line."""
    for line in read(err_path).splitlines():
        if "journal:" in line and "replayed" in line:
            words = line.split("journal:", 1)[1].split()
            return int(words[0]), int(words[3])
    raise CheckFailed("study printed no journal summary")


def append_resume(schevo, seed, seconds, work, golden, ledger):
    setups = []
    for k in range(SETUPS["append-resume"]):
        d = fresh_dir(os.path.join(work, f"setup{k}"))
        wall, _, code = run_child([schevo, "study", "--seed", str(POLICY["canonical_seed"]), "--store-dir", "store",
                                   "--journal", "journal", "--out", "base"], d, "base")
        if code != 0:
            raise CheckFailed(f"journaled study exited {code}")
        check_study(os.path.join(d, "base", "study_results.json"), golden)
        records = journal_counts(os.path.join(d, "base.err"))[1]
        setups.append(wall)
    analyzed = POLICY["paper_funnel"][3]
    appends, resumes, rss_all, measured, rnd = [], [], [], 0.0, 0
    # Timed rounds append batches 1, 2, ...; one last, untimed round
    # appends the seed's held-out batch and is checked like the others.
    heldout = False
    while not heldout:
        heldout = measured >= seconds and rnd >= RSS_ROUNDS
        rnd += 1
        batch = heldout_batch(seed) if heldout else rnd
        wall_a, rss_a, code_a = run_child([schevo, "append", "--store", "store", "--count", str(POLICY["append_count"]),
                                           "--batch", str(batch)], d, "append")
        wall_r, rss_r, code_r = run_child([schevo, "study", "--store-dir", "store", "--store-as-is",
                                           "--journal", "journal", "--resume", "--out", "resumed"], d, "resume")
        # Checks, outside the timed region: journal accounting, and the
        # resumed result against a from-scratch study of the same store.
        try:
            if code_a != 0 or code_r != 0:
                raise CheckFailed(f"append exited {code_a}, resume exited {code_r}")
            replayed, fresh = journal_counts(os.path.join(d, "resume.err"))
            if (replayed, fresh) != (records, POLICY["append_count"]):
                raise CheckFailed(f"resume replayed {replayed} and mined {fresh}; "
                                  f"expected {records} and {POLICY['append_count']}")
            records += fresh
            analyzed += POLICY["append_count"]
            _, _, code = run_child([schevo, "study", "--store-dir", "store", "--store-as-is", "--out", "scratch"],
                                   d, "scratch")
            scratch = check_study(os.path.join(d, "scratch", "study_results.json"), None, paper_counts=False)
            if code != 0 or json.loads(scratch)["funnel"]["analyzed"] != analyzed:
                raise CheckFailed(f"from-scratch study failed or does not analyze {analyzed} projects")
            if read(os.path.join(d, "resumed", "study_results.json"), "rb") != scratch:
                raise CheckFailed("resumed result differs from a from-scratch study of the same store")
        except CheckFailed as e:
            ledger.op(False, str(e))
            break
        ledger.op(True)
        if not heldout:
            measured += wall_a + wall_r
            appends.append(wall_a)
            resumes.append(wall_r)
            if rnd <= RSS_ROUNDS:
                rss_all += [rss_a, rss_r]
    log(f"  {'append_wall_s':<24} {median(appends):>12.4f} s     n={len(appends)}")
    log(f"  {'resume_wall_s':<24} {median(resumes):>12.4f} s     n={len(resumes)}")
    return {"setup_s": median(setups), "study_wall_s": median(resumes),
            "studies_per_s": len(resumes) / (sum(appends) + sum(resumes)) if resumes else 0.0,
            "peak_rss_mb": max(rss_all) if rss_all else 0.0}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2019)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))
            and os.path.isfile(os.path.join(ROOT, "study_results.json"))):
        log("run from the root of a schevo checkout (Cargo.toml, crates/, study_results.json)")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    schevo, harness = build(target)
    POLICY.update(json.loads(subprocess.run([harness, "policy"], capture_output=True, text=True, check=True,
                                            timeout=30).stdout))
    log("host: " + json.dumps(host_facts()))
    golden = read(os.path.join(ROOT, "study_results.json"), "rb")
    work = fresh_dir(os.path.join(ROOT, ".bench_work", args.workload))

    if args.trace:
        cmd = [harness, "trace", "--workload", args.workload, "--seconds", str(args.seconds), "--work", work,
               "--golden", os.path.join(ROOT, "study_results.json")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            log(f"traced run exited {proc.returncode} without a result")
            return 1
        result = json.loads(lines[-1])
    else:
        ledger = Ledger()
        try:
            if args.workload == "study-cold":
                metrics = study_cold(schevo, args.seed, args.seconds, work, golden, ledger)
            elif args.workload == "serve-warm":
                metrics = serve_warm(schevo, harness, args.seed, args.seconds, work, golden, ledger)
            else:
                metrics = append_resume(schevo, args.seed, args.seconds, work, golden, ledger)
        except CheckFailed as e:
            log(f"FAILED: {e}")
            return 1
        for name, unit in END_TO_END:
            log(f"  {name:<24} {metrics[name]:>12.4f} {unit}")
        rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
        log(f"  {'error_rate':<24} {rate:>12.4f} ratio ({ledger.failed}/{ledger.attempted})")
        result = {"correct": ledger.failed == 0 and ledger.attempted > 0, "attempted": ledger.attempted,
                  "failed": ledger.failed,
                  "metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}}
    # Stores are large; keep only the logs and the span file.
    for dirpath, dirnames, _ in os.walk(work):
        if "store" in dirnames:
            shutil.rmtree(os.path.join(dirpath, "store"), ignore_errors=True)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
