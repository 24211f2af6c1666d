#!/usr/bin/env python3
"""Build gridbw and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload admit-journaled --seed 1 --seconds 30 --trace 0

Run from the repository root.  The build goes to dune's _build/ and the
benchmark's scratch files (stores, journals, the daemon's socket and log,
the traced run's spans) to .perfbench_work/, both inside the current
directory.  The last line of standard output is the result object that
perfbench.exe prints; build output goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("admit-journaled", "kernel-batch")
WORK = ".perfbench_work"
# kept after a run: the traced run's spans and the daemon's log
KEEP = ("spans-", "serve.log")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def fs_type(path):
    """Filesystem type of the mount holding [path], from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def source_digest():
    """Commit id when the tree is a git checkout, else a digest of the sources."""
    try:
        if not os.path.isdir(".git"):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(root, name)
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def clean_work():
    if not os.path.isdir(WORK):
        return
    for name in os.listdir(WORK):
        if name.startswith(KEEP):
            continue
        p = os.path.join(WORK, name)
        if os.path.isdir(p):
            shutil.rmtree(p, ignore_errors=True)
        else:
            os.unlink(p)


def group_alive(pgid):
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % pid) as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while group_alive(pgid) and time.time() < deadline:
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for need in ("dune-project", "bin/dune", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            fail("run from the root of a gridbw source tree (%s is missing)" % need)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/gridbw.exe", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    os.makedirs(WORK, exist_ok=True)
    clean_work()
    cmd = [
        os.path.join("_build", "default", "perfbench", "perfbench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--gridbw", os.path.join("_build", "default", "bin", "gridbw.exe"),
        "--work", WORK,
        "--commit", source_digest(),
        "--fs", fs_type(WORK),
    ]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, start_new_session=True)
    # a run stopped from outside still stops the daemon it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        code = 124
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        stop_group(proc.pid)
        proc.wait()
        clean_work()
    sys.exit(code)


if __name__ == "__main__":
    main()
