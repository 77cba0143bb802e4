#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --out .bench_out/a

Builds perfbench/main.exe with dune (release profile), then runs one
workload, or every workload of BENCHMARK.json in turn. The first line
of standard output names the commit (or a digest of the sources); the
last line is the workload's JSON result. With --out DIR each result
line is also appended to DIR/<workload>.jsonl, the input of
perfbench/compare.py. Exits non-zero when the build fails, when an
answer disagrees with the naive oracle, or when a run overruns.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def benchmark_workloads():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def find_dune():
    """dune from PATH, else from the opam switches in the home directory."""
    found = shutil.which("dune")
    if found:
        return found
    for cand in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        if os.access(cand, os.X_OK):
            return cand
    return None


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=root, capture_output=True, text=True, timeout=10)
            return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ["lib", "bin", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def build(root):
    dune = find_dune()
    if dune is None:
        sys.stderr.write("run.py: dune not found\n")
        return False
    if not os.path.exists(os.path.join(root, "dune-project")):
        sys.stderr.write("run.py: no dune-project here; run from the root of the repository\n")
        return False
    cmd = [dune, "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"]
    res = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def run_one(root, args, workload, commit):
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: %s overran %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if args.out and lines:
        os.makedirs(args.out, exist_ok=True)
        env = json.loads(next((l[4:] for l in lines if l.startswith("env ")), "{}"))
        env["commit"] = commit
        record = {"env": env, "result": json.loads(lines[-1])}
        with open(os.path.join(args.out, workload + ".jsonl"), "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return proc.returncode


def main():
    workloads = benchmark_workloads()
    p = argparse.ArgumentParser(description="Run the repository benchmark.")
    p.add_argument("--workload", required=True, choices=workloads + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--out", help="append each result to OUT/<workload>.jsonl")
    args = p.parse_args()

    root = os.getcwd()
    if not build(root):
        sys.stderr.write("run.py: build failed\n")
        return 2
    commit = source_id(root)
    print("commit %s" % commit)
    status = 0
    for w in (workloads if args.workload == "all" else [args.workload]):
        rc = run_one(root, args, w, commit)
        if rc != 0:
            status = rc if rc > 0 else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
