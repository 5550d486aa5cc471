#!/usr/bin/env python3
"""Builds and runs the proc::Runtime benchmark (see BENCHMARK.json).

usage (from the repository root):
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first form builds perfbench/ (CMake, Release) into .bench_build/ when
needed, then runs one measurement; the last line of stdout is the JSON
result. Build output goes to stderr. Run directories of the runtime go to
.bench_build/run/tmp (TMPDIR), and a traced run writes its spans to
.bench_build/run/spans-W.csv, so the benchmark reads and writes only
inside the checkout.

--selftest proves that the checks can fail: an injected kill must raise
fail_share, a perturbed reference must be reported as a mismatch, and two
runs with one seed must print the same digest.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ["canny-split", "kmeans-batch", "kmeans-longbatch", "svm-agents"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    # Stay inside the checkout whatever CARGO_TARGET_DIR says.
    base = os.path.realpath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    if os.path.commonpath([base, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        base = os.path.join(ROOT, ".bench_build")
    return base


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "proc", "Runtime.h")):
        fail("repository sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = os.path.join(build_root(), "perfbench")
    binary = os.path.join(out, "wbbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "-j", jobs])
    env = environment()  # compiler temporaries stay in the checkout too
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    if not os.access(binary, os.X_OK):
        fail("build produced no wbbench binary")
    return binary


def environment():
    tmp = os.path.join(build_root(), "run", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    for var in ("WBT_TRACE", "WBT_INJECT", "WBT_METRICS"):
        env.pop(var, None)
    return env


def run(binary, args, capture=False):
    """Runs the driver; on timeout asks it to kill its job and stop."""
    proc = subprocess.Popen([binary] + args, env=environment(), cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        fail("run timed out after %d s" % RUN_TIMEOUT_S, 3)
    return proc.returncode, (out.decode() if capture else "")


def result_of(text):
    lines = [l for l in text.strip().splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    ok = True

    def check(name, cond, detail):
        nonlocal ok
        ok &= bool(cond)
        print("%s  %s (%s)" % ("PASS" if cond else "FAIL", name, detail))

    base = ["--seed", "7", "--seconds", "1", "--trace", "0"]
    _, out = run(binary, ["--workload", "canny-split",
                          "--inject", "tp.sample.begin@n1:kill"] + base, True)
    res = result_of(out)
    check("injected kill raises fail_share", res and res["failed"] > 0,
          "failed %s of %s" % (res and res["failed"], res and res["attempted"]))
    for w in WORKLOADS:
        _, out = run(binary, ["--workload", w, "--perturb"] + base, True)
        res = result_of(out)
        m = re.search(r"(\d+) mismatch", out)
        check("perturbed reference is a mismatch on " + w,
              res and not res["correct"] and m and int(m.group(1)) > 0,
              "correct=%s, %s mismatch(es)" % (res and res["correct"],
                                               m and m.group(1)))
    digests = []
    for _ in range(2):
        _, out = run(binary, ["--workload", "canny-split"] + base, True)
        m = re.search(r"digest: ([0-9a-f]+)", out)
        digests.append(m and m.group(1))
    check("same seed, same digest", digests[0] and digests[0] == digests[1],
          " vs ".join(str(d) for d in digests))
    return 0 if ok else 1


def main(argv):
    if argv == ["--selftest"]:
        return selftest(build())
    if "--workload" not in argv:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        spans = "spans-%s.csv" % args[args.index("--workload") + 1]
        args += ["--spans", os.path.join(build_root(), "run", spans)]
    code, _ = run(build(), args)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
