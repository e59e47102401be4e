#!/usr/bin/env python3
"""End-to-end benchmark of the `powermove` CLI: QASM in, validated ISA
JSON and Eq. (1) fidelity out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the repository's
library, the CLI and the benchmark's helper (`pmbench`) from source into
.bench_build/ (or $CARGO_TARGET_DIR); later runs reuse that build.

--trace 0 (end to end, tracing off):
  1. set-up, three times, reporting the median as setup_s: generate the
     workload's QASM from the seed, warm the disk cache if the workload
     uses one, run the determinism gate (ISA JSON byte-identical across
     two runs, across --jobs 1/2 and through the disk tier) and the
     checker's mutation test;
  2. a closed loop of rounds for --seconds: one client, each CLI
     invocation starting after the previous one exits; wall time per
     invocation, and user+sys CPU and peak RSS from wait4();
  3. the output check: every emitted ISA JSON is rebuilt, validated
     against the generated circuit and scored by `pmbench check`, or is
     byte-identical to a document that was.
--trace 1 (per layer): half of --seconds in the same closed loop, for
  the round-wall tail, then half in the in-process traced run of
  `pmbench trace`, which writes its spans as Chrome trace JSON to
  .bench_build/traces/<workload>-seed<N>.json.

Workloads and metrics are defined in perfbench/plan.json. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. Per-program rows and notes are printed above it.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PLAN_PATH = os.path.join(HERE, "plan.json")
SETUP_REPEATS = 3
STARTUP_SAMPLES = 21


class BenchError(Exception):
    """A failure that makes the run's result incorrect."""


def build_dir():
    value = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return value if os.path.isabs(value) else os.path.join(ROOT, value)


def build(out):
    """Configures and builds perfbench/ into <build dir>/cmake."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: repository sources not found next to perfbench/")
    cmake_dir = os.path.join(out, "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", cmake_dir, "-j", "4"]]
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", cmake_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed")
    return (os.path.join(cmake_dir, "repo", "powermove"),
            os.path.join(cmake_dir, "pmbench"))


class Bench:
    def __init__(self, workload, seed, work, cli, pmbench):
        plan = json.load(open(PLAN_PATH))
        if workload not in plan["workloads"]:
            sys.exit("perfbench: unknown workload '%s' (have: %s)"
                     % (workload, ", ".join(plan["workloads"])))
        self.plan = plan
        self.spec = plan["workloads"][workload]
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = cli
        self.pmbench = pmbench
        self.qasm = os.path.join(work, "qasm")
        self.warm = os.path.join(work, "warm-cache")
        self.uses_cache = "warm_programs" in self.spec

    # -- helpers ---------------------------------------------------------

    def helper(self, mode, *extra):
        argv = [self.pmbench, mode, "--plan", PLAN_PATH,
                "--workload", self.workload, "--seed", str(self.seed)]
        done = subprocess.run(argv + list(extra), capture_output=True,
                              text=True)
        if done.returncode != 0:
            raise BenchError("pmbench %s failed: %s"
                             % (mode, done.stderr.strip()))
        return done.stdout

    def invocations(self):
        """The CLI input lists of one round."""
        inputs = [os.path.join(self.qasm, name + ".qasm")
                  for name in self.manifest["inputs"]]
        if self.spec["invocation"] == "per-program":
            return [[path] for path in inputs]
        return [inputs]

    def run_round(self, out_dir, args=None, cache_dir=None):
        """Runs one round of CLI invocations, one after another.

        Returns (wall_ms, cpu_ms, rss_mb, per-invocation walls in ms, exit
        codes). Preparing the output and cache directories is untimed.
        """
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        args = list(self.spec["cli_args"] if args is None else args)
        if cache_dir is None and self.uses_cache:
            cache_dir = os.path.join(self.work, "round-cache")
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.copytree(self.warm, cache_dir)
        if cache_dir:
            args += ["--cache-dir", cache_dir]
        walls, cpu, rss, codes = [], 0.0, 0.0, []
        for inputs in self.invocations():
            argv = [self.cli] + args + ["--out-dir", out_dir] + inputs
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            walls.append((time.perf_counter() - start) * 1e3)
            child.returncode = os.waitstatus_to_exitcode(status)
            codes.append(child.returncode)
            cpu += (usage.ru_utime + usage.ru_stime) * 1e3
            rss = max(rss, usage.ru_maxrss / 1024.0)
        return sum(walls), cpu, rss, walls, codes

    def outputs(self, out_dir):
        """name -> ISA JSON bytes (None if missing), distinct programs."""
        found = {}
        for name in self.manifest["distinct"]:
            path = os.path.join(out_dir, name + ".isa.json")
            found[name] = open(path, "rb").read() if os.path.exists(path) \
                else None
        return found

    # -- set-up ----------------------------------------------------------

    def prepare(self):
        """Generates the QASM and, if the workload uses one, warms the
        disk cache."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.helper("gen", "--dir", self.qasm)
        self.manifest = json.load(open(os.path.join(self.qasm,
                                                    "manifest.json")))
        if self.uses_cache:
            warm_inputs = [os.path.join(self.qasm, name + ".qasm")
                           for name in self.manifest["warm_inputs"]]
            done = subprocess.run(
                [self.cli, "--jobs-async", "--jobs", "2", "--cache-dir",
                 self.warm, "--no-json"] + warm_inputs,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                raise BenchError("warming the cache failed: "
                                 + done.stderr.strip())

    def setup(self):
        self.prepare()
        self.determinism_gate()
        smallest = min(self.manifest["distinct"],
                       key=lambda name: len(self.reference[name]))
        self.helper("mutation-test", "--dir", self.reference_dir,
                    "--program", smallest)

    def reference_round(self):
        """One round whose output later rounds are compared against."""
        self.reference_dir = os.path.join(self.work, "reference")
        codes = self.run_round(self.reference_dir)[4]
        if any(codes):
            raise BenchError("the CLI failed on the reference round")
        self.reference = self.outputs(self.reference_dir)
        missing = [name for name, data in self.reference.items()
                   if data is None]
        if missing:
            raise BenchError("the CLI wrote no ISA JSON for "
                             + ", ".join(missing))

    def determinism_gate(self):
        """ISA JSON must be byte-identical across runs, --jobs 1/2 and
        the disk tier; otherwise the quality metrics could not repeat."""
        args = self.spec["cli_args"]
        jobs_at = args.index("--jobs") + 1
        other_jobs = list(args)
        other_jobs[jobs_at] = "1" if args[jobs_at] != "1" else "2"
        async_args = [a for a in args if a != "--jobs-async"]
        variants = [("repeat", args, None), ("other --jobs", other_jobs, None)]
        if self.uses_cache:
            variants.append(("no disk tier", ["--jobs-async"] + async_args,
                             ""))
        else:
            cache = os.path.join(self.work, "det-cache")
            variants += [("disk tier, cold", ["--jobs-async"] + async_args,
                          cache),
                         ("disk tier, warm", ["--jobs-async"] + async_args,
                          cache)]
        self.reference_round()
        for label, variant_args, cache in variants:
            out_dir = os.path.join(self.work, "det-out")
            codes = self.run_round(out_dir, variant_args, cache)[4]
            if any(codes):
                raise BenchError("the CLI failed in the determinism gate (%s)"
                                 % label)
            for name, data in self.outputs(out_dir).items():
                if data != self.reference[name]:
                    raise BenchError("determinism gate: %s differs (%s)"
                                     % (name, label))
        shutil.rmtree(os.path.join(self.work, "det-out"), ignore_errors=True)

    # -- end to end ------------------------------------------------------

    def check(self, out_dir):
        rows = json.loads(self.helper("check", "--dir", out_dir))
        return {row["name"]: row for row in rows["programs"]}

    def closed_loop(self, seconds):
        """Rounds of CLI invocations for `seconds`, one client.

        Every emitted document must be byte-identical to the checked
        reference round's, or pass the check itself. Returns the round
        walls and CPU times, the peak RSS, per-program invocation walls,
        the reference verdicts, and the attempted and failed counts.
        """
        verdicts = self.check(self.reference_dir)
        digests = {name: hashlib.sha256(data).digest()
                   for name, data in self.reference.items()}
        walls, cpus, rss_peak = [], [], 0.0
        per_program = {name: [] for name in self.manifest["distinct"]}
        attempted = failed = 0
        out_dir = os.path.join(self.work, "out")
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, cpu, rss, invocation_walls, codes = self.run_round(out_dir)
            walls.append(wall)
            cpus.append(cpu)
            rss_peak = max(rss_peak, rss)
            if self.spec["invocation"] == "per-program":
                for name, ms in zip(self.manifest["inputs"],
                                    invocation_walls):
                    per_program[name].append(ms)
            produced = self.outputs(out_dir)
            changed = [name for name, data in produced.items()
                       if data is not None
                       and hashlib.sha256(data).digest() != digests[name]]
            round_verdicts = dict(verdicts)
            if changed:
                round_verdicts.update(self.check(out_dir))
            for index, inputs in enumerate(self.invocations()):
                for path in inputs:
                    name = os.path.basename(path)[:-len(".qasm")]
                    attempted += 1
                    if (codes[index] != 0 or produced[name] is None
                            or not round_verdicts[name]["ok"]):
                        failed += 1
        return walls, cpus, rss_peak, per_program, verdicts, attempted, \
            failed

    def end_to_end(self, seconds):
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.setup()
            setup_times.append(time.perf_counter() - start)
        walls, cpus, rss_peak, per_program, verdicts, attempted, failed = \
            self.closed_loop(seconds)

        rows = []
        for name in self.manifest["distinct"]:
            verdict = verdicts[name]
            rows.append({
                "program": name, "ok": verdict["ok"],
                "fidelity": verdict["fidelity"],
                "t_exe_ms": verdict["t_exe_us"] / 1e3,
                "transfers": verdict["transfers"],
                "wall_ms": (statistics.median(per_program[name])
                            if per_program[name] else None)})
            if not verdict["ok"]:
                print("check failed: %s: %s" % (name, verdict["error"]),
                      file=sys.stderr)
        ok_rows = [row for row in rows if row["ok"]]
        fidelity = math.exp(statistics.fmean(
            math.log(row["fidelity"]) for row in ok_rows)) if ok_rows \
            and all(row["fidelity"] > 0 for row in ok_rows) else 0.0
        for row in rows:
            print("row " + json.dumps(row))
        print("note %d rounds; setup_s samples %s" % (
            len(walls), ", ".join("%.3f" % s for s in setup_times)))
        metrics = {
            "wall_ms": statistics.median(walls),
            "cpu_ms": statistics.median(cpus),
            "peak_rss_mb": rss_peak,
            "fidelity_geomean": fidelity,
            "t_exe_ms": sum(row["t_exe_ms"] for row in ok_rows),
            "ok_frac": 1.0 - failed / attempted,
            "setup_s": statistics.median(setup_times),
        }
        return failed == 0, attempted, failed, metrics, \
            self.plan["end_to_end"]

    # -- per layer -------------------------------------------------------

    def traced(self, seconds, trace_out):
        """Half the time in the closed loop, for the round-wall tail;
        half in the in-process traced run."""
        self.prepare()
        self.reference_round()
        walls, _, _, _, _, loop_attempted, loop_failed = \
            self.closed_loop(seconds / 2)
        tail_value, tail_label = tail(walls)
        print("note wall_ms_tail is %s of %d rounds"
              % (tail_label, len(walls)))
        startups = []
        for _ in range(STARTUP_SAMPLES):
            start = time.perf_counter()
            done = subprocess.run([self.cli, "--list-strategies"],
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            startups.append((time.perf_counter() - start) * 1e3)
            if done.returncode != 0:
                raise BenchError("powermove --list-strategies failed")
        extra = ["--dir", self.qasm, "--seconds", str(seconds / 2),
                 "--trace-out", trace_out]
        if self.uses_cache:
            extra += ["--warm-cache", self.warm]
        result = json.loads(self.helper("trace", *extra))
        metrics = dict(result["metrics"])
        metrics["tools.startup_ms"] = statistics.median(startups)
        metrics["wall_ms_tail"] = tail_value
        absent = sorted(set(self.plan["per_layer"]) - set(metrics))
        if absent:
            raise BenchError("the traced run measured no " + ", ".join(absent))
        for row in result["programs"]:
            print("row " + json.dumps(row))
        layers = {
            "tools": ["tools.read_us", "tools.write_us"],
            "qasm": ["qasm.lex_us", "qasm.parse_us", "qasm.lower_us"],
            "compiler": ["compiler.compile_us"],
            "fidelity": ["fidelity.evaluate_us"],
            "isa": ["isa.validate_us", "isa.serialize_us"],
            # The disk tier is on the CLI's path only with --cache-dir.
            "service": ["service.fingerprint_us"] + (
                ["service.disk_load_us", "service.disk_store_us"]
                if self.uses_cache else []),
        }
        self_us = {layer: sum(metrics[key] for key in keys)
                   for layer, keys in layers.items()}
        print("note layer self time per round (us): " + ", ".join(
            "%s %.0f" % item for item in
            sorted(self_us.items(), key=lambda item: -item[1])))
        print("note %d traced rounds; spans in %s"
              % (result["rounds"], os.path.relpath(trace_out, ROOT)))
        failed = result["failed"] + loop_failed
        return failed == 0, result["attempted"] + loop_attempted, failed, \
            metrics, self.plan["per_layer"]


def tail(walls):
    """The highest percentile with at least ten rounds beyond it."""
    ordered = sorted(walls)
    if len(ordered) < 11:
        return ordered[-1], "the maximum (fewer than 11 rounds)"
    index = len(ordered) - 11
    return ordered[index], "p%.1f" % (100.0 * (index + 1) / len(ordered))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()
    if options.seed < 0:
        sys.exit("perfbench: --seed must be >= 0")

    out = build_dir()
    cli, pmbench = build(out)
    work = os.path.join(out, "runs", "%s-%d-%d" % (options.workload,
                                                   options.seed, os.getpid()))
    bench = Bench(options.workload, options.seed, work, cli, pmbench)
    try:
        if options.trace:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            result = bench.traced(options.seconds, os.path.join(
                traces, "%s-seed%d.json" % (options.workload, options.seed)))
        else:
            result = bench.end_to_end(options.seconds)
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct, attempted, failed, metrics, catalog = result
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": catalog[name]["unit"]}
                    for name in catalog}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
