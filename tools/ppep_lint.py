#!/usr/bin/env python3
"""PPEP-specific lint pass (layer 3 of the static safety wall).

clang's function-effect analysis proves the annotated warm-interval call
graph cannot allocate or block, and clang-tidy catches generic C++
defect patterns. This pass enforces the *project* rules neither of them
knows about:

  formatting   snprintf / ostringstream / std::to_string are banned in
               src/ppep outside the files listed in FORMATTING_ALLOWED:
               all hot-path number formatting goes through util/fmt.hpp
               (std::to_chars), which is allocation- and locale-free.
               The allowlist is a ratchet — shrink it, never grow it.

  allocation   naked `new` / `malloc` / `free` are banned everywhere in
               src/ppep; ownership is std::make_unique / containers.

  hot-files    the files on the warm-interval hot path (HOT_FILES) must
               not acquire std::mutex, spawn threads, or perform stream
               I/O — blocking belongs in the telemetry sinks, which the
               session calls after the annotated interval, never inside
               the governing loop.

  rt-escape    every PPEP_RT_WARMUP_BEGIN / PPEP_RT_OPAQUE_BEGIN must
               carry a `rt-escape:` justification comment within the
               four lines above it. A bare escape is a lie waiting to
               happen.

  nolint       every NOLINT must name the silenced check and carry a
               reason: `// NOLINT(check-name): why`. Bare NOLINTs
               silence future, unrelated findings too.

  guards       every header under src/ppep carries a canonical
               PPEP_<PATH>_HPP include guard.

  model-docs   every public prototype in src/ppep/model/*.hpp has a doc
               comment, and every model header anchors itself to the
               paper (Eq. / Sec. / Fig. / Obs. / Table reference), so
               the model code stays navigable against the source text.

  raw-sync     std::mutex / std::condition_variable (and friends) are
               banned in src/ppep outside util/sync.hpp: all locking
               goes through the capability-annotated util::Mutex /
               util::MutexLock wrappers so the PPEP_THREAD_SAFETY build
               can prove lock discipline. A raw primitive is invisible
               to Thread Safety Analysis.

  unordered-iter
               std::unordered_{map,set} are banned in the files whose
               output feeds the fleet determinism digest (telemetry,
               arbiter, tenant attribution, trace export/replay): hash
               iteration order varies across libstdc++ versions and
               seeds, which breaks the bit-identical-at-any-thread-count
               contract. Use std::map or a sorted vector.

  fp-contract  every TU using `#pragma omp simd` must attest (in a
               comment matching `ffp-contract=off` / `ffp-contract: off`)
               that its build pins -ffp-contract=off, and the sibling
               CMakeLists.txt must actually pin it: FMA contraction
               makes vectorised and scalar sweeps disagree bitwise.

  seed         std::random_device, srand(), time(nullptr)-style wall
               clocks, and system_clock are banned in src/ppep: every
               seed comes from the session/fleet spec so replays are
               exact. steady_clock (latency telemetry) stays legal —
               wall-clock durations are measured, never folded into
               decisions or digests.

One rule covers tests/ instead (`--tests DIR`):

  temp-path    `TempDir() +` and `temp_directory_path()` are banned in
               tests/ outside temp_path.hpp: ctest runs every case as
               its own process, several at once, so a fixed name under
               the temp dir races. Scratch paths come from
               test::tempPath(), which names them after the process and
               the running test.

Exit status 0 = clean, 1 = findings, 2 = usage error.
Run `ppep_lint.py --self-test` to check the rules against the fixtures
in tools/lint_fixtures/ (registered in ctest as test_ppep_lint).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --- configuration ---------------------------------------------------------

# Cold-path files allowed to keep printf-family / string formatting.
# Each entry must say why. This is a ratchet: entries may be removed
# when migrated to util/fmt.hpp, never added for new hot-path code.
FORMATTING_ALLOWED = {
    "util/fmt.hpp",            # defines the replacement; mentions the banned
                               # calls in its documentation
    "util/logging.hpp",        # fatal/abort path: ostringstream right before
                               # the process dies
    "util/table.cpp",          # human-facing report tables, never per-interval
    "util/csv.cpp",            # doc comment contrasts with ostringstream
    "model/serialization.cpp", # model save/load, train-time only
    "runtime/model_store.cpp", # cache-key hashing at session build time
    "runtime/fleet.cpp",       # session naming at fleet construction
    "workloads/suite.cpp",     # workload naming at suite construction
    "sim/fault.cpp",           # FaultPlan::describe(), a debug summary
    "sim/vf_state.cpp",        # VfState::name(), setup/report time
}

# The warm-interval hot path: one interval of steady-state governing
# touches only these files (plus headers they include). Stream I/O,
# mutexes, and thread spawns are banned here outright.
HOT_FILES = {
    "model/cpi_model.cpp", "model/cpi_model.hpp",
    "model/event_predictor.cpp", "model/event_predictor.hpp",
    "model/dynamic_power_model.cpp", "model/dynamic_power_model.hpp",
    "model/pg_idle_model.cpp", "model/pg_idle_model.hpp",
    "model/explore_kernel.cpp", "model/explore_kernel.hpp",
    "model/ppep.cpp", "model/ppep.hpp",
    "governor/governor.cpp",
    "governor/energy_governor.cpp", "governor/energy_governor.hpp",
    "governor/ppep_capping.cpp", "governor/ppep_capping.hpp",
    "governor/degraded_mode.cpp", "governor/degraded_mode.hpp",
    "governor/coscale_lite.cpp", "governor/coscale_lite.hpp",
    "trace/collector.cpp", "trace/collector.hpp",
    "trace/replay.cpp", "trace/replay.hpp",
    "runtime/arbiter.cpp", "runtime/arbiter.hpp",
    "runtime/sampler.cpp", "runtime/sampler.hpp",
    "runtime/health.cpp", "runtime/health.hpp",
    "sim/chip.cpp", "sim/chip.hpp",
    "sim/core_model.cpp", "sim/core_model.hpp",
    "sim/northbridge.cpp", "sim/northbridge.hpp",
    "sim/hw_power_model.cpp", "sim/hw_power_model.hpp",
    "sim/thermal_model.cpp", "sim/thermal_model.hpp",
    "sim/power_sensor.cpp", "sim/power_sensor.hpp",
    "sim/pmc.cpp", "sim/pmc.hpp",
    "sim/phase.cpp", "sim/phase.hpp",
    "sim/vf_state.hpp",
    "sim/fault.hpp",
    "util/fmt.hpp",
    "util/hash.hpp",
    "util/rng.cpp", "util/rng.hpp",
    "util/annotations.hpp",
}

FORMATTING_RE = re.compile(
    r"\b(snprintf|sprintf|ostringstream|std::to_string|stringstream)\b")
ALLOC_RE = re.compile(r"(^|[^_\w.])(new\s+[A-Za-z_:]|malloc\s*\(|free\s*\()")
HOT_BANNED_RE = re.compile(
    r"\b(std::mutex|std::shared_mutex|lock_guard|unique_lock|scoped_lock"
    r"|condition_variable|std::thread|std::cout|std::cerr|fprintf|printf"
    r"|fopen|fstream|ofstream"
    # The annotated wrappers block exactly like the primitives they wrap;
    # a hot file must not acquire them either.
    r"|util::Mutex|MutexLock)\b")
HOT_BANNED_INCLUDE_RE = re.compile(
    r"#include\s+(?:<(iostream|fstream|sstream|mutex|thread"
    r"|condition_variable|shared_mutex)>"
    r"|\"(ppep/util/sync\.hpp)\")")
# The only file allowed to touch the raw standard-library primitives:
# it defines the capability-annotated wrappers everything else uses.
RAW_SYNC_ALLOWED = {"util/sync.hpp"}
RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b")
RAW_SYNC_INCLUDE_RE = re.compile(
    r"#include\s+<(mutex|condition_variable|shared_mutex)>")

# Files whose iteration order feeds the fleet determinism digest (or the
# exported artifacts hashed by it). Hash containers are banned here.
DETERMINISM_FILES = {
    "runtime/telemetry.cpp", "runtime/telemetry.hpp",
    "runtime/arbiter.cpp", "runtime/arbiter.hpp",
    "runtime/tenant.cpp", "runtime/tenant.hpp",
    "trace/replay.cpp", "trace/replay.hpp",
}
UNORDERED_RE = re.compile(
    r"\bstd::unordered_(map|set|multimap|multiset)\b"
    r"|#include\s+<unordered_(map|set)>")

OMP_SIMD_RE = re.compile(r"#pragma\s+omp\s+simd")
# Matches the attestation comment ("compiled with -ffp-contract=off")
# and the actual CMake flag, so one regex serves both sides of the check.
FP_CONTRACT_OFF_RE = re.compile(r"ffp-contract[=:]?\s*off")

SEED_RE = re.compile(
    r"\b(std::random_device|srand\s*\(|system_clock"
    r"|time\s*\(\s*(?:nullptr|NULL|0)\s*\))")

TEMP_PATH_RE = re.compile(
    r"\bTempDir\s*\(\s*\)\s*\+|\btemp_directory_path\s*\(")
# The helper that builds per-process, per-test paths from TempDir().
TEMP_PATH_ALLOWED = {"tests/temp_path.hpp"}

ESCAPE_RE = re.compile(r"PPEP_RT_(WARMUP|OPAQUE)_BEGIN")
ESCAPE_JUSTIFY_RE = re.compile(r"rt-escape:")
NOLINT_RE = re.compile(r"NOLINT(NEXTLINE)?(\(([^)]*)\))?(.*)")
PAPER_ANCHOR_RE = re.compile(
    r"\b(Eq\.|Sec\.|Fig\.|Obs\.|Table)\s*[0-9IVX]")
PROTO_RE = re.compile(r"^\s+[A-Za-z_~].*\(.*[;)]\s*$")
DOC_RE = re.compile(r"^\s*(/\*\*|\*|\*/|///|//)")


def strip_line_comment(line: str) -> str:
    """Drop // comments (good enough: no URL-bearing code lines here)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


class Finding:
    def __init__(self, path: Path, line: int, rule: str, msg: str):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def rel(path: Path, src_root: Path) -> str:
    try:
        return path.relative_to(src_root).as_posix()
    except ValueError:
        return path.as_posix()


# --- rules -----------------------------------------------------------------

def check_formatting(path: Path, rp: str, lines: list[str], out: list):
    if rp in FORMATTING_ALLOWED:
        return
    for i, raw in enumerate(lines, 1):
        line = strip_line_comment(raw)
        m = FORMATTING_RE.search(line)
        if m:
            out.append(Finding(path, i, "formatting",
                               f"'{m.group(1)}' is banned outside "
                               "util/fmt.hpp; use the to_chars helpers "
                               "(or justify a FORMATTING_ALLOWED entry)"))


def check_alloc(path: Path, rp: str, lines: list[str], out: list):
    for i, raw in enumerate(lines, 1):
        line = strip_line_comment(raw)
        m = ALLOC_RE.search(line)
        if m:
            out.append(Finding(path, i, "allocation",
                               "naked new/malloc/free; use "
                               "std::make_unique or a container"))


def check_hot_files(path: Path, rp: str, lines: list[str], out: list):
    if rp not in HOT_FILES:
        return
    for i, raw in enumerate(lines, 1):
        line = strip_line_comment(raw)
        m = HOT_BANNED_INCLUDE_RE.search(line) or HOT_BANNED_RE.search(line)
        if m:
            token = next((g for g in m.groups() if g), m.group(0))
            out.append(Finding(path, i, "hot-files",
                               f"'{token}' on the warm-interval hot "
                               "path; blocking belongs in the telemetry "
                               "sinks, outside the governing loop"))


def check_rt_escape(path: Path, rp: str, lines: list[str], out: list):
    if rp == "util/annotations.hpp":
        return  # defines the escapes; documents the rule itself
    for i, raw in enumerate(lines, 1):
        if not ESCAPE_RE.search(raw):
            continue
        window = lines[max(0, i - 5):i - 1] + [raw]
        if not any(ESCAPE_JUSTIFY_RE.search(w) for w in window):
            out.append(Finding(path, i, "rt-escape",
                               "escape region without an `rt-escape:` "
                               "justification comment above it"))


def check_nolint(path: Path, rp: str, lines: list[str], out: list):
    for i, raw in enumerate(lines, 1):
        idx = raw.find("NOLINT")
        if idx < 0:
            continue
        m = NOLINT_RE.match(raw[idx:])
        checks = m.group(3) if m else None
        reason = (m.group(4) or "").strip(" .") if m else ""
        if not checks or checks.strip() in ("", "*"):
            out.append(Finding(path, i, "nolint",
                               "NOLINT must name the silenced check: "
                               "`NOLINT(check-name): reason`"))
        elif not reason.lstrip(":").strip():
            out.append(Finding(path, i, "nolint",
                               "NOLINT must carry a reason: "
                               "`NOLINT(check-name): reason`"))


def check_guards(path: Path, rp: str, lines: list[str], out: list):
    if path.suffix != ".hpp":
        return
    expected = "PPEP_" + re.sub(r"[/.]", "_", rp.upper().replace(".HPP",
                                                                 "_HPP"))
    ifndef = next((l for l in lines if l.startswith("#ifndef")), None)
    define = next((l for l in lines if l.startswith("#define")), None)
    if (ifndef is None or define is None
            or ifndef.split()[1:2] != [expected]
            or define.split()[1:2] != [expected]):
        out.append(Finding(path, 1, "guards",
                           f"header must use include guard '{expected}'"))


def check_model_docs(path: Path, rp: str, lines: list[str], out: list):
    if not (rp.startswith("model/") and path.suffix == ".hpp"):
        return
    if not any(PAPER_ANCHOR_RE.search(l) for l in lines):
        out.append(Finding(path, 1, "model-docs",
                           "model header cites no paper anchor "
                           "(Eq./Sec./Fig./Obs./Table N)"))
    # Public prototypes (declarations ending in `;`) need a doc comment
    # above the declaration's first line. Inline accessors (body on the
    # declaration line) are self-documenting and skipped, as are
    # statement lines inside inline method bodies (tracked via brace
    # depth: members live exactly at their class's depth).
    depth = 0
    class_stack: list[tuple[int, str]] = []  # (member depth, visibility)
    pending: str | None = None
    for i, raw in enumerate(lines, 1):
        stripped = strip_line_comment(raw).strip()
        line_depth = depth
        depth += stripped.count("{") - stripped.count("}")
        while class_stack and depth < class_stack[-1][0]:
            class_stack.pop()
        if re.match(r"(class|struct)\s+\w+", stripped) and \
                ";" not in stripped:
            pending = "public" if stripped.startswith("struct") \
                else "private"
        if pending is not None and "{" in stripped:
            class_stack.append((depth, pending))
            pending = None
            continue
        if not class_stack:
            continue
        if stripped.startswith("public:"):
            class_stack[-1] = (class_stack[-1][0], "public")
        elif stripped.startswith(("private:", "protected:")):
            class_stack[-1] = (class_stack[-1][0], "private")
        if class_stack[-1][1] != "public":
            continue
        if line_depth != class_stack[-1][0]:
            continue  # inside an inline method body or nested scope
        if not PROTO_RE.match(raw.rstrip()) or not raw.rstrip().endswith(";"):
            continue
        if "{" in raw or "}" in raw or "=" in raw:
            continue  # inline body / defaulted / initialised member
        # Walk up over continuation lines to the declaration's first
        # line, then require a doc comment directly above it.
        first = i
        while first > 1:
            prev = lines[first - 2].rstrip()
            # A return type on its own line (`std::vector<T>`) is part
            # of the declaration, so `>` does not end the walk.
            if (not prev.strip() or DOC_RE.match(prev)
                    or prev.endswith((";", "{", "}", ":"))):
                break
            first -= 1
        if first == 1 or not DOC_RE.match(lines[first - 2]):
            out.append(Finding(path, i, "model-docs",
                               "public model API without a doc comment "
                               "(state what it computes and the paper "
                               "equation it implements)"))


def check_raw_sync(path: Path, rp: str, lines: list[str], out: list):
    if rp in RAW_SYNC_ALLOWED:
        return
    for i, raw in enumerate(lines, 1):
        line = strip_line_comment(raw)
        m = RAW_SYNC_INCLUDE_RE.search(line) or RAW_SYNC_RE.search(line)
        if m:
            token = next((g for g in m.groups() if g), m.group(0))
            out.append(Finding(path, i, "raw-sync",
                               f"raw '{token}' outside util/sync.hpp; "
                               "use the capability-annotated util::Mutex"
                               " / util::MutexLock wrappers so "
                               "PPEP_THREAD_SAFETY can see the lock"))


def check_unordered_iter(path: Path, rp: str, lines: list[str], out: list):
    if rp not in DETERMINISM_FILES:
        return
    for i, raw in enumerate(lines, 1):
        line = strip_line_comment(raw)
        m = UNORDERED_RE.search(line)
        if m:
            out.append(Finding(path, i, "unordered-iter",
                               "hash container on a determinism-digest "
                               "path; iteration order is unspecified — "
                               "use std::map or a sorted vector"))


def check_fp_contract(path: Path, rp: str, lines: list[str], out: list):
    simd_line = next((i for i, raw in enumerate(lines, 1)
                      if OMP_SIMD_RE.search(raw)), None)
    if simd_line is None:
        return
    # Attestation comment searched raw (it lives *in* comments), so no
    # strip_line_comment here.
    if not any(FP_CONTRACT_OFF_RE.search(raw) for raw in lines):
        out.append(Finding(path, simd_line, "fp-contract",
                           "TU uses `#pragma omp simd` but carries no "
                           "`-ffp-contract=off` attestation comment; "
                           "FMA contraction breaks bitwise determinism"))
    # The comment can lie: the TU's own CMakeLists.txt must pin the flag.
    # Fixtures (and any future out-of-tree lint targets) have no sibling
    # CMakeLists.txt, so the build-side check only runs when one exists.
    cmake = path.parent / "CMakeLists.txt"
    if cmake.is_file() and not FP_CONTRACT_OFF_RE.search(
            cmake.read_text(encoding="utf-8")):
        out.append(Finding(path, simd_line, "fp-contract",
                           f"`#pragma omp simd` here but {cmake.name} in "
                           f"{rel(cmake.parent, path.parent.parent)} does "
                           "not pin -ffp-contract=off"))


def check_seed(path: Path, rp: str, lines: list[str], out: list):
    for i, raw in enumerate(lines, 1):
        line = strip_line_comment(raw)
        m = SEED_RE.search(line)
        if m:
            out.append(Finding(path, i, "seed",
                               f"'{m.group(1)}' is nondeterministic; "
                               "seeds come from the session/fleet spec "
                               "and time from steady_clock (durations "
                               "only, never digested)"))


def check_temp_path(path: Path, rp: str, lines: list[str], out: list):
    if not rp.startswith("tests/") or rp in TEMP_PATH_ALLOWED:
        return
    for i, raw in enumerate(lines, 1):
        if TEMP_PATH_RE.search(strip_line_comment(raw)):
            out.append(Finding(path, i, "temp-path",
                               "fixed path under the temp dir races "
                               "between concurrent test processes; use "
                               "test::tempPath() from temp_path.hpp"))


RULES = [check_formatting, check_alloc, check_hot_files, check_rt_escape,
         check_nolint, check_guards, check_model_docs, check_raw_sync,
         check_unordered_iter, check_fp_contract, check_seed]
TEST_RULES = [check_temp_path]


# --- driver ----------------------------------------------------------------

def lint_tree(root: Path, rules: list, prefix: str = "") -> list[Finding]:
    findings: list[Finding] = []
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        rp = prefix + rel(path, root)
        for rule in rules:
            rule(path, rp, lines, findings)
    return findings


def self_test(fixtures: Path) -> int:
    """Every fixtures/bad_* file must trip exactly its named rule; every
    fixtures/good_* file must be clean. Fixture filenames encode the
    expectation: bad_<rule>_<anything>.<ext>."""
    failures = 0
    for path in sorted(fixtures.iterdir()):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        # Fixtures simulate a tree position via their first line:
        #   // lint-as: model/foo.hpp
        m = re.match(r"//\s*lint-as:\s*(\S+)", lines[0]) if lines else None
        rp = m.group(1) if m else path.name
        findings: list[Finding] = []
        for rule in RULES + TEST_RULES:
            rule(path, rp, lines, findings)
        rules_hit = {f.rule for f in findings}
        if path.name.startswith("bad_"):
            want = path.name.split("_")[1]
            if want not in rules_hit:
                print(f"SELF-TEST FAIL: {path.name}: expected a "
                      f"'{want}' finding, got {sorted(rules_hit) or 'none'}")
                failures += 1
        elif path.name.startswith("good_"):
            if findings:
                print(f"SELF-TEST FAIL: {path.name}: expected clean, got:")
                for f in findings:
                    print(f"  {f}")
                failures += 1
    print("self-test:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=None,
                    help="source root to lint (default: <repo>/src/ppep)")
    ap.add_argument("--tests", type=Path, default=None, metavar="DIR",
                    help="lint the test tree DIR with the tests/ rules "
                         "instead of the source root")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rules against tools/lint_fixtures/")
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    if args.self_test:
        return self_test(here / "lint_fixtures")

    if args.tests:
        root, rules, prefix = args.tests, TEST_RULES, "tests/"
    else:
        root, rules, prefix = (args.src or here.parent / "src" / "ppep",
                               RULES, "")
    if not root.is_dir():
        print(f"ppep_lint: no such source root: {root}", file=sys.stderr)
        return 2

    findings = lint_tree(root, rules, prefix)
    for f in findings:
        print(f)
    print(f"ppep_lint: {len(findings)} finding(s) over "
          f"{sum(1 for _ in root.rglob('*.hpp'))} headers and "
          f"{sum(1 for _ in root.rglob('*.cpp'))} sources")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
