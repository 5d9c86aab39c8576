#!/usr/bin/env python3
"""Repo-specific concurrency/robustness lint (DESIGN.md §11, §12, §13).

Four rules over src/:

  naked-mutex      std::mutex / std::condition_variable / std::lock_guard /
                   std::unique_lock / std::scoped_lock / std::shared_mutex /
                   std::recursive_mutex / std::timed_mutex are banned
                   outside the annotated wrapper layer (util/mutex.{h,cc},
                   util/thread_annotations.h). Everything else must use
                   util::Mutex / util::MutexLock / util::CondVar so
                   MLCORE_GUARDED_BY contracts stay machine-checkable.
                   (std::once_flag / std::call_once are fine — they carry
                   no guarded state.)

  release-check    MLCORE_CHECK / MLCORE_CHECK_MSG (always-abort, also in
                   release) are banned in code reachable from Engine
                   request handling: src/service, src/dccs, src/core,
                   src/dynamic, src/store and graph/multilayer_graph.cc.
                   Preconditions guaranteed by Engine::Validate belong in
                   MLCORE_DCHECK; genuine abort-by-contract sites carry a
                   `NOLINT(mlcore-release-check): <reason>` marker on the
                   same line or within the three lines above.

  raw-walltimer    declaring a WallTimer by value is banned in src/service:
                   service timings must flow through obs::Span (a null-trace
                   Span is the sanctioned stopwatch) so every measured
                   duration is also observable in the trace/metric surface
                   (DESIGN.md §12). References returned by Span::timer()
                   (`const WallTimer&`) are fine. Deliberate uses carry
                   `NOLINT(mlcore-raw-walltimer): <reason>`.

  raw-mmap         calling mmap( / munmap( is banned outside
                   util/mmap_file.{h,cc}: mapping lifetime must be owned by
                   util::MmapFile (RAII, shared via MultiLayerGraph's
                   backing handle) so no view can outlive its mapping
                   (DESIGN.md §13). Deliberate uses carry
                   `NOLINT(mlcore-raw-mmap): <reason>`.

Exit status 0 = clean, 1 = findings (printed one per line as
path:line: [rule] message).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

WRAPPER_FILES = {
    SRC / "util" / "mutex.h",
    SRC / "util" / "mutex.cc",
    SRC / "util" / "thread_annotations.h",
}

NAKED_MUTEX = re.compile(
    r"std::(?:mutex|condition_variable(?:_any)?|lock_guard|unique_lock"
    r"|scoped_lock|shared_mutex|shared_lock|recursive_mutex|timed_mutex"
    r"|recursive_timed_mutex|shared_timed_mutex)\b"
)
RELEASE_CHECK = re.compile(r"\bMLCORE_CHECK(?:_MSG)?\s*\(")
# Value declarations only: `WallTimer t;` / `mlcore::WallTimer t;`.
# `const WallTimer& t = span.timer()` has '&' before the identifier and
# does not match (no new clock is created).
RAW_WALLTIMER = re.compile(r"\bWallTimer\s+[A-Za-z_]")
RAW_MMAP = re.compile(r"\b(?:mmap|munmap)\s*\(")

MMAP_WRAPPER_FILES = {
    SRC / "util" / "mmap_file.h",
    SRC / "util" / "mmap_file.cc",
}

CHECK_SCOPE_DIRS = ("service", "dccs", "core", "dynamic", "store", "format")
CHECK_SCOPE_FILES = {SRC / "graph" / "multilayer_graph.cc"}

MARKER_WINDOW = 3  # a NOLINT marker covers its own line and the next three


def strip_code(lines: list[str]) -> list[str]:
    """Returns lines with comments and string/char literals blanked out
    (same line count, so reported line numbers match the file)."""
    text = "\n".join(lines)
    out: list[str] = []
    i, n = 0, len(text)
    in_block = False
    while i < n:
        c = text[i]
        if in_block:
            if text.startswith("*/", i):
                in_block = False
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            in_block = True
            out.append("  ")
            i += 2
        elif c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out).split("\n")


def has_marker(raw_lines: list[str], idx: int, marker: str) -> bool:
    lo = max(0, idx - MARKER_WINDOW)
    return any(marker in raw_lines[j] for j in range(lo, idx + 1))


def in_check_scope(path: Path) -> bool:
    if path in CHECK_SCOPE_FILES:
        return True
    rel = path.relative_to(SRC)
    return rel.parts[0] in CHECK_SCOPE_DIRS


def lint_file(path: Path) -> list[str]:
    raw = path.read_text().splitlines()
    code = strip_code(raw)
    rel = path.relative_to(REPO)
    findings: list[str] = []

    if path not in WRAPPER_FILES:
        for i, line in enumerate(code):
            if NAKED_MUTEX.search(line):
                findings.append(
                    f"{rel}:{i + 1}: [naked-mutex] use util::Mutex / "
                    "util::MutexLock / util::CondVar (util/mutex.h) so the "
                    "thread-safety contracts stay machine-checked"
                )

    if in_check_scope(path):
        for i, line in enumerate(code):
            if RELEASE_CHECK.search(line) and not has_marker(
                raw, i, "NOLINT(mlcore-release-check)"
            ):
                findings.append(
                    f"{rel}:{i + 1}: [release-check] MLCORE_CHECK aborts in "
                    "release builds on an Engine request path; use "
                    "MLCORE_DCHECK (Validate-guaranteed precondition) or "
                    "return a Status, or justify with "
                    "NOLINT(mlcore-release-check): <reason>"
                )

    if rel.parts[:2] == ("src", "service"):
        for i, line in enumerate(code):
            if RAW_WALLTIMER.search(line) and not has_marker(
                raw, i, "NOLINT(mlcore-raw-walltimer)"
            ):
                findings.append(
                    f"{rel}:{i + 1}: [raw-walltimer] service timings must "
                    "flow through obs::Span (use a null-trace Span as a "
                    "stopwatch) so durations stay observable, or justify "
                    "with NOLINT(mlcore-raw-walltimer): <reason>"
                )

    if path not in MMAP_WRAPPER_FILES:
        for i, line in enumerate(code):
            if RAW_MMAP.search(line) and not has_marker(
                raw, i, "NOLINT(mlcore-raw-mmap)"
            ):
                findings.append(
                    f"{rel}:{i + 1}: [raw-mmap] raw mmap/munmap outside "
                    "util/mmap_file.*: mapping lifetime must be owned by "
                    "util::MmapFile so adjacency views cannot outlive their "
                    "mapping, or justify with NOLINT(mlcore-raw-mmap): "
                    "<reason>"
                )

    return findings


def main() -> int:
    findings: list[str] = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".h", ".cc", ".cpp", ".hpp"):
            findings.extend(lint_file(path))
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} finding(s).", file=sys.stderr)
        return 1
    print(f"lint: OK ({sum(1 for p in SRC.rglob('*') if p.suffix in ('.h', '.cc', '.cpp', '.hpp'))} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
