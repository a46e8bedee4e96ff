#!/usr/bin/env python3
"""Docs gate: links and CLI references in README.md and docs/ must be real.

Three checks, all derived from the tree itself so the gate cannot rot:

  * every relative markdown link `[text](path)` in README.md and
    docs/**/*.md must resolve to an existing file or directory (anchors
    and absolute http(s)/mailto links are skipped);
  * every `janus_cli <subcommand>` the docs mention must be a subcommand
    the CLI actually dispatches — the valid set is parsed from the
    `cmd == "..."` comparisons in tools/janus_cli.cpp, not hard-coded
    here, so renaming a subcommand flags every stale mention;
  * every `--flag` in a `janus_cli ...` inline code span, or on a
    `janus_cli` command line (with its backslash continuations) inside a
    fenced code block, must be a "--flag" string literal in
    tools/janus_cli.cpp, so removing a flag flags every stale example.

Run from anywhere (`python3 tools/check_docs.py`); ci/lint.sh runs it on
every push.  Exit 0 clean, 1 with one line per finding.
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — excluding images' extra ! is unnecessary: image links
# must resolve too.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SUBCOMMAND_RE = re.compile(r"janus_cli\s+([a-z][a-z0-9_-]*)")
DISPATCH_RE = re.compile(r'cmd == "([a-z-]+)"')
FLAG_RE = re.compile(r"--[a-z0-9][a-z0-9-]*")
FLAG_LITERAL_RE = re.compile(r'"(--[a-z0-9][a-z0-9-]*)"')
# `span` or ``span``; spans may wrap across lines, never across a blank one.
INLINE_CODE_RE = re.compile(r"(`+)((?:(?!\n\s*\n).)+?)\1", re.S)


def doc_files():
    docs = [os.path.join(REPO, "README.md")]
    docs += sorted(glob.glob(os.path.join(REPO, "docs", "**", "*.md"),
                             recursive=True))
    return [d for d in docs if os.path.isfile(d)]


def cli_source():
    with open(os.path.join(REPO, "tools", "janus_cli.cpp")) as f:
        return f.read()


def cli_subcommands(source):
    names = set(DISPATCH_RE.findall(source))
    return {n for n in names if not n.startswith("-")}


def cli_flags(source):
    return set(FLAG_LITERAL_RE.findall(source))


def check_links(path, findings):
    with open(path) as f:
        text = f.read()
    base = os.path.dirname(path)
    for lineno, line in enumerate(text.splitlines(), 1):
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(os.path.join(base,
                                                     target.split("#")[0]))
            # ../../actions/... badge links point above the repo on
            # purpose (GitHub rewrites them); only check in-repo targets.
            if not resolved.startswith(REPO + os.sep):
                continue
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, REPO)
                findings.append(f"{rel}:{lineno}: broken link: {target}")


def check_subcommands(path, valid, findings):
    with open(path) as f:
        text = f.read()
    for lineno, line in enumerate(text.splitlines(), 1):
        for name in SUBCOMMAND_RE.findall(line):
            if name not in valid:
                rel = os.path.relpath(path, REPO)
                findings.append(
                    f"{rel}:{lineno}: docs name 'janus_cli {name}' but the "
                    f"CLI has no such subcommand "
                    f"(valid: {', '.join(sorted(valid))})")


def cli_snippets(text):
    """(line number, text) of every janus_cli reference that can carry
    flags: inline code spans outside fenced blocks, and command lines
    (joined with their backslash continuations) inside them."""
    snippets = []
    prose = []  # text outside fences; fenced lines blanked to keep lineno
    fenced = False
    command = None  # [start line, text] of a fenced command being joined
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            command = None
            prose.append("")
            continue
        if not fenced:
            prose.append(line)
            continue
        prose.append("")
        code = line.split(" #", 1)[0]
        if command is None and "janus_cli" in code:
            command = [lineno, ""]
        if command is not None:
            command[1] += " " + code.rstrip().rstrip("\\")
            if not code.rstrip().endswith("\\"):
                snippets.append(tuple(command))
                command = None
    joined = "\n".join(prose)
    for match in INLINE_CODE_RE.finditer(joined):
        if "janus_cli" in match.group(2):
            lineno = joined.count("\n", 0, match.start()) + 1
            snippets.append((lineno, match.group(2)))
    return snippets


def check_flags(path, valid, findings):
    with open(path) as f:
        text = f.read()
    for lineno, snippet in cli_snippets(text):
        for flag in FLAG_RE.findall(snippet):
            if flag not in valid:
                rel = os.path.relpath(path, REPO)
                findings.append(
                    f"{rel}:{lineno}: docs pass '{flag}' to janus_cli but "
                    f"tools/janus_cli.cpp parses no such flag")


def main():
    docs = doc_files()
    if not docs:
        print("check_docs: no markdown files found", file=sys.stderr)
        return 1
    source = cli_source()
    valid = cli_subcommands(source)
    flags = cli_flags(source)
    if not valid or not flags:
        print("check_docs: no subcommands or flags parsed from "
              "janus_cli.cpp", file=sys.stderr)
        return 1
    findings = []
    for path in docs:
        check_links(path, findings)
        check_subcommands(path, valid, findings)
        check_flags(path, flags, findings)
    for finding in findings:
        print(f"check_docs: {finding}", file=sys.stderr)
    if findings:
        print(f"check_docs: {len(findings)} finding(s) over "
              f"{len(docs)} file(s)", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({len(docs)} file(s), "
          f"{len(valid)} subcommands, {len(flags)} flags)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
