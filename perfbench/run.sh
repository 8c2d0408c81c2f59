#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload fleet-closed --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.jsonl head.jsonl
#
# Everything the build and the runs write (Go build cache, binary, span
# files, result records) goes under .bench_build/ in the current
# directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# The commit is recorded only when this directory is itself the root of a
# git work tree; git is not allowed to look above it.
commit=unknown
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$PWD" ]; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git status --porcelain)" ]; then
		commit="$commit-dirty"
	fi
fi

go -C perfbench build -buildvcs=false -o "$out/perfbench" .

# Freed heap goes back to the kernel with MADV_FREE, not MADV_DONTNEED, so
# that heap the simulator frees and reuses is not faulted in again: the
# price of a minor fault in a virtual machine depends on the host's memory
# load, and with MADV_DONTNEED paper-eval takes ~140k of them per sweep.
GODEBUG=madvdontneed=0 exec "$out/perfbench" -commit "$commit" "$@"
