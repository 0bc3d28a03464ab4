#!/usr/bin/env bash
# Builds rfidserve and the benchmark program from the source tree in the
# current directory (the repository root), then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload replay|live|cold --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the two binaries,
# and the servers' data directories (removed when the run ends).
#
# The cold workload keeps its servers' data directories on a private tmpfs
# mounted at .bench_build/mem in a mount namespace of its own (unshare), so
# its touch latency measures checkpoint encode/decode and WAL replay rather
# than the disk's fsync stalls. The mount disappears with the namespace when
# the run ends. Where no namespace can be made, the data stays on disk; the
# context line of the output names the file system used.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rfidserve" || ! -f "$root/perfbench/go.mod" || ! -f "$root/BENCHMARK.json" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/rfidserve, perfbench/ and BENCHMARK.json are needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work" "$out/home"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTELEMETRY=off
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/rfidserve" ./cmd/rfidserve
(cd perfbench && go build -o "$out/bin/perfbench" .)

bench=("$out/bin/perfbench" -rfidserve "$out/bin/rfidserve")
workload=
prev=
for a in "$@"; do
	case "$prev" in --workload | -workload) workload=$a ;; esac
	case "$a" in --workload=* | -workload=*) workload=${a#*=} ;; esac
	prev=$a
done

if [[ $workload == cold ]]; then
	mem="$out/mem"
	mkdir -p "$mem"
	# Mount, then exec the benchmark inside the same namespace.
	inner='mount -t tmpfs -o size=512m,mode=0755 perfbench "$0" && exec "$@"'
	for ns in -m -rm; do
		if unshare "$ns" sh -c 'mount -t tmpfs -o size=1m perfbench "$0"' "$mem" 2>/dev/null; then
			exec unshare "$ns" sh -c "$inner" "$mem" "${bench[@]}" -work "$mem" "$@"
		fi
	done
	echo "perfbench: cannot mount a private tmpfs; cold data directories stay on disk" >&2
fi
exec "${bench[@]}" -work "$out/work" "$@"
