#!/usr/bin/env sh
# Panic gate: library code on the ingest, forwarding and dispatch paths
# must not panic. Malformed trace input is an expected condition
# (skip-and-count or a typed error), so `unwrap`/`expect`/`panic!` and
# friends are banned from non-test code in the crates that touch foreign
# bytes, and from the kernel and world model every run executes.
#
# Scope: crates/net/src and crates/router/src (the net glob also covers
# the columnar batch module, crates/net/src/batch.rs), plus the fleet
# engine, its checkpoint codec, and the csprov-state/1 container layer
# (state files are foreign bytes: corruption must surface as typed
# StateError/CheckpointError values, shard failures as FleetError), the
# columnar ingest pipeline in crates/core, the experiment layer every
# paper number comes out of (crates/core lib.rs and chaos.rs, and
# experiments/ mod, nat, tables, figures, web, ablations and aggregate;
# their renderers write into `String`s, which cannot fail, so a
# `writeln!` result is dropped with `let _ =`, never unwrapped),
# every module of crates/analysis (the analyzer folds the pipeline
# feeds — a replayed trace hands them foreign sizes — the checkpoint
# codec, and the renderers every artifact goes through), every module of
# crates/sim (the kernel every run executes) and crates/game (the world
# model it drives), crates/model (the fitted source models), crates/serve
# (the HTTP plane, which parses requests from the network), the bulk-TCP
# sender in crates/web (lib.rs and tcp.rs; workload.rs is not yet
# clean), and every module of crates/obs except registry.rs, whose
# accessors assert that a name is registered as one kind only (obs's
# json.rs parses foreign BENCH_*.json for bench_compare) — excluding
# `#[cfg(test)]` modules (tests may unwrap freely). Binaries
# (crates/bench) are exempt — a CLI aborting with a message is fine; a
# library unwinding is not.
#
# Exits non-zero listing each offending line.

set -eu

cd "$(dirname "$0")/.."

PATTERN='\.unwrap\(\)|\.expect\(|panic!|unreachable!|todo!|unimplemented!'
status=0

for f in crates/net/src/*.rs crates/router/src/*.rs \
    crates/core/src/fleet/mod.rs crates/core/src/fleet/persist.rs \
    crates/core/src/fleet/coord.rs \
    crates/analysis/src/*.rs \
    crates/core/src/lib.rs crates/core/src/chaos.rs crates/core/src/pipeline.rs \
    crates/core/src/experiments/mod.rs crates/core/src/experiments/nat.rs \
    crates/core/src/experiments/tables.rs crates/core/src/experiments/figures.rs \
    crates/core/src/experiments/web.rs \
    crates/core/src/experiments/ablations.rs \
    crates/core/src/experiments/aggregate.rs \
    crates/sim/src/*.rs crates/game/src/*.rs \
    crates/model/src/*.rs crates/serve/src/*.rs \
    crates/web/src/lib.rs crates/web/src/tcp.rs crates/obs/src/*.rs; do
    case "$f" in crates/obs/src/registry.rs) continue ;; esac
    # Strip everything from the first `#[cfg(test)]` onward: by repo
    # convention the test module is the final item in each file.
    hits=$(awk '/^#\[cfg\(test\)\]/ { exit } { print NR": "$0 }' "$f" \
        | grep -E "$PATTERN" || true)
    if [ -n "$hits" ]; then
        status=1
        echo "panic-prone construct in library path $f:" >&2
        echo "$hits" >&2
    fi
done

if [ "$status" -ne 0 ]; then
    echo "panic gate FAILED: use typed csprov_net::Error instead" >&2
else
    echo "panic gate OK: no unwrap/expect/panic! in net+router+fleet+experiments+analysis+sim+game+model+serve+web+obs library code"
fi
exit "$status"
