#!/usr/bin/env bash
# CI gate: build, test, lint. Run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# repeat_test BINARY TEST COUNT THREADS...: run one test of one pvr-bench
# integration-test binary COUNT times in a row under each PVR_THREADS value
# ("" leaves the variable as it is), straight from the built binary.
repeat_test() {
    local target=$1 name=$2 count=$3 bin threads i
    shift 3
    bin=$(cargo test -p pvr-bench --test "$target" --no-run 2>&1 | sed -n 's/.*Executable.*(\(.*\))$/\1/p')
    [ -x "$bin" ] || {
        echo "FAIL: could not locate the $target test binary"
        exit 1
    }
    for threads in "$@"; do
        for i in $(seq 1 "$count"); do
            env ${threads:+PVR_THREADS=$threads} "$bin" --exact "$name" >/dev/null 2>&1 || {
                echo "FAIL: $name failed on iteration $i under PVR_THREADS=${threads:-(as inherited)}"
                exit 1
            }
        done
    done
}

# nontest_lines FILE: the lines of FILE before its first top-level
# `#[cfg(test)]` (all of them when it has none).
nontest_lines() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

echo "==> size ratchet (pvr-rts sources before their tests: machine.rs <= 649 lines, driver.rs <= 521, any other <= 1300)"
# `machine.rs` was 2 456 such lines until the barrier's protocols moved
# out with their state, 1 302 until the guards did, and 1 146 until the
# event loop did (`driver.rs`; ROADMAP item 3); `driver.rs` took the
# per-lane event queues' scheduling and barrier merge. Nothing may
# quietly grow back.
for f in crates/rts/src/*.rs; do
    limit=1300
    [ "$f" = crates/rts/src/machine.rs ] && limit=649
    [ "$f" = crates/rts/src/driver.rs ] && limit=521
    n=$(nontest_lines "$f")
    [ "$n" -le "$limit" ] || {
        echo "FAIL: $f has $n lines before its tests (limit $limit): split it along a protocol"
        exit 1
    }
done

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (PVR_THREADS=1: every Auto-parallelism run serial)"
PVR_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q (PVR_THREADS=4: every Auto-parallelism run threaded)"
PVR_THREADS=4 cargo test -q --workspace

echo "==> benchmark harness (benchmark/ builds against the public API; one repetition of every workload, all checks)"
cargo test --offline --manifest-path benchmark/Cargo.toml

cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 2 ]; then
    echo "==> engine-scaling smoke ($cores cores: parallel Jacobi must not lose to serial)"
    # Full configuration (the quick one's Serial leg is 4 ms: all noise),
    # best of three. Where the host has the cores for it, the worker pool
    # may never make the deterministic engine slower than serial:
    # Threads(2) >= 1.00x from 2 cores up, Threads(4) >= 1.00x from 4.
    best2=0
    best4=0
    for _ in 1 2 3; do
        out=$(cargo run --release -q -p pvr-bench --bin repro -- scaling)
        echo "$out"
        s2=$(echo "$out" | awk -F'|' '/Threads\(2\)/ {gsub(/[ x]/, "", $5); print $5}')
        s4=$(echo "$out" | awk -F'|' '/Threads\(4\)/ {gsub(/[ x]/, "", $5); print $5}')
        best2=$(awk -v a="$best2" -v b="$s2" 'BEGIN { print (b + 0 > a + 0) ? b : a }')
        best4=$(awk -v a="$best4" -v b="$s4" 'BEGIN { print (b + 0 > a + 0) ? b : a }')
    done
    echo "best of three: Threads(2) ${best2}x, Threads(4) ${best4}x"
    awk -v s="$best2" 'BEGIN { exit !(s >= 1.0) }' || {
        echo "FAIL: Threads(2) slower than serial on a $cores-core host (best speedup ${best2}x)"
        exit 1
    }
    if [ "$cores" -ge 4 ]; then
        awk -v s="$best4" 'BEGIN { exit !(s >= 1.0) }' || {
            echo "FAIL: Threads(4) slower than serial on a $cores-core host (best speedup ${best4}x)"
            exit 1
        }
    fi
else
    echo "==> engine-scaling smoke skipped ($cores core: no real parallelism available)"
fi

echo "==> fig7-gate (optimized Jacobi under every Fig. 7 method: residuals must be identical)"
# The workspace test passes are debug builds; this runs the stencil kernel
# optimized under unprivatized, TLS, PIP, FS, PIE and swap globals, and
# `report()` asserts every method's residual equals the baseline's. No
# timing bound.
cargo run --release -q -p pvr-bench --bin repro -- fig7

echo "==> perf-smoke (epoch dispatch + matching-depth sweep must produce BENCH_perf.json)"
cargo run --release -q -p pvr-bench --bin repro -- perf --quick
[ -s BENCH_perf.json ] || {
    echo "FAIL: repro -- perf did not write BENCH_perf.json"
    exit 1
}

echo "==> cow-smoke (COWglobals dedup sweep: read-mostly must share pages)"
out=$(cargo run --release -q -p pvr-bench --bin repro -- cow --quick)
echo "$out"
# Every read-mostly dedup row must report >0 never-diverged pages —
# a zero means the fault handler privatized pages nobody wrote.
shared=$(echo "$out" | awk -F'|' '/dedup/ && /read-mostly/ {gsub(/[^0-9]/, "", $6); print $6}' | sort -n | head -1)
awk -v s="$shared" 'BEGIN { exit !(s + 0 > 0) }' || {
    echo "FAIL: COW read-mostly workload shared no pages (dedup broken)"
    exit 1
}

echo "==> elastic-smoke (rescale sweep: policy growth must beat fixed-small)"
cargo run --release -q -p pvr-bench --bin repro -- elastic --quick

echo "==> ckpt-smoke (incremental checkpoint sweep: read-mostly bytes >= 10x fewer, pause below full)"
out=$(cargo run --release -q -p pvr-bench --bin repro -- ckpt --quick)
echo "$out"
# What the protocol guarantees where writes are page-local is bytes: the
# read-mostly bytes row's ratio column (full/incremental) is an exact
# count, 11.76x. The pause is wall-clock, and both sides of its ratio
# shrink when capture gets faster, so it is only held to its direction:
# an incremental barrier must pause for less than a full one.
bytes_ratio=$(echo "$out" | awk -F'|' '/bytes/ && /read-mostly/ {gsub(/[ x]/, "", $7); print $7}' | sort -n | head -1)
awk -v r="$bytes_ratio" 'BEGIN { exit !(r + 0 >= 10.0) }' || {
    echo "FAIL: incremental checkpoint bytes reduction ${bytes_ratio}x < 10x at read-mostly locality"
    exit 1
}
pause_ratio=$(echo "$out" | awk -F'|' '/pause/ && /read-mostly/ {gsub(/[ x]/, "", $7); print $7}' | sort -n | head -1)
awk -v r="$pause_ratio" 'BEGIN { exit !(r + 0 > 1.0) }' || {
    echo "FAIL: incremental checkpoint pause not below full pause (full/incremental ${pause_ratio}x) at read-mostly locality"
    exit 1
}

echo "==> dead-stack gate (incremental_engine_deterministic x100: 50 under PVR_THREADS=1, 50 under 4)"
# A delta's size once depended on what returned calls had left below the
# suspended sp (one 4 KiB chunk holding a host-allocator address), which
# failed this test on chance. Dead stack is out of the diff now; a hundred
# passes in a row, not four, is what says so.
repeat_test incremental_ckpt incremental_engine_deterministic 50 1 4

echo "==> no-trap gate (only_a_rank_that_must_wait_leaves_its_stack x40: 20 under PVR_THREADS=1, 20 under 4)"
# context_switches == ranks + wait_blocks, exactly: the one gate that
# fails if a later change quietly puts a switch back on every command.
repeat_test async_comm only_a_rank_that_must_wait_leaves_its_stack 20 1 4

echo "==> worker-pool lifetime gate (runs_leave_no_thread_behind x50)"
# The test reads this process's thread count right after a run has
# joined its helpers; the kernel drops a joined thread from that count a
# moment after `join` returns, so the test waits for the count to settle.
# Fifty passes in a row say the wait is long enough and nothing leaks.
repeat_test engine_pool runs_leave_no_thread_behind 50 ""

echo "==> overlap-smoke (Isend/Irecv halo must beat blocking by >= 1.3x)"
out=$(cargo run --release -q -p pvr-bench --bin repro -- overlap --quick)
echo "$out"
# The nonblocking halo's makespan speedup over blocking: an iteration
# should cost max(latency, compute) instead of latency + compute, so
# anything under 1.3x means delivery-time matching is not overlapping.
speedup=$(echo "$out" | awk '/^speedup/ {gsub(/[x,]/, "", $2); print $2}')
awk -v s="$speedup" 'BEGIN { exit !(s + 0 >= 1.3) }' || {
    echo "FAIL: nonblocking halo speedup ${speedup}x < 1.3x (overlap broken)"
    exit 1
}

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
