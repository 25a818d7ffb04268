#!/usr/bin/env bash
# Tier-1 verification, fully offline: build, test, and compile benches
# with no registry access. The workspace is hermetic (path-only
# dependencies; see tests/hermetic_deps.rs), so --offline must succeed
# from a clean checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

# Start-of-run marker: the bench gate below rejects any gated suite
# result older than this file, so it can only ever compare medians this
# run measured, never a stale committed JSON.
bench_marker="$(mktemp)"
trap 'rm -f "$bench_marker"' EXIT

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline (tier-1: root package)"
cargo test -q --offline

echo "== NEPHELE_AUDIT=every-op cargo test -q --offline (tier-1 under the state invariant auditor)"
NEPHELE_AUDIT=every-op cargo test -q --offline

echo "== cargo test -q --workspace --offline --exclude nephele-repro (every member crate; the root package ran above)"
cargo test -q --workspace --offline --exclude nephele-repro

echo "== cargo bench --no-run --offline"
cargo bench --no-run --offline

echo "== cargo bench -p bench --bench clone_fanout --offline (batched vs sequential fan-out)"
cargo bench -p bench --bench clone_fanout --offline

echo "== cargo bench -p bench --bench clone_reset --offline (O(dirty) checkpoint restore)"
cargo bench -p bench --bench clone_reset --offline

echo "== cargo bench -p bench --bench clone_boot --offline (boot vs clone latency)"
cargo bench -p bench --bench clone_boot --offline

echo "== cargo bench -p bench --bench memory_cow --offline (COW fault and frame-table paths)"
cargo bench -p bench --bench memory_cow --offline

echo "== cargo bench -p bench --bench net_and_alloc --offline (netmux and allocator paths)"
cargo bench -p bench --bench net_and_alloc --offline

echo "== cargo bench -p bench --bench xenstore_ops --offline (Xenstore request paths)"
cargo bench -p bench --bench xenstore_ops --offline

echo "== cargo bench -p bench --bench trace_overhead --offline (sink self-overhead per TraceMode)"
cargo bench -p bench --bench trace_overhead --offline

echo "== cargo bench -p bench --bench clone_density --offline (per-clone cost vs live-domain count)"
cargo bench -p bench --bench clone_density --offline

echo "== clone density gate (10^4-domain clone+destroy median <= 2x the 10^2-domain median)"
# The index work's contract: per-clone and per-destroy host cost must
# not scale with the number of concurrently live domains. Before the
# name index, the referrer index and the range-keyed device maps, the
# 10^4 median sat at ~3.5x the 10^2 one.
density_median() {
    sed -n 's/.*"group": "density_'"$1"'", "name": "clone_destroy_batch16".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' \
        results/BENCH_clone_density.json
}
awk -v d100="$(density_median 100)" -v d10k="$(density_median 10000)" 'BEGIN {
    if (d100 + 0 <= 0 || d10k + 0 <= 0) {
        print "verify.sh: missing clone_density medians (d100=" d100 ", d10k=" d10k ")"
        exit 1
    }
    ratio = d10k / d100
    printf "   clone+destroy batch16 median: %.0f ns at 100 domains vs %.0f ns at 10000 (%.2fx)\n", d100, d10k, ratio
    if (ratio > 2.0) {
        print "verify.sh: per-clone cost grows " ratio "x from 10^2 to 10^4 live domains (gate: 2x)"
        exit 1
    }
}'

echo "== family size gate (10^5-sibling clone+destroy-oldest median <= 2x the 10^2-sibling median)"
# The same contract on the other axis: both families live in one
# platform, so the live-domain count is equal and only the family size
# differs. A destroy must not scan its surviving siblings; when every
# destroy swept the parent's list of live children, the 10^5-sibling
# median sat at ~5x the 10^2 one.
family_median() {
    sed -n 's/.*"group": "family_'"$1"'", "name": "clone_destroy_oldest16".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' \
        results/BENCH_clone_density.json
}
awk -v f100="$(family_median 100)" -v f100k="$(family_median 100000)" 'BEGIN {
    if (f100 + 0 <= 0 || f100k + 0 <= 0) {
        print "verify.sh: missing family medians (f100=" f100 ", f100k=" f100k ")"
        exit 1
    }
    ratio = f100k / f100
    printf "   clone+destroy-oldest batch16 median: %.0f ns in a 100-clone family vs %.0f ns in a 100000-clone family (%.2fx)\n", f100, f100k, ratio
    if (ratio > 2.0) {
        print "verify.sh: per-clone cost grows " ratio "x from 10^2 to 10^5 siblings (gate: 2x)"
        exit 1
    }
}'

echo "== pump density gate (3000-member echo family request median <= 2x the 30-member median)"
# The ready-set pump's contract: a request's host cost must not scale
# with the number of live vifs. When the pump probed every live vif's
# rings each round, the 3000-member median sat at ~250x the 30-member one.
pump_median() {
    sed -n 's/.*"group": "pump_density_'"$1"'", "name": "udp_request".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' \
        results/BENCH_clone_density.json
}
awk -v m30="$(pump_median 30)" -v m3k="$(pump_median 3000)" 'BEGIN {
    if (m30 + 0 <= 0 || m3k + 0 <= 0) {
        print "verify.sh: missing pump_density medians (m30=" m30 ", m3k=" m3k ")"
        exit 1
    }
    ratio = m3k / m30
    printf "   host_udp_send round trip median: %.0f ns at 30 members vs %.0f ns at 3000 (%.2fx)\n", m30, m3k, ratio
    if (ratio > 2.0) {
        print "verify.sh: per-request cost grows " ratio "x from 30 to 3000 family members (gate: 2x)"
        exit 1
    }
}'

echo "== trace overhead budget gate (Aggregate vs Off / Full)"
# Streaming aggregation buys bounded memory; this gate asserts it stays
# within its host-cost budget: an Aggregate-mode instrumentation tick
# must cost at most 60x a disabled sink's (the mixed batch is ~1k ops,
# so that is a generous per-op budget) and at most 1.1x Full mode's,
# which runs the same close-time fold and also retains every record.
trace_median() {
    sed -n 's/.*"group": "trace_overhead", "name": "'"$1"'".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' \
        results/BENCH_trace_overhead.json
}
awk -v off="$(trace_median mixed_off)" \
    -v full="$(trace_median mixed_full)" \
    -v agg="$(trace_median mixed_agg)" 'BEGIN {
    if (off + 0 <= 0 || full + 0 <= 0 || agg + 0 <= 0) {
        print "verify.sh: missing trace_overhead medians (off=" off ", full=" full ", agg=" agg ")"
        exit 1
    }
    printf "   mixed tick medians: off %.0f ns, full %.0f ns, aggregate %.0f ns (agg/off %.1fx, agg/full %.2fx)\n", \
        off, full, agg, agg / off, agg / full
    if (agg > 60.0 * off) {
        print "verify.sh: Aggregate tick exceeds the 60x budget over a disabled sink"
        exit 1
    }
    if (agg > 1.1 * full) {
        print "verify.sh: Aggregate tick exceeds 1.1x the Full-mode cost"
        exit 1
    }
}'

echo "== clone_reset speedup gate (>= 5x vs the seeded pre-overlay baseline)"
# The general bench gate only catches regressions; this one asserts the
# tentpole win itself: restoring 16 dirty pages in a 4096-page clone
# must beat the stamped-p2m baseline (which walked all of them) by 5x.
reset_median() {
    sed -n 's/.*"group": "clone_reset", "name": "dirty16_reset_4k".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' "$1"
}
awk -v base="$(reset_median scripts/bench_baselines/BENCH_clone_reset.json)" \
    -v cur="$(reset_median results/BENCH_clone_reset.json)" 'BEGIN {
    if (base + 0 <= 0 || cur + 0 <= 0) {
        print "verify.sh: missing clone_reset medians (base=" base ", cur=" cur ")"
        exit 1
    }
    ratio = base / cur
    printf "   clone_reset median %.0f ns vs baseline %.0f ns (%.1fx)\n", cur, base, ratio
    if (ratio < 5.0) {
        print "verify.sh: clone_reset speedup " ratio "x is below the 5x gate"
        exit 1
    }
}'

echo "== cargo check with all warnings denied (including deprecated items)"
RUSTFLAGS="-D warnings" cargo check -q --workspace --all-targets --offline

echo "== scripts/bench_gate.sh (this run's medians vs checked-in baselines)"
NEPHELE_BENCH_SINCE="$bench_marker" scripts/bench_gate.sh

echo "== scripts/bench_gate.sh scripts/fixtures/regressed (doctored fixture must fail the gate)"
if scripts/bench_gate.sh scripts/fixtures/regressed >/dev/null 2>&1; then
    echo "verify.sh: bench gate accepted the doctored regression fixture"
    exit 1
fi

echo "== figure determinism gate (fig4-fig11, fig10scale and ablation CSVs must be byte-identical)"
# Neither the COW Xenstore, the p2m overlay rework, nor the per-class
# device dispatch may perturb any virtual-time figure: re-run the figures
# with the committed seeds and diff stdout against the checked-in CSVs.
# fig4/fig7/fig8 embed span aggregates, so they reproduce only with
# tracing enabled; the others run without it. fig8 and ablation clone
# with a device class disabled, and ablation also runs the deep-copy
# device path.
detgate() {
    local fig="$1" trace="$2" out
    out="$(mktemp)"
    if [[ "$trace" == trace ]]; then
        NEPHELE_TRACE=1 cargo run -q -p bench --release --offline --bin "$fig" > "$out"
    else
        cargo run -q -p bench --release --offline --bin "$fig" > "$out"
    fi
    if ! diff -q "results/$fig.csv" "$out" >/dev/null; then
        echo "verify.sh: $fig.csv drifted from the committed results:"
        diff "results/$fig.csv" "$out" | head -20
        rm -f "$out"
        exit 1
    fi
    rm -f "$out"
    echo "   $fig.csv reproduced byte-identical"
    # Traced runs also regenerate the streaming exports in place
    # (timeline slices, family rollups, Prometheus exposition); any
    # drift from the committed copies fails the gate.
    if [[ "$trace" == trace ]]; then
        local f
        for f in "results/${fig}_timeline.csv" "results/${fig}_families.csv" "results/${fig}_metrics.prom"; do
            if ! git ls-files --error-unmatch "$f" >/dev/null 2>&1; then
                echo "verify.sh: $f is not committed (streaming exports must be tracked)"
                exit 1
            fi
            if ! git diff --quiet -- "$f"; then
                echo "verify.sh: $f drifted from the committed streaming export:"
                git diff -- "$f" | head -20
                exit 1
            fi
        done
        echo "   $fig streaming exports reproduced byte-identical"
    fi
}
detgate fig4 trace
detgate fig5 notrace
detgate fig6 notrace
detgate fig7 trace
detgate fig8 trace
detgate fig9 notrace
detgate fig10 notrace
detgate fig11 notrace
detgate fig10scale notrace
detgate ablation notrace

echo "== scale100k (10^5 concurrently live clones, churn, and policy replay must complete)"
# The acceptance run for the density work: ramping to 100 000 live
# vif-less clones, churning 1 562 of them through destroy, and replaying
# 20 000 requests per policy. Any O(live domains) cost left on the
# create/clone/destroy path makes this run crawl; the binary asserts
# the scenario's invariants itself.
cargo run -q -p bench --release --offline --bin scale100k

echo "== cargo doc --no-deps --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --quiet

echo "verify.sh: all green"
