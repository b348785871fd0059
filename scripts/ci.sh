#!/usr/bin/env bash
# Full offline CI gate for the C-Brain reproduction. Everything here runs
# without network access; any failure fails the script.
#
#   scripts/ci.sh            # the whole gate
#   scripts/ci.sh --quick    # skip the release build (debug test cycle only)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $quick -eq 0 ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release
    # The root package does not depend on the cli/bench crates, so a bare
    # release build leaves their binaries stale; build the whole workspace.
    echo "==> cargo build --release --workspace (cli + bench binaries)"
    cargo build --release --workspace
fi

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace -q (CBRAIN_FORCE_SCALAR=1: scalar-fallback leg)"
CBRAIN_FORCE_SCALAR=1 cargo test --workspace -q

echo "==> idle soak with the telemetry kill switch (counters must stay exact with spans dark)"
# Name-filtered on purpose: the rest of the suite asserts span-fed
# histogram counts that the kill switch legitimately blanks.
CBRAIN_TELEMETRY=off cargo test --test serving -q idle_soak

if [[ $quick -eq 0 ]]; then
    echo "==> overload admission test, 20 release runs (its shed must not depend on request speed)"
    for _ in $(seq 20); do
        cargo test --release --test serving -q overloaded_daemon_sheds_with_busy_yet_every_client_converges
    done
fi

echo "==> cargo test --workspace --doc -q"
cargo test --workspace --doc -q

echo "==> conformance suite must have no ignored tests"
if grep -n '#\[ignore' tests/conformance.rs; then
    echo "error: tests/conformance.rs contains #[ignore]d tests" >&2
    exit 1
fi

echo "==> cargo test --test conformance (scheme-conformance matrix, simd + forced-scalar legs)"
# Both legs must run every cell: the matrix tests count their cells
# against hard-coded totals, so a silently skipped cell fails either leg.
if [[ $quick -eq 0 ]]; then
    cargo test --release --test conformance -q -- --include-ignored
    CBRAIN_FORCE_SCALAR=1 cargo test --release --test conformance -q -- --include-ignored
else
    cargo test --test conformance -q -- --include-ignored
    CBRAIN_FORCE_SCALAR=1 cargo test --test conformance -q -- --include-ignored
fi

if [[ $quick -eq 0 ]]; then
    echo "==> cargo test --release --test prop_simd (scalar vs every available SIMD backend bit for bit, release code generation)"
    # The conformance matrix feeds integer-valued tensors, on which any
    # summation order is exact. This suite feeds arbitrary floats and
    # pins each backend the runner has in turn (an AVX-512 runner checks
    # SSE2, AVX2 and AVX-512 against scalar), so one leg catches a
    # reassociation that only release code generation makes. The line
    # printed first names the backends, so the log shows what was checked.
    simd_backends="$(cargo test --release --test prop_simd -q -- --exact active_backend_reports_a_name --nocapture \
        | grep '^simd backends: ')"
    echo "    $simd_backends"
    cargo test --release --test prop_simd -q
fi

if [[ $quick -eq 0 ]]; then
    echo "==> perfbench contract tests (every sweep/serve op checked against perfbench/digests.txt)"
    # The benchmark's digests pin the simulated numbers of every design
    # point, so this gates every compiler or simulator change.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
fi

if [[ $quick -eq 0 ]]; then
    echo "==> SIMD kernel microbench (byte-identity gate over every available backend; timings informational on 1-CPU hosts)"
    # One leg per backend the runner has; the binary exits non-zero if
    # any kernel's leg produces other bytes than its scalar leg. Its
    # digest column compares one build's outputs with another's;
    # wall-clock on shared CI is noise (see EXPERIMENTS.md).
    echo "    $simd_backends"
    ./target/release/bench_kernels --samples 3
fi

if [[ $quick -eq 0 ]]; then
    echo "==> flag smoke: every binary and cbrain subcommand rejects a misspelt --jobs, the exp_* a bad CBRAIN_MAC_RATE"
    # One flag grammar (cbrain::config::Flags): an unknown flag is a usage
    # error, exit 1, with nothing on stdout, ``unknown flag `X` `` on
    # stderr and no panic, before any work starts. Each runs from a temp
    # dir, so a binary that wrongly went ahead (gen_specs writes specs/)
    # cannot touch the checkout.
    flag_dir="$(mktemp -d)"
    trap 'rm -rf "$flag_dir"' EXIT
    flag_bin="$PWD/target/release"
    flag_runs=(cbrand)
    for f in crates/bench/src/bin/*.rs; do flag_runs+=("$(basename "$f" .rs)"); done
    # spec-check takes its file first; the file need not exist, because
    # the flags are refused before it is read.
    for sub in run schedule scheme "spec-check x.spec" zoo cbrand-client help; do
        flag_runs+=("cbrain $sub")
    done
    echo "    ${#flag_runs[@]} invocations per form"
    flag_fail=0
    for form in "--jbos 2" "--jbos"; do
        for run in "${flag_runs[@]}"; do
            read -r -a flag_cmd <<<"$run $form"
            flag_code=0
            (cd "$flag_dir" && "$flag_bin/${flag_cmd[0]}" "${flag_cmd[@]:1}" >out.txt 2>err.txt) || flag_code=$?
            if [[ $flag_code -ne 1 || -s "$flag_dir/out.txt" ]] \
                || ! grep -qF 'unknown flag `--jbos`' "$flag_dir/err.txt" \
                || grep -q 'panicked' "$flag_dir/err.txt"; then
                echo "error: \`$run $form\` exited $flag_code; stdout $(wc -c <"$flag_dir/out.txt") bytes; stderr:" >&2
                head -n 3 "$flag_dir/err.txt" >&2
                flag_fail=1
            fi
        done
    done
    # The MAC-rate pin is read before any experiment runs: a bad one is a
    # usage error naming the variable, not a panic after half a report.
    for run in exp_table4 exp_all; do
        flag_code=0
        (cd "$flag_dir" && CBRAIN_MAC_RATE=fast CBRAIN_CACHE=off "$flag_bin/$run" >out.txt 2>err.txt) || flag_code=$?
        if [[ $flag_code -ne 1 || -s "$flag_dir/out.txt" ]] \
            || ! grep -qF 'CBRAIN_MAC_RATE must be a positive number, got `fast`' "$flag_dir/err.txt" \
            || grep -q 'panicked' "$flag_dir/err.txt"; then
            echo "error: \`CBRAIN_MAC_RATE=fast $run\` exited $flag_code; stdout $(wc -c <"$flag_dir/out.txt") bytes; stderr:" >&2
            head -n 3 "$flag_dir/err.txt" >&2
            flag_fail=1
        fi
    done
    [[ $flag_fail -eq 0 ]] || exit 1
    trap - EXIT
    rm -rf "$flag_dir"
fi

if [[ $quick -eq 0 ]]; then
    echo "==> cbrand smoke: client report must match cbrain run byte-for-byte"
    smoke_dir="$(mktemp -d)"
    daemon_out="$smoke_dir/daemon.out"
    trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
    ./target/release/cbrand --port 0 --cache off >"$daemon_out" 2>"$smoke_dir/daemon.err" &
    daemon_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^cbrand listening on //p' "$daemon_out")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    [[ -n "$addr" ]] || { echo "error: cbrand never reported its address" >&2; cat "$smoke_dir/daemon.err" >&2; exit 1; }
    ./target/release/cbrain cbrand-client --connect "$addr" \
        --spec specs/alexnet.spec >"$smoke_dir/client.txt" 2>/dev/null
    ./target/release/cbrain run --spec specs/alexnet.spec >"$smoke_dir/direct.txt"
    if ! diff -u "$smoke_dir/direct.txt" "$smoke_dir/client.txt"; then
        echo "error: streamed cbrand report differs from cbrain run" >&2
        exit 1
    fi
    ./target/release/cbrain cbrand-client --connect "$addr" --shutdown >/dev/null
    wait "$daemon_pid"
    trap - EXIT
    rm -rf "$smoke_dir"
fi

if [[ $quick -eq 0 ]]; then
    echo "==> cache-file smoke: a file cbrain run saved must warm a second run, a daemon and its client"
    cf_dir="$(mktemp -d)"
    trap 'kill "$cf_pid" 2>/dev/null || true; rm -rf "$cf_dir"' EXIT
    cf_file="$cf_dir/compiled-layers.bin"
    cf_run=(./target/release/cbrain run --spec specs/alexnet.spec --policy oracle --cache "$cf_file")
    "${cf_run[@]}" >"$cf_dir/cold.txt" 2>"$cf_dir/cold.err"
    "${cf_run[@]}" >"$cf_dir/warm.txt" 2>"$cf_dir/warm.err"
    loaded="$(sed -n 's/^cache: loaded \([0-9]*\) cached layers from .*/\1/p' "$cf_dir/warm.err")"
    [[ -n "$loaded" ]] || { echo "error: the second run loaded no cache file" >&2; cat "$cf_dir/warm.err" >&2; exit 1; }
    grep -q 'cache [0-9]*h/0m$' "$cf_dir/warm.txt" \
        || { echo "error: the warm run compiled layers" >&2; cat "$cf_dir/warm.txt" >&2; exit 1; }
    # Only the cache token may differ between the cold and warm reports.
    untoken() { sed 's/cache [0-9]*h\/[0-9]*m$/cache TOKEN/' "$1"; }
    if ! diff -u <(untoken "$cf_dir/cold.txt") <(untoken "$cf_dir/warm.txt"); then
        echo "error: the warm report differs from the cold one beyond its cache token" >&2
        exit 1
    fi

    ./target/release/cbrand --port 0 --cache "$cf_file" >"$cf_dir/daemon.out" 2>"$cf_dir/daemon.err" &
    cf_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^cbrand listening on //p' "$cf_dir/daemon.out")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    [[ -n "$addr" ]] || { echo "error: cache-file cbrand never reported its address" >&2; cat "$cf_dir/daemon.err" >&2; exit 1; }
    grep -q "^cbrand: loaded $loaded cached layers from " "$cf_dir/daemon.err" \
        || { echo "error: the daemon did not load the $loaded layers the warm run did" >&2; cat "$cf_dir/daemon.err" >&2; exit 1; }
    ./target/release/cbrain cbrand-client --connect "$addr" \
        --spec specs/alexnet.spec --policy oracle >"$cf_dir/client.txt" 2>/dev/null
    if ! diff -u "$cf_dir/warm.txt" "$cf_dir/client.txt"; then
        echo "error: the client of the warm daemon did not get the warm report" >&2
        exit 1
    fi
    ./target/release/cbrain cbrand-client --connect "$addr" --shutdown >/dev/null
    wait "$cf_pid"
    trap - EXIT
    rm -rf "$cf_dir"
fi

if [[ $quick -eq 0 ]]; then
    echo "==> experiments record: a pinned exp_all must print experiments_output.txt at --jobs 1 and 2"
    # The checked-in record is a pinned exp_all's stdout alone: Table 4's
    # host calibration pinned, the persisted cache off.
    for jobs in 1 2; do
        env -u CBRAIN_CACHE_DIR CBRAIN_MAC_RATE=5.7e8 CBRAIN_CACHE=off \
            ./target/release/exp_all --jobs "$jobs" 2>/dev/null | cmp - experiments_output.txt \
            || { echo "error: exp_all --jobs $jobs differs from experiments_output.txt" >&2; exit 1; }
    done
fi

if [[ $quick -eq 0 ]]; then
    echo "==> cache-file determinism: exp_all --jobs 2 must write the --jobs 1 file, 20 runs"
    # A cache entry is a pure function of its key, so which worker
    # compiles a key that differently named layers share cannot change
    # a byte of the file.
    det_dir="$(mktemp -d)"
    trap 'rm -rf "$det_dir"' EXIT
    det_run() { # $1 = run name, $2 = --jobs
        mkdir "$det_dir/$1"
        env -u CBRAIN_CACHE -u CBRAIN_CACHE_MAX CBRAIN_MAC_RATE=5.7e8 CBRAIN_CACHE_DIR="$det_dir/$1" \
            ./target/release/exp_all --jobs "$2" >"$det_dir/$1.txt" 2>/dev/null
    }
    det_run one 1
    for i in $(seq 20); do
        det_run "two$i" 2
        cmp "$det_dir/one/compiled-layers.bin" "$det_dir/two$i/compiled-layers.bin" \
            || { echo "error: exp_all --jobs 2 run $i wrote another cache file than --jobs 1" >&2; exit 1; }
        cmp "$det_dir/one.txt" "$det_dir/two$i.txt" \
            || { echo "error: exp_all --jobs 2 run $i printed another report than --jobs 1" >&2; exit 1; }
    done
    trap - EXIT
    rm -rf "$det_dir"
fi

if [[ $quick -eq 0 ]]; then
    echo "==> overload smoke: flooded 2-worker daemon must shed with busy, yet reports stay byte-identical"
    ovl_dir="$(mktemp -d)"
    trap 'kill "$ovl_pid" 2>/dev/null || true; rm -rf "$ovl_dir"' EXIT
    ./target/release/cbrand --port 0 --cache off --workers 2 --queue-depth 1 \
        >"$ovl_dir/daemon.out" 2>"$ovl_dir/daemon.err" &
    ovl_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^cbrand listening on //p' "$ovl_dir/daemon.out")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    [[ -n "$addr" ]] || { echo "error: overload cbrand never reported its address" >&2; cat "$ovl_dir/daemon.err" >&2; exit 1; }

    # Flood: six concurrent vgg16 clients on six distinct PE shapes
    # (none the default 16x16, so the in-flight verification client
    # below shares no layer key with them). The daemon is paused while
    # they dial, so all six wait in its listen backlog and arrive as one
    # accept burst: one client's whole exchange takes ~2 ms, less than
    # starting the next client process, so unpaused they would arrive
    # one at a time and never overload it. The client's default busy
    # budget rides out every shed answer, so all six must converge.
    kill -STOP "$ovl_pid"
    flood_pids=()
    for pe in 32x32 16x32 32x16 8x8 24x24 8x16; do
        ./target/release/cbrain cbrand-client --connect "$addr" \
            --spec specs/vgg16.spec --pe "$pe" >"$ovl_dir/flood_$pe.txt" 2>/dev/null &
        flood_pids+=($!)
    done
    sleep 0.5
    kill -CONT "$ovl_pid"

    # Byte-identity must survive the overload: a report fetched while
    # the daemon is shedding still matches `cbrain run` exactly.
    ./target/release/cbrain cbrand-client --connect "$addr" \
        --spec specs/alexnet.spec >"$ovl_dir/client.txt" 2>/dev/null
    ./target/release/cbrain run --spec specs/alexnet.spec >"$ovl_dir/direct.txt"
    if ! diff -u "$ovl_dir/direct.txt" "$ovl_dir/client.txt"; then
        echo "error: report fetched under overload differs from cbrain run" >&2
        exit 1
    fi
    for pid in "${flood_pids[@]}"; do
        wait "$pid" || { echo "error: a flooded client failed to converge" >&2; exit 1; }
    done

    # The admission counters must have moved: connections were admitted
    # and at least one was shed with a busy answer.
    ./target/release/cbrain cbrand-client --connect "$addr" --stats >"$ovl_dir/stats.txt"
    admission="$(grep '^daemon admission:' "$ovl_dir/stats.txt")" \
        || { echo "error: --stats printed no admission line" >&2; cat "$ovl_dir/stats.txt" >&2; exit 1; }
    accepted="$(sed -n 's/.*accepted \([0-9]*\).*/\1/p' <<<"$admission")"
    shed="$(sed -n 's/.*shed \([0-9]*\).*/\1/p' <<<"$admission")"
    [[ "$accepted" -ge 7 ]] || { echo "error: accepted counter never moved: $admission" >&2; exit 1; }
    [[ "$shed" -ge 1 ]] || { echo "error: flooded daemon never shed: $admission" >&2; exit 1; }

    ./target/release/cbrain cbrand-client --connect "$addr" --shutdown >/dev/null
    wait "$ovl_pid"
    trap - EXIT
    rm -rf "$ovl_dir"
fi

if [[ $quick -eq 0 ]]; then
    echo "==> metrics smoke: protocol + HTTP scrapes must be sorted, stable, and agree with the report"
    met_dir="$(mktemp -d)"
    trap 'kill "$met_pid" 2>/dev/null || true; rm -rf "$met_dir"' EXIT
    ./target/release/cbrand --port 0 --cache off --metrics-addr 127.0.0.1:0 \
        >"$met_dir/daemon.out" 2>"$met_dir/daemon.err" &
    met_pid=$!
    addr=""
    maddr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^cbrand listening on //p' "$met_dir/daemon.out")"
        maddr="$(sed -n 's/^cbrand metrics listening on //p' "$met_dir/daemon.out")"
        [[ -n "$addr" && -n "$maddr" ]] && break
        sleep 0.1
    done
    [[ -n "$addr" ]] || { echo "error: metrics-smoke cbrand never reported its address" >&2; cat "$met_dir/daemon.err" >&2; exit 1; }
    [[ -n "$maddr" ]] || { echo "error: cbrand never reported its metrics address" >&2; cat "$met_dir/daemon.err" >&2; exit 1; }

    ./target/release/cbrain cbrand-client --connect "$addr" \
        --spec specs/alexnet.spec >"$met_dir/report.txt" 2>/dev/null

    # Protocol leg: `--metrics` prints the registry as one JSON object
    # (the client itself fails if the daemon's keys are not sorted).
    ./target/release/cbrain cbrand-client --connect "$addr" --metrics >"$met_dir/metrics.json"
    grep -q '"requests_total":' "$met_dir/metrics.json" \
        || { echo "error: --metrics JSON lacks requests_total" >&2; cat "$met_dir/metrics.json" >&2; exit 1; }

    # The registry's cache counters must agree with the report's own
    # `cache Nh/Mm` summary token — same counters, two views.
    cache_tok="$(grep -o 'cache [0-9]*h/[0-9]*m' "$met_dir/report.txt" | head -n1)"
    rep_hits="$(sed -n 's/cache \([0-9]*\)h.*/\1/p' <<<"$cache_tok")"
    met_hits="$(grep -o '"cache_hits_total":[0-9]*' "$met_dir/metrics.json" | grep -o '[0-9]*$')"
    [[ -n "$rep_hits" && "$rep_hits" == "$met_hits" ]] \
        || { echo "error: cache_hits_total=$met_hits but the report says '$cache_tok'" >&2; exit 1; }

    # HTTP leg, curl-less via bash /dev/tcp: two idle scrapes must be
    # byte-identical, well-formed, and sorted.
    scrape() {
        exec 3<>"/dev/tcp/${maddr%:*}/${maddr##*:}"
        printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
        cat <&3
        exec 3<&- 3>&-
    }
    scrape | tr -d '\r' | sed '1,/^$/d' >"$met_dir/scrape1.txt"
    scrape | tr -d '\r' | sed '1,/^$/d' >"$met_dir/scrape2.txt"
    diff -u "$met_dir/scrape1.txt" "$met_dir/scrape2.txt" \
        || { echo "error: two idle scrapes differ" >&2; exit 1; }
    grep -q '^# HELP cache_hits_total ' "$met_dir/scrape1.txt" \
        || { echo "error: exposition lacks a cache_hits_total HELP line" >&2; exit 1; }
    grep '^# HELP ' "$met_dir/scrape1.txt" | awk '{print $3}' >"$met_dir/families.txt"
    LC_ALL=C sort -c "$met_dir/families.txt" \
        || { echo "error: exposition families are not sorted" >&2; exit 1; }
    grep -q "^cache_hits_total $met_hits\$" "$met_dir/scrape1.txt" \
        || { echo "error: HTTP scrape disagrees with --metrics on cache_hits_total" >&2; exit 1; }

    ./target/release/cbrain cbrand-client --connect "$addr" --shutdown >/dev/null
    wait "$met_pid"
    trap - EXIT
    rm -rf "$met_dir"
fi

if [[ $quick -eq 0 ]]; then
    echo "==> C10K-lite smoke: 256 idle connections must not disturb a working client"
    c10k_dir="$(mktemp -d)"
    trap 'kill "$c10k_pid" 2>/dev/null || true; rm -rf "$c10k_dir"' EXIT
    ./target/release/cbrand --port 0 --cache off --metrics-addr 127.0.0.1:0 \
        >"$c10k_dir/daemon.out" 2>"$c10k_dir/daemon.err" &
    c10k_pid=$!
    addr=""
    maddr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^cbrand listening on //p' "$c10k_dir/daemon.out")"
        maddr="$(sed -n 's/^cbrand metrics listening on //p' "$c10k_dir/daemon.out")"
        [[ -n "$addr" && -n "$maddr" ]] && break
        sleep 0.1
    done
    [[ -n "$addr" && -n "$maddr" ]] || { echo "error: C10K cbrand never reported its addresses" >&2; cat "$c10k_dir/daemon.err" >&2; exit 1; }

    # Park 256 keep-alive connections on the daemon, plain bash /dev/tcp.
    # Each one completes the hello handshake before the next dials:
    # admission counts a never-handshaking connection as load (that is
    # the connection-storm defence), so an idle herd must prove itself.
    c10k_fds=()
    for i in $(seq 1 256); do
        exec {c10k_fd}<>"/dev/tcp/${addr%:*}/${addr##*:}" \
            || { echo "error: idle connection $i failed to open" >&2; exit 1; }
        printf '{"req":"hello","version":5}\n' >&"$c10k_fd"
        IFS= read -r c10k_hello <&"$c10k_fd" \
            || { echo "error: idle connection $i got no hello answer" >&2; exit 1; }
        grep -q '"ev":"hello"' <<<"$c10k_hello" \
            || { echo "error: idle connection $i got: $c10k_hello" >&2; exit 1; }
        c10k_fds+=("$c10k_fd")
    done

    # A standard client underneath the herd: report must still be
    # byte-identical to a single-process run.
    ./target/release/cbrain cbrand-client --connect "$addr" \
        --spec specs/alexnet.spec >"$c10k_dir/client.txt" 2>/dev/null
    ./target/release/cbrain run --spec specs/alexnet.spec >"$c10k_dir/direct.txt"
    if ! diff -u "$c10k_dir/direct.txt" "$c10k_dir/client.txt"; then
        echo "error: report under a 256-connection idle herd differs from cbrain run" >&2
        exit 1
    fi

    # The connection gauges must see exactly the herd once the working
    # client's close settles (retry briefly: the FIN races the scrape).
    c10k_scrape() {
        exec 3<>"/dev/tcp/${maddr%:*}/${maddr##*:}"
        printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
        cat <&3
        exec 3<&- 3>&-
    }
    open_now=""
    for _ in $(seq 1 50); do
        open_now="$(c10k_scrape | tr -d '\r' | sed -n 's/^connections_open //p')"
        [[ "$open_now" == "256" ]] && break
        sleep 0.1
    done
    [[ "$open_now" == "256" ]] \
        || { echo "error: connections_open reads '$open_now', want 256" >&2; exit 1; }

    for c10k_fd in "${c10k_fds[@]}"; do
        exec {c10k_fd}<&- {c10k_fd}>&-
    done
    ./target/release/cbrain cbrand-client --connect "$addr" --shutdown >/dev/null
    wait "$c10k_pid"
    trap - EXIT
    rm -rf "$c10k_dir"
fi

if [[ $quick -eq 0 ]]; then
    echo "==> telemetry kill-switch leg: CBRAIN_TELEMETRY=off reports must stay byte-identical"
    off_dir="$(mktemp -d)"
    trap 'kill "$off_pid" 2>/dev/null || true; rm -rf "$off_dir"' EXIT
    CBRAIN_TELEMETRY=off ./target/release/cbrand --port 0 --cache off --workers 2 --queue-depth 1 \
        >"$off_dir/daemon.out" 2>"$off_dir/daemon.err" &
    off_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^cbrand listening on //p' "$off_dir/daemon.out")"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    [[ -n "$addr" ]] || { echo "error: kill-switch cbrand never reported its address" >&2; cat "$off_dir/daemon.err" >&2; exit 1; }

    # A small flood so the shed path runs with telemetry off too.
    off_pids=()
    for pe in 32x32 8x8 24x24; do
        CBRAIN_TELEMETRY=off ./target/release/cbrain cbrand-client --connect "$addr" \
            --spec specs/alexnet.spec --pe "$pe" >"$off_dir/flood_$pe.txt" 2>/dev/null &
        off_pids+=($!)
    done
    CBRAIN_TELEMETRY=off ./target/release/cbrain cbrand-client --connect "$addr" \
        --spec specs/alexnet.spec >"$off_dir/client.txt" 2>/dev/null
    for pid in "${off_pids[@]}"; do
        wait "$pid" || { echo "error: a client failed under CBRAIN_TELEMETRY=off" >&2; exit 1; }
    done
    ./target/release/cbrain run --spec specs/alexnet.spec >"$off_dir/direct.txt"
    if ! diff -u "$off_dir/direct.txt" "$off_dir/client.txt"; then
        echo "error: CBRAIN_TELEMETRY=off changed the report bytes" >&2
        exit 1
    fi

    ./target/release/cbrain cbrand-client --connect "$addr" --shutdown >/dev/null
    wait "$off_pid"
    trap - EXIT
    rm -rf "$off_dir"
fi

echo "==> docs link check: local files referenced from README.md and docs/ must exist"
link_fail=0
for doc in ./*.md docs/*.md; do
    [[ -f "$doc" ]] || continue
    dir="$(dirname "$doc")"
    while IFS= read -r target; do
        case "$target" in
            http://* | https://* | mailto:* | '#'*) continue ;;
        esac
        target="${target%%#*}"
        [[ -n "$target" ]] || continue
        if [[ ! -e "$dir/$target" && ! -e "$target" ]]; then
            echo "error: $doc links to missing file: $target" >&2
            link_fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done
[[ $link_fail -eq 0 ]] || exit 1

echo "CI gate passed."
