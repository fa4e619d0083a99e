#!/usr/bin/env bash
# The repository's CI gate, runnable locally and from the GitHub Actions
# workflow (.github/workflows/ci.yml). All dependencies are vendored
# (vendor/*); --offline makes "never touches a registry" a hard guarantee,
# and --locked fails a workspace stage whose manifests no longer match the
# committed Cargo.lock, where a build would rewrite it.
#
# Usage: ./ci.sh [stage]; no argument runs every stage but `perf`.
#   build        release build of the workspace
#   test         the workspace's unit, integration, chaos and property tests,
#                then the real-socket guard end to end (`live_proxy`): its
#                counters, and what its telemetry endpoint serves of them
#                and of the alert rules
#   lint         guardlint: its rule table (wire-path panics, clocks and
#                RNGs, relaxed atomics, the workspace's layering) and L1
#                indexing; fails on any finding, and a finding is exempt
#                only by an inline `// lint: <id> — <why>`
#   clippy       clippy with warnings denied
#   experiments  every experiment: bars, export validation, a `cmp` of
#                every export and of the paper tables' stdout against the
#                committed BENCH_* file, the two uncommitted traces against
#                BENCH_digests.txt, and EXPERIMENTS.md's quoted paper
#                tables against that stdout
#   docs         rustdoc with warnings denied
#   perf         explicit only: the benchmark package's tests, clippy, a smoke
#                run and the allocation gate; builds into perf/target, over a
#                minute from cold
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"
want() { [ "$stage" = all ] || [ "$stage" = "$1" ]; }

if want build; then
  echo "==> cargo build --release"
  cargo build --release --workspace --locked --offline
fi

if want test; then
  echo "==> cargo test"
  cargo test -q --workspace --locked --offline
  echo "==> live_proxy (the guard and its telemetry endpoint on real loopback sockets)"
  # Three answers through one cookie exchange, and a forged cookie dropped;
  # the endpoint's snapshot counts the same three forwards, and no alert
  # rule is active.
  live="$(cargo run --release --locked --offline -q --example live_proxy)"
  echo "$live"
  for want in 'guard counters: forwarded=3 grants=1 spoofed_dropped=1' 'telemetry forwarded=3 active_alerts=0'; do
    grep -qF "$want" <<<"$live" || { echo "live_proxy: no '$want'" >&2; exit 1; }
  done
fi

if want lint; then
  echo "==> guardlint (rule table, L1 indexing)"
  # Inside GitHub Actions, emit ::error annotations so findings land on
  # the PR diff lines; locally, the plain file:line form.
  cargo run -q --locked --offline -p guardlint -- ${GITHUB_ACTIONS:+--github}
fi

if want clippy; then
  echo "==> cargo clippy -D warnings"
  cargo clippy --workspace --all-targets --locked --offline -- -D warnings
fi

if want experiments; then
  echo "==> experiments (every registry entry: bars, export validation, drift)"
  # The runner exits non-zero if any entry missed an acceptance bar or wrote
  # an export that fails its format or required keys. The paper's own tables
  # and figures have shapes, not bars, and write no export: what they print
  # is their artefact, kept as BENCH_paper.txt and compared like an export.
  # The ablations only print too, so their report is BENCH_ablations.txt.
  smoke=target/experiments-smoke
  rm -rf "$smoke"
  mkdir -p "$smoke"
  cargo run --release --locked --offline -q -p bench --bin all_experiments -- \
    --out "$smoke" ablations >"$smoke/BENCH_ablations.txt"
  cargo run --release --locked --offline -p bench --bin all_experiments -- \
    --out "$smoke" obs journeys ha fleet fleetobs analytics poison
  cargo run --release --locked --offline -q -p bench --bin all_experiments -- \
    --out "$smoke" table1 table2 table3 fig5 fig6 fig7 >"$smoke/BENCH_paper.txt"
  # The simulator is seeded, so a fresh export must equal the committed
  # file of the same name byte for byte; a difference is a behaviour change
  # (or a stale artifact) and has to be committed deliberately.
  for f in "$smoke"/*; do
    name="$(basename "$f")"
    if git ls-files --error-unmatch "$name" >/dev/null 2>&1; then
      cmp "$f" "$name" ||
        { echo "drift: $f differs from the committed $name" >&2; exit 1; }
    fi
  done
  # The obs and journeys traces are too large to commit; their SHA-256
  # digests are, and pin them the same way.
  (cd "$smoke" && sha256sum --quiet -c ../../BENCH_digests.txt) ||
    { echo "drift: a trace differs from its digest in BENCH_digests.txt" >&2; exit 1; }
  # EXPERIMENTS.md quotes the paper tables between `<!-- BENCH_paper.txt -->`
  # and `<!-- /BENCH_paper.txt -->` (fence lines aside). Each quoted block
  # must be a contiguous run of the fresh file's lines, compared without
  # trailing blanks, and every table it prints (a `Table …` or `Figure …`
  # title line) must open a quoted block.
  awk '
    { sub(/[ \t]+$/, "") }
    FNR == NR { paper[++n] = $0; next }
    $0 == "<!-- BENCH_paper.txt -->" { start = FNR; m = 0; next }
    $0 == "<!-- /BENCH_paper.txt -->" {
      found = 0
      for (i = 1; m > 0 && i + m - 1 <= n && !found; i++) {
        for (k = 1; k <= m && paper[i + k - 1] == block[k]; k++) ;
        found = k > m
      }
      if (!start || !found) {
        printf "EXPERIMENTS.md:%d: not a run of lines of the fresh BENCH_paper.txt\n", start ? start : FNR
        bad = 1
      } else {
        quoted[block[1]] = 1
      }
      start = 0
      next
    }
    start && !/^```/ { block[++m] = $0 }
    END {
      if (start) { printf "EXPERIMENTS.md:%d: quote never closed\n", start; bad = 1 }
      for (i = 1; i <= n; i++)
        if (paper[i] ~ /^(Table|Figure) [^ ]+ — / && !(paper[i] in quoted)) {
          print "EXPERIMENTS.md does not quote: " paper[i]
          bad = 1
        }
      exit bad
    }' "$smoke/BENCH_paper.txt" EXPERIMENTS.md ||
    { echo "drift: EXPERIMENTS.md's paper tables differ from BENCH_paper.txt" >&2; exit 1; }
fi

if [ "$stage" = perf ]; then
  echo "==> perf (benchmark harness tests, clippy, smoke run of all six workloads)"
  cargo test --offline --manifest-path perf/Cargo.toml
  cargo clippy --offline --all-targets --manifest-path perf/Cargo.toml -- -D warnings
  cargo run --release --offline --manifest-path perf/Cargo.toml -- --smoke
  echo "==> perf: allocation gate (allocations per dropped and per answered datagram)"
  # `_allocs` are exact counts from the harness's counting allocator and
  # repeat for a seed, so this gate cannot flake. What is left per dropped
  # datagram is netsim's per-packet clone on delivery; Rate-Limiter1 admits
  # its 10 K/s whatever is offered, and those 1.2 % are answered, hence the
  # fractional bound. An answered datagram is cloned twice (in, and its
  # reply out); on top of that TC allocates nothing, a grant grows the
  # received buffer once, and a fabricated referral also builds the three
  # names (question, zone cut, cookie name). A forward is cloned twice (in,
  # and out to the ANS) and files its entry in the forward table's slab,
  # which allocates nothing once grown; on top of that the extension and
  # the COOKIE2 query are one buffer (the question behind a fresh header),
  # and the NS-label forward builds the two questions it needs (the cookie
  # name's, kept for the answer, and the restored one) and that buffer. A
  # relayed answer is cloned twice; a passthrough leaves in the buffer it
  # came in and the cookie-name answer is one buffer: 7 allocations over
  # the three shapes.
  cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- \
    --workload cookie_flood --seed 1 --seconds 2 --trace 1 | tail -n 1 |
    awk -v bounds="ext_invalid=1 ns_label_invalid=1 cookie2_invalid=1 rl1_drop=1.2 tc=2 grant=3 fabricated_ns=6 ext_forward=3 ns_label_forward=5 cookie2_forward=3 ans_relay=2.34" '
      BEGIN { n = split(bounds, pairs, " ") }
      {
        for (i = 1; i <= n; i++) {
          split(pairs[i], kv, "=")
          name = "dnsguard." kv[1] "_allocs"
          if (!match($0, "\"" name "\": *[{]\"value\": *[0-9.eE+-]+")) {
            print "perf: no " name " in the report"; bad = 1; continue
          }
          value = substr($0, RSTART, RLENGTH); sub(/.*: */, "", value)
          verdict = (value + 0 <= kv[2] + 0) ? "ok" : "OVER"
          printf "  %-36s %5.2f  (bound %s) %s\n", name, value, kv[2], verdict
          if (verdict != "ok") bad = 1
        }
      }
      END { if (NR == 0 || bad) { print "perf: allocation gate failed"; exit 1 } }'
fi

if want docs; then
  echo "==> cargo doc -D warnings"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --locked --offline
fi

echo "==> CI green ($stage)"
