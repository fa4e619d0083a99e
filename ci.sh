#!/usr/bin/env bash
# The repository's CI gate, runnable locally and from the GitHub Actions
# workflow (.github/workflows/ci.yml): release build, the full workspace
# test suite (unit, integration, chaos and property tests), the guardlint
# static-analysis pass (families L1–L3, L6, L7: repo-specific safety,
# determinism and concurrency invariants; exemptions live in Lint.toml) with the checks that the guard's
# sans-IO modules name no simulator engine, no file of `core` outgrows 1 200
# lines, its state tables name no HashMap, the authoritative servers no owned
# decode, no crate a cargo feature (the workspace has one build
# configuration), no experiment module but `bench::worlds` an alert
# engine of its own, and netsim's engine no second per-link map and no
# placeholder node,
# clippy with warnings promoted to errors, the experiment smoke run (every
# non-paper entry of the experiment registry: acceptance bars, export
# validation, and a `cmp` of every export against the committed BENCH_*
# file of the same name), and rustdoc with warnings denied.
#
# All dependencies are vendored (vendor/*), so the build never touches a
# registry; --offline makes that a hard guarantee rather than an accident.
#
# Usage: ./ci.sh [stage]
#   stage ∈ {build, test, lint, guardcheck, clippy, experiments, docs};
#   no argument runs all.
#   `tsan` (nightly-only ThreadSanitizer pass) runs only when requested
#   explicitly and skips gracefully without a nightly toolchain; `perf`
#   (the benchmark package's own tests, clippy, a smoke run and the
#   allocation gate on the guard's drop, first-contact and forward paths) is
#   explicit-only too: it builds the workspace a second time into
#   perf/target, over a minute from cold.
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"
want() { [ "$stage" = all ] || [ "$stage" = "$1" ]; }

if want build; then
  echo "==> cargo build --release"
  cargo build --release --workspace --offline
fi

if want test; then
  echo "==> cargo test"
  cargo test -q --workspace --offline
fi

if want lint; then
  echo "==> guardlint --deny (L1–L3, L6, L7 workspace invariants)"
  # Inside GitHub Actions, emit ::error annotations so findings land on
  # the PR diff lines; locally, the plain file:line form.
  cargo run -q --offline -p guardlint -- --deny ${GITHUB_ACTIONS:+--github}
  echo "==> seam: the guard names no simulator engine outside its simulator driver"
  # GuardCore is driven by netsim and by real sockets alike. Its modules
  # (crates/core/src/guard/*.rs) may use netsim's packet, time and cost
  # types; the event engine belongs to the simulator driver (sim.rs) and to
  # the simulated-world tests (tests.rs).
  for f in crates/core/src/guard/*.rs; do
    case "$f" in */sim.rs | */tests.rs) continue ;; esac
    if grep -nE 'netsim::(engine|Context|Node|Simulator)' "$f"; then
      echo "seam: $f names netsim's event engine" >&2
      exit 1
    fi
  done
  echo "==> core: no source file over 1200 lines before its tests"
  # The guard was one 2 190-line file once; its stages are modules now, and
  # a file that grows back past this is a stage that wants splitting.
  find crates/core/src -name '*.rs' | while read -r f; do
    lines=$(sed '/#\[cfg(test)\]/,$d' "$f" | wc -l)
    if [ "$lines" -gt 1200 ]; then
      echo "core: $f is $lines lines before its #[cfg(test)]" >&2
      exit 1
    fi
  done
  echo "==> state tables: fixed structures, no HashMap"
  # The per-source limiter table and the forward table are allocated once
  # and never rehash or clear; a HashMap there (outside the test modules,
  # where the unbounded reference and the model live) undoes that.
  for f in crates/core/src/ratelimit.rs crates/core/src/guard/fwd.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'HashMap'; then
      echo "state tables: $f names HashMap outside #[cfg(test)]" >&2
      exit 1
    fi
  done
  echo "==> ANS wire path: the servers decode no Message"
  # The simulated and the real-socket ANS answer from a MessageView, over
  # the query's own buffer (Authority::answer_wire); an owned decode there
  # (outside the test modules, which decode replies to check them) brings
  # the per-query Message back.
  for f in crates/server/src/nodes.rs crates/runtime/src/ans.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'Message::decode'; then
      echo "ANS wire path: $f names Message::decode outside #[cfg(test)]" >&2
      exit 1
    fi
  done
  echo "==> netsim engine: one link table, no placeholder node"
  # A packet reads delay, fault plan and MTU from one record with one
  # probe, and a handler borrows its node where it lives; a map keyed by a
  # node pair brings back a probe per property, a NullNode the swap per
  # dispatch (the tests may name either).
  if sed '/#\[cfg(test)\]/,$d' crates/netsim/src/engine.rs | grep -nE 'HashMap<\(NodeId, NodeId\)|NullNode'; then
    echo "netsim engine: crates/netsim/src/engine.rs names a node-pair HashMap or NullNode outside #[cfg(test)]" >&2
    exit 1
  fi
  echo "==> one build configuration: no cargo features"
  # Every setting of a feature is a build that tests and the drift gate
  # would have to cover; what varies (traffic analytics) is armed at run
  # time instead.
  if grep -rnE 'cfg!?\(.*feature *=' crates src tests examples ||
    grep -n '^\[features\]' crates/*/Cargo.toml; then
    echo "features: a cargo feature is declared or tested above" >&2
    exit 1
  fi
  echo "==> one testbed: experiments wire no alert engine of their own"
  # An engine is built, attached and ticked in bench::worlds (`alert_engine`,
  # `alerting`); a second set-up beside it is the near-copy that module
  # replaced.
  if grep -nE 'attach_alert_engine\(|AlertEngine::new\(' crates/bench/src/*.rs | grep -v '^crates/bench/src/worlds.rs:'; then
    echo "testbed: an experiment wires its own alert engine (use bench::worlds)" >&2
    exit 1
  fi
fi

if want guardcheck; then
  echo "==> guardcheck (deterministic interleaving model checker)"
  # The four harnesses run the real Counter/Histogram/Tracer/
  # CheckpointStore/StopFlag types under the modeled scheduler
  # (guardcheck::sync resolves to the model under --cfg guardcheck) and
  # print per-harness schedule/state counts; the aggregate test enforces
  # ≥ 5 000 distinct schedules with zero counterexamples, and the
  # mutation test proves a demoted Release store is caught with a
  # replayable trace. Wall-clock budget: 300 s (locally ~tens of seconds;
  # `timeout` makes overrun a hard failure, not a hung job).
  RUSTFLAGS="--cfg guardcheck" timeout 300 \
    cargo test -q --offline -p guardcheck --test harnesses -- --nocapture
fi

if [ "$stage" = tsan ]; then
  echo "==> ThreadSanitizer (nightly-only, optional)"
  if rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    # Advisory cross-check of the model checker's verdicts on the real
    # atomics. std stays uninstrumented (no -Zbuild-std offline), so the
    # ABI-mismatch override is required and tsan cannot see std's internal
    # synchronization — warnings rooted entirely in library/std frames are
    # expected false positives. Opt-in, never part of `all`.
    RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
      cargo +nightly test -q --offline -p guardcheck --lib ||
      echo "tsan: reported issues (advisory stage; see output above)"
  else
    echo "tsan: no nightly toolchain installed; skipping (the guardcheck"
    echo "      model checker stage remains the primary concurrency gate)"
  fi
fi

if want clippy; then
  echo "==> cargo clippy -D warnings"
  cargo clippy --workspace --all-targets --offline -- -D warnings
fi

if want experiments; then
  echo "==> experiments (every non-paper registry entry: bars, export validation, drift)"
  # The runner exits non-zero if any entry missed an acceptance bar or wrote
  # an export that fails its format or required keys. The paper's own tables
  # and figures have shapes, not bars; `cargo test` smoke-tests those.
  smoke=target/experiments-smoke
  rm -rf "$smoke"
  cargo run --release --offline -p bench --bin all_experiments -- \
    --out "$smoke" ablations obs journeys ha fleet fleetobs analytics poison
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
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
fi

echo "==> CI green ($stage)"
