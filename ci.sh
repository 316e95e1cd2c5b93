#!/usr/bin/env bash
# Minimal CI: formatting, lints, then the tier-1 verify from ROADMAP.md.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# `cargo test` does not build examples, and the figure/table + throughput
# binaries are only compiled on demand; gate them all here.
echo "==> cargo build (workspace, all targets)"
cargo build --workspace --all-targets

echo "==> cargo doc (workspace, deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# The tier-1 gate is run verbatim (exactly as the driver invokes it), even
# though the workspace sweep below is a superset of `cargo test -q` — the
# few seconds of overlap buy a literal check of the contract in ROADMAP.md.
echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The benchmark's self-check: builds the CLI and the spine harness offline,
# runs the harness's unit tests, smoke-runs both workloads in both passes
# (tracing off and on), and fails on any failed operation or on metric
# names drifting from BENCHMARK.json in either direction.
echo "==> spine check (bash spine/check.sh)"
bash spine/check.sh

# spine/Cargo.lock records the [dependencies] of every workspace crate the
# spine builds against, so a manifest edit to one of them makes the lock
# stale; --locked fails on that instead of rewriting the pinned lock.
echo "==> spine lock: cargo metadata --locked resolves spine/Cargo.toml"
cargo metadata --offline --locked --manifest-path spine/Cargo.toml --format-version 1 > /dev/null

# PROPTEST_CASES pins the property-suite budget (the snapshot round-trip
# and corruption properties, the postings and splice oracles) so the sweep
# is deterministic in runtime as well as in inputs (the vendored proptest
# derives its cases from a fixed seed). Suites that pass an explicit
# with_cases(..) config are unaffected. FAULT_SEED_COUNT pins the seed grid
# of imm-serve's daemon/client chaos suite.
echo "==> workspace tests (all crates, PROPTEST_CASES=32, FAULT_SEED_COUNT=4)"
PROPTEST_CASES=32 FAULT_SEED_COUNT=4 cargo test --workspace -q

# The sweep above is the only run of the suites below, so a test-scoping
# change must not be able to drop one silently: each must still be a test
# binary of the workspace. In order: the execution runtime's stress suite;
# the daemon's unit, admission-and-lifecycle, frame-corruption,
# fault-tolerance and chaos suites; the histogram and metric-catalog gates;
# the fault harness; snapshot crash safety, golden fixtures and the
# round-trip and corruption properties (the read-decode error order); the
# mmap store's unit and fallback suites; the refresh bounds (a light or 1 %
# churn resamples a bounded share) and the sampler's independent oracle
# (order independence + forward-simulation validity); the conformance
# matrix (every serving path against the eager kernels, the dense audience
# oracle, the collection estimators and a from-scratch rebuild; each family
# test fails when a backend row ran no case, so the audience sweeps of
# QueryEngine and ShardedEngine both run wherever the binary does); the
# vertex-adaptive postings against their naive inverse; the spliced graph
# delta against the CSR rebuild it replaced; run_imm's one selection per
# sample that can pass its check; the sampler's once-per-worker registry
# flush.
echo "==> load-bearing test binaries are part of the workspace sweep"
TEST_BINARIES="$(cargo test --workspace --no-run 2>&1 \
  | sed -n 's|^ *Executable .*/deps/\(.*\)-[0-9a-f]*)$|\1|p')"
for expected in runtime_stress \
  imm_serve socket_parity frame_corruption fault_tolerance chaos \
  histogram metrics_catalog \
  imm_fault \
  crash_safety snapshot_fixtures snapshot_roundtrip \
  imm_store mmap_fallback \
  differential sampler_oracle conformance \
  postings_inverse \
  delta_splice selection_rounds sampling_tallies; do
  if ! grep -qx "$expected" <<< "$TEST_BINARIES"; then
    echo "error: test binary '$expected' is no longer built by cargo test --workspace" >&2
    exit 1
  fi
done

echo "==> test guard: no #[ignore] in tests/ or any crates/*/tests"
if grep -rn '#\[ignore' tests crates/*/tests; then
  echo "error: #[ignore]d tests are not allowed in the root or crate test suites" >&2
  exit 1
fi

# The conformance matrix holds its oracles itself, so no suite shares test
# code by path and none needs a test-only dependency cycle for them:
# imm-service's suites no longer pull in imm-bench, and imm-fault stays a
# leaf with no dev-dependencies (its chaos suite lives in imm-serve). The one
# test-only cycle left is imm-service -> dev imm-store (the snapshot suites
# run every loader).
echo "==> test-graph guard: no #[path] include in a tests/ dir, no imm-bench dev-edge in imm-service, no dev-dependency in imm-fault"
if grep -rnE '#\[path *=' tests crates/*/tests; then
  echo "error: test suites share no code by #[path]; put the shared oracle in tests/conformance.rs" >&2
  exit 1
fi
if sed -n '/^\[dev-dependencies\]/,/^\[/p' crates/service/Cargo.toml | grep -nE '^imm-bench *='; then
  echo "error: imm-service takes no dev-dependency on imm-bench; the eager-kernel oracle runs in tests/conformance.rs" >&2
  exit 1
fi
if grep -nE '^\[(target\..*\.)?dev-dependencies\]' crates/fault/Cargo.toml; then
  echo "error: imm-fault is a leaf crate with no dev-dependencies; its chaos suite lives in crates/serve/tests" >&2
  exit 1
fi

# The CLI is a tool of the serving system and runs one engine: the paper's
# EfficientIMM-vs-Ripples comparison and its registry of SNAP analogues are
# imm-bench's (table3_best_runtime), so imm-cli links no imm-bench, anywhere
# in its tree, and names rayon in no manifest of its own (rayon still reaches
# it through core, diffusion, service and shard). Its argument grammar, up to
# the test module, names no `compare` subcommand and no `--algorithm` or
# `--dataset` flag.
echo "==> serving-CLI guard: no imm-bench in imm-cli's tree, no direct rayon, no compare/--algorithm/--dataset"
CLI_TREE="$(cargo tree --offline -p imm-cli -e normal --prefix none)"
CLI_DIRECT="$(cargo tree --offline -p imm-cli -e normal --prefix none --depth 1)"
if grep -E '^imm-bench ' <<< "$CLI_TREE" || grep -E '^(imm-bench|rayon) ' <<< "$CLI_DIRECT"; then
  echo "error: imm-cli links no imm-bench and depends on no rayon itself; the reproduction stays in imm-bench" >&2
  exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/cli/src/args.rs | grep -nE 'compare|--algorithm|--dataset'; then
  echo "error: the CLI runs one engine on graph files; the engine comparison and the dataset registry live in imm-bench" >&2
  exit 1
fi

# The serde shim serializes only: nothing is deserialized into a typed value,
# so no type derives or names `Deserialize` (the shim no longer has it).
echo "==> serde guard: no Deserialize in crates/, src/, tests/ or examples/"
if grep -rn 'Deserialize' crates src tests examples; then
  echo "error: the serde shim has no Deserialize; JSON is read as an untyped serde_json::Value" >&2
  exit 1
fi

# The daemon has one client, `imm_serve::Client::new(address, policy)`: it
# dials lazily (its first dial retries inside the policy's readiness window)
# and retries idempotent verbs itself, so no wrapper type or separate
# readiness dial comes back. A batch fans across the process-global pool,
# which `serve --threads` sizes, so ServerConfig carries no thread count.
echo "==> client guard: one daemon client, no readiness dial, no ServerConfig::threads"
if grep -rnE 'RetryClient|connect_with_retry' crates src tests examples; then
  echo "error: imm_serve::Client is the one daemon client; do not reintroduce RetryClient or connect_with_retry" >&2
  exit 1
fi
if sed -n '/^pub struct ServerConfig/,/^}/p' crates/serve/src/server.rs | grep -nE '\bthreads\s*:'; then
  echo "error: a batch fans across imm_exec::global(); ServerConfig has no threads field" >&2
  exit 1
fi

# The vendored rayon shim has no parallel iterators (its sequential `prelude`
# is gone), so nothing in the tree may look parallel and not be: parallel
# sections go through run_tasks / rayon::scope.
echo "==> kernel guard: no parallel-iterator spellings anywhere in crates"
if grep -rnE 'par_iter\(|into_par_iter\(|par_chunks\(' crates; then
  echo "error: the vendored rayon shim has no parallel iterators; use run_tasks, rayon::scope or a plain loop" >&2
  exit 1
fi

# imm-exec is one pool: per-scope task queues under a mutex and one injector
# of scope handles. The SPSC inboxes, the claim-flag jobs, the queue-depth
# peek and its gauge, the inbox-overflow counter and the rayon ThreadPool
# token every kernel used to take stay gone. Its one unsafe is the
# scope-lifetime erasure in Scope::spawn, and it carries its invariant.
echo "==> pool guard: one injector, no SPSC inboxes or pool tokens, one commented unsafe in exec"
if grep -rnE 'spsc|UnsafeCell|queue_depths|ThreadPoolBuilder|build_pool|exec_tasks_overflow|exec_shared_queue_depth_max' crates vendor; then
  echo "error: the SPSC executor, its queue-depth gauge and the rayon pool token were removed; do not reintroduce them" >&2
  exit 1
fi
EXEC_UNSAFE="$(grep -rnw 'unsafe' crates/exec/src || true)"
if [ "$(grep -c . <<< "$EXEC_UNSAFE")" -ne 1 ]; then
  echo "error: crates/exec/src must hold exactly one unsafe (the scope-lifetime erasure):" >&2
  echo "$EXEC_UNSAFE" >&2
  exit 1
fi
# Whether the comment block directly above line $2 of file $1 holds a
# `SAFETY:` line. awk reads its whole input (a done flag, not `exit`), so
# `tac` is never cut off by SIGPIPE, which pipefail would report as a miss.
safety_commented() {
  head -n "$(($2 - 1))" "$1" | tac \
    | awk '!done && /^[[:space:]]*\/\//{ if (/SAFETY:/) found = 1; next } { done = 1 } END { exit !found }'
}
IFS=: read -r UNSAFE_FILE UNSAFE_LINE _ <<< "$EXEC_UNSAFE"
if ! safety_commented "$UNSAFE_FILE" "$UNSAFE_LINE"; then
  echo "error: the unsafe at $UNSAFE_FILE:$UNSAFE_LINE needs a SAFETY: comment directly above it" >&2
  exit 1
fi

# imm-store's unsafe is the mapping itself: mmap, munmap, the byte view, the
# Send/Sync impls and the typed section view. Each states its invariant.
echo "==> store guard: six unsafe sites in store, each under a SAFETY: comment"
STORE_UNSAFE="$(grep -rnw 'unsafe' crates/store/src || true)"
if [ "$(grep -c . <<< "$STORE_UNSAFE")" -ne 6 ]; then
  echo "error: crates/store/src must hold exactly six unsafe sites:" >&2
  echo "$STORE_UNSAFE" >&2
  exit 1
fi
while IFS=: read -r UNSAFE_FILE UNSAFE_LINE _; do
  if ! safety_commented "$UNSAFE_FILE" "$UNSAFE_LINE"; then
    echo "error: the unsafe at $UNSAFE_FILE:$UNSAFE_LINE needs a SAFETY: comment directly above it" >&2
    exit 1
  fi
done <<< "$STORE_UNSAFE"

# A snapshot is one file: the IMMSHARD split-file container, `split-index`,
# `query --shard-files` and the daemon's madvise of shard ranges stay gone.
# The CLI's own tests name the retired spellings to pin that they are
# rejected, so args.rs is searched up to its test module.
echo "==> one-file guard: no split-file format and no shard-range madvise"
GONE='IMMSHARD|SHARD_MAGIC|split-index|shard-files|madvise|advise_shard_ranges|arena_range'
if grep -rnE "$GONE" crates --exclude=args.rs \
  || sed '/^#\[cfg(test)\]/,$d' crates/cli/src/args.rs | grep -nE "$GONE"; then
  echo "error: a snapshot is one file; do not reintroduce the split-file format or the shard-range madvise" >&2
  exit 1
fi

# Snapshot v7 is the one format this tree writes, maps or decodes: the v1-v6
# decoders, the legacy model tags, the imm_rrr set codecs and their golden
# fixtures stay gone, and `golden_v7.sketch` (pinned three ways by the
# `snapshot_fixtures` binary, which the list above keeps in the sweep) is the
# only fixture.
echo "==> format guard: one snapshot format, one golden fixture"
if grep -rnE 'SNAPSHOT_VERSION_V[0-9]|DIRECTORY_FIELDS_V4|_LEGACY|decode_arena|encode_arena|parse_v4_head|V4Head|rayon::prelude' crates; then
  echo "error: snapshot v7 is the only format; do not reintroduce an older decoder, a legacy tag, a set codec or the sequential rayon prelude" >&2
  exit 1
fi
if [ "$(ls crates/service/tests/fixtures)" != "golden_v7.sketch" ]; then
  echo "error: crates/service/tests/fixtures must hold exactly golden_v7.sketch" >&2
  exit 1
fi

# A read-decode load is one streamed pass through a fixed buffer: the
# snapshot code (snapshot.rs up to the journal, which may read its file
# whole) and the store's open hold no whole-file `fs::read` or
# `read_to_end`, snapshot.rs starts no helper thread outside its tests (one
# feeds a pipe), and neither the store nor the CLI hands
# `SketchIndex::load(` a copy of a file's bytes.
echo "==> stream guard: the snapshot load path reads no whole file and starts no thread"
if sed '/^pub const JOURNAL_MAGIC/,$d' crates/service/src/snapshot.rs | grep -nE 'fs::read\(|read_to_end' \
  || grep -nE 'fs::read\(|read_to_end' crates/store/src/store.rs \
  || sed '/^#\[cfg(test)\]/,$d' crates/service/src/snapshot.rs | grep -nE 'thread::(scope|spawn)' \
  || grep -rnE 'SketchIndex::load\(|load\(&mut [^)]*\.as_slice\(\)' crates/store/src crates/cli/src; then
  echo "error: a read-decode load streams the snapshot once; do not read it whole or hash it on a helper thread" >&2
  exit 1
fi

# A generation is its postings: a SketchIndex holds no RrrCollection, a
# snapshot has no arena, bitmap, per-set length or flag section, and the
# mapped open adopts nothing set-major. The adoption paths, the collection's
# in-place `replace` with its tombstones and compaction, and the set-range
# slice stay gone, and no serving crate reads a set-major copy.
echo "==> postings guard: no set-major copy in a generation, a snapshot or a mapped open"
GONE_SET_MAJOR='ArenaSource|WordsSource|adopt_arena|adopt_shared_arena|push_adopted_span|push_span_trusted|from_shared_words|is_arena_shared|MappedArena|MappedWords|SET_FLAG_|COMPACTION_MIN_DEAD|CollectionSlice'
if grep -rnE "$GONE_SET_MAJOR" crates; then
  echo "error: a generation is its postings; do not reintroduce the set-major copy or its adoption paths" >&2
  exit 1
fi
if grep -rnF '.sets()' crates/service/src crates/store/src crates/shard/src crates/serve/src; then
  echo "error: crates/{service,store,shard,serve}/src read the postings; SketchIndex keeps no sets() to call" >&2
  exit 1
fi

# `GraphDelta::apply` splices the old CSR (`CsrGraph::spliced` copies the
# runs between touched vertices), so the edge-list rebuild it replaced
# survives only as the oracle of the `delta_splice` suite and may not come
# back as a second path; delta.rs is searched up to its test module. The
# graph crate holds no unsafe.
echo "==> splice guard: GraphDelta::apply rebuilds no CSR, and crates/graph/src holds no unsafe"
if sed '/^#\[cfg(test)\]/,$d' crates/graph/src/delta.rs | grep -nE 'EdgeList|from_edge_list'; then
  echo "error: GraphDelta::apply splices the CSR; do not rebuild it through an EdgeList" >&2
  exit 1
fi
if grep -rnw 'unsafe' crates/graph/src; then
  echo "error: crates/graph/src holds no unsafe" >&2
  exit 1
fi

# The graph file is read by block-parsing newline-aligned ranges on scoped
# threads; the line-at-a-time reader it replaced survives only as the oracle
# in io.rs's test module (searched up to it), so there is one grammar. The
# load's threads are std's: imm-graph depends on rand and serde alone, since
# a new dependency would rewrite spine/Cargo.lock.
echo "==> loader guard: one block parser in io.rs, imm-graph depends on rand and serde only"
if sed '/^#\[cfg(test)\]/,$d' crates/graph/src/io.rs | grep -nE 'read_until|BufReader'; then
  echo "error: crates/graph/src/io.rs parses blocks; do not bring back a line-at-a-time reader" >&2
  exit 1
fi
GRAPH_DEPS="$(sed -n '/^\[dependencies\]/,/^\[/p' crates/graph/Cargo.toml \
  | grep -E '^[A-Za-z0-9_-]+ *=' | cut -d= -f1 | tr -d ' ' | sort | tr '\n' ' ')"
if [ "$GRAPH_DEPS" != "rand serde " ]; then
  echo "error: crates/graph/Cargo.toml [dependencies] must be rand and serde, found: $GRAPH_DEPS" >&2
  exit 1
fi

# The samplers and the set containers are safe Rust: the IC kernel's
# bottom-up sweep splits a VisitMarker's fields instead of aliasing them,
# and its out-side is a CsrGraph::transpose_with_slots. The driver counts
# no vertex (a run's kernel fusion is its per-batch count_memberships), so
# no per-member shared atomic comes back into the sampling loop, and a
# worker tallies its sets and members in its VisitMarker, whose drop is
# the one flush into the registry: the set counters are named nowhere else
# in sampling.rs, so no per-set shared atomic comes back either.
echo "==> sampler guard: no unsafe in crates/core/src or crates/rrr/src, no shared counter in sampling"
if grep -rnw 'unsafe' crates/core/src crates/rrr/src; then
  echo "error: crates/core/src and crates/rrr/src hold no unsafe" >&2
  exit 1
fi
if grep -n 'counter\.increment(' crates/core/src/sampling.rs; then
  echo "error: sampling counts into per-worker tallies; do not increment the shared counter per member" >&2
  exit 1
fi
if sed '/^impl Drop for VisitMarker/,/^}/d' crates/core/src/sampling.rs \
  | grep -nE 'SETS_SAMPLED|SET_VERTICES'; then
  echo "error: a worker's VisitMarker flushes the set counters once per call; do not add to them per set" >&2
  exit 1
fi

# Kernel fusion is a run's per-batch `imm_rrr::count_memberships`, and the
# adaptive `imm_rrr::Postings` is the one inverse, the eager kernel's cover
# index included: the sampler's fused tally and the lists-only postings mode
# with its bitmap side list stay gone.
echo "==> fusion guard: one membership count, one postings inverse"
if grep -rnwE 'fused_counter|build_over_list_sets|include_bitmaps' crates src tests examples; then
  echo "error: count with imm_rrr::count_memberships and invert with Postings::build; no fused tally or lists-only mode" >&2
  exit 1
fi

# `efficient_imm::sampling::generate_rrr_sets_into` is the one parallel
# sampling driver (`generate_rrr_sets` is it over a new collection): a run,
# an index build and a refresh all draw through it, each pool task fills one
# output for the whole call, and the tasks' job ranges are appended to the
# caller's collection in job order. The owned set type,
# the single-set resample entry, the refresh's own chunking and the per-slot
# assembly it replaced stay gone, and imm-service holds no sampler state.
echo "==> sampling-driver guard: one parallel sampling driver, no owned RRR set"
if grep -rnwIE 'RrrSet|generate_indexed_rrr_set|SlotOutput|RESAMPLE_CHUNK|push_sorted_slice' crates; then
  echo "error: draw sets through generate_rrr_sets into an RrrCollection; do not reintroduce a second driver or RrrSet" >&2
  exit 1
fi
if grep -rnwIE 'VisitMarker|SamplingGraph' crates/service/src; then
  echo "error: crates/service/src resamples through generate_rrr_sets; sampling drivers live in efficient-imm" >&2
  exit 1
fi

# A CsrGraph is its in-lists and EdgeWeights holds one weight per in-slot,
# parallel to them: the forward CSR, the in-slot -> forward-id permutation
# and the accessors that read them stay gone. A forward consumer builds one
# CsrGraph::transpose_with_slots instead.
echo "==> in-list guard: no forward CSR and no edge-id indirection"
if grep -rnE 'in_edge_ids|in_neighbors_with_edge_ids|NeighborIter|out_edge_range|edge_target|out_targets|out_offsets' \
  crates/*/src examples src; then
  echo "error: a CsrGraph is its in-lists; do not reintroduce the forward CSR or edge ids" >&2
  exit 1
fi

# `imm_rrr::Postings` owns the workspace's one vertex -> set counting sort
# (the index, the snapshot encoder and the batch kernel's cover index all
# call it); a second hand-rolled one is how the four copies it replaced came
# to differ.
echo "==> builder guard: no second vertex->set counting sort in crates/{service,shard,core}/src"
if grep -rnE 'cursor\[[^]]*\] *\+= *1|let mut cursor = [a-z_]*offsets\.clone\(\)' \
  crates/service/src crates/shard/src crates/core/src; then
  echo "error: build vertex->set postings through imm_rrr::Postings, not a local counting sort" >&2
  exit 1
fi

# `SketchIndex::apply_delta` (imm-service's dynamic.rs) is the workspace's
# one refresh driver — a sharded index refreshes by refreshing its base — and
# the global postings are the one Top-K source, so the trait that abstracted
# over two of them stays gone. A sharded engine is a `QueryEngine` under a
# shard map: Top-K sessions live in imm-service only, the crate builds no
# postings of its own, the scatter pool with its supervisor, wake policy,
# placement plan and fault hook stays gone, and the unpadded shard container
# v1 stays unread.
echo "==> refresh guard: one refresh driver, one owner of sessions, no per-shard postings, no scatter pool"
if grep -rnE 'invalidated_sets|resample_sets|delta\.apply\(' crates/shard/src; then
  echo "error: refresh a sharded index through SketchIndex::apply_delta, not a local driver" >&2
  exit 1
fi
if grep -rn 'SetsContaining' crates; then
  echo "error: Top-K reads imm_rrr::PostingsView directly; do not reintroduce SetsContaining" >&2
  exit 1
fi
if grep -nE 'LazyGreedy|MaskedPool' crates/shard/src/engine.rs; then
  echo "error: Top-K sessions belong to imm_service::QueryEngine" >&2
  exit 1
fi
if grep -rn 'Postings::build' crates/shard/src; then
  echo "error: crates/shard/src builds no postings; every query reads the base's global postings" >&2
  exit 1
fi
if grep -rnE 'PinnedPool|WakeMode|ScatterError|PoolPlacement|worker_panic' crates; then
  echo "error: a Spread is one walk on every host; do not reintroduce the scatter pool or its fault hook" >&2
  exit 1
fi
if grep -rn 'SHARD_VERSION_V1' crates; then
  echo "error: shard container v1 was dropped; do not reintroduce its reader" >&2
  exit 1
fi

# `QueryEngine::execute` is the one serving entry and computes every query
# from the index: the response cache, its key normalisation and its
# counters stay gone, and so do the loaders' sweep of `<path>.tmp` (a reader
# would unlink a concurrent save's staged file) and its counter.
# `with_cache_capacity` and `execute_uncached` survive only as inert stubs
# the spine calls, so nothing here calls them. imm-memsim's `CacheStats` is
# the simulated L1/L2 hierarchy's and is not searched for.
echo "==> one-entry guard: no response cache, no .tmp sweep, no call to the spine's stubs"
GONE_CACHE='QueryCache|QueryKey|DEFAULT_CACHE_CAPACITY|service_cache_|recover_interrupted_save|snapshot_recoveries|[.:]with_cache_capacity\(|[.:]execute_uncached\('
if grep -rnE "$GONE_CACHE" crates tests examples \
  || grep -rnw 'CacheStats' crates tests examples --exclude-dir=memsim; then
  echo "error: every query is computed by QueryEngine::execute and loaders leave .tmp files alone; do not reintroduce the response cache, the sweep or a call to the spine's stubs" >&2
  exit 1
fi

# The daemon blocks in `accept` (shutdown wakes it by shutting the listening
# socket down), so a connection is never held back by a sleep; and a Top-K
# session covers sets with one `or_into` per seed instead of decrementing a
# count per member of every covered set.
echo "==> cold-path guard: no polling accept loop, no per-member retire walk"
if grep -nE 'set_nonblocking|thread::sleep\(poll\)' crates/serve/src/server.rs; then
  echo "error: the accept loop blocks in accept; do not reintroduce a non-blocking listener or a poll sleep" >&2
  exit 1
fi
if grep -rnF 'counts[v as usize] -= 1' crates/service/src crates/rrr/src/celf.rs; then
  echo "error: CELF retires a seed with PostingsView::or_into on the covered bitmap, not a per-member walk" >&2
  exit 1
fi

# The daemon keeps no clock of its own: a connection's read timeout is its
# idle timeout, a batch checks its deadline, and admission records the
# in-flight peak as it claims a slot. The housekeeping thread, its tick, the
# `--tick-ms` flag and the sampled max-over-window gauge stay gone.
echo "==> no-tick guard: no housekeeping thread, tick or sampled in-flight window"
if grep -rnF -e MaxWindow -e sleep_tick -e tick_loop -e imm-serve-tick -e tick_ms \
  -e --tick-ms -e '.tick =' crates tests examples; then
  echo "error: the daemon's clocks are the idle timeout and the batch deadline; do not reintroduce the housekeeping tick or its window" >&2
  exit 1
fi

# An audience Top-K session is the fresh session started with its ineligible
# sets covered: it reads the postings and the generation's degree order, and
# no longer walks the set-major arena for exact initial bounds. The session
# (imm-rrr's celf.rs) is searched up to its test module, which builds its
# postings from collections.
echo "==> audience guard: the Top-K sessions read no set-major storage"
if grep -nE 'RrrCollection|\.sets\(\)|degree_vector' crates/service/src/masked.rs \
  || sed '/^#\[cfg(test)\]/,$d' crates/rrr/src/celf.rs | grep -nE 'RrrCollection|\.sets\(\)|degree_vector'; then
  echo "error: the Top-K sessions read postings and the degree order only; do not reintroduce the set walk or degree_vector" >&2
  exit 1
fi

# One greedy session: `run_imm` selects with imm-rrr's LazyGreedy at every
# θ step, as every daemon Top-K does, and no second CELF session or frontier
# pop grows outside crates/rrr/src. efficient-imm holds only what `run`,
# `build-index` and the daemon execute: the eager EfficientIMM kernel, its
# shared counter and the Table II/IV replays through the cache and NUMA
# models are the reproduction's and live in imm-bench, so no non-test file
# of crates/core/src names them (each file is searched up to its test
# module).
echo "==> one-greedy guard: run_imm runs CELF, one LazyGreedy in imm-rrr, no reproduction code in core"
CORE_REPRO="$(for f in $(find crates/core/src -name '*.rs' | sort); do
  sed '/^#\[cfg(test)\]/,$d' "$f" \
    | { grep -nwE 'imm_memsim|imm_numa|GlobalCounter|select_seeds_efficient|instrumented' || true; } \
    | sed "s|^|$f:|"
done)"
if [ -n "$CORE_REPRO" ]; then
  echo "$CORE_REPRO" >&2
  echo "error: the simulators, the eager kernel and its counter live in imm-bench; crates/core/src holds what run, build-index and the daemon execute" >&2
  exit 1
fi
if grep -rnE 'struct LazyGreedy|fn pop_argmax' crates src examples tests | grep -v '^crates/rrr/src/'; then
  echo "error: the lazy-greedy session lives in crates/rrr/src alone" >&2
  exit 1
fi

# A live revision is rebuilt in one place, `SketchIndex::recover`, which
# `serve` and `update-index` both call, and a daemon indexes a journal entry
# by the delta log of the generation it replaces: the CLI and the daemon read
# no journal themselves, and the separately passed journal base stays gone.
echo "==> recovery guard: one recovery, no journal base"
if grep -rn 'journal_base' crates src examples tests; then
  echo "error: a journal entry is indexed by the delta log it moves from; do not reintroduce journal_base" >&2
  exit 1
fi
if grep -rn 'DeltaJournal::read_entries' crates/cli/src crates/serve/src; then
  echo "error: rebuild the live revision through SketchIndex::recover, not a local journal replay" >&2
  exit 1
fi

# Every metric is declared in an `imm_obs::metrics!` block, whose generated
# `register()` is the one registration path: no subsystem hand-writes a
# register list or the `Once` around it.
echo "==> metrics guard: every metric is declared through imm_obs::metrics!"
if grep -rnE 'imm_obs::register\(|static ONCE' crates/*/src | grep -v '^crates/obs/'; then
  echo "error: declare metrics in an imm_obs::metrics! block; do not hand-write a register list or its Once" >&2
  exit 1
fi

# The spine is the one benchmark: no crate declares a bench target, and
# the criterion shim the old benches needed stays out of every manifest.
echo "==> one-benchmark guard: no [[bench]] target and no criterion in any Cargo.toml"
if find . -name Cargo.toml -not -path './target/*' -print0 \
  | xargs -0 grep -nE '^\[\[bench\]\]|criterion'; then
  echo "error: spine/ is the benchmark; do not add a bench target or the criterion shim" >&2
  exit 1
fi

# The obs-off overhead guard must stay runnable and keep emitting its JSON;
# the smoke run checks the schema version and the exact metric keys
# internally (no timing assertions) and exits non-zero on any mismatch. It
# runs twice — once built with obs-off (recording compiled to no-ops) and
# once instrumented with the obs-off run as `--obs-baseline` — so both build
# flavors and the overhead-comparison plumbing stay exercised. Smoke runs
# record the throughput ratio without asserting on it (they are too short to
# clear the noise floor; the checked-in BENCH_7.json comes from a full run,
# where the ratio must stay above 0.85).
echo "==> perf_suite --smoke, obs-off build (JSON output must parse)"
SMOKE_BASELINE="$(mktemp /tmp/bench7_obsoff.XXXXXX.json)"
cargo run --release -p imm-bench --features obs-off --bin perf_suite -- \
  --smoke --out "$SMOKE_BASELINE" > /dev/null

echo "==> perf_suite --smoke, instrumented vs obs-off baseline"
SMOKE_OUT="$(mktemp /tmp/bench7_smoke.XXXXXX.json)"
cargo run --release -p imm-bench --bin perf_suite -- \
  --smoke --out "$SMOKE_OUT" --obs-baseline "$SMOKE_BASELINE" > /dev/null
rm -f "$SMOKE_OUT" "$SMOKE_BASELINE"

# End-to-end daemon smoke over a real unix socket: build a snapshot, serve
# it in the background, drive a mixed client batch, and require the remote
# answers byte-identical to the in-process `query` command (same JSON
# renderer on both paths, so a plain string compare is the whole check).
# Ends with a clean client-initiated shutdown — the daemon must exit zero
# and remove its socket file.
echo "==> serving daemon smoke (unix socket, byte-identity, clean shutdown)"
SERVE_DIR="$(mktemp -d /tmp/imm_serve_smoke.XXXXXX)"
# Tier-1's `cargo build --release` covers the CLI (a default member); build
# it explicitly anyway so the smokes never depend on that and never run a
# stale CLI.
cargo build --release -p imm-cli
CLI=target/release/efficient-imm
# A community graph of 1 600 vertices in blocks of 50.
"$CLI" generate --output "$SERVE_DIR/g.txt" --kind community --nodes 1600 --seed 17 > /dev/null
"$CLI" build-index --graph "$SERVE_DIR/g.txt" --output "$SERVE_DIR/g.sketch" \
  --threads 2 --seed 17 > /dev/null
"$CLI" serve --index "$SERVE_DIR/g.sketch" --socket "$SERVE_DIR/imm.sock" \
  --shards 2 --threads 2 > "$SERVE_DIR/serve.log" &
SERVE_PID=$!
"$CLI" client --socket "$SERVE_DIR/imm.sock" --wait-ms 10000 --ping > /dev/null
BATCH="--top-k 2,5 --audience 0,1,2,3 --spread 0,1 --marginal 0:1"
# shellcheck disable=SC2086
"$CLI" client --socket "$SERVE_DIR/imm.sock" $BATCH > "$SERVE_DIR/remote.json"
# shellcheck disable=SC2086
"$CLI" query --index "$SERVE_DIR/g.sketch" --threads 2 $BATCH \
  > "$SERVE_DIR/local.json"
python3 - "$SERVE_DIR/remote.json" "$SERVE_DIR/local.json" <<'EOF'
import json, sys
remote = json.load(open(sys.argv[1]))["responses"]
local = json.load(open(sys.argv[2]))["responses"]
if json.dumps(remote, sort_keys=True) != json.dumps(local, sort_keys=True):
    sys.exit("daemon responses diverged from the in-process query command")
EOF
# A Spread or Marginal vertex the index does not hold is refused by the
# in-process `query` as the daemon's admission refuses it: non-zero exit, and
# the vertex and the vertex count named on stderr.
for bad in "--spread 999999" "--marginal 0:999999"; do
  # shellcheck disable=SC2086
  if "$CLI" query --index "$SERVE_DIR/g.sketch" $bad > /dev/null 2> "$SERVE_DIR/err"; then
    echo "error: 'query $bad' exited 0 for a vertex outside the index" >&2
    exit 1
  fi
  if ! grep -qE "vertex 999999 outside the vertex space [0-9]+" "$SERVE_DIR/err"; then
    echo "error: 'query $bad' failed without naming the vertex and n:" >&2
    cat "$SERVE_DIR/err" >&2
    exit 1
  fi
done
"$CLI" client --socket "$SERVE_DIR/imm.sock" --shutdown > /dev/null
wait "$SERVE_PID"
if [ -e "$SERVE_DIR/imm.sock" ]; then
  echo "error: the daemon left its socket file behind" >&2
  exit 1
fi

# Mapped-serving e2e: the same snapshot served by a `--mmap` daemon must
# answer the same batch byte-identically to the heap daemon above, survive
# a restart (shutdown + fresh start against the same file), and prove over
# `client --metrics` that the zero-copy path actually engaged
# (store_mmap_opens >= 1, store_mmap_fallbacks == 0 — this is a snapshot
# this build wrote, on Linux, so a fallback would mean the fast path silently
# rotted).
echo "==> mmap serving smoke (byte-identity vs heap daemon, restart, mapped-load proof)"
for round in 1 2; do
  "$CLI" serve --index "$SERVE_DIR/g.sketch" --socket "$SERVE_DIR/mmap.sock" \
    --shards 2 --threads 2 --mmap > "$SERVE_DIR/mmap_serve_$round.log" &
  MMAP_PID=$!
  "$CLI" client --socket "$SERVE_DIR/mmap.sock" --wait-ms 10000 --ping > /dev/null
  # shellcheck disable=SC2086
  "$CLI" client --socket "$SERVE_DIR/mmap.sock" $BATCH > "$SERVE_DIR/mmap_$round.json"
  "$CLI" client --socket "$SERVE_DIR/mmap.sock" --metrics \
    > "$SERVE_DIR/mmap_metrics_$round.json"
  python3 - "$SERVE_DIR" "$round" <<'EOF'
import json, sys
d, r = sys.argv[1], sys.argv[2]
mapped = json.load(open(f"{d}/mmap_{r}.json"))["responses"]
heap = json.load(open(f"{d}/remote.json"))["responses"]
if json.dumps(mapped, sort_keys=True) != json.dumps(heap, sort_keys=True):
    sys.exit("the mmap daemon's answers diverged from the heap daemon's")
samples = json.load(open(f"{d}/mmap_metrics_{r}.json"))["metrics"]["metrics"]
by_name = {s["name"]: s["value"] for s in samples}
if by_name.get("store_mmap_opens", 0) < 1:
    sys.exit(f"the daemon did not serve from the mapping: {by_name.get('store_mmap_opens')}")
if by_name.get("store_mmap_fallbacks", 0) != 0:
    sys.exit("a snapshot on Linux must not fall back to read-decode")
EOF
  grep -q "load: mapped" "$SERVE_DIR/mmap_serve_$round.log" || {
    echo "error: the --mmap daemon did not report load: mapped" >&2
    exit 1
  }
  "$CLI" client --socket "$SERVE_DIR/mmap.sock" --shutdown > /dev/null
  wait "$MMAP_PID"
done

# Chaos smoke on the real binaries: the same daemon/client pair runs with a
# seeded fault plan armed via IMM_FAULT_PLAN (socket IO errors and shortened
# reads/writes on both sides). The retrying client must still get the batch
# through, and its answers must stay byte-identical to the clean in-process
# run above.
echo "==> chaos smoke (IMM_FAULT_PLAN armed, retrying client, byte-identity)"
IMM_FAULT_PLAN="seed=5,io_error=0.02,io_partial=0.1" \
  "$CLI" serve --index "$SERVE_DIR/g.sketch" --socket "$SERVE_DIR/chaos.sock" \
  --shards 2 --threads 2 > "$SERVE_DIR/chaos_serve.log" 2>&1 &
CHAOS_PID=$!
# shellcheck disable=SC2086
IMM_FAULT_PLAN="seed=5,io_error=0.02,io_partial=0.1" \
  "$CLI" client --socket "$SERVE_DIR/chaos.sock" --wait-ms 10000 \
  --retries 8 --retry-backoff-ms 5 $BATCH > "$SERVE_DIR/chaos.json" 2> /dev/null
python3 - "$SERVE_DIR/chaos.json" "$SERVE_DIR/local.json" <<'EOF'
import json, sys
chaos = json.load(open(sys.argv[1]))["responses"]
local = json.load(open(sys.argv[2]))["responses"]
if json.dumps(chaos, sort_keys=True) != json.dumps(local, sort_keys=True):
    sys.exit("answers served under chaos diverged from the clean run")
EOF
# Shutdown is non-idempotent (one attempt); under an armed plan it may hit
# an injected fault, so fall back to killing the daemon outright.
"$CLI" client --socket "$SERVE_DIR/chaos.sock" --shutdown > /dev/null 2>&1 \
  || kill -9 "$CHAOS_PID" 2> /dev/null || true
wait "$CHAOS_PID" 2> /dev/null || true
rm -rf "$SERVE_DIR"

# Every subcommand parses against one grammar: a flag it does not read is an
# error that names the flag, never a silently ignored typo.
echo "==> CLI grammar smoke (an unknown flag exits non-zero and is named on stderr)"
GRAMMAR_DIR="$(mktemp -d /tmp/imm_grammar_smoke.XXXXXX)"
"$CLI" generate --output "$GRAMMAR_DIR/g.txt" --nodes 60 --avg-degree 4 --seed 5 > /dev/null
if "$CLI" run --graph "$GRAMMAR_DIR/g.txt" --k 2 --thread 2 > /dev/null 2> "$GRAMMAR_DIR/err"; then
  echo "error: 'run --thread 2' exited 0; a flag outside the grammar must be rejected" >&2
  exit 1
fi
if ! grep -qF "'--thread'" "$GRAMMAR_DIR/err"; then
  echo "error: 'run --thread 2' failed without naming --thread on stderr:" >&2
  cat "$GRAMMAR_DIR/err" >&2
  exit 1
fi
rm -rf "$GRAMMAR_DIR"

# Crash-recovery e2e: SIGKILL a real `update-index` process mid-snapshot-
# write (the armed plan stalls every snapshot write point, holding the save
# open), then prove the wreckage is survivable: the snapshot path still
# holds the old generation byte-for-byte (a daemon serves it in parity with
# a pristine pre-kill copy), the daemon's load leaves the stranded `.tmp`
# alone (it could be a live save's), and re-running the same `update-index`
# on the killed path reclaims it and writes the snapshot that update writes
# on a pristine copy.
echo "==> crash-recovery e2e (SIGKILL mid-snapshot-write, recovery + parity)"
KILL_DIR="$(mktemp -d /tmp/imm_kill_smoke.XXXXXX)"
"$CLI" generate --output "$KILL_DIR/g.txt" --kind social --nodes 400 \
  --avg-degree 6 --seed 11 > /dev/null
"$CLI" build-index --graph "$KILL_DIR/g.txt" --output "$KILL_DIR/g.sketch" \
  --threads 2 --seed 11 > /dev/null
cp "$KILL_DIR/g.sketch" "$KILL_DIR/pristine.sketch"
printf '+ 0 399 0.4\n+ 7 11 0.3\n' > "$KILL_DIR/churn.delta"
IMM_FAULT_PLAN="seed=3,snapshot_stall_ms=400" \
  "$CLI" update-index --index "$KILL_DIR/g.sketch" --graph "$KILL_DIR/g.txt" \
  --delta "$KILL_DIR/churn.delta" > /dev/null 2>&1 &
UPDATE_PID=$!
# The temp file appears the moment the save starts; the stall then holds
# the process inside the write loop, which is where the SIGKILL lands.
for _ in $(seq 1 600); do
  [ -e "$KILL_DIR/g.sketch.tmp" ] && break
  sleep 0.05
done
if [ ! -e "$KILL_DIR/g.sketch.tmp" ]; then
  echo "error: the stalled save never created its temp file" >&2
  exit 1
fi
kill -9 "$UPDATE_PID" 2> /dev/null || true
wait "$UPDATE_PID" 2> /dev/null || true
if [ ! -e "$KILL_DIR/g.sketch.tmp" ]; then
  echo "error: the killed save should have stranded its temp file" >&2
  exit 1
fi
cp "$KILL_DIR/g.sketch.tmp" "$KILL_DIR/stranded.tmp"
"$CLI" serve --index "$KILL_DIR/g.sketch" --socket "$KILL_DIR/imm.sock" \
  --shards 2 --threads 2 > "$KILL_DIR/serve.log" &
KILL_SERVE_PID=$!
"$CLI" client --socket "$KILL_DIR/imm.sock" --wait-ms 10000 --ping > /dev/null
# shellcheck disable=SC2086
"$CLI" client --socket "$KILL_DIR/imm.sock" $BATCH > "$KILL_DIR/remote.json"
# shellcheck disable=SC2086
"$CLI" query --index "$KILL_DIR/pristine.sketch" --threads 2 $BATCH \
  > "$KILL_DIR/local.json"
python3 - "$KILL_DIR" <<'EOF'
import json, sys
d = sys.argv[1]
remote = json.load(open(f"{d}/remote.json"))["responses"]
local = json.load(open(f"{d}/local.json"))["responses"]
if json.dumps(remote, sort_keys=True) != json.dumps(local, sort_keys=True):
    sys.exit("the recovered snapshot diverged from the pristine pre-kill copy")
EOF
if ! cmp -s "$KILL_DIR/g.sketch.tmp" "$KILL_DIR/stranded.tmp"; then
  echo "error: the daemon's load touched the stranded temp file" >&2
  exit 1
fi
"$CLI" client --socket "$KILL_DIR/imm.sock" --shutdown > /dev/null
wait "$KILL_SERVE_PID"
# The same update, re-run on the killed path and on a pristine copy.
cp "$KILL_DIR/pristine.sketch" "$KILL_DIR/clean.sketch"
for target in g clean; do
  "$CLI" update-index --index "$KILL_DIR/$target.sketch" --graph "$KILL_DIR/g.txt" \
    --delta "$KILL_DIR/churn.delta" > /dev/null
done
if [ -e "$KILL_DIR/g.sketch.tmp" ]; then
  echo "error: the re-run save should have reclaimed the stranded temp file" >&2
  exit 1
fi
if ! cmp "$KILL_DIR/g.sketch" "$KILL_DIR/clean.sketch"; then
  echo "error: the re-run update on the killed path differs from the same update on a pristine copy" >&2
  exit 1
fi
rm -rf "$KILL_DIR"

# Journal-recovery e2e: a dynamic daemon journals two rollouts and is
# SIGKILLed; a restart with --journal must replay both and answer exactly
# what the in-process `query` answers on the snapshot `update-index
# --journal` folds the same journal into (an empty delta, written to another
# file so the journal is kept). The second delta reweights an edge the first
# inserts, so a lost or reordered entry cannot replay.
echo "==> journal-recovery e2e (SIGKILL a journaling daemon, restart, parity with update-index --journal)"
JOURNAL_DIR="$(mktemp -d /tmp/imm_journal_smoke.XXXXXX)"
"$CLI" generate --output "$JOURNAL_DIR/g.txt" --kind social --nodes 400 \
  --avg-degree 6 --seed 13 > /dev/null
"$CLI" build-index --graph "$JOURNAL_DIR/g.txt" --output "$JOURNAL_DIR/g.sketch" \
  --threads 2 --seed 13 > /dev/null
printf '+ 0 399 0.4\n+ 7 11 0.3\n' > "$JOURNAL_DIR/a.delta"
printf '~ 0 399 0.9\n+ 12 5 0.6\n' > "$JOURNAL_DIR/b.delta"
: > "$JOURNAL_DIR/empty.delta"
DYNAMIC="--index $JOURNAL_DIR/g.sketch --graph $JOURNAL_DIR/g.txt --journal $JOURNAL_DIR/deltas.journal"
# shellcheck disable=SC2086
"$CLI" serve $DYNAMIC --socket "$JOURNAL_DIR/first.sock" --shards 2 --threads 2 \
  > "$JOURNAL_DIR/first.log" &
FIRST_PID=$!
"$CLI" client --socket "$JOURNAL_DIR/first.sock" --wait-ms 10000 --ping > /dev/null
for delta in a b; do
  "$CLI" client --socket "$JOURNAL_DIR/first.sock" --apply-delta "$JOURNAL_DIR/$delta.delta" \
    > /dev/null
done
kill -9 "$FIRST_PID"
wait "$FIRST_PID" 2> /dev/null || true
# shellcheck disable=SC2086
"$CLI" serve $DYNAMIC --socket "$JOURNAL_DIR/second.sock" --shards 2 --threads 2 \
  > "$JOURNAL_DIR/second.log" &
SECOND_PID=$!
"$CLI" client --socket "$JOURNAL_DIR/second.sock" --wait-ms 10000 --ping > /dev/null
grep -q "replayed 2 pending journal entries" "$JOURNAL_DIR/second.log" || {
  echo "error: the restarted daemon did not replay both journaled rollouts:" >&2
  cat "$JOURNAL_DIR/second.log" >&2
  exit 1
}
# shellcheck disable=SC2086
"$CLI" client --socket "$JOURNAL_DIR/second.sock" $BATCH > "$JOURNAL_DIR/remote.json"
"$CLI" update-index --index "$JOURNAL_DIR/g.sketch" --graph "$JOURNAL_DIR/g.txt" \
  --delta "$JOURNAL_DIR/empty.delta" --journal "$JOURNAL_DIR/deltas.journal" \
  --output "$JOURNAL_DIR/folded.sketch" > "$JOURNAL_DIR/update.json"
# shellcheck disable=SC2086
"$CLI" query --index "$JOURNAL_DIR/folded.sketch" --threads 2 $BATCH > "$JOURNAL_DIR/local.json"
python3 - "$JOURNAL_DIR" <<'EOF'
import json, sys
d = sys.argv[1]
replayed = json.load(open(f"{d}/update.json"))["journal_entries_replayed"]
if replayed != 2:
    sys.exit(f"update-index --journal replayed {replayed} entries, not 2")
remote = json.load(open(f"{d}/remote.json"))["responses"]
local = json.load(open(f"{d}/local.json"))["responses"]
if json.dumps(remote, sort_keys=True) != json.dumps(local, sort_keys=True):
    sys.exit("the recovered daemon diverged from update-index --journal's snapshot")
EOF
"$CLI" client --socket "$JOURNAL_DIR/second.sock" --shutdown > /dev/null
wait "$SECOND_PID"
rm -rf "$JOURNAL_DIR"

echo "CI OK"
