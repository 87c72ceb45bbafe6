# Development targets. `make check` is the required gate before sending
# changes: formatting, vet, a full build, the race detector over every
# package (the sync pipeline overlaps encode workers with the receive loop,
# so gluon and comm must always pass under -race), the sync hot-path guard,
# a traced smoke run analyzed by gluon-trace (tables and critical), and the
# whole test suite at GOMAXPROCS=1, 2 and 4 (test-matrix).

GO ?= go

.PHONY: check fmt vet build loc census docnames test test-matrix race race-fault race-peerdeath restore-gate soak bench bench-e2e bench-e2e-quick sync-bench bench-pin perf perf-trend trace-guard trace-smoke fuzz-smoke watchdog-smoke doctor-smoke top-smoke

# trace-guard runs before the race gate: it measures wall time, and the
# race suites leave the machine hot enough to skew it. `race` (through
# race-fault) runs every suite under the race detector exactly once, so the
# named dsys subsets below (watchdog-smoke, doctor-smoke, top-smoke,
# restore-gate) are for running one scenario by hand, not part of the chain.
check: fmt vet build loc census docnames trace-guard perf-trend bench-e2e-quick trace-smoke test-matrix race race-peerdeath

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Size gate: non-blank, non-comment lines of the non-test .go files of
# every root-module package (benchmark/ is a module of its own), and a
# failure when the instrument, internal/trace, outgrows TRACE_LOC_MAX or
# the whole root module outgrows ROOT_LOC_MAX. Both are ratchets: lower
# them with each cut; raise one only with a CHANGES.md line saying why.
TRACE_LOC_MAX = 2895
ROOT_LOC_MAX = 13334

loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' | sort | xargs awk \
		'!/^[[:space:]]*$$/ && !/^[[:space:]]*\/\// { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; total++ } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", total; \
			if (n["./internal/trace"] > $(TRACE_LOC_MAX)) { \
				printf "internal/trace: %d lines > bound %d\n", n["./internal/trace"], $(TRACE_LOC_MAX); exit 1 } \
			if (total > $(ROOT_LOC_MAX)) { \
				printf "root module: %d lines > bound %d\n", total, $(ROOT_LOC_MAX); exit 1 } }'

# Declaration scan shared by census and docnames: one line per Go
# declaration in the files it is given, "kind dir package test name".
# kind is func, method, type, const, var or field (a struct field or an
# interface method); test is 1 in a _test.go file; name is Name, T.M (a
# value receiver, field or interface method) or (*T).M (a pointer receiver).
DECLS = awk '\
	FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$$/, "", dir); test = FILENAME ~ /_test\.go$$/; typ = ""; blk = "" } \
	/^package / { pkg = $$2; sub(/_test$$/, "", pkg) } \
	/^[)}]/ { typ = ""; blk = "" } \
	/^func / { s = substr($$0, 6); recv = ""; kind = "func"; \
		if (s ~ /^\(/) { recv = s; sub(/\).*/, "", recv); n = split(recv, a, " "); recv = a[n]; sub(/\[.*/, "", recv); \
			if (recv ~ /^\*/) recv = "(" recv ")"; recv = recv "."; sub(/^\([^)]*\) */, "", s); kind = "method" } \
		name = s; sub(/[[(].*/, "", name); print kind, dir, pkg, test, recv name } \
	/^type [A-Za-z_]/ { name = $$2; sub(/\[.*/, "", name); print "type", dir, pkg, test, name; if ($$0 ~ /(struct|interface) \{$$/) typ = name } \
	/^(const|var|type) \($$/ { blk = $$1 } \
	/^(const|var) [A-Za-z_]/ { kind = $$1; s = substr($$0, length($$1) + 2); names() } \
	blk != "" && /^\t[A-Za-z_]/ { kind = blk; s = substr($$0, 2); names() } \
	typ != "" && /^\t[*A-Za-z_]/ { kind = "field"; s = substr($$0, 2); \
		if (s ~ /^[^ ]*\./ || s ~ /^\*/ || s !~ / /) { sub(/[ ([].*/, "", s); sub(/^.*[.*]/, "", s); print kind, dir, pkg, test, typ "." s } \
		else { s = typ "." s; sub(/\(.*/, "", s); names(); } } \
	function names(   pre) { pre = ""; if (kind == "field") { pre = s; sub(/\..*/, ".", pre); s = substr(s, length(pre) + 1) } \
		while (match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) { print kind, dir, pkg, test, pre substr(s, 1, RLENGTH); \
			s = substr(s, RLENGTH + 1); if (s !~ /^, */) break; sub(/^, */, "", s) } }'

# Census of dead API: the exported functions and methods of internal/...
# that no binary reaches. Every cmd/*, examples/* and the benchmark is built
# with inlining off (an inlined call leaves no symbol), and each declared
# name, generic instantiations folded onto it, is looked up among their text
# symbols. Prints the names none holds and fails above CENSUS_MAX, a ratchet
# like the loc bounds; the names it allows are test fakes, fixtures and
# oracles, listed with the reason each stays in CHANGES.md.
CENSUS_MAX = 22

census:
	@d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; mkdir $$d/bin; \
	for p in ./cmd/* ./examples/*; do $(GO) build -gcflags=all=-l -o $$d/bin/$${p##*/} $$p || exit 1; done; \
	$(GO) build -C benchmark -gcflags=all=-l -o $$d/bin/benchmark . || exit 1; \
	for b in $$d/bin/*; do $(GO) tool nm $$b; done | awk '$$2 ~ /^[Tt]$$/ { print $$3 }' | \
		sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' | sort -u > $$d/used; \
	find ./internal -name '*.go' ! -name '*_test.go' | xargs $(DECLS) | \
		awk '$$1 ~ /^(func|method)$$/ && $$5 ~ /(^|\.)[A-Z][^.]*$$/ { print "gluon" substr($$2, 2) "." $$5 }' | sort -u > $$d/declared; \
	comm -23 $$d/declared $$d/used > $$d/unreached; cat $$d/unreached; n=$$(wc -l < $$d/unreached); \
	echo "$$n exported names no binary reaches (bound $(CENSUS_MAX))"; [ $$n -le $(CENSUS_MAX) ]

# Stale names in the docs: every backticked Go name of the form pkg.Name,
# pkg.T.Member, T.Member or (*T).M in DOCS must be declared somewhere in the
# repository (tests included; DECLS above). A lowercase head that is
# neither a package nor a type of the repository must be a standard-library
# package in DOCNAMES_STDLIB. Not scanned: CHANGES.md and ROADMAP.md, which
# name deleted and planned code on purpose; PAPER.md, PAPERS.md and
# SNIPPETS.md, which are external text; benchmark/README.md, which joins in
# a change to the benchmark (`make docnames DOCS=benchmark/README.md` runs
# it by hand).
DOCS = README.md DESIGN.md EXPERIMENTS.md examples/tcp-cluster/README.md .claude/skills/verify/SKILL.md
# The standard-library packages the docs name (atomic.Pointer, io.Writer,
# net.Buffers, net.Pipe, slog.TextHandler, testing.B).
DOCNAMES_STDLIB = atomic io net slog testing

docnames:
	@d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; \
	find . -name '*.go' ! -path './.*' | xargs $(DECLS) > $$d/decls; \
	awk -v stdlib="$(DOCNAMES_STDLIB)" ' \
		BEGIN { n = split(stdlib, a, " "); for (i = 1; i <= n; i++) allow[a[i]] = 1 } \
		FNR == NR { pkgs[$$3] = 1; n = $$5; if ($$1 == "type") types[n] = 1; \
			if ($$1 ~ /^(func|type|const|var)$$/) known[$$3 "." n] = 1; \
			else { sub(/^\(\*/, "", n); sub(/\)\./, ".", n); known[n] = 1; known[$$3 "." n] = 1 } next } \
		FNR == 1 { check(); file = FILENAME; buf = ""; fence = 0 } \
		/^[ \t]*```/ { fence = !fence; buf = buf "\n"; next } \
		{ buf = buf (fence ? "" : $$0) "\n" } \
		END { check(); if (bad) exit 1 } \
		function check(   rest, line, c, tok, t, p, np, key, pre) { \
			rest = buf; line = 1; \
			while (match(rest, /`[^`]+`/)) { \
				pre = substr(rest, 1, RSTART - 1); line += gsub(/\n/, "", pre); \
				c = substr(rest, RSTART + 1, RLENGTH - 2); rest = substr(rest, RSTART + RLENGTH); line += gsub(/\n/, " ", c); \
				if (!match(c, /^(\(\*?[A-Za-z_][A-Za-z0-9_]*\)|[A-Za-z_][A-Za-z0-9_]*)(\.[A-Za-z_][A-Za-z0-9_]*)+/)) continue; \
				tok = substr(c, 1, RLENGTH); if (substr(c, RLENGTH + 1, 1) ~ /[\/-]/) continue; \
				t = tok; gsub(/[()*]/, "", t); np = split(t, p, "."); \
				if (p[np] ~ /^(go|md|json|jsonl|txt|sh|mod|sum|yml|yaml|out|log|pprof|prof|csv|html|svg|png)$$/) continue; \
				if (tok ~ /^\(/ || (!(p[1] in pkgs) && (p[1] in types))) key = p[1] "." p[2]; \
				else if (p[1] in pkgs) key = p[1] "." p[2] (np > 2 && (p[2] in types) ? "." p[3] : ""); \
				else if (p[1] in allow) continue; \
				else key = tok; \
				if (!(key in known)) { printf "%s:%d: %s is declared nowhere\n", file, line, tok; bad++ } } }' \
		$$d/decls $(DOCS)

test:
	$(GO) test ./...

# Tier-1 at every core count, uncached: the test cache does not key on
# GOMAXPROCS, so without -count=1 the second and third passes would replay
# the first.
test-matrix:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...

# Every package under the race detector, each once: the fault-tolerance
# packages uncached via race-fault, the rest cacheable.
race: race-fault
	$(GO) test -race $$($(GO) list ./... | grep -Ev '/internal/(comm|dsys|ckpt)(/|$$)')

# Fault-tolerance gate: the transport, BSP-runner and checkpoint suites
# (peer death, injected faults, shutdown mid-collective, the crash matrix
# and rejoin, doctor and top smokes) must pass under the race detector,
# uncached, on every check (DESIGN.md §4.2, §4.6).
race-fault:
	$(GO) test -race -count=1 ./internal/comm/... ./internal/dsys/... ./internal/ckpt/...

# Failure-report gate: the peer-death scenarios 20 more times under the race
# detector. Which peer a truncated frame comes from and the order in which
# the other hosts fail vary from run to run; the reported error must name
# the failed host every time (dsys.firstFailure).
race-peerdeath:
	$(GO) test -race -count=20 -run TestBSPPeerDeath ./internal/dsys/

# Survivability gate: the crash matrix (a rank killed at every round
# boundary and mid-sync of a 3-host pr run, restored from checkpoint, with
# results pinned byte-identical to the fault-free golden), the live TCP
# kill/replace rejoin, and the buffer-pool leak audit under injected faults
# — all under the race detector, uncached (DESIGN.md §4.6).
restore-gate:
	$(GO) test -race -count=1 -run 'TestCrashMatrix|TestRejoinTCP|TestRestoreRequiresCheckpointable|TestPoolBalanceUnderFaults' ./internal/dsys/
	$(GO) test -race -count=1 ./internal/ckpt/

# Soak: the concurrent packages (transport, sync pipeline, BSP runner,
# trace plane) under the race detector, in shuffled order, SOAK_COUNT times
# at each of 1, 2 and 4 cores, to shake out races that one pass at one width
# misses. Not part of `check`: it takes minutes (see CHANGES.md for a
# recorded wall time).
SOAK_COUNT ?= 10

soak:
	$(GO) test -race -shuffle=on -count=$(SOAK_COUNT) -cpu 1,2,4 ./internal/comm/ ./internal/gluon/ ./internal/dsys/ ./internal/trace/

# The microbenchmarks straight from go test: the sync hot path end to end
# on the fixture behind BENCH_sync.json (BenchmarkSyncHotPath*, in
# internal/bench), its two per-value loops in ns/value
# (BenchmarkSyncHotPathValues: encode and fold, dense and bfs-shaped), the
# pagerank operator in ns/edge (BenchmarkPRGather), and the rmat and
# webcrawl generators in ns/edge (BenchmarkRMAT, BenchmarkWebcrawl).
bench:
	$(GO) test -run=NONE -bench=SyncHotPath -benchmem ./internal/bench/ ./internal/gluon/
	$(GO) test -run=NONE -bench=PRGather ./internal/algorithms/pr/
	$(GO) test -run=NONE -bench='RMAT|Webcrawl' ./internal/generate/

# The repository's end-to-end benchmark (BENCHMARK.json, benchmark/README.md):
# four workloads, setup_s and run_s untraced plus the per-layer traced run.
# benchmark/ is a Go module of its own, so neither `build` nor `test` above
# reaches it. Takes ~15 minutes.
bench-e2e:
	bash benchmark/run.sh

# The benchmark's unit tests and its -quick smoke run of all four workloads
# at toy scale (< 10 s): proves every API the benchmark calls still works.
bench-e2e-quick:
	$(GO) test -C benchmark ./...

# Run the sync microbenchmark at the pinned parameters and append it to the
# perfdb history (no snapshot write; use bench-pin to refresh BENCH_sync.json).
# GOMAXPROCS=1 here, in bench-pin and in trace-guard: the three must agree,
# because the width is part of the machine fingerprint and allocs/op is only
# gated against a pin taken at the guard's width.
sync-bench:
	GOMAXPROCS=1 $(GO) run ./cmd/gluon-bench -sync-record -perfdb BENCH_history.jsonl -scale 12 -edgefactor 8 -seed 7

# Re-pin the BENCH_sync.json baseline in one step: take a fresh measurement
# into the perfdb history, then write the newest sync-bench record for this
# machine out as the baseline, unchanged (DESIGN.md §4.9).
bench-pin: sync-bench
	GOMAXPROCS=1 $(GO) run ./cmd/gluon-perf -db BENCH_history.jsonl -pin BENCH_sync.json

# Hot-path guard: the untraced sync hot path must stay within 10% (plus
# capped noise) of the BENCH_sync.json baseline, in two tiers: the
# optimized wire format (auto) against the unopt one. The traced states are
# measured by BenchmarkSyncHotPathTrace and gated by nothing (DESIGN.md
# §4.3). The gate is the
# self-calibrating opt/unopt RATIO (DESIGN.md §4.9): machine speed cancels,
# so an unmodified checkout passes on any machine without re-pinning.
# allocs/op must never regress either, but the count depends on the
# scheduler width, so it is only held against a pin taken at the same
# GOMAXPROCS — hence GOMAXPROCS=1 here, the width bench-pin pins at. Each
# run appends its measurement to a scratch history, so a check leaves the
# tree as it found it; `make sync-bench` records into BENCH_history.jsonl.
trace-guard:
	GOMAXPROCS=1 $(GO) run ./cmd/gluon-bench -sync-guard BENCH_sync.json -perfdb /tmp/gluon-trace-guard.jsonl -scale 12 -edgefactor 8 -seed 7

# Trend smoke gate: build a short throwaway history at a small scale and run
# the gluon-perf regression check over it — proves the record → history →
# trend-analysis path end to end on every check. The lenient tolerance keeps
# this a plumbing gate, not a perf gate (trace-guard is the perf gate).
perf-trend:
	@rm -f /tmp/gluon-perf-trend.jsonl
	$(GO) run ./cmd/gluon-bench -sync-record -perfdb /tmp/gluon-perf-trend.jsonl -scale 10 -edgefactor 8 -seed 7 -sync-tiers auto,unopt -sync-hosts 2
	$(GO) run ./cmd/gluon-bench -sync-record -perfdb /tmp/gluon-perf-trend.jsonl -scale 10 -edgefactor 8 -seed 7 -sync-tiers auto,unopt -sync-hosts 2
	$(GO) run ./cmd/gluon-perf -db /tmp/gluon-perf-trend.jsonl -check -tol 0.5

# Trend tables over the committed history, grouped by machine fingerprint.
perf:
	$(GO) run ./cmd/gluon-perf -db BENCH_history.jsonl

# Watchdog smoke: a host deliberately stalled with FaultTransport delay
# injection must be named — host ID and phase — by the watchdog and
# escalated into a typed cluster failure before the BSP deadline fires
# (DESIGN.md §4.4); `gluon-trace top` shows the same heartbeats live.
watchdog-smoke:
	$(GO) test -count=1 -run 'TestWatchdog' ./internal/dsys/ ./internal/trace/

# Doctor smoke: a fault-injected 3-host run with the flight recorder armed
# must leave postmortem bundles that diagnose (the `gluon-trace doctor`
# library path) into the killed rank, the trigger, and the round — under the
# race detector (DESIGN.md §4.7).
doctor-smoke:
	$(GO) test -race -count=1 -run 'TestDoctorSmoke' ./internal/dsys/

# Top smoke: a traced in-process cluster shipped over the sideband with a
# programmatic viewer polling it (the `gluon-trace top` path) must observe
# nonzero round progress and emit a critical-path verdict, under the race
# detector (DESIGN.md §4.8).
top-smoke:
	$(GO) test -race -count=1 -run 'TestTopSmoke' ./internal/dsys/

# Trace smoke: record a 4-host BFS run, then run both analyzer views over the
# export — proves the end-to-end trace path (emit, export, parse, the one
# fold, tables and critical-path attribution).
trace-smoke:
	$(GO) run ./cmd/gluon-run -bench bfs -hosts 4 -scale 10 -edgefactor 8 -trace /tmp/gluon-trace-smoke.json
	$(GO) run ./cmd/gluon-trace tables /tmp/gluon-trace-smoke.json
	$(GO) run ./cmd/gluon-trace critical /tmp/gluon-trace-smoke.json

# Fuzz smoke: ten seconds on each decoder that reads bytes from a peer or a
# file, plus the fold those bytes end up in. Not part of `check`: fuzzing
# never finishes, it only stops. (-fuzzminimizetime keeps a new input from
# stalling the run at "0/sec" while it is minimized.)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeBody -fuzztime 10s -fuzzminimizetime 1s ./internal/gluon/
	$(GO) test -run '^$$' -fuzz FuzzMemo -fuzztime 10s -fuzzminimizetime 1s ./internal/gluon/
	$(GO) test -run '^$$' -fuzz FuzzReadLoop -fuzztime 10s -fuzzminimizetime 1s ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzOperand -fuzztime 10s -fuzzminimizetime 1s ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzRejoinFrame -fuzztime 10s -fuzzminimizetime 1s ./internal/comm/
	$(GO) test -run '^$$' -fuzz FuzzHeartbeat -fuzztime 10s -fuzzminimizetime 1s ./internal/dsys/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s -fuzzminimizetime 1s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReadEvents -fuzztime 10s -fuzzminimizetime 1s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzRollupAdd -fuzztime 10s -fuzzminimizetime 1s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzBundle -fuzztime 10s -fuzzminimizetime 1s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/ckpt/
	$(GO) test -run '^$$' -fuzz FuzzReadPartition -fuzztime 10s -fuzzminimizetime 1s ./internal/gio/
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime 10s -fuzzminimizetime 1s ./internal/perfdb/
