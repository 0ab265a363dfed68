# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make lint test` locally matches a green build.

GO ?= go

.PHONY: all build lint test race fuzz bench bench-quick bench-smoke bench-full fault-smoke cache-smoke serve-smoke trace-smoke

all: build lint test

build:
	$(GO) build ./...

# lint = the standard vet pass plus aqualint, the repo's own analyzer
# suite: the per-package determinism and numeric-comparison rules plus
# the module-wide detertaint / keycoverage / guardedby analyzers (see
# cmd/aqualint -list). The lint framework's own tests run under -race
# because module analyses share a loader across goroutine-using tests.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/aqualint ./...
	$(GO) test -race ./internal/lint/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz smoke against the AQUA engine's structural invariants and
# the v1 binary trace reader (the on-disk format tracedump reads).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCore -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzBinaryReader -fuzztime=10s ./internal/trace

# Full benchmark sweep (64ms window, 34 workloads). Knobs:
#   REPRO_BENCH_WINDOW_MS=4 REPRO_BENCH_WORKLOADS=spec  quick mode
#   REPRO_BENCH_PAR=N                                   parallelism (0 = cores)
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -timeout 0 .

# Quick benchmark for contributors: 4ms window, 18 SPEC workloads — same
# harness, minutes instead of hours.
bench-quick:
	REPRO_BENCH_WINDOW_MS=4 REPRO_BENCH_WORKLOADS=spec $(GO) test -run='^$$' -bench=. -benchtime=1x -timeout 0 .

# CI smoke over the hot-path measurement layer: one iteration of each
# internal/perf microbenchmark plus the zero-allocation budget tests.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/perf
	$(GO) test -run='ZeroAlloc' ./internal/perf ./internal/dram

# Full-cell wall-clock budget: one complete 64ms refresh-window cell (the
# unit every figure grid decomposes into) must finish inside the budget
# (default 750ms; REPRO_BENCH_FULL_BUDGET_MS to adjust per host — CI uses 2000ms).
bench-full:
	REPRO_BENCH_FULL=1 $(GO) test -run='^TestFullWindowCellBudget$$' -count=1 -v -timeout 600s .

# Result-cache smoke (see DESIGN.md "Result cache & incremental
# recomputation"): the bench-quick grid configuration runs twice against
# a fresh cache directory. The second run must take cache hits, finish
# faster, and emit byte-identical figures. Then the resume leg: a run
# that loses xz/rrs/1000 to an injected panic exits 1 with partial
# results in a second directory, and a fault-free rerun over that
# directory must emit the cold run's bytes while simulating exactly one
# cell, the lost one.
cache-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	echo "--- cold run into $$dir"; \
	t0=$$(date +%s%N); \
	$(GO) run ./cmd/figures -workloads spec -window 4 -figure 7 -cache-dir "$$dir" \
		>"$$dir/cold.out" 2>"$$dir/cold.err" || { cat "$$dir/cold.err"; echo "FAIL: cold run"; exit 1; }; \
	t1=$$(date +%s%N); \
	echo "--- warm run from the same directory"; \
	$(GO) run ./cmd/figures -workloads spec -window 4 -figure 7 -cache-dir "$$dir" \
		>"$$dir/warm.out" 2>"$$dir/warm.err" || { cat "$$dir/warm.err"; echo "FAIL: warm run"; exit 1; }; \
	t2=$$(date +%s%N); \
	cold_ms=$$(( (t1 - t0) / 1000000 )); warm_ms=$$(( (t2 - t1) / 1000000 )); \
	echo "cold $${cold_ms}ms, warm $${warm_ms}ms"; \
	grep -o 'cell cache: [0-9]* hits.*' "$$dir/warm.err"; \
	grep -q 'cell cache: [1-9][0-9]* hits' "$$dir/warm.err" || { echo "FAIL: warm run took no cache hits"; exit 1; }; \
	cmp -s "$$dir/cold.out" "$$dir/warm.out" || { echo "FAIL: warm output differs from cold"; exit 1; }; \
	test "$$warm_ms" -lt "$$cold_ms" || { echo "FAIL: warm run not faster ($${warm_ms}ms vs $${cold_ms}ms)"; exit 1; }; \
	echo "--- resume: a run losing xz/rrs/1000 to a panic, then a fault-free rerun"; \
	$(GO) run ./cmd/figures -workloads spec -window 4 -figure 7 -cache-dir "$$dir/resume" \
		-faults 'xz/rrs/1000=panic@p:1' >"$$dir/faulted.out" 2>"$$dir/faulted.err"; code=$$?; \
	test $$code -eq 1 || { cat "$$dir/faulted.err"; echo "FAIL: faulted run exited $$code, want 1"; exit 1; }; \
	grep -q 'xz/rrs/1000' "$$dir/faulted.out" || { echo "FAIL: faulted run did not name the lost cell"; exit 1; }; \
	$(GO) run ./cmd/figures -workloads spec -window 4 -figure 7 -cache-dir "$$dir/resume" \
		>"$$dir/resumed.out" 2>"$$dir/resumed.err" || { cat "$$dir/resumed.err"; echo "FAIL: resumed run"; exit 1; }; \
	grep -o 'cell cache: .*' "$$dir/resumed.err"; \
	grep -q 'cell cache: [0-9]* hits, [0-9]* misses, [0-9]* deduped, 1 simulated' "$$dir/resumed.err" \
		|| { echo "FAIL: resumed run did not simulate exactly the lost cell"; exit 1; }; \
	cmp -s "$$dir/cold.out" "$$dir/resumed.out" || { echo "FAIL: resumed output differs from cold"; exit 1; }; \
	echo "cache-smoke OK"

# Trace capture/replay smoke (see DESIGN.md "Trace capture & replay"):
# the bench-quick grid runs once with the stream-replay tier on (the
# default) and once with -no-trace-replay (full synthesis every cell).
# The figures must be byte-identical — the replay-vs-generate
# equivalence gate — and the replay run must report capture/replay
# activity on stderr while the disabled run reports none.
trace-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	echo "--- replay on (capture once, replay every later cell)"; \
	$(GO) run ./cmd/figures -workloads spec -window 4 -figure 7 \
		>"$$dir/replay.out" 2>"$$dir/replay.err" || { cat "$$dir/replay.err"; echo "FAIL: replay run"; exit 1; }; \
	echo "--- replay off (-no-trace-replay, synthesis in every cell)"; \
	$(GO) run ./cmd/figures -workloads spec -window 4 -figure 7 -no-trace-replay \
		>"$$dir/gen.out" 2>"$$dir/gen.err" || { cat "$$dir/gen.err"; echo "FAIL: generation run"; exit 1; }; \
	grep -o 'trace tier: .*' "$$dir/replay.err"; \
	grep -q 'trace tier: [1-9][0-9]* streams captured, [1-9][0-9]* replayed' "$$dir/replay.err" \
		|| { echo "FAIL: replay run recorded no captures/replays"; exit 1; }; \
	if grep -q 'trace tier:' "$$dir/gen.err"; then echo "FAIL: -no-trace-replay still used the trace tier"; exit 1; fi; \
	cmp -s "$$dir/replay.out" "$$dir/gen.out" || { echo "FAIL: replayed figures differ from generated"; exit 1; }; \
	echo "trace-smoke OK"

# Experiment-service smoke (see DESIGN.md "Service architecture &
# failure domains"): two end-to-end acceptance scenarios against real
# aquaserve processes.
#   overload — concurrent duplicate golden-grid jobs against a
#     deliberately tiny queue: submissions shed with 429 + Retry-After,
#     clients retry with seeded backoff, and every completed job's output
#     is byte-identical to testdata/lab_golden.txt.
#   chaos — server A SIGKILLs itself mid-grid; server B on the same
#     cache directory must finish the duplicate job byte-identically,
#     serving exactly the entries A left from the cache (one hit each)
#     and simulating the rest, the cell A died on included.
serve-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/aquaserve" ./cmd/aquaserve || exit 1; \
	$(GO) build -o "$$dir/aquaload" ./cmd/aquaload || exit 1; \
	echo "--- overload: duplicate grids vs a full queue (429 + seeded-backoff retry)"; \
	"$$dir/aquaload" -mode load -serve-bin "$$dir/aquaserve" -golden testdata/lab_golden.txt \
		-n 40 -c 16 -expect-shed || { echo "FAIL: load smoke"; exit 1; }; \
	echo "--- chaos: SIGKILL a worker mid-grid, recover via exact cache handoff"; \
	"$$dir/aquaload" -mode chaos -serve-bin "$$dir/aquaserve" -golden testdata/lab_golden.txt \
		|| { echo "FAIL: chaos smoke"; exit 1; }; \
	echo "serve-smoke OK"

# Fault-matrix smoke (see DESIGN.md "Failure model & graceful
# degradation"): an injected panicking cell must not abort the run — the
# process finishes, names the cell in the failure summary, and exits 1 —
# and an injected RQA overflow must degrade to the victim-refresh
# fallback and be reported, not crash.
fault-smoke:
	@echo "--- panic cell: run completes, reports the cell, exits non-zero"
	@out=$$($(GO) run ./cmd/figures -workloads spec -window 1 -j 4 -figure 7 \
		-faults 'xz/rrs/1000=panic@once:0' 2>&1); code=$$?; \
	echo "$$out" | tail -6; \
	test $$code -ne 0 || { echo "FAIL: expected non-zero exit"; exit 1; }; \
	echo "$$out" | grep -q 'Failure summary' || { echo "FAIL: no failure summary"; exit 1; }; \
	echo "$$out" | grep -q 'xz/rrs/1000' || { echo "FAIL: failed cell not named"; exit 1; }
	@echo "--- rqa-overflow cell: run completes and reports the degraded mitigation"
	@out=$$($(GO) run ./cmd/aquasim -workload lbm -scheme aqua-memmapped -trh 125 -window 1 \
		-faults 'lbm/aqua-memmapped/125=rqa-overflow@p:1' 2>&1) || { echo "$$out"; echo "FAIL: aquasim exited non-zero"; exit 1; }; \
	echo "$$out" | grep 'faults injected'; \
	echo "$$out" | grep -q 'overflow fallbacks' || { echo "FAIL: overflow fallback not reported"; exit 1; }
	@echo "fault-smoke OK"
