# Tier-1 verify is `make build test`; `make check` is the tier-2
# pre-merge gate (vet + dtnlint + race + fuzz corpora, see
# scripts/check.sh and DESIGN.md "Determinism contract").

GO ?= go
CMDS := dtnsim nclstat experiments tracegen dtnlint benchjson obsdump dtnserved dtnload

.PHONY: build test check smoke serve-smoke crash-smoke fuzz lint lint-fix-check bench bench-compare clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) run ./cmd/dtnlint -tests ./...

# Stale-suppression sweep: fail when a //lint:allow directive no longer
# suppresses anything, so fixed violations shed their annotations.
lint-fix-check:
	$(GO) run ./cmd/dtnlint -tests -stale-allows ./...

check:
	./scripts/check.sh

# CI-style smoke: every cmd/ binary must build and serve its --help.
smoke:
	@mkdir -p bin
	@for c in $(CMDS); do \
		$(GO) build -o bin/$$c ./cmd/$$c || exit 1; \
		./bin/$$c --help >/dev/null 2>&1 || { echo "smoke: $$c --help failed"; exit 1; }; \
		echo "smoke: $$c ok"; \
	done

# End-to-end service gate: dtnserved on an ephemeral port driven by
# dtnload — live publish/query with exact /metrics bookkeeping, then a
# batch replay whose /report must byte-match dtnsim -report-json.
serve-smoke:
	./scripts/serve_smoke.sh

# Durability gate: kill -9 a WAL-journaling dtnserved mid-load, restart
# it from the log, and require byte-identical /report + /v1/status
# against an uninterrupted run; plus the overload-shedding cell.
crash-smoke:
	./scripts/crash_smoke.sh

# The full benchmark suite, shared by bench and bench-compare: the
# pooled event-loop microbenchmarks and the city-scale streaming replay
# with its peak-RSS gate (internal/sim), the end-to-end replay-bound
# single-scheme run (internal/experiment), the knowledge pipeline
# benches including the CSR city build (internal/knowledge), and the
# PR 2 comparison benches for continuity.
BENCH_CMDS = $(GO) test ./internal/sim -run '^$$' -bench Replay -benchmem; \
	$(GO) test ./internal/experiment -run '^$$' -bench Replay -benchtime 1x -benchmem; \
	$(GO) test ./internal/knowledge -run '^$$' -bench . -benchtime 2x -benchmem; \
	$(GO) test ./internal/experiment -run '^$$' -bench RunComparison -benchtime 1x -benchmem;

# City-scale benchmarks (PR 8): summarized into BENCH_pr8.json with
# per-benchmark speedups against the committed pre-optimization
# baseline (BENCH_pr8_baseline.json, measured at PR 7 HEAD).
bench:
	@{ $(BENCH_CMDS) } | $(GO) run ./cmd/benchjson -o BENCH_pr8.json \
	     -baseline BENCH_pr8_baseline.json \
	     -ratio run_comparison_speedup=RunComparisonIsolated/RunComparison
	@cat BENCH_pr8.json

# Regression gate: rerun the suite and fail when any benchmark shared
# with $(BASELINE) falls below $(REGRESS_BELOW)x its baseline speed.
# The default baseline is the committed post-optimization BENCH_pr8.json,
# so the PR 8 wins (ReplayContacts' session pooling, the CSR knowledge
# build) stay pinned: undoing either slows its benchmark far more than
# 2x and trips the gate. Committed BENCH files were measured on other
# machines, so the 0.5x threshold only catches gross slowdowns, not
# measurement noise.
BASELINE ?= BENCH_pr8.json
REGRESS_BELOW ?= 0.5
bench-compare:
	@{ $(BENCH_CMDS) } | $(GO) run ./cmd/benchjson -o BENCH_compare.json \
	     -baseline $(BASELINE) -regress-below $(REGRESS_BELOW)
	@cat BENCH_compare.json

fuzz:
	CHECK_FUZZ_TIME=$${CHECK_FUZZ_TIME:-30s} ./scripts/check.sh

clean:
	rm -rf bin
