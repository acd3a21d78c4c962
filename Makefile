.PHONY: test race bench bench-baseline cover lint fuzz torture soak loc perfsmoke

test:
	go build ./... && go test ./...

race:
	go test -race ./...

# Mirrors the CI crash- and fault-torture steps (keep the -run patterns in
# sync with .github/workflows/ci.yml): journaled crash/recovery at every
# boundary, then the transport fault-tolerance properties under race.
torture:
	go test -race -run 'TestCrashConsistency|TestRecover|TestCompressedDelivery|TestCompressionFig7' repro
	go test -race -run 'TestChaosRetry|TestPersistentFault|TestScrub|TestBackgroundScrubber|TestCrashDuringRetry' repro

# The self-healing chaos soak at full length (CI runs the short-mode variant
# inside the fault-torture step): background scrubber + fault plan +
# defragmentation + mid-soak crash recovery, converging to a state
# bit-identical to a fault-free twin, under race.
soak:
	go test -race -run 'TestChaosSoakSelfHealing|TestChaosSoakCompressed|TestScrubPreemptiveQuarantine|TestStallWatchdog|TestDegradedAdmission|TestCloseUnderLoad' repro

# The exact command the CI bench lane runs (keep the two in sync: the
# regression gate compares like against like).
BENCH_CMD = go test -run '^$$' -bench . -benchmem -benchtime=100ms -timeout 30m ./...

bench:
	$(BENCH_CMD)

# Mirrors the CI perfbench smoke step (keep the two in sync): one short run
# of every end-to-end workload. It fails when a workload's output checks
# (lock-step golden models, the Map() check, journal recovery) report
# correct: false.
perfsmoke:
	bash perfbench/run.sh --workload all --seed 1 --seconds 1

# Refresh the checked-in baseline after a PR that intentionally shifts
# performance. Run on an otherwise idle machine.
bench-baseline:
	$(BENCH_CMD) | tee bench.txt
	go run ./cmd/benchdiff parse bench.txt > BENCH_baseline.json
	rm -f bench.txt

# Mirrors the CI fuzz lane (keep the budgets in sync with
# .github/workflows/ci.yml): the checked-in seed corpus first as plain
# tests, then a budgeted fuzz of the facade-op driver and the journal
# scanner.
fuzz:
	go test -run 'Fuzz' repro repro/internal/journal repro/internal/bitstream
	go test -run '^$$' -fuzz 'FuzzFacadeOps' -fuzztime 60s -fuzzminimizetime 10s repro
	go test -run '^$$' -fuzz 'FuzzJournalScan' -fuzztime 30s -fuzzminimizetime 10s repro/internal/journal
	go test -run '^$$' -fuzz 'FuzzDeltaStream' -fuzztime 30s -fuzzminimizetime 10s repro/internal/bitstream

# Mirrors the CI lint lane; falls back to go vet when staticcheck is not on
# PATH (install: go install honnef.co/go/tools/cmd/staticcheck@2025.1.1).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found, running go vet (see Makefile for install)"; \
		go vet ./...; \
	fi

# Enforces the same 75% floor as the CI coverage lane (keep in sync with
# .github/workflows/ci.yml).
cover:
	go test -coverprofile=cover.out ./...
	@go tool cover -func=cover.out | tail -1
	@total=$$(go tool cover -func=cover.out | tail -1 | awk '{print substr($$3, 1, length($$3)-1)}'); \
	awk -v t="$$total" 'BEGIN { if (t + 0 < 75.0) { print "coverage " t "% is below the 75% floor"; exit 1 } }'

# Non-test and test Go line counts over the tracked files: the figure each
# change reports its net non-test LOC against (stage new files first).
loc:
	@echo "non-test $$(git ls-files '*.go' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "test     $$(git ls-files '*_test.go' | xargs cat | wc -l)"
