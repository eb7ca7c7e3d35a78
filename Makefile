# Convenience targets for the hybridwf reproduction.

GO ?= go

.PHONY: all build vet lint lint-report test test-short test-race bench bench-json bench-gate measure-smoke examples experiments soak soak-resume-smoke server server-smoke clean

all: build lint test

build:
	$(GO) build ./...

# go vet, then fail if any Go file is not gofmt-clean.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Static analysis: go vet plus the repo's own reprolint suite, which
# machine-checks the atomic-statement model (atomicaccess, ctxescape,
# simonly, exhaustive), the artifact replay-determinism contract
# (determinism), and the wait-freedom discipline (waitfreebound,
# statementcharge) — including //repro:allow and //repro:bound marker
# validation. Incremental: results are cached under .reprolint-cache/
# keyed by content hashes, so warm runs re-check only what changed. The
# repo must lint clean; see DESIGN.md §9 and §13.
lint: vet
	$(GO) run ./cmd/reprolint ./...

# CI form of the lint: GitHub annotations to the log, then (from the
# now-warm cache) the SARIF log and derived bounds report for artifact
# upload.
lint-report:
	$(GO) run ./cmd/reprolint -format=github ./...
	$(GO) run ./cmd/reprolint -format=sarif -o reprolint.sarif -bounds bounds.json ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Performance ledger: run the repository benchmark (python3
# perfbench/run.py) on every BENCHMARK.json workload, untraced and
# traced, at its run_seconds and seed 1, and write the figures with
# their conditions to BENCH_explore.json (schema v5, EXPERIMENTS.md
# "Bench trajectory"). About 4 minutes on a 2-CPU host.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_explore.json

# Regression gate: capture the same figures afresh and compare them
# with the committed BENCH_explore.json. Every exact figure must be
# equal; an end-to-end timing median may be worse only by its
# BENCHMARK.json bound plus the baseline's interquartile spread.
# Per-layer timing figures are printed, not gated.
bench-gate:
	$(GO) run ./cmd/benchjson -gate

# Measurement smoke (EXPERIMENTS.md E9): the wait-free consensus must
# measure within its Theorem 1 bound at every percentile with no
# starved invocations, and the blocking negative control must
# measurably starve, under the same seeded stochastic scheduler. The
# distribution JSONs land in ./measure for CI artifact upload.
measure-smoke:
	mkdir -p measure
	$(GO) run ./cmd/checker -alg fig3 -n 3 -q 2 -measure -replays 500 \
		-sched-model uniform:seed=1 -measure-out measure/unicons.json -assert-max-within 8
	$(GO) run ./cmd/checker -alg lockcounter -n 2 -v 2 -q 2 -max-steps 2000 -measure -replays 500 \
		-sched-model uniform:seed=1 -measure-out measure/lockcounter.json -assert-max-above 100

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/realtime
	$(GO) run ./examples/multicore
	$(GO) run ./examples/adversary

experiments:
	$(GO) run ./cmd/tracer
	$(GO) run ./cmd/scaling
	$(GO) run ./cmd/quantumsweep -p 2 -m 3 -v 1 -seeds 150

soak:
	$(GO) run ./cmd/soak -seconds 20

# Durability smoke: SIGKILL a durable soak mid-campaign, resume it, and
# assert the final summary matches an uninterrupted run (DESIGN.md §11).
soak-resume-smoke:
	sh scripts/soak_resume_smoke.sh

# Run the checker service locally (DESIGN.md §12, README "Running the
# farm"): REST API on :8080, persistent store in ./farm.
server:
	$(GO) run ./cmd/server -store farm

# Service smoke: boot cmd/server, drive the REST API with curl (check
# job, violating soak, artifact fetch), SIGTERM, require a clean
# graceful shutdown.
server-smoke:
	sh scripts/server_smoke.sh

clean:
	$(GO) clean ./...
