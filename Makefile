# Convenience targets; everything is plain `go` underneath (no deps).

.PHONY: build test test-race vet vet-strict lint lint-sarif lint-fixtures bench bench-check cover experiments experiments-quick verify-resume verify-dist verify-graphiod verify-identical examples fmt

build:
	go build ./...

vet:
	go vet ./...

# Repo-specific invariants (durability, cancellation, float comparisons,
# typed errors, clock injection, metric naming, error handling) enforced by
# the stdlib-only analyzer in internal/lint. Non-zero exit on any finding;
# suppress individual lines with `//lint:ignore <rule> <reason>`.
lint:
	go run ./cmd/graphiolint ./...

# The same gate, also writing a SARIF 2.1.0 log for code-scanning uploads
# (the CI lint job attaches lint.sarif as a build artifact).
lint-sarif:
	go run ./cmd/graphiolint -format sarif -o lint.sarif ./...

# The analyzer's own test suite: `// want` hit/clean fixtures per rule,
# call-graph unit tests, SARIF golden, baseline round-trip, directives.
lint-fixtures:
	go test -timeout 10m ./internal/lint/

# The strictest static gate the repo has (used by the CI lint job):
# gofmt cleanliness, the full vet suite, then the repo's own analyzer.
vet-strict:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/graphiolint ./...

test:
	go vet ./...
	go test ./...

test-race:
	go test -race ./...

cover:
	go test -cover ./internal/...

bench:
	go test -bench=. -benchmem -benchtime=1x .

experiments:
	go run ./cmd/experiments -profile default -out results

experiments-quick:
	go run ./cmd/experiments -profile quick

# Crash-consistency gate: short sweep, SIGKILL between experiment commits,
# resume, require byte-identical artifacts versus an uninterrupted run.
verify-resume:
	sh scripts/verify_resume.sh

# Distributed chaos gate: coordinator + three workers (one SIGKILLed
# mid-shard, one stalled past lease expiry), coordinator SIGKILLed and
# restarted with -resume; the merged artifacts must be byte-identical to
# a single-process sweep and the manifest must still resume cleanly.
verify-dist:
	sh scripts/verify_dist.sh

# Daemon chaos gate: graphiod SIGKILLed with jobs in flight, restarted on
# the same data dir; the WAL replay must finish every accepted job, a
# resubmission must be a byte-identical cache hit, an unmeetable deadline
# must fail typed while siblings complete, and SIGTERM must drain cleanly.
verify-graphiod:
	sh scripts/verify_graphiod.sh

# Cross-commit output gate: build cmd/experiments and cmd/graphiod at BASE
# and from the working tree; a quick sweep's report.txt and CSVs (fig11's
# wall-clock columns masked) and the daemon artifacts must be identical.
# `make verify-identical BASE=origin/main`; BASE defaults to HEAD.
BASE ?= HEAD
verify-identical:
	sh scripts/verify_identical.sh $(BASE)

# Same-host benchmark gate: perfbench in alternating pairs, BASE's program
# against the working tree's, every BENCHMARK.json workload gated on its
# end-to-end bounds; a traced pair names the layer that moved (~10 min).
bench-check:
	sh scripts/bench_pair.sh $(BASE)

examples:
	go run ./examples/quickstart
	go run ./examples/fft -max-l 9
	go run ./examples/tsp -cities 10
	go run ./examples/tracer -size 48
	go run ./examples/parallel
	go run ./examples/hierarchy -graph-level 7

fmt:
	gofmt -w .
