# Development entry points. `make check` is the tier-1 gate plus vet, the
# race detector (the obs registry and middleware must stay clean under
# it) and the spartanvet lint suite (see docs/DEVELOPMENT.md).

GO ?= go

.PHONY: check vet lint build test race bench-json benchdiff bin

check: vet build race lint

vet:
	$(GO) vet ./...

# The lint tool is a real file target: it only rebuilds when its sources
# (the driver, the analysis framework, or any analyzer — fixtures under
# testdata excluded) change, so a no-op `make lint` skips the tool build.
SPARTANVET_SRCS := $(shell find cmd/spartanvet internal/analysis -name '*.go' -not -path '*/testdata/*') go.mod

bin/spartanvet: $(SPARTANVET_SRCS)
	$(GO) build -o $@ ./cmd/spartanvet

# lint runs the project's domain-aware analyzers (internal/analysis)
# over every package, test files included; any finding fails the target.
lint: bin/spartanvet
	./bin/spartanvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-json runs benchmark/ on every BENCHMARK.json workload (seeds 1-3
# plus one traced run, about 8.5 minutes) into the next BENCH_<n>.json;
# benchdiff gates NEW against OLD by the BENCHMARK.json bounds. See
# docs/OBSERVABILITY.md for the schema and the before/after workflow.
bench-json:
	$(GO) run ./cmd/spartanbench record

# OLD defaults to the newest snapshot committed to git (the recorded
# baseline), so `make benchdiff NEW=BENCH_6.json` gates against the
# trajectory without spelling out which point.
OLD ?= $(shell git ls-files 'BENCH_*.json' | sort -V | tail -1)
benchdiff:
	$(GO) run ./cmd/spartanbench diff $(OLD) $(NEW)

bin:
	$(GO) build -o bin/ ./cmd/...
