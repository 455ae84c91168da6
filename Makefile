# Development entry points. `make check` is the tier-1 gate plus vet, the
# race detector (the obs registry and middleware must stay clean under
# it) and the spartanvet lint suite (see docs/DEVELOPMENT.md).

GO ?= go

.PHONY: check vet lint build test race bench bench-json benchdiff bin sarif

check: vet build race lint

vet:
	$(GO) vet ./...

# The lint tool is a real file target: it only rebuilds when its sources
# (the driver, the analysis framework, or any analyzer — fixtures under
# testdata excluded) change, so a no-op `make lint` costs one `go vet`
# cache probe instead of a full tool build.
SPARTANVET_SRCS := $(shell find cmd/spartanvet internal/analysis -name '*.go' -not -path '*/testdata/*') go.mod

bin/spartanvet: $(SPARTANVET_SRCS)
	$(GO) build -o $@ ./cmd/spartanvet

# lint runs the project's domain-aware analyzers (internal/analysis)
# through the standard vet driver; any finding fails the target.
lint: bin/spartanvet
	$(GO) vet -vettool=$(CURDIR)/bin/spartanvet ./...

# sarif aggregates the whole module into one SARIF 2.1.0 log for GitHub
# code scanning; it reports rather than gates (exit 0 on findings), but
# the emitted log must pass the strict validator before anyone uploads
# it.
sarif: bin/spartanvet
	./bin/spartanvet -sarif ./... > spartanvet.sarif
	./bin/spartanvet -sarifvalidate spartanvet.sarif

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

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
