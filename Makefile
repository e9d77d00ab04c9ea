# Developer entry points. `make check` is the tier-1 gate plus the gofmt
# check and the race detector (the scheduler/server subsystem is
# concurrent; keep it clean).

GO ?= go

# Profile-guided optimization: when the committed profile exists, build
# every binary with it. Regenerate with `make pgo` after hot-path changes.
PGOFILE := default.pgo
GOFLAGS_PGO := $(if $(wildcard $(PGOFILE)),-pgo=$(abspath $(PGOFILE)),)

.PHONY: all fmt build test vet race check cover bench bench-json pgo report daemon loc clean

all: check

build:
	$(GO) build $(GOFLAGS_PGO) ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fmt fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

check: fmt build vet test race

# cover gates the observability layer at >= 80% statement coverage: it is
# the one subsystem whose breakage (a silent scrape regression) tests
# elsewhere would not catch.
cover:
	$(GO) test -coverprofile=cover.out ./internal/obs/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/obs coverage: $$total%"; \
	awk "BEGIN {exit !($$total >= 80.0)}" || { echo "FAIL: internal/obs coverage $$total% < 80%"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json appends the next BENCH_<n>.json performance report at the
# repo root and prints regressions against the previous one.
bench-json:
	$(GO) run $(GOFLAGS_PGO) ./cmd/avfbench

# pgo regenerates the committed PGO profile from a standard avfreport
# run (fig3 exercises the full fused pipeline+softarch+estimator path).
pgo:
	$(GO) run ./cmd/avfreport -scale quick -seed 1 -parallel 1 -only fig3 -cpuprofile $(PGOFILE) >/dev/null
	@echo "wrote $(PGOFILE)"

report:
	$(GO) run ./cmd/avfreport

daemon:
	$(GO) run ./cmd/avfd

# loc prints the non-test and test Go lines of every package and in
# total — the size figure each change reports. The separate perfbench
# module and hidden directories (.git, .bench_build) are left out.
loc:
	@find . -name '*.go' -not -path './perfbench/*' -not -path './.*' | sort | xargs awk ' \
		FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$$/, "", dir); sub(/^\.\/?/, "", dir); \
			if (dir == "") dir = "."; test = FILENAME ~ /_test\.go$$/; \
			if (!(dir in c)) { names[++n] = dir; c[dir] = 0; t[dir] = 0 } } \
		{ if (test) { t[dir]++; tt++ } else { c[dir]++; ct++ } } \
		END { printf "%-22s %9s %6s\n", "package", "non-test", "test"; \
			for (i = 1; i <= n; i++) printf "%-22s %9d %6d\n", names[i], c[names[i]], t[names[i]]; \
			printf "%-22s %9d %6d\n", "total", ct, tt }'

clean:
	$(GO) clean ./...
