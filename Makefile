# Tier-1 gate (`make check`) plus developer conveniences.

GO ?= go

.PHONY: check fmt build vet test bench bench-quick race loc cover

check: fmt build vet test

# Fails, listing them, if any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark's correctness check as a gate (the CI bench-quick
# step): a short, ~1/20-size pass over three live workloads and the two
# simulated rungs. Every live output is compared with the closed-form
# reference; a simulated rep must lose no item and repeat the first
# rep's virtual time exactly. The run exits 1 on any difference; the
# numbers of a -quick run are not comparable.
bench-quick:
	bash benchmark/run.sh -quick -seconds 1 -workloads chain_light,chain_batched,open_poisson,sim_spike,cluster_stream

# Regenerate the paper's experiment tables (one testing.B per
# experiment; `pipebench -all` prints the same tables).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

race:
	$(GO) test -race ./...

# The never-run fence (the CI never-run job): reruns the suite with
# coverage merged across every test binary, rewrites
# testdata/uncovered.txt to the blocks no test ran (keeping each listed
# block's reason) and fails on a block the list did not hold or holds
# without a reason. Not part of check: it runs the suite a second time.
cover:
	@mkdir -p .cover
	$(GO) test -count=1 -coverpkg=./internal/...,. -coverprofile=.cover/merged.out ./...
	$(GO) test -count=1 -tags neverrun -run '^TestNeverRunFence$$' .

# Go line counts per package directory: non-test and _test.go lines,
# then the module totals. Informational; prints, never fails.
loc:
	@find . -name '*.go' -not -path './.*' -exec wc -l {} + | awk '\
		$$2 == "total" { next } \
		{ d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."; \
		  if ($$2 ~ /_test\.go$$/) { t[d] += $$1; tt += $$1 } else { s[d] += $$1; st += $$1 }; seen[d] = 1 } \
		END { for (d in seen) printf "%-32s %7d %7d\n", d, s[d], t[d] | "sort"; close("sort"); \
		      printf "%-32s %7d %7d\n", "total", st, tt }' | \
		{ printf '%-32s %7s %7s\n' package non-test test; cat; }
