# Tier-1 gate (`make check`) plus developer conveniences.

GO ?= go

.PHONY: check build vet test bench bench-quick race

check: build vet test

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
