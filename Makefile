# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet bench bench-smoke bench-allocs bench-nsinstr bench-check exp race cover fuzz golden golden-wchar serve serve-smoke jobs-smoke diff-smoke cluster-smoke zwork-smoke staticcheck

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test: vet
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem .

# Fast CI benchmark smoke: the packed-replay headline and the Table 1
# capacity sweep, one iteration each — catches crashes and gross
# regressions without a long benchmark run.
bench-smoke:
	go test -run '^$$' -bench 'PackedReplay|Table1' -benchtime 1x -benchmem .

# Fail if the capacity-sweep allocs/op exceeds the checked-in ceiling
# (scripts/bench_allocs_ceiling.txt).
bench-allocs:
	sh scripts/bench_allocs.sh

# Fail if packed-replay ns/instr exceeds the checked-in ceiling
# (scripts/bench_nsinstr_ceiling.txt) or the drain allocates.
bench-nsinstr:
	sh scripts/bench_nsinstr.sh

# Vet and self-test the benchmark (perfbench/, its own module), which
# the root `go build ./...` never compiles: a change that removes a
# name perfbench uses fails here instead of only when the benchmark
# runs. Wired into CI.
bench-check:
	cd perfbench && go vet . && go test .

exp:
	go run ./cmd/zexp -scale 2000000

cover:
	go test -coverprofile=cover.out ./... && go tool cover -func=cover.out | tail -1

# 30s smoke per fuzz target, same as CI.
fuzz:
	go test ./internal/trace -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 30s
	go test ./internal/trace -run '^$$' -fuzz '^FuzzRecordRoundTrip$$' -fuzztime 30s
	go test ./internal/trace -run '^$$' -fuzz '^FuzzIngest$$' -fuzztime 30s
	go test ./internal/equiv -run '^$$' -fuzz '^FuzzEquivCell$$' -fuzztime 30s
	go test ./internal/server -run '^$$' -fuzz '^FuzzFrontendDecode$$' -fuzztime 30s

# Differential equivalence harness smoke: a small clean grid must show
# zero divergences, and a perturbed cell must be detected.
diff-smoke:
	go run ./cmd/zdiff -scale 4000 -configs z15,zEC12 -workloads lspr-small,callret,indirect,patterned
	go run ./cmd/zdiff -scale 4000 -configs z15 -workloads patterned -perturb

# Refresh the golden stats snapshots after an intentional model change.
golden:
	go test ./internal/sim -run Golden -update

# Refresh the golden characterization sidecars after an intentional
# generator or characterization change.
golden-wchar:
	go test ./internal/wchar -run Golden -update

# Run the simulation service locally.
serve:
	go run ./cmd/zbpd

# Boot zbpd, run one simulate request, check /healthz and /metrics,
# and require a clean SIGTERM drain. Wired into CI.
serve-smoke:
	sh scripts/serve_smoke.sh

# Async job API smoke: submit/poll/stream a sweep job against a
# persistent result cache, prove an identical resubmission simulates
# nothing, then SIGTERM with a job running. Wired into CI.
jobs-smoke:
	sh scripts/jobs_smoke.sh

# Cluster mode smoke: coordinator + 2 backends, the same sweep twice
# (the repeat must be fully coordinator-cache-served: zero backend
# dispatches), a backend registered and one deregistered at runtime
# via zbpctl backends, and a clean SIGTERM fleet drain. Wired into CI.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# External-trace pipeline smoke: generate -> export -> re-ingest ->
# characterize -> simulate (zsim and zbpd -trace-dir), requiring a
# lossless conversion round trip and identical local/served stats.
# Wired into CI.
zwork-smoke:
	sh scripts/zwork_smoke.sh

# Static analysis beyond go vet; staticcheck is installed on demand in
# CI (go run pins the version without touching go.mod).
staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...
