GO ?= go

.PHONY: all build loc lint vet test race torture bench bench-recovery serve-smoke clean

all: build lint test

build:
	$(GO) build ./...

# loc = non-test Go lines per package and for the root module (benchmark/,
# its own module, excluded): the number ROADMAP tracks and expects to fall.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' -not -path '*/testdata/*' -exec wc -l {} + \
		| awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d root module\n", t }'

# lint = the compiler's vet plus DeNOVA's own analyzers (persistcheck,
# atomcheck, fencecheck, lockcheck, atomfieldcheck — see internal/analysis).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/denova-vet ./...

# vet = the same analyzers, but emitting the machine-readable report CI
# uploads as an artifact. Exit 1 on any non-baseline finding (the tree
# carries no baseline: it must stay clean).
vet:
	$(GO) run ./cmd/denova-vet -json ./... > vet-findings.json; st=$$?; cat vet-findings.json; exit $$st

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# torture = the parallel-dedup concurrency gates: the writer/worker/GC
# torture test and all crash sweeps under the race detector, plus the
# worker-scaling and recovery no-regression smokes.
torture:
	$(GO) test -race -run 'Torture|Crash' -count=2 ./internal/...
	$(GO) test -run TestWorkerScalingSmoke -v ./internal/harness/
	$(GO) test -run 'TestRecoverySmoke|TestRecoveryScalingSmoke' -v ./internal/harness/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-recovery = mount-time recovery latency across worker-pool sizes
# on a multi-thousand-file dirty image.
bench-recovery:
	$(GO) test -bench BenchmarkRecovery -benchtime 1x -run '^$$' .

# serve-smoke = the network serving layer's end-to-end gate: start
# denova-serve on an ephemeral loopback port, replay a workload profile
# through the wire client (content oracle on every read), scrape /metrics
# for the serve.op.* latency histograms, and assert a clean shutdown —
# plus the loopback profile replays, and their agreement with the same
# replay in process, under the race detector.
serve-smoke:
	$(GO) test -race -run 'TestServeSmoke|TestServeImageRoundTrip' -v ./cmd/denova-serve/
	$(GO) test -race -run 'TestRunProfileOverServer' -v ./internal/harness/

clean:
	$(GO) clean ./...
