# Tier-1 verify gate (see ROADMAP.md): build, vet, full tests, then the
# executor and kernel-VM suites in shuffled order, then the race detector
# over the concurrent serving/execution paths, then the per-package
# coverage floors, then a randomized chaos replay with fault injection
# enabled.
.PHONY: verify build vet test shuffle race cover fuzz chaos soak

verify: build vet test shuffle race cover chaos

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# shuffle reruns the executor, kernel-VM, serving, RAL and fleet suites
# three times in random test order (a failing run prints its -test.shuffle
# seed), so a test that only passes after another one has warmed a pool or
# cache fails here.
shuffle:
	go test -shuffle=on -count=3 ./internal/exec ./internal/kir \
		./internal/serve ./internal/ral ./internal/fleet

# race includes a ~1s slice of the governance soak (TestSoakGovernedOverload);
# `make soak` runs the full 30s version.
race:
	go test -race ./internal/serve ./internal/exec ./internal/ral ./internal/workload \
		./internal/obs ./internal/opt ./internal/fusion ./internal/faultinject \
		./internal/enginecache ./internal/kir ./internal/fleet \
		./internal/graph ./internal/symshape .

# cover enforces per-package coverage floors on the serving/execution/
# observability core. Floors sit a few points under the measured value at
# the time they were set, so genuine regressions fail verify while small
# refactors don't. Raise a floor when coverage grows; never lower one to
# make a build pass.
cover:
	@fail=0; \
	for entry in internal/serve:85 internal/exec:85 internal/obs:92 internal/enginecache:72 internal/fleet:88 internal/kir:86 internal/ral:81 internal/graph:82 internal/codegen:57; do \
		pkg=$${entry%%:*}; floor=$${entry##*:}; \
		pct=$$(go test -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: $$pkg: no coverage reported"; fail=1; continue; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p+0 >= f+0) ? 1 : 0}'); \
		if [ "$$ok" = "1" ]; then echo "cover: $$pkg $$pct% (floor $$floor%)"; \
		else echo "cover: FAIL $$pkg $$pct% below floor $$floor%"; fail=1; fi; \
	done; exit $$fail

# fuzz runs the native fuzz targets (trace-file and fault-spec parsers,
# the engine-cache entry decoder, the two-way KIR differential generator —
# random kernel programs, interpreter vs bytecode VM, bit-exact — the
# engine image decoder, whose accepted images must re-encode stably and run
# every kernel program inside its frame (minimization is capped: images are
# tens of kilobytes and a time-bounded minimization stalls the run), the
# fleet's v2 HTTP infer-body decoder and tensor-data codec, both
# differentially against encoding/json, and the graph text parser a model
# repository reads from disk, whose accepted graphs must copy and re-parse
# to the same text, and parse to the same text again when rewritten with
# the other constant payload encoding, decimal or b64) for FUZZTIME each.
# Crashers land in testdata/fuzz/ for triage.
FUZZTIME ?= 30s
fuzz:
	go test -fuzz=FuzzTraceSpec -fuzztime=$(FUZZTIME) ./internal/workload
	go test -fuzz=FuzzFaultSpec -fuzztime=$(FUZZTIME) ./internal/faultinject
	go test -fuzz=FuzzEngineCacheDecode -fuzztime=$(FUZZTIME) ./internal/enginecache
	go test -fuzz=FuzzKIRProgram -fuzztime=$(FUZZTIME) ./internal/kir
	go test -fuzz=FuzzDecodeImage -fuzztime=$(FUZZTIME) -fuzzminimizetime=20x ./internal/exec
	go test -fuzz=FuzzV2InferDecode -fuzztime=$(FUZZTIME) ./internal/fleet
	go test -fuzz=FuzzV2FloatCodec -fuzztime=$(FUZZTIME) ./internal/fleet
	go test -fuzz=FuzzParseText -fuzztime=$(FUZZTIME) ./internal/graph

# chaos replays the serve/exec suites under -race with fault injection
# armed at a fresh random seed. The seed is printed so a failing run
# reproduces with: GODISC_FAULT_SEED=<seed> make chaos
chaos:
	@seed=$${GODISC_FAULT_SEED:-$$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')}; \
	spec=$${GODISC_FAULTS:-"compile:transient:0.25,kernel-launch:panic:0.3,alloc:transient:0.25,cache-read:transient:0.4,cache-write:transient:0.4,http-read:transient:0.2,http-decode:transient:0.2,http-write:error:0.2"}; \
	echo "chaos: GODISC_FAULTS=$$spec GODISC_FAULT_SEED=$$seed"; \
	GODISC_FAULTS="$$spec" GODISC_FAULT_SEED="$$seed" \
		go test -race -count=1 ./internal/serve ./internal/exec ./internal/fleet

# soak stretches the randomized governed-overload run (mixed priorities,
# tight deadlines, fault injection, memory budget) and the fleet-scale
# HTTP saturation run (3 models × 2 versions, eviction churn under a
# tight governor budget, zero 5xx, bit-identical outputs, strict
# priority ordering of shed traffic) to 30s each under -race.
SOAKTIME ?= 30s
soak:
	GODISC_SOAK=$(SOAKTIME) go test -race -count=1 -v \
		-run TestSoakGovernedOverload ./internal/serve
	GODISC_SOAK=$(SOAKTIME) go test -race -count=1 -v \
		-run TestSaturationFleetHTTP ./internal/fleet
