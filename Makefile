# clustersim build and reproduction targets.

GO ?= go

.PHONY: all build vet lint simlint sarif loc sanitize-suite parallel-check profile-suite profile-golden critpath-suite critpath-golden fault-suite resume-suite obs-suite fabric-suite test test-short race bench bench-go bench-gate bench-baseline experiments repro-check paper examples clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet plus simlint, the project's determinism and
# contract linter — wall-clock reads, unseeded rand, order-dependent
# map ranges, stray goroutines, float accumulation into virtual time,
# config-hash exclusion drift, observer packages mutating simulation
# state, empty/duplicate sync names, and stale //simlint:allow
# directives. A //simlint:allow directive is the only exemption. One
# -tests pass gates the tree: it reports every finding the plain pass
# does, plus those in _test.go files. `make sarif` renders the same run
# as SARIF 2.1.0 for CI annotation.
lint: vet simlint

simlint:
	$(GO) run ./cmd/simlint -tests ./...

SARIF_OUT ?= /tmp/clustersim-sarif
sarif:
	@mkdir -p $(SARIF_OUT)
	$(GO) run ./cmd/simlint -tests -sarif $(SARIF_OUT)/simlint.sarif ./... || true
	@echo "sarif: wrote $(SARIF_OUT)/simlint.sarif"

# Non-test Go lines of the four sizes ROADMAP tracks: the simulation
# core, the applications (internal/apps and its packages), the tooling
# around them (cmd/tracetool and the internal lint, experiments, fabric,
# obs, critpath, telemetry, profile, perf and bench packages), and all
# Go outside repobench/. It reports; it gates nothing.
LOC_CORE = internal/engine internal/memory internal/cache internal/directory internal/coherence internal/core
LOC_TOOLING = internal/lint internal/experiments internal/fabric internal/obs internal/critpath \
	internal/telemetry internal/profile internal/perf internal/bench cmd/tracetool
loc:
	@printf '%-24s' 'simulation core:'; find $(LOC_CORE) -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf '%-24s' 'applications:'; find internal/apps -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf '%-24s' 'tooling:'; find $(LOC_TOOLING) -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf '%-24s' 'outside repobench/:'; find . -path ./repobench -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

# Short reproduction sweep with the runtime sanitizer attached: every
# coherence transaction is cross-validated against the directory, so a
# protocol regression fails loudly rather than skewing the tables, and
# the happens-before race check holds every interval an application
# declared race-free to its promise. fig2 and table3 run shared-cache
# clusters; ext-org also runs Ocean, MP3D and Barnes on shared-memory
# clusters, so both organisations are audited.
sanitize-suite: build
	$(GO) run ./cmd/experiments -procs 16 -size test -sanitize fig2 table3 ext-org

# Parallel-equals-serial check: experiments runs each experiment's
# independent points on GOMAXPROCS workers and commits them in render
# order, so its output must not depend on the worker count. Every
# experiment at test size, the sanitized sweep above, and an
# instrumented sweep (profiles, critical paths, manifests) run under
# GOMAXPROCS=1 and GOMAXPROCS=4: the stdouts and the artifact
# directories must be byte-identical, and the manifests too once each
# line's host block (wall time, GOMAXPROCS) is cut. About 21 s on a
# 2-vCPU host.
PARALLEL_OUT ?= /tmp/clustersim-parallel
PARALLEL_INSTR = -procs 16 -size test -sample 5000 fig2 table3 fig6
parallel-check: build
	@rm -rf $(PARALLEL_OUT) && mkdir -p $(PARALLEL_OUT)
	$(GO) build -o $(PARALLEL_OUT)/experiments ./cmd/experiments
	GOMAXPROCS=1 $(PARALLEL_OUT)/experiments -procs 16 -size test all > $(PARALLEL_OUT)/all.1.txt
	GOMAXPROCS=4 $(PARALLEL_OUT)/experiments -procs 16 -size test all > $(PARALLEL_OUT)/all.4.txt
	cmp $(PARALLEL_OUT)/all.1.txt $(PARALLEL_OUT)/all.4.txt
	GOMAXPROCS=1 $(PARALLEL_OUT)/experiments -procs 16 -size test -sanitize fig2 table3 ext-org > $(PARALLEL_OUT)/sanitize.1.txt
	GOMAXPROCS=4 $(PARALLEL_OUT)/experiments -procs 16 -size test -sanitize fig2 table3 ext-org > $(PARALLEL_OUT)/sanitize.4.txt
	cmp $(PARALLEL_OUT)/sanitize.1.txt $(PARALLEL_OUT)/sanitize.4.txt
	for n in 1 4; do \
		GOMAXPROCS=$$n $(PARALLEL_OUT)/experiments -profile $(PARALLEL_OUT)/profile.$$n \
			-critpath $(PARALLEL_OUT)/critpath.$$n -json $(PARALLEL_OUT)/manifests.$$n.jsonl \
			$(PARALLEL_INSTR) > $(PARALLEL_OUT)/instr.$$n.txt || exit 1; \
		sed 's/,"host":{[^}]*}//' $(PARALLEL_OUT)/manifests.$$n.jsonl > $(PARALLEL_OUT)/manifests.$$n.nohost; \
	done
	cmp $(PARALLEL_OUT)/instr.1.txt $(PARALLEL_OUT)/instr.4.txt
	diff -r $(PARALLEL_OUT)/profile.1 $(PARALLEL_OUT)/profile.4
	diff -r $(PARALLEL_OUT)/critpath.1 $(PARALLEL_OUT)/critpath.4
	cmp $(PARALLEL_OUT)/manifests.1.nohost $(PARALLEL_OUT)/manifests.4.nohost
	@echo "parallel-check: stdout, profiles, critical paths and manifests (host blocks cut) byte-identical under GOMAXPROCS=1 and GOMAXPROCS=4"

# Sharing-profiler smoke test: run MP3D with -profile, render the flat
# report with tracetool, and diff it against the checked-in golden. The
# simulator is bit-reproducible, so any drift is a real behaviour change
# (update the golden deliberately with `make profile-golden`).
PROFILE_OUT ?= /tmp/clustersim-profile
PROFILE_RUN = $(GO) run ./cmd/clustersim -app mp3d -size test -procs 16 -cluster 4 -cache 1 \
		-top 5 -profile $(PROFILE_OUT)/mp3d.profile.json
profile-suite: build
	@mkdir -p $(PROFILE_OUT)
	$(PROFILE_RUN) > /dev/null
	$(GO) run ./cmd/tracetool profile $(PROFILE_OUT)/mp3d.profile.json > $(PROFILE_OUT)/mp3d.flat
	diff -u internal/profile/testdata/mp3d-c4-1k.flat.golden $(PROFILE_OUT)/mp3d.flat
	@echo "profile-suite: flat report matches golden"

# Fault sweep with the sanitizer attached: MP3D and Ocean absorb
# deterministic NACKs, delayed acks and latency jitter while every
# coherence transaction is cross-validated — faults must stretch
# virtual time without ever corrupting protocol state.
fault-suite: build
	$(GO) run ./cmd/experiments -procs 16 -size test -sanitize ext-faults

# Interrupt/resume smoke test: a journalled run stopped after 3 points
# (exit code 3) must, when resumed from the same -state dir, emit
# tables byte-identical to an uninterrupted run, and -stop-after must
# stop an experiment that bypasses the suite (fig3) too. The binary is
# built and invoked directly because `go run` folds any non-zero
# program exit into its own exit code 1, hiding the distinct interrupt
# code.
RESUME_OUT ?= /tmp/clustersim-resume
resume-suite: build
	@rm -rf $(RESUME_OUT) && mkdir -p $(RESUME_OUT)
	$(GO) build -o $(RESUME_OUT)/experiments ./cmd/experiments
	$(RESUME_OUT)/experiments -procs 16 -size test fig2 > $(RESUME_OUT)/clean.txt
	@$(RESUME_OUT)/experiments -procs 16 -size test -state $(RESUME_OUT)/state -stop-after 3 fig2 \
		> /dev/null 2>$(RESUME_OUT)/interrupt.log; \
	code=$$?; if [ $$code -ne 3 ]; then \
		echo "resume-suite: expected interrupted exit code 3, got $$code"; \
		cat $(RESUME_OUT)/interrupt.log; exit 1; fi
	$(RESUME_OUT)/experiments -procs 16 -size test -state $(RESUME_OUT)/state fig2 > $(RESUME_OUT)/resumed.txt
	diff -u $(RESUME_OUT)/clean.txt $(RESUME_OUT)/resumed.txt
	@$(RESUME_OUT)/experiments -procs 16 -size test -stop-after 2 fig3 \
		> /dev/null 2>$(RESUME_OUT)/fig3.log; \
	code=$$?; if [ $$code -ne 3 ]; then \
		echo "resume-suite: fig3 -stop-after 2: expected interrupted exit code 3, got $$code"; \
		cat $(RESUME_OUT)/fig3.log; exit 1; fi
	@echo "resume-suite: resumed tables byte-identical to uninterrupted run; fig3 stopped after 2 points"

# Live-observability smoke test: run a journal-free fig2 sweep with the
# metrics/status endpoints served (-serve) and the structured run-event
# log written (-events), poll /status until the sweep reports done,
# then validate the Prometheus exposition and the events JSONL with the
# repo's own tooling (tracetool metrics / tracetool events). The -linger
# window keeps the endpoints up after the last point so the scrapes
# race nothing.
OBS_OUT ?= /tmp/clustersim-obs
OBS_ADDR ?= 127.0.0.1:19095
obs-suite: build
	@rm -rf $(OBS_OUT) && mkdir -p $(OBS_OUT)
	$(GO) build -o $(OBS_OUT)/experiments ./cmd/experiments
	$(GO) build -o $(OBS_OUT)/tracetool ./cmd/tracetool
	@$(OBS_OUT)/experiments -procs 16 -size test -serve $(OBS_ADDR) \
		-events $(OBS_OUT)/sweep.events.jsonl -linger 30s fig2 \
		> $(OBS_OUT)/tables.txt 2> $(OBS_OUT)/run.log & pid=$$!; \
	trap "kill $$pid 2>/dev/null" EXIT; \
	state=; for i in $$(seq 1 150); do \
		state=$$(curl -sf http://$(OBS_ADDR)/status \
			| sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -n 1); \
		if [ "$$state" = "done" ] || [ "$$state" = "failed" ]; then break; fi; \
		sleep 0.2; \
	done; \
	if [ "$$state" != "done" ]; then \
		echo "obs-suite: sweep never reached done (state=$$state)"; \
		cat $(OBS_OUT)/run.log; exit 1; fi; \
	curl -sf http://$(OBS_ADDR)/metrics > $(OBS_OUT)/metrics.txt; \
	curl -sf http://$(OBS_ADDR)/status > $(OBS_OUT)/status.json; \
	curl -sf "http://$(OBS_ADDR)/events?point=ocean-c4-inf" > $(OBS_OUT)/events.tail.jsonl; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; true
	$(OBS_OUT)/tracetool metrics $(OBS_OUT)/metrics.txt
	grep -q 'clustersim_sweep_points_total{state="done"}' $(OBS_OUT)/metrics.txt
	grep -q '"schema": "clustersim/status/v1"' $(OBS_OUT)/status.json
	grep -q '"state": "done"' $(OBS_OUT)/status.json
	test -s $(OBS_OUT)/events.tail.jsonl
	$(OBS_OUT)/tracetool events $(OBS_OUT)/sweep.events.jsonl > $(OBS_OUT)/events.txt
	grep -q 'sweep-done' $(OBS_OUT)/events.txt
	@echo "obs-suite: /metrics valid, /status done, run-event log renders"

# Distributed-sweep fabric suite, two halves. First the hermetic chaos
# matrix under the race detector: every fabric test runs on the
# simulated network with seed-deterministic message drop, duplication,
# delay, partitions and scripted worker crashes — including the
# keystone proofs that a distributed sweep under chaos renders tables
# byte-identical to a local run and leaves every point with exactly one
# terminal event in the coordinator's timeline — together with the
# sweep tests the coordinator's /status rests on (count-once, the
# lossless log mirror, the coordinator → sweep lock order). Then a real
# end-to-end smoke over localhost TCP: a coordinator (-serve -events
# -linger) and two worker processes sweep table7; worker w2 is sent
# SIGINT once it is computing and must exit 3 after at most one more
# point; the distributed tables are diffed against a plain local run;
# the coordinator's /status must list all 8 points settled, with rows
# for w1 and w2; its event log must carry the fabric lifecycle and
# point-done events with the worker set, render per point, and export
# as a Chrome trace; and worker w1, started with -profile, must leave a
# sharing profile of a point it computed that tracetool renders (a
# worker runs each point as a local suite does, artifacts included).
# The artifacts are left in $(FABRIC_OUT) for CI to archive.
FABRIC_OUT ?= /tmp/clustersim-fabric
FABRIC_PORT ?= 17600
FABRIC_OBS ?= 127.0.0.1:19100
fabric-suite: build
	$(GO) test -race -run 'TestFabric|TestChaos|TestSimnet|TestWire|TestDistributedSweepByteIdentical|TestFleet|TestSweepDuplicateCompletionCountsOnce|TestSweepStatus|TestLogMirror' \
		./internal/fabric/ ./internal/obs/ ./internal/experiments/
	@rm -rf $(FABRIC_OUT) && mkdir -p $(FABRIC_OUT)
	$(GO) build -o $(FABRIC_OUT)/experiments ./cmd/experiments
	$(GO) build -o $(FABRIC_OUT)/tracetool ./cmd/tracetool
	$(FABRIC_OUT)/experiments -procs 16 -size test table7 > $(FABRIC_OUT)/local.txt
	@$(FABRIC_OUT)/experiments -procs 16 -size test -state $(FABRIC_OUT)/coord \
		-coordinator 127.0.0.1:$(FABRIC_PORT) -serve $(FABRIC_OBS) \
		-events $(FABRIC_OUT)/fabric.events.jsonl -linger 30s table7 \
		> $(FABRIC_OUT)/dist.txt 2> $(FABRIC_OUT)/coord.log & cpid=$$!; \
	trap "kill $$cpid 2>/dev/null" EXIT; \
	sleep 1; \
	$(FABRIC_OUT)/experiments -procs 16 -size test -worker w1 \
		-connect 127.0.0.1:$(FABRIC_PORT) -state $(FABRIC_OUT)/w1 \
		-profile $(FABRIC_OUT)/w1-profile \
		> /dev/null 2> $(FABRIC_OUT)/w1.log & w1=$$!; \
	$(FABRIC_OUT)/experiments -procs 16 -size test -worker w2 \
		-connect 127.0.0.1:$(FABRIC_PORT) -state $(FABRIC_OUT)/w2 \
		> /dev/null 2> $(FABRIC_OUT)/w2.log & w2=$$!; \
	for i in $$(seq 1 500); do grep -q ': running ' $(FABRIC_OUT)/w2.log && break; sleep 0.02; done; \
	ran=$$(grep -c ': running ' $(FABRIC_OUT)/w2.log); \
	kill -INT $$w2; wait $$w2; w2code=$$?; \
	wait $$w1; w1code=$$?; \
	after=$$(grep -c ': running ' $(FABRIC_OUT)/w2.log); \
	if [ $$w2code -ne 3 ] || [ $$after -gt $$((ran + 1)) ]; then \
		echo "fabric-suite: SIGINT worker exited $$w2code after starting $$((after - ran)) more points (want 3, at most 1)"; \
		cat $(FABRIC_OUT)/w2.log; exit 1; fi; \
	if [ $$w1code -ne 0 ]; then \
		echo "fabric-suite: worker w1 exited $$w1code"; \
		cat $(FABRIC_OUT)/w1.log; exit 1; fi; \
	state=; for i in $$(seq 1 150); do \
		state=$$(curl -sf http://$(FABRIC_OBS)/status \
			| sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -n 1); \
		if [ "$$state" = "done" ] || [ "$$state" = "failed" ]; then break; fi; \
		sleep 0.2; \
	done; \
	if [ "$$state" != "done" ]; then \
		echo "fabric-suite: coordinator never reached done (state=$$state)"; \
		cat $(FABRIC_OUT)/coord.log; exit 1; fi; \
	curl -sf http://$(FABRIC_OBS)/status > $(FABRIC_OUT)/status.json; \
	curl -sf "http://$(FABRIC_OBS)/events?point=ocean-c4-inf" > $(FABRIC_OUT)/ocean-c4-inf.events.jsonl; \
	kill $$cpid 2>/dev/null; wait $$cpid 2>/dev/null; true
	diff -u $(FABRIC_OUT)/local.txt $(FABRIC_OUT)/dist.txt
	grep -q '"schema": "clustersim/status/v1"' $(FABRIC_OUT)/status.json
	grep -q '"state": "done"' $(FABRIC_OUT)/status.json
	test $$(grep -c '"point": ' $(FABRIC_OUT)/status.json) -eq 8
	test $$(grep -Ec '^      "state": "(done|replayed)"' $(FABRIC_OUT)/status.json) -eq 8
	grep -q '"worker": "w1"' $(FABRIC_OUT)/status.json
	grep -q '"worker": "w2"' $(FABRIC_OUT)/status.json
	test -s $(FABRIC_OUT)/ocean-c4-inf.events.jsonl
	grep -q '"worker":"w[12]"' $(FABRIC_OUT)/ocean-c4-inf.events.jsonl
	grep -q '"kind":"point-done".*"worker":"w[12]"' $(FABRIC_OUT)/fabric.events.jsonl
	grep -q '"kind":"fabric-drain"' $(FABRIC_OUT)/fabric.events.jsonl
	$(FABRIC_OUT)/tracetool events -point ocean-c4-inf $(FABRIC_OUT)/fabric.events.jsonl > $(FABRIC_OUT)/ocean-c4-inf.events.txt
	test -s $(FABRIC_OUT)/ocean-c4-inf.events.txt
	$(FABRIC_OUT)/tracetool events -chrome $(FABRIC_OUT)/fleet.chrome.json $(FABRIC_OUT)/fabric.events.jsonl
	prof=$$(ls $(FABRIC_OUT)/w1-profile/*.profile.json | head -n 1); \
		test -n "$$prof" && $(FABRIC_OUT)/tracetool profile $$prof > $(FABRIC_OUT)/w1-profile.txt
	test -s $(FABRIC_OUT)/w1-profile.txt
	@echo "fabric-suite: chaos matrix race-clean; interrupted worker exited 3; distributed tables byte-identical to local run; coordinator /status and /events valid over real TCP; worker w1 wrote its points' sharing profiles"

profile-golden: build
	@mkdir -p $(PROFILE_OUT)
	$(PROFILE_RUN) > /dev/null
	$(GO) run ./cmd/tracetool profile $(PROFILE_OUT)/mp3d.profile.json \
		> internal/profile/testdata/mp3d-c4-1k.flat.golden
	@echo "profile-golden: regenerated internal/profile/testdata/mp3d-c4-1k.flat.golden"

# Critical-path smoke test: run Ocean with -critpath, render the flat
# report with tracetool, and diff it against the checked-in golden.
# Like the profile golden, any drift is a real behaviour change
# (update deliberately with `make critpath-golden`).
CRITPATH_OUT ?= /tmp/clustersim-critpath
CRITPATH_RUN = $(GO) run ./cmd/clustersim -app ocean -size test -procs 16 -cluster 4 -cache 1 \
		-critpath $(CRITPATH_OUT)/ocean.critpath.json
critpath-suite: build
	@mkdir -p $(CRITPATH_OUT)
	$(CRITPATH_RUN) > /dev/null
	$(GO) run ./cmd/tracetool critpath $(CRITPATH_OUT)/ocean.critpath.json > $(CRITPATH_OUT)/ocean.flat
	diff -u internal/critpath/testdata/ocean-c4-1k.flat.golden $(CRITPATH_OUT)/ocean.flat
	@echo "critpath-suite: flat report matches golden"

critpath-golden: build
	@mkdir -p $(CRITPATH_OUT)
	$(CRITPATH_RUN) > /dev/null
	$(GO) run ./cmd/tracetool critpath $(CRITPATH_OUT)/ocean.critpath.json \
		> internal/critpath/testdata/ocean-c4-1k.flat.golden
	@echo "critpath-golden: regenerated internal/critpath/testdata/ocean-c4-1k.flat.golden"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The engine's token-passing design must be race-clean; CI runs this on
# every PR (.github/workflows/ci.yml).
race:
	$(GO) test -race ./...

# Machine-readable benchmark harness (cmd/perfbench): run the fixed
# matrix five times, as whole passes, with the host performance monitor
# attached and write BENCH_<stamp>.json into $(BENCH_OUT): median wall
# times with quartiles (schema in EXPERIMENTS.md;
# render or diff with `tracetool bench`). The classic Go
# microbenchmarks remain available as `make bench-go`.
BENCH_OUT ?= /tmp/clustersim-bench
bench: build
	@mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/perfbench -out $(BENCH_OUT)

bench-go:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Regression gate over the CI smoke matrix (three applications): exits
# nonzero when a deterministic counter (points, simcycles, handoffs,
# refs) drifts from bench_baseline.json, or when allocations grow past
# BENCH_TOLERANCE. CI passes a huge tolerance so only the deterministic
# counters gate there (allocation counts shift across Go releases).
BENCH_GATE_APPS ?= mp3d,ocean,fft
BENCH_TOLERANCE ?= 0.05
bench-gate: build
	@mkdir -p $(BENCH_OUT)
	$(GO) run ./cmd/perfbench -apps $(BENCH_GATE_APPS) -tolerance $(BENCH_TOLERANCE) \
		-out $(BENCH_OUT) -baseline bench_baseline.json

# Regenerate the checked-in baseline after a deliberate simulation
# change (new app work, protocol fix) — never to paper over a gate
# failure you cannot explain.
bench-baseline: build
	$(GO) run ./cmd/perfbench -apps $(BENCH_GATE_APPS) -stamp baseline -out . -quiet
	mv BENCH_baseline.json bench_baseline.json
	@echo "bench-baseline: regenerated bench_baseline.json"

# Regenerate every table and figure at the scaled default sizes (70–110
# s on a 2-vCPU host, one point per core).
experiments: build
	$(GO) run ./cmd/experiments -procs 64 -size default all

# Reproduction check: regenerate every table and figure at the scaled
# default sizes and require stdout byte-identical to the committed
# results_default.txt. It takes 70–110 s on a 2-vCPU host (140–210 s
# when points ran one at a time); CI runs it.
REPRO_OUT ?= /tmp/clustersim-repro
repro-check: build
	@mkdir -p $(REPRO_OUT)
	$(GO) run ./cmd/experiments -procs 64 -size default all > $(REPRO_OUT)/results_default.txt
	cmp $(REPRO_OUT)/results_default.txt results_default.txt
	@echo "repro-check: stdout byte-identical to results_default.txt"

# Full Table 2 problem sizes (slow).
paper: build
	$(GO) run ./cmd/experiments -procs 64 -size paper all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clusterstudy
	$(GO) run ./examples/workingsets
	$(GO) run ./examples/costmodel
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/telemetry

clean:
	$(GO) clean ./...
