# Development targets for the MANET overhead reproduction.

.PHONY: build test vet race check check-full chaos difftest difftest-event bench bench-smoke serve-smoke crash-harness worker-chaos storage-chaos perfbench-test profile-figures

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race ./...

# check is the pre-merge gate: static analysis, the test suite in short
# mode under the race detector (this includes the 24-scenario three-way
# differential lockstep matrix and the metamorphic/conformance gates of
# internal/difftest), and short fuzz smokes over the checkpoint journal
# decoder, the netsim config validator, the pending-delivery queue, the
# faults config validator, the daemon's HTTP job-spec decoder, the
# distributed-sweep wire protocol (lease grants plus the coordinator's
# claim/heartbeat/result/done decoders), the event core's priority
# queue (model-checked against a sorted-slice specification), the
# storage fault-plan decoder, and the spatial index's pair certificates
# (random moves, teleports and multi-tick gaps against a brute-force
# rescan).
check:
	go vet ./... && go test -race -short -count=1 ./...
	go test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 5s ./internal/checkpoint
	go test -run '^$$' -fuzz FuzzFaultPlanDecode -fuzztime 5s ./internal/vfs
	go test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 5s ./internal/netsim
	go test -run '^$$' -fuzz FuzzPendingQueue -fuzztime 5s ./internal/netsim
	go test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 5s ./internal/faults
	go test -run '^$$' -fuzz FuzzJobSpecDecode -fuzztime 5s ./internal/service
	go test -run '^$$' -fuzz FuzzLeaseDecode -fuzztime 5s ./internal/service
	go test -run '^$$' -fuzz FuzzWireDecode -fuzztime 5s ./internal/service
	go test -run '^$$' -fuzz FuzzEventQueue -fuzztime 5s ./internal/eventsim
	go test -run '^$$' -fuzz FuzzIndexMatchesRescan -fuzztime 5s ./internal/space

# check-full is the CI deep gate: the whole suite — 48 lockstep
# scenarios, full-length statistical conformance — with caching off.
check-full:
	go vet ./... && go test -race -count=1 ./...

# chaos is the convergence-SLO soak: the randomized pathology matrix
# (loss + delay/jitter + duplication + moving partitions) under the race
# detector, demanding that every partition heal reaches cluster and
# route convergence before the next onset. Short mode keeps it a quick
# focused gate; check-full runs the full matrix as part of the suite.
chaos:
	go test -race -short -count=1 -run TestChaosConvergence -v ./internal/experiments

# difftest runs only the correctness harness (differential oracle,
# metamorphic invariances, statistical conformance) at full size.
difftest:
	go test -count=1 -v ./internal/difftest/ ./internal/refsim/

# difftest-event focuses on the event-driven core: the full 48-scenario
# three-way lockstep matrix (reference oracle vs tick engine vs event
# core, with fast-path coverage assertions), the static-scenario
# schedule pins, and the eventsim package's own lockstep, determinism,
# metamorphic and no-late-event gates.
difftest-event:
	go test -count=1 -v -run 'TestLockstepMatrix|TestStaticExtras' ./internal/difftest/
	go test -count=1 -v ./internal/eventsim/ ./internal/mobility/

# bench runs every benchmark once (the reproduction scoreboard) and then
# regenerates the machine-readable performance artifact BENCH_7.json:
# Figure 1–3 wall-clock per worker count, the steady-state tick-loop
# throughput vs the growth seed — on the ideal medium, with loss+churn
# faults, and with the full delivery pipeline — the node-count scaling
# sweep (1k/10k/100k at constant density) against the BENCH_3
# full-rescan extrapolation, the tick-vs-event core comparison rows
# (bit-identity asserted before timing), and the storage-seam row (raw
# *os.File vs the internal/vfs passthrough on the journal append+fsync
# path; any allocation delta aborts the bench). BENCH_1–6.json are the
# preserved artifacts of previous revisions.
bench:
	go test -run '^$$' -bench=. -benchtime=1x .
	go run ./cmd/bench -out BENCH_7.json

# bench-smoke is the CI-sized benchmark gate: the N=1k step loop with
# tile-parallel topology maintenance enabled, under the race detector,
# writing its artifact to a scratch path. -core event routes the figure
# drivers through the event engine selector, and the step-only artifact
# always carries the tick-vs-event comparison rows (each bit-checked
# before timing). It is a correctness smoke, not a timing source.
bench-smoke:
	go run -race ./cmd/bench -step-only -step-ticks 120 -n 1000 -tiles 4 -core event -out /tmp/bench-smoke.json

# profile-figures writes the CPU profile of BenchmarkFig1–3 (5
# iterations each) to $(PROFDIR)/figures.cpu.prof, with the test binary
# beside it as figures.test, and prints its top entries by cumulative
# time: the profile the ROADMAP's per-layer shares are read from.
PROFDIR ?= .bench_build/profile
profile-figures:
	mkdir -p $(PROFDIR)
	go test -run '^$$' -bench 'BenchmarkFig[123]$$' -benchtime 5x -cpuprofile $(PROFDIR)/figures.cpu.prof -o $(PROFDIR)/figures.test .
	go tool pprof -top -cum $(PROFDIR)/figures.test $(PROFDIR)/figures.cpu.prof | head -40

# perfbench-test vets and tests the repository benchmark (perfbench/, a
# module of its own that the root ./... does not reach), so a change to
# a package API it calls breaks CI rather than the benchmark run.
perfbench-test:
	go -C perfbench vet ./... && go -C perfbench test ./...

# serve-smoke is the daemon's end-to-end gate, race-enabled: build the
# real manetsimd binary, start it, verify liveness, submit a job,
# provoke one 429 shed under admission control, then SIGTERM it and
# require a graceful drain with exit code 0 and the standardized drain
# message.
serve-smoke:
	go test -race -tags servesmoke -run TestServeSmoke -count=1 -v ./cmd/manetsimd

# crash-harness is the crash-safety acceptance check: a real daemon
# process is SIGKILLed mid-sweep, then a restart over the same state
# directory must resume the job and produce an artifact byte-identical
# to an uninterrupted run, for sweep worker counts 1 and 2.
crash-harness:
	go test -race -tags crashharness -run TestCrashKillRecovery -count=1 -v ./internal/service

# worker-chaos is the distributed-sweep acceptance check: a real
# coordinator process and four real worker processes run a scripted
# kill/hang/partition schedule — one worker SIGKILLed provably
# mid-point, one SIGSTOPped (partition) and later resumed to stream a
# stale duplicate, one hung inside a point with live heartbeats, plus
# two coordinator SIGKILL+restarts over the same state directory. The
# merged artifact must be byte-identical to an uninterrupted
# single-process run; any diff fails the gate.
worker-chaos:
	go test -race -tags workerchaos -run TestWorkerChaos -count=1 -v ./internal/service

# storage-chaos is the storage-fault acceptance check: the daemon runs
# over a deterministic fault-injecting filesystem under scripted and
# randomized schedules of ENOSPC, I/O errors, short writes, fsync
# failures and crash-point truncations. Every schedule must end either
# in a loud failure with all previously acknowledged records intact, or
# in a restart over the repaired filesystem whose artifact is
# byte-identical to an uninterrupted run.
storage-chaos:
	go test -race -tags storagechaos -run TestStorageChaos -count=1 -v ./internal/service
