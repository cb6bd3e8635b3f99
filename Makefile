GO ?= go

.PHONY: all build test race vet fmt-check deadcode bench bench-micro bench-api bench-ci bench-correlate bench-remedy bench-scenarios bench-all cover smoke fuzz

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Certifies the analyzer's concurrent shard fan-out under the race
# detector (tier-1 acceptance for the sharded analysis plane). The
# race detector slows the figure generators and the multi-hour
# telemetry-fault campaign well past go test's default 10m per-package
# timeout on small machines.
race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Type-checks every non-test package and fails on any package-level
# symbol under internal/, exported or not, that no non-test code
# references. Symbols kept for
# tests or paper artefacts are allowlisted, each with a reason, in
# deadcode_test.go; a stale allowlist entry fails too.
deadcode:
	$(GO) test -count=1 -run '^TestNoUnreferencedExports$$' .

# Runs the analyzer-round, incident-correlator and log-store benchmarks
# and writes machine-readable summaries (name → ns/op, B/op, allocs/op)
# for CI to archive, so analysis- and incident-plane perf regressions
# show up as an artifact diff. The log-store pair is the round's
# barrier append and a full-ring scan per query dimension — the read
# cost the scan-on-read store accepts, as a number. The netsim line is
# one overlay trace-cache miss, a tenant's probes while another tenant
# churns (misses/op should stay 0), and one agent round with its
# analyzer enqueue and log append (allocs/op should stay 0). The detect pair is one LOF
# score against a full look-back and one healthy short-window close
# (allocs/op should stay 0).
bench-micro:
	$(GO) test -run xxx -bench Analyzer -benchmem . | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_analyzer.json
	$(GO) test -run xxx -bench IncidentCorrelator -benchmem ./internal/incident | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_incident.json
	$(GO) test -run xxx -bench 'AppendBatch|Scan' -benchmem ./internal/logstore | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_logstore.json
	$(GO) test -run xxx -bench 'TraceForward|ProbeUnderChurn|AgentRound' -benchmem ./internal/overlay ./internal/netsim ./internal/probe | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_netsim.json
	$(GO) test -run xxx -bench 'LOFScore|DetectorWindowClose' -benchmem ./internal/stats ./internal/detect | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH_detect.json

# The micro-benchmarks plus the paper-scale campaigns of cmd/bench:
# scale (4096 hosts × 8 rails, deterministic fault schedule) and
# scale-gray (the same with gray faults and the correlate layer armed),
# each played at 1, 4 and 16 workers, reporting rounds/sec,
# allocs/round and peak heap per worker count. Both fail if the worker
# counts' fingerprints differ, or if 16 workers are not ≥2× faster than
# one in rounds/sec (skipped loudly on machines with <4 CPUs, where a
# wall-clock speedup is unmeasurable).
bench: bench-micro
	GOGC=50 $(GO) run ./cmd/bench -campaign scale -o BENCH_scale.json
	GOGC=50 $(GO) run ./cmd/bench -campaign scale-gray -o BENCH_scale_gray.json

# CI-sized bench: the micro-benchmarks plus both scale campaigns on a
# 64-host fabric, under the same fingerprint and speedup gates.
bench-ci: bench-micro
	GOGC=50 $(GO) run ./cmd/bench -campaign scale -hosts 64 -o BENCH_scale.json
	GOGC=50 $(GO) run ./cmd/bench -campaign scale-gray -hosts 64 -o BENCH_scale_gray.json

# Second-layer gray-failure detection campaign (cmd/bench): the
# scenario.GrayMix schedule played with and without internal/correlate
# armed, scored localization-strict against its mixed gray + hard
# faults. Fails unless the correlate arm strictly improves gray-fault
# recall without degrading hard-fault recall or alarm precision. The
# report is a pure function of (campaign, seed, hosts) and committed;
# CI fails if it drifts.
bench-correlate:
	$(GO) run ./cmd/bench -campaign correlate -o BENCH_correlate.json

# Read-plane serving campaign: 100K simulated clients replaying a
# zipfian conditional-GET + watch mix against the incident API
# in-process, reporting p50/p99 latency and allocs/request, plus the
# delta-vs-wholesale publishing comparison and the watch-resume
# byte-identity check. Fails if delta publishing is not ≥2× cheaper in
# allocations than wholesale re-marshaling or if a resumed watch
# stream is not byte-identical to an uninterrupted one.
bench-api:
	$(GO) run ./cmd/loadgen -o BENCH_api.json

# Self-healing campaign (cmd/bench): the three-fault heal arm's
# time-to-repair p50/p99 plus the two-arm goodput comparison (healed
# vs blacklist-only) under a job-restart loop. Fails unless all three
# faults heal and the healed arm completes strictly more training
# iterations than detection alone — the remediation plane must pay for
# itself, not just run. The report is a pure function of (campaign,
# seed, hosts) and committed; CI fails if it drifts.
bench-remedy:
	$(GO) run ./cmd/bench -campaign remedy -o BENCH_remedy.json

# Adversarial scenario packs (internal/scenario) played by cmd/bench
# and scored against their ground-truth fault ledgers: flap+ghost (and
# its clean arm), rdma-mask, and churn-replay each report precision /
# episode recall / strict recall / mean TTD into the committed
# BENCH_scenarios.json. Fails if flap+ghost localization does not
# recover to within 10% of its clean arm after the topology view
# refreshes, or if rdma-mask raises no detection before the collective
# collapse.
bench-scenarios:
	$(GO) run ./cmd/bench -campaign scenarios -o BENCH_scenarios.json

# Full benchmark sweep (every figure/table generator), human-readable.
bench-all:
	$(GO) test -run xxx -bench . -benchmem ./...

# Test coverage profile + per-function summary; CI archives the
# profile as an artifact. The floor keeps coverage from silently
# eroding — raise it as coverage grows, never lower it to merge.
COVER_FLOOR ?= 82.0
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{print $$NF}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Short fuzzing runs of the codecs hostile bytes can reach: the
# transport wire frames and the scenario-schedule JSON (CI artifacts
# and replay files). CI runs this as a smoke pass; longer local
# sessions just raise FUZZTIME.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run xxx -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run xxx -fuzz FuzzDecodeSchedule -fuzztime $(FUZZTIME) ./internal/scenario

# Runs the example walkthroughs end to end — the documented entry
# points must keep working, not just compiling.
smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/incident_console
