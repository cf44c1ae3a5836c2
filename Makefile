# Tier-1 gate: everything CI runs, runnable locally with `make check`.

GO ?= go

.PHONY: all build vet test race fuzz soundness tv conc bench bench-gap contention lint check clean

all: check

# The benchmark harness under kexperf/ is its own module (it reaches this
# one through a local replace), so the root build never compiles it;
# vetting it there catches API changes it depends on.
build:
	$(GO) build ./...
	cd kexperf && $(GO) vet ./...

vet:
	$(GO) vet ./...

# gofmt (any file it would reformat fails the target), then the
# repo-specific invariant analyzers (internal/analysis/kexlint): RCU
# read-lock balance, helper-spec effect declarations, math/rand
# determinism in replayable packages, and atomic/plain mixed field
# access. Required in CI alongside go vet. staticcheck runs when
# installed (CI installs it; locally it is optional, not vendored).
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/kexlint -root .
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# The whole tree is expected to be race-clean: the execution core's Stats,
# the supervisor's breaker state and the fault injector's decision stream
# are all mutex-guarded and exercised concurrently.
race:
	$(GO) test -race ./...

# Fuzz smoke: the loader's trust-boundary decoders (SLXO container,
# registry manifest and blobs), then a short differential-fuzz run of the
# SLX toolchain against its Go reference model. CI runs the same budget.
fuzz:
	$(GO) test -fuzz=FuzzDeserialize -fuzztime=10s -run '^$$' ./internal/safext/toolchain
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s -run '^$$' ./internal/registry
	$(GO) test -fuzz=Fuzz -fuzztime=10s -run '^$$' ./internal/safext/runtime

# Soundness smoke: the statecheck oracle (state-embedding cross-check of
# verifier abstract states vs concrete interpreter traces) over its unit
# suite, a check that each fuzz seed names one program (so seeds and
# witnesses replay), the deterministic seed corpus, the bug-catch
# regressions, and a short continuous FuzzVerifierSoundness run. Witness
# repros land in internal/ebpf/statecheck_witnesses/ for CI to upload.
soundness:
	$(GO) test ./internal/analysis/statecheck/ ./internal/bugcorpus/
	$(GO) test -run 'TestSoundnessProgramDeterministic|TestSoundnessFuzz' ./internal/ebpf/
	$(GO) test -fuzz FuzzVerifierSoundness -fuzztime 15s -run '^$$' ./internal/ebpf/

# Translation validation (DESIGN.md §3.8): the validator over the corpus
# and examples at -opt 2 (zero demotions required), the mutant kill suite
# (twelve seeded miscompilations behind -tags tvmutants, eleven in the
# optimizer and one unsound refinement in the elision pass; every one must
# be rejected, the elision one also at build time), the end-to-end fail-closed demotion path, and one pass of
# BenchmarkTVal to regenerate BENCH_tval.json (per-program validation wall
# time, certificate bytes, demotion rate; acceptance: corpus median
# <250ms). Refinement counterexamples land in
# internal/analysis/transval/tval_counterexamples/ for CI to upload.
tv:
	$(GO) test ./internal/analysis/transval/
	$(GO) test -tags tvmutants ./internal/analysis/transval/ ./internal/safext/runtime/ ./internal/safext/compile/mir/ ./internal/safext/analyze/
	$(GO) test -run '^$$' -bench 'BenchmarkTVal' -benchtime 1x .

# Shard-safety analysis (DESIGN.md §3.9): the concheck analyzer's unit and
# lattice suites, the adversarial shard-interleaving oracle over the
# certified corpus (zero false negatives required), the mutant kill suite
# (every seeded racy program must be convicted), the load/dispatch
# enforcement regressions in both stacks, and one pass of BenchmarkConc to
# regenerate BENCH_conc.json (per-program analysis wall time, proven-site
# rate — acceptance >=80% over the corpus — demotion rate, and the
# certified strict-gate overhead, which must stay in the noise).
conc:
	$(GO) test ./internal/analysis/concheck/...
	$(GO) test -run 'Conc' ./internal/exec/ ./internal/safext/runtime/ ./internal/ebpf/
	$(GO) test -run '^$$' -bench 'BenchmarkConc' -benchtime 1x .

# Regenerates BENCH_exec.json (the ExecCore family), BENCH_supervisor.json
# (healthy-path overhead and time-to-recover of the supervised recovery
# layer), BENCH_slxopt.json (naive-vs-elided safext builds),
# BENCH_statecheck.json (soundness-oracle cost + verifier precision) and
# BENCH_throughput.json (sharded data plane: simulated ops/sec vs shard
# count and batch size) under testing.B. The Throughput family needs a
# real iteration count for its scaling figures, hence the higher budget.
# BENCH_fleet.json (the X5 rollout campaign: fleet-wide swap/rollback
# latency and the zero-dropped ledger) runs one full campaign per size.
bench:
	$(GO) test -bench 'BenchmarkExecCore|BenchmarkSupervisor|BenchmarkSLXOpt|BenchmarkStatecheck' -benchtime 20x .
	$(GO) test -bench 'BenchmarkThroughput' -benchtime 2000x .
	$(GO) test -run '^$$' -bench 'BenchmarkFleet' -benchtime 1x .

# The instrumentation-vs-verification gap, in one number: runs the
# exec-core family (which includes the MIR-optimized safext JIT legs)
# plus the SLXOpt family so the BENCH_slxopt.json summary can emit the
# gap/* rows, then prints them. Acceptance: gap/safext/jit-opt
# ratio_vs_ebpf <= 3.
bench-gap:
	$(GO) test -bench 'BenchmarkExecCore|BenchmarkSLXOpt' -benchtime 200x .
	@grep -A 3 '"config": "gap/' BENCH_slxopt.json

# Where the sharded data plane's shards still meet: CPU, mutex and block
# profiles of the two-shard throughput benchmarks, one pprof -top each. The
# test binary runs inside .bench_build/, so its profiles and its
# BENCH_throughput.json land there and the committed artifact is untouched.
# Not part of check.
contention:
	mkdir -p .bench_build
	$(GO) test -c -o .bench_build/kexbench.test .
	cd .bench_build && ./kexbench.test -test.run '^$$' \
		-test.bench 'BenchmarkThroughput_(EBPF|Safext)JIT_Shards2$$' -test.benchtime 2s \
		-test.cpuprofile cpu.pprof -test.mutexprofile mutex.pprof -test.blockprofile block.pprof
	@for p in cpu mutex block; do \
		echo "== $$p"; \
		$(GO) tool pprof -top -nodecount 25 .bench_build/kexbench.test .bench_build/$$p.pprof; \
	done

check: lint build test race



clean:
	rm -f BENCH_*.json
	rm -rf internal/ebpf/statecheck_witnesses
	rm -rf internal/analysis/transval/tval_counterexamples
	$(GO) clean -testcache
