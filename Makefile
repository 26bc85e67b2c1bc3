# Convenience entry points; dune is the real build system.

.PHONY: all build test fmt check bench bench-smoke bench-quick profile lint clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

# The one target CI / a reviewer needs: formatting, full build, full
# tests (incl. the qcheck CFG/dataflow properties and the DSL-vs-native
# golden table over every workload and adversarial fixture), the
# reduced benchmark gate (fused single-pass analysis must never lose to
# independent per-policy scans; flow-sensitive policies within budget
# of the pattern scans; the DSL libc program within 1.5x of the native
# module including interpreter overhead; domains=4 batch >= 1.8x
# faster than domains=1 wall-clock, skipped on machines with < 4
# recommended domains; domains=2 never slower than domains=1, skipped
# below 2; a mutually-attested fleet of two re-inspects a
# shared binary at most once), and the control-flow lint over every
# example workload. `test` includes the fleet suite (test_fleet.ml: MAGE
# derivation, verdict-import trust rule, rogue-peer rejection,
# quarantine failover). `bench-quick` is the only step that drives all
# four service workloads end to end (0-RTT resumption and the warm
# restart included) against the benchmark's known-answer table.
check: fmt build test bench-smoke bench-quick lint

bench:
	dune exec bench/main.exe

bench-smoke:
	dune exec bench/main.exe -- --smoke

# Every benchmark workload once, in short form: exits non-zero when a
# verdict departs from the known-answer table (benchmark/README.md). It
# runs inside _build/, so it appends nothing to benchmark/history.jsonl.
bench-quick:
	dune build @benchmark/quick

# One profiler-wrapped parallel batch through the domain pool. Uses
# `perf stat` when the box has it (cycles, context switches, the real
# contention signal) and falls back to `/usr/bin/time -v`
# (voluntary/involuntary switches) elsewhere; the benchmark itself
# prints the batch's wall time and throughput.
profile: build
	@if command -v perf >/dev/null 2>&1; then \
	  perf stat -- dune exec bench/main.exe -- --profile; \
	elif [ -x /usr/bin/time ]; then \
	  /usr/bin/time -v dune exec bench/main.exe -- --profile; \
	else \
	  echo "(neither perf nor /usr/bin/time available; running unwrapped)"; \
	  dune exec bench/main.exe -- --profile; \
	fi

# Every synthesized evaluation workload, fully instrumented, must pass
# the enclave's inspection under the CFG lint with zero findings.
lint:
	dune exec bin/engarde_cli.exe -- inspect -p lint --variant stack+ifcc \
	  -b nginx -b 401.bzip2 -b graph-500 -b 429.mcf -b memcached \
	  -b netperf -b otp-gen

clean:
	dune clean
