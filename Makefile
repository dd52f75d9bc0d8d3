# Convenience entry points; see README.md for the full bench matrix.

.PHONY: all check build test lint faultcheck statecheck profile trace-smoke ci-local bench-smoke bench-hotpath bench-snapshot bench-mutation bench-peer bench loc perf-ab clean

all: check

build:
	dune build @all

test:
	dune runtest

# Static analysis: the domain-safety source lint over every shared
# library and executable, then the spec linter + program verifier over
# all registered targets' specs and seed programs. Both exit non-zero on
# error-severity findings.
lint:
	dune build @all
	dune exec bin/domain_lint.exe -- lib bin bench test
	dune exec bin/nyx_net_fuzz.exe -- lint --all-targets

# Tier-1 verify: exactly what .github/workflows/ci.yml runs (build-test
# job = build + tests + sanitized tests + smoke benches + profile;
# lint job = the lint suite). Build + tests, the lint suite, the test
# suite again under the interpreter sanitizer (NYX_SANITIZE asserts the
# verifier's facts at runtime; --force because dune does not track env
# vars), both smoke benches asserted crash-free under NYX_DOMAINS=4
# (hotpath additionally fails if the before/after gears diverge or the
# speedup drops below 2x), the static-vs-dynamic conformance gate and
# the trace smoke.
check:
	dune build @all && dune runtest
	$(MAKE) lint
	NYX_SANITIZE=1 dune runtest --force
	NYX_DOMAINS=4 dune exec bench/main.exe -- parallel_smoke --budget 1 --sync-ms 100
	NYX_DOMAINS=4 NYX_BENCH_HOTPATH_EXECS=1500 NYX_BENCH_HOTPATH_PHASE_ITERS=1000 dune exec bench/main.exe -- hotpath
	$(MAKE) bench-snapshot
	$(MAKE) bench-mutation
	$(MAKE) bench-peer
	$(MAKE) faultcheck
	$(MAKE) statecheck
	$(MAKE) trace-smoke

# Fault-injection smoke campaign (lib/resilience): runs a full campaign
# with every fault site armed at 2%, asserts zero aborted faults (every
# injection recovered via the recreate-on-demand path), bit-identical
# same-seed results, and the fleet supervisor's restart/quarantine
# behaviour; writes FAULTCHECK.json.
faultcheck:
	dune build @all
	dune exec bench/main.exe -- faultcheck

# Static-vs-dynamic conformance gate (lib/analysis): for every registry
# target, seeds plus deterministic mutants are probed and every observed
# state boundary must be statically feasible. Fails on any violation;
# writes STATECHECK.json (residue = feasible-but-unobserved indices is
# reported, not gated).
statecheck:
	dune build @all
	dune exec bench/main.exe -- statecheck

# Per-phase snapshot-cost profiles (lib/obs): a short profiled campaign
# per flagship target, table on stdout, JSON artifact next to the
# BENCH_*.json files.
profile:
	dune build @all
	dune exec bin/nyx_net_fuzz.exe -- profile echo -b 10 -s 7 -o PROFILE_echo.json
	dune exec bin/nyx_net_fuzz.exe -- profile lightftp -b 10 -s 7 -o PROFILE_lightftp.json

# Trace smoke (lib/obs): a traced lightftp campaign; fails unless jq
# accepts every line of the JSONL trace, then prints events and bytes
# per exec.
trace-smoke:
	dune build bin/nyx_net_fuzz.exe
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	NYX_TRACE="$$dir/trace.jsonl" ./_build/default/bin/nyx_net_fuzz.exe fuzz lightftp -b 5 -s 7 >/dev/null && \
	jq -c . "$$dir/trace.jsonl" >/dev/null && \
	execs=$$(jq -r 'select(.ev == "campaign") | .execs' "$$dir/trace.jsonl") && \
	events=$$(wc -l < "$$dir/trace.jsonl") && bytes=$$(wc -c < "$$dir/trace.jsonl") && \
	test "$$execs" -gt 0 && \
	awk -v e="$$events" -v b="$$bytes" -v x="$$execs" 'BEGIN { \
	  printf "trace-smoke: %d execs, %d events (%.2f/exec), %d bytes (%.1f/exec)\n", x, e, e / x, b, b / x }'

# Everything CI runs, locally, in CI's order.
ci-local:
	$(MAKE) check
	$(MAKE) profile

# Shared-corpus fleet scaling bench on the full multi-second budget:
# synced fleets at N in {2,4}, 1 domain vs N, deterministic
# work/makespan speedup gated at >= 0.7*N, parallel==sequential
# asserted, corpus-dedup experiment included; writes BENCH_parallel.json.
bench-smoke:
	NYX_BENCH_SCALE_GATE=0.7 dune exec bench/main.exe -- parallel_smoke

# Coverage-bound hot-loop bench: journaled coverage + O(1) scheduling vs
# the before-style full-scan paths; writes BENCH_hotpath.json.
bench-hotpath:
	dune exec bench/main.exe -- hotpath

# Snapshot placement matrix: all four policies across protocol-diverse
# targets, scored by virtual time-to-coverage; the gate fails unless the
# dynamic policy strictly beats the best static policy on at least half
# the matrix. Writes BENCH_snapshot.json. Fully deterministic (virtual
# clock), so the gate result is reproducible bit-for-bit.
bench-snapshot:
	dune exec bench/main.exe -- snapshot_matrix

# Mutation-engine matrix: havoc vs typed (splice + generate) across the
# protocol targets, scored by executions-to-coverage on the exec-keyed
# timeline; the gate fails unless the typed engine reaches the per-target
# frontier within the havoc engine's exec count on at least half the
# matrix. Writes BENCH_mutation.json. Fully deterministic.
bench-mutation:
	dune exec bench/main.exe -- mutation_matrix

# Peer-vs-bytecode matrix: --mode peer campaigns (scripted peer with
# encoder faults armed) vs bytecode campaigns at the same seed/budget on
# lightftp, tinydtls and mysql-client; the gate fails unless peer mode
# finds strictly more unique edges or a peer-only crash kind on at least
# 2 of the 3 targets. Also asserts peer determinism and zero aborted
# encoder faults. Writes BENCH_peer.json. Fully deterministic.
bench-peer:
	dune exec bench/main.exe -- peer_matrix

# The full paper evaluation (slow).
bench:
	dune exec bench/main.exe -- all

# Line count of a change: added, removed and net lines per area (lib,
# bin, bench, test) between BASE and the working tree, from git diff
# --numstat. New files count once they are git-added.
#   make loc BASE=<rev>
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- lib bin bench test | awk ' \
	  { split($$3, p, "/"); a[p[1]] += $$1; r[p[1]] += $$2 } \
	  END { printf "%-6s %8s %8s %8s\n", "area", "added", "removed", "net"; \
	        n = split("lib bin bench test", areas, " "); \
	        for (i = 1; i <= n; i++) { k = areas[i]; \
	          printf "%-6s %8d %8d %+8d\n", k, a[k], r[k], a[k] - r[k] } }'

# Wall-clock A/B of perfbench between BASE and the working tree: PAIRS
# alternating pairs of `perfbench/run.sh --trace 0 --seconds 10`, each
# side's quartiles of execs_per_wall_s and minor_words_per_exec, and the
# pairs each side won. Fails if execs_per_virtual_s or final_edges
# differ between the sides.
#   make perf-ab BASE=<rev> WORKLOAD=<name> SEED=<n> PAIRS=<k>
WORKLOAD ?= lightftp-static
SEED ?= 1
PAIRS ?= 5
perf-ab:
	bash bench/perf_ab.sh "$(BASE)" "$(WORKLOAD)" "$(SEED)" "$(PAIRS)"

clean:
	dune clean
