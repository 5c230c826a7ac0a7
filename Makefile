.PHONY: all build test bench lint lint-deep json-check env-check monitor-smoke explain-smoke doctor-smoke ablation-smoke perf-smoke verify baseline clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Scratch directory for smoke/lint artifacts so they can never end up
# as untracked clutter (or worse, commits) in the repo root.
SMOKE_DIR := smoke

$(SMOKE_DIR):
	mkdir -p $(SMOKE_DIR)

# flexile-lint, fast syntactic stage: AST-level determinism/
# concurrency/hygiene invariants (DESIGN.md section 9).  Writes the
# machine-readable v2 summary to smoke/lint-summary.json (uploaded as
# a CI artifact on failure) and exits non-zero on any unsuppressed
# finding.  Runs pre-build by design: it parses sources directly.
lint: | $(SMOKE_DIR)
	dune build tools/lint/lint_main.exe
	dune exec --no-build tools/lint/lint_main.exe -- \
	  --json $(SMOKE_DIR)/lint-summary.json lib bin bench test

# flexile-lint, deep typedtree stage (DESIGN.md section 14): needs the
# .cmt artifacts a full build leaves behind, then adds interprocedural
# taint (i1), shard-capture race (i2) and noalloc-kernel (i3) analysis
# on top of the syntactic rules, with stale suppressions made fatal —
# this is the authoritative lint verdict CI enforces.
lint-deep: | $(SMOKE_DIR)
	dune build
	dune exec --no-build tools/lint/lint_main.exe -- \
	  --deep --strict-suppressions \
	  --json $(SMOKE_DIR)/lint-summary.json lib bin bench test

# Single-JSON-writer guard (DESIGN.md section 7): every artifact is a
# Json.t value serialized by Json.to_string, so no module under lib/,
# bin/ or bench/ may define its own escaper or number formatter
# (json_escape, jnum, add_str, add_num) or carry a hand-written
# \"key\": fragment in a string literal.  tools/lint (compiler-libs
# only, with its own pretty-printed summary) and perfbench/ are out of
# scope.
JSON_WRITER_DEFS := let (rec )?(json_escape|jnum|add_str|add_num)\b
JSON_KEY_FRAGMENT := \\"[A-Za-z0-9_.%]+\\" ?:
json-check:
	@if grep -rnE --include='*.ml' '$(JSON_WRITER_DEFS)' lib bin bench \
	  || grep -rnE --include='*.ml' '$(JSON_KEY_FRAGMENT)' lib bin bench; then \
	  echo "json-check: build a Json.t and serialize it with Json.to_string"; \
	  exit 1; \
	fi
	@echo "json-check: ok"

# One-way-to-set-it guard (DESIGN.md section 16): settings are CLI flags
# or constants, never environment variables.  The single sanctioned
# read is the FLEXILE_HEALTH_DUMP directory in Health.dump_dir — a
# deployment path, not a tuning knob.  Fails on any other getenv,
# getenv_opt or Unix.environment in an .ml under lib/, bin/ or bench/.
ENV_READ := getenv|Unix\.environment
env-check:
	@if grep -rnE --include='*.ml' '$(ENV_READ)' lib bin bench \
	  | grep -vE '^lib/lp/health\.ml:[0-9]+:  match Sys\.getenv_opt "FLEXILE_HEALTH_DUMP" with$$'; then \
	  echo "env-check: add a CLI flag or a constant, not an environment variable"; \
	  exit 1; \
	fi
	@echo "env-check: ok"

# SLO monitor smoke (DESIGN.md section 10): replay a short seeded
# failure stream twice and assert the Prometheus page and the JSONL
# snapshot series are byte-identical — the deterministic-export
# contract the monitor's artifacts rely on.
monitor-smoke: | $(SMOKE_DIR)
	dune build bin/flexile_cli.exe
	dune exec --no-build bin/flexile_cli.exe -- monitor IBM --seed 7 \
	  --draws 48 --scenarios 24 --max-pairs 40 --iterations 1 --jobs 2 \
	  --snapshot-every 12 --prom $(SMOKE_DIR)/monitor-a.prom \
	  --jsonl $(SMOKE_DIR)/monitor-a.jsonl
	dune exec --no-build bin/flexile_cli.exe -- monitor IBM --seed 7 \
	  --draws 48 --scenarios 24 --max-pairs 40 --iterations 1 --jobs 2 \
	  --snapshot-every 12 --prom $(SMOKE_DIR)/monitor-b.prom \
	  --jsonl $(SMOKE_DIR)/monitor-b.jsonl
	cmp $(SMOKE_DIR)/monitor-a.prom $(SMOKE_DIR)/monitor-b.prom
	cmp $(SMOKE_DIR)/monitor-a.jsonl $(SMOKE_DIR)/monitor-b.jsonl

# Miss-attribution smoke (DESIGN.md section 13): the explain report and
# the regime-conditioned attainment table must be byte-identical across
# job counts (cold per-scenario solves); the Prometheus page must be
# byte-identical across repeated runs at a fixed job count (trace
# counters such as warm-start iteration totals legitimately differ
# across job counts, so the page is only repeat-stable).
explain-smoke: | $(SMOKE_DIR)
	dune build bin/flexile_cli.exe
	dune exec --no-build bin/flexile_cli.exe -- explain IBM --two-class \
	  --mix srlg,partial,drift --max-pairs 60 --iterations 1 --jobs 1 \
	  --out $(SMOKE_DIR)/explain-a.json \
	  --regimes $(SMOKE_DIR)/explain-a-regimes.json
	dune exec --no-build bin/flexile_cli.exe -- explain IBM --two-class \
	  --mix srlg,partial,drift --max-pairs 60 --iterations 1 --jobs 4 \
	  --out $(SMOKE_DIR)/explain-b.json \
	  --regimes $(SMOKE_DIR)/explain-b-regimes.json \
	  --prom $(SMOKE_DIR)/explain-b.prom
	dune exec --no-build bin/flexile_cli.exe -- explain IBM --two-class \
	  --mix srlg,partial,drift --max-pairs 60 --iterations 1 --jobs 4 \
	  --prom $(SMOKE_DIR)/explain-c.prom
	cmp $(SMOKE_DIR)/explain-a.json $(SMOKE_DIR)/explain-b.json
	cmp $(SMOKE_DIR)/explain-a-regimes.json $(SMOKE_DIR)/explain-b-regimes.json
	cmp $(SMOKE_DIR)/explain-b.prom $(SMOKE_DIR)/explain-c.prom

# Solver-health doctor smoke (DESIGN.md section 15): the doctor report
# over the seeded near-singular fixture must be byte-identical across
# job counts (the replay is single-domain and carries no wall-clock
# values), both live — which also exercises the threshold-trip
# auto-dump — and replayed from that dump via --from-dump.
doctor-smoke: | $(SMOKE_DIR)
	dune build bin/flexile_cli.exe
	FLEXILE_HEALTH_DUMP=$(SMOKE_DIR) dune exec --no-build bin/flexile_cli.exe -- \
	  doctor --fixture near-singular --jobs 1 --out $(SMOKE_DIR)/doctor-a.json
	FLEXILE_HEALTH_DUMP=$(SMOKE_DIR) dune exec --no-build bin/flexile_cli.exe -- \
	  doctor --fixture near-singular --jobs 4 --out $(SMOKE_DIR)/doctor-b.json
	cmp $(SMOKE_DIR)/doctor-a.json $(SMOKE_DIR)/doctor-b.json
	dune exec --no-build bin/flexile_cli.exe -- doctor \
	  --from-dump $(SMOKE_DIR)/health-dump-near-singular-fixture.json \
	  --jobs 1 --out $(SMOKE_DIR)/doctor-c.json
	dune exec --no-build bin/flexile_cli.exe -- doctor \
	  --from-dump $(SMOKE_DIR)/health-dump-near-singular-fixture.json \
	  --jobs 4 --out $(SMOKE_DIR)/doctor-d.json
	cmp $(SMOKE_DIR)/doctor-c.json $(SMOKE_DIR)/doctor-d.json

# Offline-ablation smoke (EXPERIMENTS.md "Ablation"): runs Flexile's
# offline phase end to end under the default, prune-off, cut-sharing-off
# and Hamming-limit configurations on IBM, and fails unless every
# variant converges to the same penalty (the last column of each
# variant row).
ablation-smoke: | $(SMOKE_DIR)
	dune build bench/main.exe
	dune exec --no-build bench/main.exe -- --fig ablation \
	  | tee $(SMOKE_DIR)/ablation.txt
	awk '/^  variant/ { on = 1; next } /^  \(on / { on = 0 } \
	  on && NF { n++; p[$$NF] = 1 } \
	  END { k = 0; for (v in p) k++; \
	    if (n != 4 || k != 1) { print "ablation: expected 4 variants at one penalty"; exit 1 } }' \
	  $(SMOKE_DIR)/ablation.txt

# Pivot-path allocation smoke (DESIGN.md section 11): one traced
# cwix-master perfbench round.  Fails unless the run reports
# "correct":true and the master branch-and-bound allocates at most
# PERF_SMOKE_MWORDS million minor words (about 90 with an
# allocation-free pivot loop; 3,437 when every pivot boxed its floats).
PERF_SMOKE_MWORDS := 200
perf-smoke: | $(SMOKE_DIR)
	dune build perfbench/main.exe
	dune exec --no-build perfbench/main.exe -- --workload cwix-master \
	  --seed 1 --seconds 1 --trace 1 > $(SMOKE_DIR)/perf-smoke.txt
	tail -n 1 $(SMOKE_DIR)/perf-smoke.txt | grep -q '"correct":true'
	tail -n 1 $(SMOKE_DIR)/perf-smoke.txt \
	  | grep -o '"mip.minor_mwords":{"value":[-+.0-9eE]*' | cut -d: -f3 \
	  | awk -v max=$(PERF_SMOKE_MWORDS) \
	    '{ n++; printf "perf-smoke: mip.minor_mwords %.1f (max %d)\n", $$1, max; \
	       if ($$1 > max) bad = 1 } \
	     END { if (n != 1 || bad) { print "perf-smoke: failed"; exit 1 } }'

# Relative headroom for the benchmark regression gate.  50% absorbs
# ordinary same-machine jitter; CI overrides this upward because the
# committed baseline was recorded on a different machine.
BENCH_TOLERANCE ?= 50

# Tier-1 verification: full build, both lint stages (syntactic
# pre-build signal, then the deep typedtree stage over the fresh cmts),
# the single-JSON-writer and environment-read guards, the test suite,
# the monitor/explain/doctor determinism smokes, the offline-ablation
# smoke, the pivot-path allocation smoke, a smoke run of the
# micro-benchmarks (exercises the parallel sweep at jobs 1 and 4), and
# the regression gate against the committed baseline.
verify:
	$(MAKE) lint
	dune build
	$(MAKE) lint-deep
	$(MAKE) json-check
	$(MAKE) env-check
	dune runtest
	$(MAKE) monitor-smoke
	$(MAKE) explain-smoke
	$(MAKE) doctor-smoke
	$(MAKE) ablation-smoke
	$(MAKE) perf-smoke
	dune exec bench/main.exe -- --micro
	dune exec bench/main.exe -- --gate --repeat 3 --jobs 2 \
	  --check BENCH_PR8.json --tolerance $(BENCH_TOLERANCE)

# Re-record the committed gate baseline (run on an idle machine).
baseline:
	dune exec bench/main.exe -- --gate --repeat 5 --jobs 2 \
	  --baseline BENCH_PR8.json

clean:
	dune clean
	rm -rf $(SMOKE_DIR)
