# Convenience targets; everything is plain dune underneath.

.PHONY: all test bench bench-smoke trace-smoke chaos-smoke snapshot-smoke arena-smoke serve-smoke serve-stress migrate-smoke cap-smoke examples doc clean

all:
	dune build @all

# The full gate: unit/property tests, then the two smoke passes that
# check what the unit tests cannot — byte-determinism of the modeled
# benches and of the trace exporters.
test:
	dune runtest
	$(MAKE) trace-smoke
	$(MAKE) chaos-smoke
	$(MAKE) snapshot-smoke
	$(MAKE) arena-smoke
	$(MAKE) serve-smoke
	$(MAKE) serve-stress
	$(MAKE) migrate-smoke
	$(MAKE) bench-smoke
	$(MAKE) cap-smoke

bench:
	dune exec bench/main.exe

# Each smoke target works in a private directory from mktemp -d, made
# on first use and removed when the target passes (a failing target
# leaves it behind for inspection), so two gates on one host never
# share a file.
tmpdir = $(or $(tmp_$@),$(eval tmp_$@ := $(shell mktemp -d))$(tmp_$@))

# Fast sanity pass: fig1 and c1 plus the throughput experiment, with a
# determinism check — the modeled-cycle output must be byte-identical
# across runs.  The host-time tables (bechamel ns/run, wall-clock) are
# stripped first: they measure the host and are expected to wobble.
# The throughput experiment runs in the private directory, so the
# checked-in BENCH_throughput.json is left alone (`make bench`
# regenerates it); its fresh output must be well-formed JSON with the
# backends section.
BENCH_NOISE_FILTER = sed -e '/micro-benchmark/,/^$$/d' \
                         -e '/host wall-clock/,/^$$/d' \
                         -e '/host time/,/^$$/d'

bench-smoke:
	dune build bench/main.exe bin/jsoncheck.exe
	_build/default/bench/main.exe fig1 c1 | $(BENCH_NOISE_FILTER) > $(tmpdir)/a.out
	_build/default/bench/main.exe fig1 c1 | $(BENCH_NOISE_FILTER) > $(tmpdir)/b.out
	@diff $(tmpdir)/a.out $(tmpdir)/b.out \
	  && echo "bench-smoke: modeled-cycle output deterministic" \
	  || { echo "bench-smoke: modeled-cycle output DIFFERS between runs"; exit 1; }
	cd $(tmpdir) && $(CURDIR)/_build/default/bench/main.exe throughput
	_build/default/bin/jsoncheck.exe $(tmpdir)/BENCH_throughput.json
	@grep -q '"backends"' $(tmpdir)/BENCH_throughput.json \
	  || { echo "bench-smoke: bench backends section missing"; exit 1; }
	@rm -rf $(tmpdir)

# Run the demo program with every exporter on, twice: each output must
# be well-formed JSON and byte-identical across runs (the exporters
# read modeled state only, never the host clock).
trace-smoke:
	dune build bin/ringsim.exe bin/jsoncheck.exe
	@for run in a b; do \
	  _build/default/bin/ringsim.exe examples/programs/demo.rng \
	    --trace-out $(tmpdir)/$$run.json \
	    --events-out $(tmpdir)/$$run.jsonl \
	    --metrics-out $(tmpdir)/$$run.metrics.json \
	    --metrics-prom $(tmpdir)/$$run.prom \
	    --profile > $(tmpdir)/$$run.out || exit 1; \
	done
	_build/default/bin/jsoncheck.exe $(tmpdir)/a.json \
	  $(tmpdir)/a.jsonl $(tmpdir)/a.metrics.json
	@for f in json jsonl metrics.json prom out; do \
	  diff $(tmpdir)/a.$$f $(tmpdir)/b.$$f \
	    || { echo "trace-smoke: $$f output DIFFERS between runs"; exit 1; }; \
	done
	@echo "trace-smoke: exporter output well-formed and deterministic"
	@# A fully-traced fleet at --sample 8, run twice: the merged Chrome
	@# trace, metrics and report must be byte-identical across runs, and
	@# the trace must not depend on the shard count — a request's trace
	@# is a function of the request, not of where it ran.
	@for run in a b; do \
	  _build/default/bin/ringsim.exe serve --shards 4 --requests 100 --seed 7 \
	    --queue-cap 256 --sample 8 \
	    --trace-out $(tmpdir)/serve_$$run.json \
	    --metrics-out $(tmpdir)/serve_$$run.metrics.json \
	    --report-json $(tmpdir)/serve_$$run.report.json \
	    > $(tmpdir)/serve_$$run.out \
	    || { echo "trace-smoke: traced serve run failed"; exit 1; }; \
	done
	_build/default/bin/jsoncheck.exe $(tmpdir)/serve_a.json \
	  $(tmpdir)/serve_a.metrics.json $(tmpdir)/serve_a.report.json
	@for f in json metrics.json report.json out; do \
	  diff $(tmpdir)/serve_a.$$f $(tmpdir)/serve_b.$$f \
	    || { echo "trace-smoke: traced serve $$f DIFFERS between runs"; exit 1; }; \
	done
	@_build/default/bin/ringsim.exe serve --shards 2 --requests 100 --seed 7 \
	  --queue-cap 256 --sample 8 \
	  --trace-out $(tmpdir)/serve_s2.json \
	  > /dev/null \
	  || { echo "trace-smoke: 2-shard traced serve run failed"; exit 1; }
	@diff $(tmpdir)/serve_a.json $(tmpdir)/serve_s2.json \
	  || { echo "trace-smoke: merged trace depends on the shard count"; exit 1; }
	@rm -rf $(tmpdir)
	@echo "trace-smoke: traced fleet byte-deterministic and placement-invariant"

# Security-under-fault campaigns on three fixed seeds, each run twice:
# the reports must show zero protection violations (ringsim exits
# non-zero otherwise), be well-formed JSON, and be byte-identical
# across runs — fault injection is deterministic replay, not noise.
chaos-smoke:
	dune build bin/ringsim.exe bin/jsoncheck.exe
	@for seed in 1 2 3; do \
	  for run in a b; do \
	    _build/default/bin/ringsim.exe --campaigns 5 --inject $$seed \
	      --metrics-out $(tmpdir)/$${seed}_$$run.json \
	      > $(tmpdir)/$${seed}_$$run.out \
	      || { echo "chaos-smoke: seed $$seed reported violations"; exit 1; }; \
	  done; \
	  _build/default/bin/jsoncheck.exe $(tmpdir)/$${seed}_a.json || exit 1; \
	  for f in json out; do \
	    diff $(tmpdir)/$${seed}_a.$$f $(tmpdir)/$${seed}_b.$$f \
	      || { echo "chaos-smoke: seed $$seed output DIFFERS between runs"; exit 1; }; \
	  done; \
	done
	@rm -rf $(tmpdir)
	@echo "chaos-smoke: campaigns deterministic, reports valid, invariants intact"

# Kill-and-resume equivalence at the CLI: run the journalled workload
# uninterrupted, then kill it at three cycle points and resume each
# from its last checkpoint.  The resumed stdout, device journal and
# metrics must be byte-identical to the uninterrupted run's (the two
# session-local counters — restores, journal_replays_skipped — are
# masked: a resumed run legitimately owns those).  All runs must pass
# the same observability flags; the image carries the exporters' state.
SNAPSHOT_LOCAL_FILTER = sed -E 's/"(restores|journal_replays_skipped)": [0-9]+/"\1": X/'

snapshot-smoke:
	dune build bin/ringsim.exe
	_build/default/bin/ringsim.exe examples/programs/journal.rng \
	  --checkpoint-every 100 --checkpoint-to $(tmpdir)/base.snap \
	  --metrics-out $(tmpdir)/base.metrics \
	  > $(tmpdir)/base.out
	@for k in 150 400 900; do \
	  _build/default/bin/ringsim.exe examples/programs/journal.rng \
	    --checkpoint-every 100 --checkpoint-to $(tmpdir)/k$$k.snap \
	    --metrics-out $(tmpdir)/dead$$k.metrics --kill-after $$k \
	    > $(tmpdir)/dead$$k.out 2>/dev/null || exit 1; \
	  _build/default/bin/ringsim.exe examples/programs/journal.rng \
	    --restore $(tmpdir)/k$$k.snap \
	    --checkpoint-every 100 --checkpoint-to $(tmpdir)/k$$k.snap \
	    --metrics-out $(tmpdir)/res$$k.metrics \
	    > $(tmpdir)/res$$k.out || exit 1; \
	  diff $(tmpdir)/base.out $(tmpdir)/res$$k.out \
	    || { echo "snapshot-smoke: kill at $$k: stdout DIFFERS after resume"; exit 1; }; \
	  cmp $(tmpdir)/base.snap.journal $(tmpdir)/k$$k.snap.journal \
	    || { echo "snapshot-smoke: kill at $$k: device journal DIFFERS after resume"; exit 1; }; \
	  $(SNAPSHOT_LOCAL_FILTER) $(tmpdir)/base.metrics \
	    > $(tmpdir)/base.metrics.masked; \
	  $(SNAPSHOT_LOCAL_FILTER) $(tmpdir)/res$$k.metrics \
	    > $(tmpdir)/res$$k.metrics.masked; \
	  diff $(tmpdir)/base.metrics.masked $(tmpdir)/res$$k.metrics.masked \
	    || { echo "snapshot-smoke: kill at $$k: metrics DIFFER after resume"; exit 1; }; \
	done
	@_build/default/bin/ringsim.exe examples/programs/journal.rng --inject 7 \
	  --checkpoint-every 100 --checkpoint-to $(tmpdir)/ibase.snap \
	  --metrics-out $(tmpdir)/ibase.metrics \
	  > $(tmpdir)/ibase.out
	@_build/default/bin/ringsim.exe examples/programs/journal.rng --inject 7 \
	  --checkpoint-every 100 --checkpoint-to $(tmpdir)/ik.snap \
	  --metrics-out $(tmpdir)/idead.metrics --kill-after 400 \
	  > $(tmpdir)/idead.out 2>/dev/null || exit 1
	@_build/default/bin/ringsim.exe examples/programs/journal.rng --inject 7 \
	  --restore $(tmpdir)/ik.snap \
	  --checkpoint-every 100 --checkpoint-to $(tmpdir)/ik.snap \
	  --metrics-out $(tmpdir)/ires.metrics \
	  > $(tmpdir)/ires.out || exit 1
	@$(SNAPSHOT_LOCAL_FILTER) $(tmpdir)/ibase.metrics \
	  > $(tmpdir)/ibase.metrics.masked
	@$(SNAPSHOT_LOCAL_FILTER) $(tmpdir)/ires.metrics \
	  > $(tmpdir)/ires.metrics.masked
	@diff $(tmpdir)/ibase.out $(tmpdir)/ires.out \
	  && cmp $(tmpdir)/ibase.snap.journal $(tmpdir)/ik.snap.journal \
	  && diff $(tmpdir)/ibase.metrics.masked $(tmpdir)/ires.metrics.masked \
	  || { echo "snapshot-smoke: resume under injection DIFFERS"; exit 1; }
	@echo "snapshot-smoke: kill-and-resume byte-identical at 3 kill points (+injection)"
	@# Delta-chain GC: this cadence captures 12 deltas over the run, so
	@# the fold-every-8 GC fires once: BASE is rewritten as the flatten
	@# of the chain, the folded delta files deleted, and capture
	@# continues on the rebased chain (d0001 restarts).  Fewer than 8
	@# surviving delta files is therefore proof the fold happened.
	@# Kill-and-resume through the folded chain must stay byte-identical.
	@_build/default/bin/ringsim.exe examples/programs/journal.rng \
	  --checkpoint-every 100 --checkpoint-to $(tmpdir)/gc.snap \
	  > $(tmpdir)/gc.out
	@ls $(tmpdir)/gc.snap.d* > /dev/null 2>&1 \
	  || { echo "snapshot-smoke: gc run left no delta files"; exit 1; }
	@test $$(ls $(tmpdir)/gc.snap.d* | wc -l) -lt 8 \
	  || { echo "snapshot-smoke: gc never folded the chain"; exit 1; }
	@rm -f $(tmpdir)/gck.snap*
	@_build/default/bin/ringsim.exe examples/programs/journal.rng \
	  --checkpoint-every 100 --checkpoint-to $(tmpdir)/gck.snap \
	  --kill-after 420 > $(tmpdir)/gcdead.out 2>/dev/null || exit 1
	@_build/default/bin/ringsim.exe examples/programs/journal.rng \
	  --restore $(tmpdir)/gck.snap \
	  --checkpoint-every 100 --checkpoint-to $(tmpdir)/gck.snap \
	  > $(tmpdir)/gcres.out || exit 1
	@diff $(tmpdir)/gc.out $(tmpdir)/gcres.out \
	  || { echo "snapshot-smoke: resume through folded chain DIFFERS"; exit 1; }
	@# Mixing delta files from another chain must be refused up front
	@# (Stale_base/Broken_chain), exit 2, before any state is touched.
	@cp $(tmpdir)/k400.snap $(tmpdir)/mix.snap
	@cp $(tmpdir)/ibase.snap.d0001 $(tmpdir)/mix.snap.d0001
	@_build/default/bin/ringsim.exe examples/programs/journal.rng \
	  --restore $(tmpdir)/mix.snap \
	  > /dev/null 2>$(tmpdir)/mix.err; \
	  test $$? -eq 2 \
	  || { echo "snapshot-smoke: mixed-chain restore did not exit 2"; exit 1; }
	@grep -qE "stale base|chain" $(tmpdir)/mix.err \
	  || { echo "snapshot-smoke: mixed-chain restore error unhelpful"; \
	       cat $(tmpdir)/mix.err; exit 1; }
	@rm -rf $(tmpdir)
	@echo "snapshot-smoke: delta chains fold, resume and refuse mixed links on disk"

# Multi-tenant arena gate.  Two seeded campaigns, each run twice: the
# billing report (stdout and JSON) must be byte-identical across
# reruns and across shard counts, the JSON must be well-formed, and
# the standard adversarial mix must quarantine at least one tenant
# while still exiting 0 — quarantines are the arena working as
# designed; only a cross-tenant auditor violation is a failure.  A
# final sweep of 20 seeded campaigns is the standing zero-leak gate:
# every one must keep violations at zero (exit 0) and quarantine at
# least one adversary.
arena-smoke:
	dune build bin/ringsim.exe bin/jsoncheck.exe
	@for seed in 5 42; do \
	  for run in a b; do \
	    _build/default/bin/ringsim.exe arena --tenants 96 --arena-seed $$seed \
	      --report-json $(tmpdir)/s$${seed}_$$run.json \
	      > $(tmpdir)/s$${seed}_$$run.out \
	      || { echo "arena-smoke: seed $$seed reported violations"; exit 1; }; \
	  done; \
	  _build/default/bin/jsoncheck.exe $(tmpdir)/s$${seed}_a.json || exit 1; \
	  for f in json out; do \
	    diff $(tmpdir)/s$${seed}_a.$$f $(tmpdir)/s$${seed}_b.$$f \
	      || { echo "arena-smoke: seed $$seed output DIFFERS between runs"; exit 1; }; \
	  done; \
	  grep -Eq ", [1-9][0-9]* quarantined" $(tmpdir)/s$${seed}_a.out \
	    || { echo "arena-smoke: seed $$seed quarantined no tenant"; exit 1; }; \
	done
	@_build/default/bin/ringsim.exe arena --tenants 96 --arena-seed 42 --shards 4 \
	  --report-json $(tmpdir)/s42_sh4.json > $(tmpdir)/s42_sh4.out \
	  || { echo "arena-smoke: 4-shard campaign reported violations"; exit 1; }
	@for f in json out; do \
	  diff $(tmpdir)/s42_a.$$f $(tmpdir)/s42_sh4.$$f \
	    || { echo "arena-smoke: report depends on the shard count"; exit 1; }; \
	done
	@for seed in $$(seq 1 20); do \
	  _build/default/bin/ringsim.exe arena --tenants 48 --arena-seed $$seed \
	    > $(tmpdir)/gate$$seed.out \
	    || { echo "arena-smoke: campaign seed $$seed reported violations"; exit 1; }; \
	  grep -Eq ", [1-9][0-9]* quarantined" $(tmpdir)/gate$$seed.out \
	    || { echo "arena-smoke: campaign seed $$seed quarantined no tenant"; exit 1; }; \
	done
	@rm -rf $(tmpdir)
	@echo "arena-smoke: billing deterministic and shard-independent, adversaries quarantined, 22 campaigns leak-free"

# Serving-fleet determinism, two ways.  First, the same 4-shard fleet
# run twice must produce byte-identical stdout and JSON report — the
# dispatcher's Domain interleaving must never leak into the output.
# Second, the report's "fleet" section (per-request counters, latency
# distribution, ring attribution) must be byte-identical between a
# 2-shard and a 4-shard fleet on the same seed: an outcome may not
# depend on which shard served it.  queue_cap is raised so nothing is
# shed — a shed request would legitimately change the outcome set.
serve-smoke:
	dune build bin/ringsim.exe bin/jsoncheck.exe
	@for run in a b; do \
	  _build/default/bin/ringsim.exe serve --shards 4 --requests 200 --seed 7 \
	    --queue-cap 256 --report-json $(tmpdir)/s4_$$run.json \
	    > $(tmpdir)/s4_$$run.out \
	    || { echo "serve-smoke: 4-shard fleet run failed"; exit 1; }; \
	done
	_build/default/bin/jsoncheck.exe $(tmpdir)/s4_a.json
	@for f in json out; do \
	  diff $(tmpdir)/s4_a.$$f $(tmpdir)/s4_b.$$f \
	    || { echo "serve-smoke: $$f output DIFFERS between runs"; exit 1; }; \
	done
	@_build/default/bin/ringsim.exe serve --shards 2 --requests 200 --seed 7 \
	  --queue-cap 256 --report-json $(tmpdir)/s2.json \
	  > $(tmpdir)/s2.out \
	  || { echo "serve-smoke: 2-shard fleet run failed"; exit 1; }
	@sed -n '/"fleet"/,/"dispatch"/p' $(tmpdir)/s2.json \
	  > $(tmpdir)/fleet2
	@sed -n '/"fleet"/,/"dispatch"/p' $(tmpdir)/s4_a.json \
	  > $(tmpdir)/fleet4
	@diff $(tmpdir)/fleet2 $(tmpdir)/fleet4 \
	  || { echo "serve-smoke: fleet section depends on the shard count"; exit 1; }
	@rm -rf $(tmpdir)
	@echo "serve-smoke: fleet reports deterministic and shard-count invariant"

# Execution-pool determinism under stress: a high-shard fleet on an
# explicit multi-worker pool, where every run's report body (fleet,
# dispatch and shards sections — everything after the config echo) and
# stdout must be byte-identical (a) run-to-run and (b) between a
# 4-worker and a 1-worker pool.  Host scheduling may change wall-clock
# only, never a byte of the report.
serve-stress:
	dune build bin/ringsim.exe bin/jsoncheck.exe
	@for run in a b; do \
	  _build/default/bin/ringsim.exe serve --shards 8 --requests 500 --seed 11 \
	    --queue-cap 256 --pool 4 \
	    --report-json $(tmpdir)/p4_$$run.json \
	    > $(tmpdir)/p4_$$run.out \
	    || { echo "serve-stress: 4-worker fleet run failed"; exit 1; }; \
	done
	_build/default/bin/jsoncheck.exe $(tmpdir)/p4_a.json
	@for f in json out; do \
	  diff $(tmpdir)/p4_a.$$f $(tmpdir)/p4_b.$$f \
	    || { echo "serve-stress: $$f output DIFFERS between runs"; exit 1; }; \
	done
	@_build/default/bin/ringsim.exe serve --shards 8 --requests 500 --seed 11 \
	  --queue-cap 256 --pool 1 \
	  --report-json $(tmpdir)/p1.json \
	  > $(tmpdir)/p1.out \
	  || { echo "serve-stress: 1-worker fleet run failed"; exit 1; }
	@for v in p4_a p1; do \
	  sed -n '/"fleet"/,$$p' $(tmpdir)/$$v.json \
	    > $(tmpdir)/$$v.body; \
	done
	@diff $(tmpdir)/p4_a.body $(tmpdir)/p1.body \
	  || { echo "serve-stress: report depends on the pool size"; exit 1; }
	@diff $(tmpdir)/p4_a.out $(tmpdir)/p1.out \
	  || { echo "serve-stress: stdout depends on the pool size"; exit 1; }
	@rm -rf $(tmpdir)
	@echo "serve-stress: report invariant under pool size and reruns"

# Elastic-fleet invariance: a live shard migration, rolling restarts
# and queue-depth autoscaling must each leave the report's fleet
# section byte-identical to the plain run — the drain moves (never
# drops) requests, a restarted shard only loses cache warmth, and the
# active-set size is routing detail.  ringsim exits non-zero when
# anything is shed or degraded, so exit 0 on every variant proves zero
# dropped requests.
migrate-smoke:
	dune build bin/ringsim.exe
	@_build/default/bin/ringsim.exe serve --shards 4 --requests 200 --seed 7 \
	  --queue-cap 256 --pool 4 \
	  --report-json $(tmpdir)/plain.json \
	  > $(tmpdir)/plain.out \
	  || { echo "migrate-smoke: plain fleet run failed"; exit 1; }
	@_build/default/bin/ringsim.exe serve --shards 4 --requests 200 --seed 7 \
	  --queue-cap 256 --pool 4 --migrate 1:0:1 \
	  --report-json $(tmpdir)/migrate.json \
	  > $(tmpdir)/migrate.out \
	  || { echo "migrate-smoke: migration run dropped requests"; exit 1; }
	@_build/default/bin/ringsim.exe serve --shards 4 --requests 200 --seed 7 \
	  --queue-cap 256 --pool 4 --rolling-restart 2 \
	  --report-json $(tmpdir)/restart.json \
	  > $(tmpdir)/restart.out \
	  || { echo "migrate-smoke: rolling-restart run dropped requests"; exit 1; }
	@_build/default/bin/ringsim.exe serve --shards 4 --requests 200 --seed 7 \
	  --queue-cap 32 --pool 4 --autoscale \
	  --report-json $(tmpdir)/autoscale.json \
	  > $(tmpdir)/autoscale.out \
	  || { echo "migrate-smoke: autoscale run shed requests"; exit 1; }
	@grep -q '"migrated": [1-9]' $(tmpdir)/migrate.json \
	  || { echo "migrate-smoke: migration drained nothing"; exit 1; }
	@grep -q '"restarts": [1-9]' $(tmpdir)/restart.json \
	  || { echo "migrate-smoke: no restart cycles taken"; exit 1; }
	@for v in plain migrate restart autoscale; do \
	  sed -n '/"fleet"/,/"dispatch"/p' $(tmpdir)/$$v.json \
	    > $(tmpdir)/$$v.fleet; \
	done
	@for v in migrate restart autoscale; do \
	  diff $(tmpdir)/plain.fleet $(tmpdir)/$$v.fleet \
	    || { echo "migrate-smoke: $$v changed the fleet section"; exit 1; }; \
	done
	@rm -rf $(tmpdir)
	@echo "migrate-smoke: fleet section invariant under migration, restarts and autoscaling; zero dropped requests"

# Capability backend: a cap-mode run must be byte-deterministic, the
# whole example-program catalog must run under --backend cap, an
# unknown backend must be a usage error, and a cap-mode fleet must be
# deterministic and shard-count invariant.  (The bench's backends
# section is checked by bench-smoke, on the file it just wrote.)
cap-smoke:
	dune build bin/ringsim.exe bin/jsoncheck.exe
	@for run in a b; do \
	  _build/default/bin/ringsim.exe examples/programs/demo.rng \
	    --backend cap > $(tmpdir)/run_$$run.out \
	    || { echo "cap-smoke: cap-mode run failed"; exit 1; }; \
	done
	@diff $(tmpdir)/run_a.out $(tmpdir)/run_b.out \
	  || { echo "cap-smoke: cap-mode run DIFFERS between runs"; exit 1; }
	@for p in echo journal multiproc; do \
	  _build/default/bin/ringsim.exe examples/programs/$$p.rng --backend cap \
	    > $(tmpdir)/$$p.out \
	    || { echo "cap-smoke: $$p.rng failed under --backend cap"; exit 1; }; \
	done
	@_build/default/bin/ringsim.exe examples/programs/audited.rng \
	  --backend cap --start reader > $(tmpdir)/audited.out \
	  || { echo "cap-smoke: audited.rng failed under --backend cap"; exit 1; }
	@_build/default/bin/ringsim.exe examples/programs/demo.rng --backend bogus \
	  > /dev/null 2>&1; \
	  test $$? -eq 2 \
	  || { echo "cap-smoke: unknown backend did not exit 2"; exit 1; }
	@for run in a b; do \
	  _build/default/bin/ringsim.exe serve --shards 2 --requests 200 --seed 7 \
	    --queue-cap 256 --backend cap \
	    --report-json $(tmpdir)/s2_$$run.json \
	    > $(tmpdir)/s2_$$run.out \
	    || { echo "cap-smoke: cap-mode fleet run failed"; exit 1; }; \
	done
	_build/default/bin/jsoncheck.exe $(tmpdir)/s2_a.json
	@for f in json out; do \
	  diff $(tmpdir)/s2_a.$$f $(tmpdir)/s2_b.$$f \
	    || { echo "cap-smoke: cap-mode fleet $$f DIFFERS between runs"; exit 1; }; \
	done
	@_build/default/bin/ringsim.exe serve --shards 4 --requests 200 --seed 7 \
	  --queue-cap 256 --backend cap --report-json $(tmpdir)/s4.json \
	  > $(tmpdir)/s4.out \
	  || { echo "cap-smoke: 4-shard cap fleet run failed"; exit 1; }
	@sed -n '/"fleet"/,/"dispatch"/p' $(tmpdir)/s2_a.json \
	  > $(tmpdir)/fleet2
	@sed -n '/"fleet"/,/"dispatch"/p' $(tmpdir)/s4.json \
	  > $(tmpdir)/fleet4
	@diff $(tmpdir)/fleet2 $(tmpdir)/fleet4 \
	  || { echo "cap-smoke: cap fleet section depends on the shard count"; exit 1; }
	@rm -rf $(tmpdir)
	@echo "cap-smoke: cap-mode runs deterministic, fleet shard-invariant, catalog green"

examples:
	@for e in quickstart protected_subsystem layered_supervisor debug_ring \
	          multiprogramming dynamic_linking grading typewriter \
	          argument_chain bare_metal; do \
	  echo "==== $$e ===="; dune exec examples/$$e.exe; echo; done

clean:
	dune clean
