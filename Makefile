# Convenience targets; everything is plain dune underneath.

.PHONY: all test bench bench-smoke examples clean

all:
	dune build @all

# The full gate.  `dune runtest` holds every modeled check: unit and
# property tests, and the cram goldens in test/cram (CLI runs, chaos
# campaigns, kill-and-resume, fleet invariance, the arena sweep, the
# bench figures, the example programs).  bench-smoke adds the checks
# that time the host and so stay out of runtest.
test:
	dune runtest
	$(MAKE) bench-smoke

bench:
	dune exec bench/main.exe

# The throughput experiment and its host-time gates (trace overhead,
# incremental snapshots, step allocation), run in a private directory
# from mktemp -d so the checked-in BENCH_throughput.json is left alone
# (`make bench` regenerates it).  The fresh file must be well-formed
# JSON with the backends, rewind and tenant sections.  The directory is
# removed when the gates pass and left for inspection when they fail.
bench-smoke:
	dune build bench/main.exe bin/jsoncheck.exe
	@dir=$$(mktemp -d) && cd $$dir \
	  && $(CURDIR)/_build/default/bench/main.exe throughput \
	  && $(CURDIR)/_build/default/bin/jsoncheck.exe BENCH_throughput.json \
	  && for section in backends rewind tenant; do \
	       grep -q "\"$$section\"" BENCH_throughput.json \
	       || { echo "bench-smoke: bench $$section section missing"; exit 1; }; \
	     done \
	  && rm -rf $$dir

examples:
	@for e in quickstart protected_subsystem layered_supervisor debug_ring \
	          multiprogramming dynamic_linking grading typewriter \
	          argument_chain bare_metal; do \
	  echo "==== $$e ===="; dune exec examples/$$e.exe; echo; done

clean:
	dune clean
