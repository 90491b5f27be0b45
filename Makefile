# Developer entry points. Everything runs from the repository root and
# injects PYTHONPATH=src so a clean checkout needs no install step.

PYTHON ?= python
PYTHONPATH_PREFIX := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-smoke serve-smoke load-smoke incremental-smoke \
	apps-smoke docs-check perfbench-smoke

# Tier-1 gate: the full unit/property suite.
test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q

# Quick perf sanity: batched-vs-serial ranking comparison (>= 20k nodes;
# scores within rtol 1e-10 of the per-edge loop oracle, >= 20x faster),
# the shared tree set-up on full NLR (bit-identical to the loop oracles,
# >= 5x faster), join reuse across rounds on full NLR (bit-identical
# scores, <= 35% of joins regrown per round, rounds 2-5 >= 1.2x faster
# than dropping the store), exact pruning of rounds 2+ on full NLR (the
# same picks as scoring every candidate, <= 35% of the candidates
# scored, rounds 2-5 >= 1.25x faster), SPAI on the four factors of a
# full thupg1t run (bit-identical to the column-loop oracle, >= 7.5x
# faster; prints the columns under the log n floor and their ties),
# similarity marking in batches over feGRASS's walk on full NLR (the
# same picks and marks as marking per pick, >= 2.5x faster), plus a
# sharded-pipeline smoke run, all statistics-free.  First, every
# benchmark module must import and collect, so one that names a
# removed function fails here rather than only when someone runs it.
bench-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/bench_*.py \
		--collect-only -q
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/bench_kernels.py \
		-q -s -k "ranking or setup or reuse or prune or spai or marking" \
		--benchmark-disable
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest benchmarks/bench_sharding.py \
		-q -s --benchmark-disable

# Service sanity: boot the daemon on an ephemeral port, run one job
# round trip through the client, require a graceful SIGTERM drain —
# all under a 60 s budget.
serve-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) tools/serve_smoke.py

# Service load sanity: tiny N-clients x M-graphs burst against both
# executors (thread and process), cold and warm-restart phases, under
# a 60 s budget; fails on any failed job or zero throughput.  Writes
# BENCH_service.json.
load-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) tools/load_test.py --smoke

# Incremental sanity: replay a tiny edge stream through the
# EvolvingSparsifier under a 60 s budget; fails unless the delta path
# beats a per-batch full rebuild, a from-scratch run's p50 is at least
# 28x the p50 of the batches that did not rebuild (same process), and
# the incrementally maintained kappa stays within the drift budget of
# a from-scratch run.  Writes BENCH_incremental.json.
incremental-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_incremental.py --smoke

# Application sanity: both application-level benchmarks (transient
# power-grid simulation and spectral clustering) at CI scale, under a
# combined 60 s budget.  Fails when the sparsifier-preconditioned
# transient diverges from the dense reference (> 16 mV) or clustering
# quality drops below the planted-partition ARI floor.  Writes the
# matching sections of BENCH_apps.json.
apps-smoke:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_app_transient.py \
		--smoke --budget 35
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/bench_app_clustering.py \
		--smoke --budget 25

# Repository-benchmark sanity: one short evolving-stream run, untraced
# and traced (--trace 1 imports every traced layer module); fails
# unless each run's closing JSON line reports "correct": true.
PERFBENCH_CHECK := import json, sys; lines = sys.stdin.readlines(); \
	sys.stdout.writelines(lines); sys.exit(not json.loads(lines[-1])["correct"])

perfbench-smoke:
	for trace in 0 1; do \
		$(PYTHON) perfbench/run.py --workload evolving-stream --seed 1 \
			--seconds 1 --trace $$trace | $(PYTHON) -c '$(PERFBENCH_CHECK)' \
			|| exit 1; \
	done

# The documentation gate: no module in src/ imports a name it never
# reads (unless it re-exports it in __all__ or marks it noqa: F401),
# the generated API reference must match the registries, the public
# API must be fully docstringed, and every runnable block in README.md
# + docs/*.md plus every example must execute cleanly.
docs-check:
	$(PYTHON) tools/check_imports.py
	$(PYTHONPATH_PREFIX) $(PYTHON) tools/gen_api_docs.py --check
	$(PYTHONPATH_PREFIX) $(PYTHON) tools/check_docstrings.py
	$(PYTHONPATH_PREFIX) $(PYTHON) tools/check_docs.py
