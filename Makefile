# One-word entry points for the tier-1 and presubmit commands.
#
#   make test        — tier-1: the full suite at the paper's 24h budgets
#   make smoke       — presubmit: same suite (conformance matrix
#                      included), campaigns compressed to 2 simulated
#                      hours / 1 repetition (claim gates skipped)
#   make bench       — the evaluation benchmarks only (regenerates
#                      the committed BENCH_*.json; other runs write
#                      them under .benchmarks/)
#   make test-matrix — the cross-protocol conformance matrix plus the
#                      channel-fault/differential-oracle, live-network
#                      (socket/serve), campaign-import probe,
#                      batch-size identity, one-pass-vs-reference
#                      packet build parity, workspace and fleet store
#                      (manifest/checkpoint compatibility, damaged
#                      records, kill/resume, power loss at every
#                      durable operation), collector reset/arm
#                      contract, inline-update-vs-reference line
#                      collector (settrace and monitoring),
#                      inline-check-vs-reference heap,
#                      slice-keeping-vs-reference parse,
#                      one-pass-vs-two-pass oracle, token prefilter,
#                      memoized-vs-reference trace binder,
#                      one-map-vs-per-step-map trace and
#                      shared-vs-per-engine record/crack/splice step
#                      suites, plus the session and state-learning
#                      suites (tests/state)
#   make test-net-dev — the live-network suite (tests/net) under
#                      python -X dev with ResourceWarning and
#                      unraisable-exception warnings as errors, so an
#                      unclosed socket, selector or connection fails
#   make fleet-demo  — a small synced 4-shard fleet in /tmp, rendered
#                      with the per-shard/merged summary table
#   make sessions-demo — the stateful session-fuzzing walkthrough
#                      (examples/fuzz_sessions.py on IEC 104)

PY ?= python
PYTEST_ARGS ?= -x -q
FLEET_DEMO_DIR ?= /tmp/peachstar-fleet-demo
SESSIONS_DEMO_HOURS ?= 8

export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke bench test-matrix test-net-dev fleet-demo sessions-demo

test:
	$(PY) -m pytest $(PYTEST_ARGS)

smoke:
	REPRO_BENCH_HOURS=2 REPRO_BENCH_REPS=1 $(PY) -m pytest $(PYTEST_ARGS)

bench:
	REPRO_BENCH_ARTIFACT_DIR=$(CURDIR) $(PY) -m pytest benchmarks $(PYTEST_ARGS)

test-matrix:
	$(PY) -m pytest tests/protocols/test_conformance.py tests/channel \
		tests/net tests/core/test_campaign_imports.py \
		tests/runtime/test_instrument.py tests/runtime/test_backends.py \
		tests/runtime/test_collector_reference.py \
		tests/core/test_batching.py tests/model/test_build_reference.py \
		tests/model/test_parse_reference.py \
		tests/model/test_token_prefilter.py \
		tests/runtime/test_trace_map_reference.py tests/state \
		tests/core/test_engine_reference.py \
		tests/sanitizer/test_heap_reference.py \
		tests/store/test_workspace.py tests/store/test_fleet.py \
		tests/store/test_power_loss.py \
		$(PYTEST_ARGS)

test-net-dev:
	$(PY) -X dev -m pytest -W error::ResourceWarning \
		-W error::pytest.PytestUnraisableExceptionWarning tests/net \
		$(PYTEST_ARGS)

fleet-demo:
	rm -rf $(FLEET_DEMO_DIR)
	$(PY) -m repro.cli fleet libmodbus --shards 4 --sync-every 100 \
		--hours 4 --workspace $(FLEET_DEMO_DIR) --jobs 4

sessions-demo:
	$(PY) examples/fuzz_sessions.py $(SESSIONS_DEMO_HOURS)
