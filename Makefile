# Convenience targets for the Amber reproduction.

# Run from the checkout without installing the package.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test bench perf artifacts examples lint analyze \
	amber-check check chaos flow elide clean

install:
	pip install -e . || python setup.py develop

test:
	python -m pytest tests/ -q

lint:
	python -m repro lint src/repro/apps examples

analyze:
	python -m repro analyze --fast

amber-check:
	python -m repro check --fast

# AmberFlow: static object-flow analysis + placement-hint
# cross-validation against simulator runs (docs/ANALYSIS.md).
flow:
	python -m repro flow --fast \
		--expect benchmarks/baseline/FLOW_expected.json

# AmberChaos: seeded live-runtime chaos scenario suite (docs/CHAOS.md).
chaos:
	for seed in 0 1 2; do \
		python -m repro chaos --fast --seed $$seed || exit 1; \
	done

# AmberElide: static escape/confinement analysis with advisory
# findings AMB301-AMB304 (docs/ANALYSIS.md).
elide:
	python -m repro elide

# The full static + dynamic + model-checking gauntlet.
check: lint flow elide analyze amber-check

# The paper-figure benchmark suite (simulated results asserted against
# the paper's shape; pytest-benchmark records regeneration cost).
bench:
	python -m pytest benchmarks/ -q

# AmberPerf: wall-clock benchmark suite + hot-loop self-profile
# (see docs/PERF.md).  Compare against the committed baseline with
#   PYTHONPATH=src python -m repro perf --fast \
#     --baseline benchmarks/baseline/BENCH_baseline.json
perf:
	python -m repro perf --fast
	python -m repro perf --profile sor --fast

artifacts:
	python -m repro all

examples:
	python examples/quickstart.py
	python examples/sor_speedup.py
	python examples/distributed_philosophers.py
	python examples/custom_scheduler.py
	python examples/mobile_directory.py
	python examples/parallel_queens.py
	python examples/replicated_matmul.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
