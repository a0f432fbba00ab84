# Convenience targets for the SDX reproduction.

PYTHON ?= python

.PHONY: install test property integration chaos bench bench-guard guard-gate bench-compile compile-gate bench-churn churn-gate churn-replay bench-federation bench-loop bench-smoke experiments quick examples metrics verify-fuzz clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

property:
	$(PYTHON) -m pytest tests/property/

integration:
	$(PYTHON) -m pytest tests/integration/

chaos:
	$(PYTHON) -m pytest -m chaos tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-guard:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_guard.py --emit benchmarks/BENCH_robustness.json

guard-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_guard.py --check benchmarks/BENCH_robustness.json

bench-compile:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_compile.py --emit benchmarks/BENCH_compile.json

compile-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_compile.py --check benchmarks/BENCH_compile.json

bench-federation:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_federation.py

bench-churn:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_churn.py --emit benchmarks/BENCH_churn.json

churn-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_churn.py --check benchmarks/BENCH_churn.json

churn-replay:
	PYTHONPATH=src $(PYTHON) -m repro.workloads \
		--fixture ixp_small --scenario failover-storm --scenario stuck-routes \
		--scenario correlated-withdrawal

# One untraced pass of one control-loop benchmark workload (BENCHMARK.json
# names them): make bench-loop WORKLOAD=policy-dense
bench-loop:
	python3 bench/run.py --workload $(WORKLOAD)

# A two-second untraced pass of every benchmark workload; fails unless
# the harness's oracle reports the pass correct (last line's JSON).
BENCH_WORKLOADS = cold-amsix policy-dense churn-fastpath churn-recompile
bench-smoke:
	@for workload in $(BENCH_WORKLOADS); do \
		echo "== $$workload =="; \
		out=$$(python3 bench/run.py --workload $$workload --seconds 2 --trace 0) || exit 1; \
		echo "$$out" | tail -n 3; \
		echo "$$out" | tail -n 1 | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin).get("correct") is not True)' \
			|| { echo "bench-smoke: $$workload is not correct"; exit 1; }; \
	done

experiments:
	$(PYTHON) -m repro.experiments all

quick:
	$(PYTHON) -m repro.experiments all --quick

metrics:
	PYTHONPATH=src $(PYTHON) -m repro.telemetry

verify-fuzz:
	PYTHONPATH=src $(PYTHON) -m repro.verify.fuzz --seeds 6

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
