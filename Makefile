# Convenience targets for the SDX reproduction.

PYTHON ?= python

.PHONY: install test property integration chaos bench bench-guard guard-gate bench-compile compile-gate bench-churn churn-gate churn-replay bench-federation bench-loop experiments quick examples metrics verify-fuzz clean

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
