# Developer entry points. `make check` is the tier-1 gate (gofmt,
# build, vet, staticcheck when installed, test); `make race` reruns the tests under
# the race detector — the parallel harness and the chaos suite must
# stay race-clean — and runs as its own CI job. `make cover` prints
# per-package statement coverage. `make bench` regenerates the kernel,
# paper, and observability benchmark records as `go test -json` event
# streams (BENCH_devent.json, BENCH_paper.json, BENCH_obs.json,
# BENCH_fleet.json, BENCH_autoscale.json), which benchstat and x/perf
# tooling both consume, and validates them with cmd/benchjson.
# `make bench-diff` compares the committed records against freshly
# regenerated ones via benchstat (skipped when benchstat is absent).
# `make scale` runs the sharded million-task scenario at a modest size
# and checks the retained span window stays a small fraction of the
# span count. `make fleet` runs the fleet-scale placement artifact at a
# modest size and checks it stays byte-identical across -parallel.
# `make autoscale` does the same for the SLO-driven autoscaling
# artifact. `make attrib`
# smoke-tests the latency attribution pipeline end to end on the
# Table 1 bursts. `make serve-smoke` boots the live observability
# server on a scale run and curls its endpoints — the CI smoke for the
# -serve plane.

GO ?= go

.PHONY: check fmt build vet staticcheck test race cover fuzz bench bench-devent bench-paper bench-obs bench-fleet bench-autoscale bench-check bench-diff scale fleet autoscale attrib serve-smoke clean

check: fmt build vet staticcheck test

# Fail when any Go file, simbench/ included, is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# The benchmark module (simbench/, its own go.mod) sits outside ./...
# but compiles against the root packages, so it is vetted too: an API
# change that breaks it fails here instead of in the benchmark run.
vet:
	$(GO) vet ./...
	$(GO) -C simbench vet ./...

# staticcheck is optional locally (no network installs in the dev
# container) but mandatory in CI, which installs it on the runner.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Short fuzz passes over the chaos-spec parser, the executor config
# validator, the repartitioning-spec parser, and the fleet packer
# (demand-spec strings through Place with Validate as the oracle; the
# checked-in corpora run as regular tests in `make test`).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 10s ./internal/faas/htex
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/repart
	$(GO) test -run '^$$' -fuzz FuzzPlace -fuzztime 10s ./internal/fleet

bench: bench-devent bench-paper bench-obs bench-fleet bench-autoscale bench-check

bench-devent:
	$(GO) test -json -run '^$$' -bench=. -benchmem -benchtime=1x ./internal/devent ./internal/obs > BENCH_devent.json

bench-paper:
	$(GO) test -json -run '^$$' -bench=. -benchtime=1x . > BENCH_paper.json

# The telemetry-plane record: tsdb scrape/query benchmarks (the scrape
# path must stay 0 allocs/op — BenchmarkScrape enforces it) plus the
# live-server package.
bench-obs:
	$(GO) test -json -run '^$$' -bench=. -benchmem -benchtime=1x ./internal/obs/tsdb ./internal/obs/live > BENCH_obs.json

# The fleet-layer record: the from-scratch 100-GPU greedy solve, the
# steady-state churn step, the fragmentation metric (the cached fleet
# mean must stay 0 allocs/op — BenchmarkFleetFrag100GPUs enforces it),
# and a 128-GPU rebalance; six samples each so noise shows as spread.
bench-fleet:
	$(GO) test -json -run '^$$' -bench=. -benchmem -benchtime=1x -count 6 ./internal/fleet > BENCH_fleet.json

# The autoscaling record: the controller's per-tick overhead, the
# million-user traffic sampler, and the end-to-end autoscaled cell.
bench-autoscale:
	$(GO) test -json -run '^$$' -bench=. -benchmem -benchtime=1x ./internal/autoscale ./internal/core > BENCH_autoscale.json

# Fail on malformed or benchmark-free records so a truncated `go test
# -json` stream can't land as the current trajectory point.
bench-check:
	$(GO) run ./cmd/benchjson check BENCH_devent.json BENCH_paper.json BENCH_obs.json BENCH_fleet.json BENCH_autoscale.json

# Compare the committed records (HEAD) against freshly regenerated
# ones. benchstat is optional locally (no network installs in the dev
# container); without it the target reports how to read the records.
bench-diff: bench
	@if command -v benchstat >/dev/null 2>&1; then \
		tmp=$$(mktemp -d); \
		for f in BENCH_devent BENCH_paper BENCH_obs BENCH_fleet BENCH_autoscale; do \
			git show HEAD:$$f.json > $$tmp/$$f.old.json 2>/dev/null || continue; \
			$(GO) run ./cmd/benchjson text $$tmp/$$f.old.json > $$tmp/$$f.old.txt; \
			$(GO) run ./cmd/benchjson text $$f.json > $$tmp/$$f.new.txt; \
			echo "== $$f (HEAD vs regenerated) =="; \
			benchstat $$tmp/$$f.old.txt $$tmp/$$f.new.txt; \
		done; \
		rm -rf $$tmp; \
	else \
		echo "benchstat not installed; skipping bench-diff (compare with: go run ./cmd/benchjson text BENCH_devent.json)"; \
	fi

# Modest-size run of the sharded open-loop scenario (the full
# 10^6-task run is `paperbench scale` with defaults): span collection
# must keep its retained window under a tenth of the spans recorded.
scale:
	@set -e; \
	$(GO) build -o /tmp/paperbench-scale ./cmd/paperbench; \
	/tmp/paperbench-scale scale -tasks 50000 -shards 4 > /tmp/scale.txt; \
	cat /tmp/scale.txt; \
	awk '/^virtual: events=/ { for (i = 1; i <= NF; i++) { split($$i, kv, "="); v[kv[1]] = kv[2] } } \
		END { if (v["spans"] == "" || v["retained_high_water"] * 10 >= v["spans"]) { \
			print "scale: retained_high_water=" v["retained_high_water"] " not bounded by spans=" v["spans"]; exit 1 } \
			print "scale: ok (retained_high_water=" v["retained_high_water"] " of spans=" v["spans"] ")" }' /tmp/scale.txt

# Modest-size fleet-placement smoke: render the artifact twice — once
# with defaults, once sequential — and require the outputs
# byte-identical (the artifact is purely virtual).
fleet:
	@set -e; \
	$(GO) build -o /tmp/paperbench-fleet ./cmd/paperbench; \
	/tmp/paperbench-fleet fleet -gpus80 16 -gpus40 16 -apps 24 -horizon 3m > /tmp/fleet.a.txt; \
	/tmp/paperbench-fleet fleet -gpus80 16 -gpus40 16 -apps 24 -horizon 3m -parallel 1 > /tmp/fleet.b.txt; \
	cmp /tmp/fleet.a.txt /tmp/fleet.b.txt; \
	grep -q 'virtual: rebalances=' /tmp/fleet.a.txt; \
	echo "fleet: ok (byte-identical across -parallel)"

# Modest-size autoscaling smoke: render the SLO-driven autoscaling
# artifact twice — default vs sequential — and require the outputs
# byte-identical, with all three verdict lines present.
autoscale:
	@set -e; \
	$(GO) build -o /tmp/paperbench-autoscale ./cmd/paperbench; \
	/tmp/paperbench-autoscale autoscale -gpus 4 -horizon 40m > /tmp/autoscale.a.txt; \
	/tmp/paperbench-autoscale autoscale -gpus 4 -horizon 40m -parallel 1 > /tmp/autoscale.b.txt; \
	cmp /tmp/autoscale.a.txt /tmp/autoscale.b.txt; \
	grep -q 'virtual: verdict cost' /tmp/autoscale.a.txt; \
	grep -q 'virtual: verdict attainment' /tmp/autoscale.a.txt; \
	grep -q 'virtual: verdict cold-starts' /tmp/autoscale.a.txt; \
	echo "autoscale: ok (byte-identical across -parallel)"

# End-to-end smoke of the live observability plane: boot small scale,
# fleet, and autoscale runs each with -serve, poll /healthz until every
# run reports done, then curl the endpoints — /metrics (the merged
# multi-scope exposition must pass promlint), /api/scopes, /api/alerts,
# /dashboard, /progress, and /spans. The servers linger after their
# runs by design; the trap kills them.
serve-smoke:
	@set -e; \
	$(GO) build -o /tmp/paperbench-smoke ./cmd/paperbench; \
	$(GO) build -o /tmp/promlint-smoke ./cmd/promlint; \
	/tmp/paperbench-smoke scale -tasks 20000 -shards 2 -serve 127.0.0.1:9190 >/dev/null 2>&1 & \
	scale_pid=$$!; \
	/tmp/paperbench-smoke fleet -gpus80 8 -gpus40 8 -apps 16 -horizon 2m -serve 127.0.0.1:9191 >/dev/null 2>&1 & \
	fleet_pid=$$!; \
	/tmp/paperbench-smoke autoscale -gpus 4 -horizon 30m -serve 127.0.0.1:9192 >/dev/null 2>&1 & \
	auto_pid=$$!; \
	trap "kill $$scale_pid $$fleet_pid $$auto_pid 2>/dev/null || true" EXIT; \
	for port in 9190 9191 9192; do \
		ok=0; \
		for i in $$(seq 1 90); do \
			if curl -fsS http://127.0.0.1:$$port/healthz 2>/dev/null | grep -q '"phase":"done"'; then ok=1; break; fi; \
			sleep 1; \
		done; \
		test $$ok = 1 || { echo "serve-smoke: :$$port /healthz never reported done"; exit 1; }; \
	done; \
	curl -fsS http://127.0.0.1:9190/progress; echo; \
	curl -fsS http://127.0.0.1:9190/metrics > /tmp/serve-smoke.metrics; \
	grep -q '^# TYPE faas_tasks_completed_total counter' /tmp/serve-smoke.metrics; \
	curl -fsS 'http://127.0.0.1:9190/spans?scope=scale/shard0' > /tmp/serve-smoke.spans; \
	test -s /tmp/serve-smoke.spans; \
	for port in 9190 9191 9192; do \
		curl -fsS http://127.0.0.1:$$port/metrics | /tmp/promlint-smoke || { echo "serve-smoke: :$$port /metrics failed promlint"; exit 1; }; \
		curl -fsS http://127.0.0.1:$$port/dashboard | grep -q '/api/alerts' || { echo "serve-smoke: :$$port /dashboard missing"; exit 1; }; \
	done; \
	curl -fsS http://127.0.0.1:9191/api/scopes | grep -q '"scope":"fleet/load1.5x"'; \
	curl -fsS http://127.0.0.1:9191/api/alerts | grep -q '"name":"frag-ceiling"'; \
	curl -fsS http://127.0.0.1:9192/api/scopes | grep -q '"scope":"autoscale/static-1"'; \
	curl -fsS http://127.0.0.1:9192/api/alerts | grep -q '"name":"slo-burn-page"'; \
	curl -fsS 'http://127.0.0.1:9192/api/series?name=autoscale_blocks&fn=latest&scope=*' | grep -q '"results"'; \
	echo "serve-smoke: ok (metrics $$(wc -l < /tmp/serve-smoke.metrics) lines, spans $$(wc -l < /tmp/serve-smoke.spans) events; fleet+autoscale scopes, alerts, dashboard, promlint ok)"

# End-to-end smoke test of the attribution pipeline: run the Table 1
# bursts instrumented, render the folded-stack artifact, and print the
# hottest stacks.
attrib:
	$(GO) run ./cmd/paperbench table1 -completions 8 -attrib ATTRIB_table1.json -flame FLAME_table1.folded > /dev/null
	@echo "wrote ATTRIB_table1.json and FLAME_table1.folded; hottest stacks:"
	@sort -t' ' -k2 -rn FLAME_table1.folded | head -5

clean:
	rm -f BENCH_devent.json BENCH_paper.json BENCH_obs.json BENCH_fleet.json BENCH_autoscale.json ATTRIB_table1.json FLAME_table1.folded
