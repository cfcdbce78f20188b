# Build/test entry points with hard timeouts, so a wedged exploration or
# a blocked run fails the pipeline fast instead of hanging it.
#
#   make ci            — what CI runs: typecheck + full test suite + the
#                        seven smokes below + soak-heap + explore-determinism
#   make ci-heavy      — full box: heavy sweeps under ASMSIM_HEAVY=1
#   make smoke         — one sweep per fault tier through the real CLI
#   make smoke-trace   — sweep a seeded bug, export + validate its Chrome trace
#   make smoke-dist    — --dist runs (a private worker fleet, one worker's
#                        link chaos-cut; one run SIGTERMed, its journal torn,
#                        and resumed) must
#                        be byte-identical to in-process; a SIGKILLed run's
#                        socket directory is removed by the next run
#   make smoke-net     — the TCP service: serve + chaos-net remote workers,
#                        byte-identical to in-process; SIGTERM drains to 0
#   make smoke-soak    — the soak runner + corpus store: a SIGKILLed-and-
#                        resumed soak must converge on the same corpus as an
#                        uninterrupted one (byte-checked); bit-flips must
#                        quarantine, compaction must preserve the listing
#   make smoke-obs     — fleet observability: serve + chaos-drop workers with
#                        --spans everywhere; `top --once` sees the peers,
#                        stats/--json snapshots are non-empty, and the merged
#                        cross-process trace passes trace-check — while the
#                        sweep stdout stays byte-identical to in-process
#   make smoke-sdl     — the Scenario DSL: check/compile/fmt-fixpoint on the
#                        shipped seeded-bug twin; every examples/*.sdl twin's
#                        sweep (stdout + replay) and explore --crashes 1
#                        byte-identical to its builtin's; the seeded-bug
#                        source submitted over TCP — same bytes again;
#                        truncated source exits 2
#   make soak-heap     — 60s soak at --jobs 4 gated on Gc-measured heap
#                        growth (the unbounded-memory detector)
#   make explore-determinism — the explorer's stdout and metrics snapshot
#                        must not depend on the job count (both engines;
#                        clean passes at crash budgets 0 and 1)
#   make test-heavy    — includes the exhaustive sweeps (ASMSIM_HEAVY=1)
#
# The benchmark is not a make target: `python3 perfbench/run.py`
# (see perfbench/README.md).

BUILD_TIMEOUT ?= 120
TEST_TIMEOUT ?= 150
SMOKE_TIMEOUT ?= 60
ASMSIM = dune exec --no-print-directory bin/asmsim.exe --

.PHONY: build check test test-heavy ci ci-heavy smoke smoke-trace smoke-dist \
	smoke-net smoke-soak smoke-obs smoke-sdl soak-heap explore-determinism

build:
	dune build

check:
	timeout $(BUILD_TIMEOUT) dune build @check

test:
	timeout $(TEST_TIMEOUT) dune runtest

test-heavy:
	ASMSIM_HEAVY=1 timeout 900 dune runtest --force

# One scenario per fault tier, through the installed CLI — the fast gate
# that the whole sweep→monitor→shrink→replay pipeline still closes.
# The byzantine leg gates on the *expected* integrity violation.
smoke: build
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) sweep --algo safe_agreement --tiers crash
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) sweep --algo x_safe_agreement_abortable --tiers omission
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) sweep --algo bg_sec4 --tiers recovery --budget 40000
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) sweep --algo x_safe_agreement --tiers byzantine \
	  --expect-violation --out _build/smoke.replay
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) replay _build/smoke.replay; test $$? -eq 1

# The observability pipeline end to end: sweep a seeded bug, export the
# shrunk replay as a Chrome trace, validate the JSON (well-formed, a
# span per live pid, the fault instant present), and snapshot metrics.
smoke-trace: build
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) sweep --algo x_safe_agreement_first_subset \
	  --expect-violation --out _build/prof.replay
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) trace _build/prof.replay --format=chrome \
	  --out _build/prof.json
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) trace-check _build/prof.json --require-instants
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) stats _build/prof.replay --out _build/prof.stats.json

# --dist through the real CLI: the same seeded-bug sweep run in-process
# and on a private fleet of 2 worker processes — the link of the worker
# dealt shard 0 chaos-cut right after dealing, so the shard is re-dealt
# — must print the same stdout and write a byte-identical replay
# artifact; the grep proves the cut really fired (all [dist] chatter
# goes to stderr, which is why stdout diffs clean; the journal goes to
# _build/distjobs, not the default .asmsim-jobs/). Then the same
# identity for the exhaustive explorer. Last, SIGTERM: a --dist sweep
# stopped once two shards are journalled must suspend (exit 0,
# "suspended"). Its journal then loses its last 3 bytes — a torn final
# line — and `serve --resume` must cut that line, finish the job,
# restoring the intact shards, with the in-process verdict; resuming
# it again must execute 0 shards, which fails if the resumed run's
# records were welded onto the torn line. The first two of its 55
# shards land in a few percent of the sweep's ~1.7 s (2-core host), so
# the signal always finds it running. Last, SIGKILL: a --dist sweep
# killed once a shard is journalled leaves its private socket directory
# behind (under TMPDIR, which must stay under 64 bytes or the socket
# goes to /tmp); the next --dist run must remove it. The killed run's
# orphaned workers find nothing listening on its socket and exit: within
# 2 s no process may name the socket path in its argv.
smoke-dist: build
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) sweep --algo safe_agreement_no_cancel \
	  --expect-violation --out _build/dist.replay > _build/dist-a.out
	cp _build/dist.replay _build/dist-a.replay
	rm -rf _build/distjobs
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) sweep --algo safe_agreement_no_cancel \
	  --expect-violation --dist 2 --shard-size 5 --chaos-kill-shard 0 \
	  --journal-dir _build/distjobs --out _build/dist.replay > _build/dist-b.out 2> _build/dist-b.err
	diff _build/dist-a.out _build/dist-b.out
	diff _build/dist-a.replay _build/dist.replay
	grep -q chaos _build/dist-b.err
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore --algo safe_agreement_no_cancel \
	  --crashes 1 --expect-violation > _build/dist-c.out
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore --algo safe_agreement_no_cancel \
	  --crashes 1 --expect-violation --dist 2 --shard-size 7 \
	  --journal-dir _build/distjobs > _build/dist-d.out
	diff _build/dist-c.out _build/dist-d.out
	rm -rf _build/distsig && mkdir -p _build/distsig
	set -e; \
	BIN=_build/default/bin/asmsim.exe; D=_build/distsig; \
	SW="sweep --algo safe_agreement -t 2 --window 8 --budget 5000"; \
	timeout $(SMOKE_TIMEOUT) $$BIN $$SW > $$D/a.out; \
	$$BIN $$SW --dist 1 --shard-size 20 --journal-dir $$D/jobs \
	  > $$D/b.out 2> $$D/b.err & P=$$!; \
	for i in $$(seq 1 200); do \
	  test "$$(grep -sc '"shard"' $$D/jobs/*/journal.jsonl)" -ge 2 2> /dev/null \
	    && break; sleep 0.02; \
	done; \
	kill -TERM $$P || { echo "smoke-dist: the sweep ended before SIGTERM"; exit 1; }; \
	wait $$P; \
	grep -q suspended $$D/b.err; \
	ID=$$($$BIN serve --list --journal-dir $$D/jobs); \
	truncate -s -3 $$D/jobs/$$ID/journal.jsonl; \
	timeout $(SMOKE_TIMEOUT) $$BIN serve --resume $$ID --journal-dir $$D/jobs \
	  > $$D/c.out 2> $$D/c.err; \
	grep -Eq ' [1-9][0-9]* resumed' $$D/c.err; \
	tail -n +2 $$D/a.out | diff - $$D/c.out; \
	timeout $(SMOKE_TIMEOUT) $$BIN serve --resume $$ID --journal-dir $$D/jobs \
	  > $$D/d.out 2> $$D/d.err; \
	grep -q ' 0 executed' $$D/d.err; \
	diff $$D/c.out $$D/d.out
	rm -rf _build/distkill && mkdir -p _build/distkill
	set -e; \
	BIN=$$PWD/_build/default/bin/asmsim.exe; D=$$PWD/_build/distkill; \
	export TMPDIR=$$D; \
	SW="sweep --algo safe_agreement -t 2 --window 8 --budget 5000"; \
	$$BIN $$SW --dist 1 --shard-size 20 --journal-dir $$D/jobs \
	  > $$D/a.out 2> $$D/a.err & P=$$!; \
	for i in $$(seq 1 200); do \
	  grep -qs '"shard"' $$D/jobs/*/journal.jsonl && break; sleep 0.02; \
	done; \
	kill -KILL $$P || { echo "smoke-dist: the sweep ended before SIGKILL"; exit 1; }; \
	wait $$P || test $$? -eq 137; \
	K=$$(echo $$D/asmsim-*); test -S $$K/queue; \
	for i in $$(seq 1 20); do \
	  pgrep -f -- "$$K/queue" > /dev/null || break; sleep 0.1; \
	done; \
	! pgrep -f -- "$$K/queue" > /dev/null || \
	  { echo "smoke-dist: orphaned workers still dial $$K/queue"; exit 1; }; \
	timeout $(SMOKE_TIMEOUT) $$BIN sweep --algo safe_agreement --runs 200 \
	  --dist 1 --journal-dir $$D/jobs2 > $$D/b.out 2> $$D/b.err; \
	test ! -e $$K || { echo "smoke-dist: $$K survived the next --dist run"; exit 1; }

# The network service end to end, through the real CLI: the same
# seeded-bug sweep run in-process and over loopback TCP — a serve
# daemon and two remote workers, each sabotaging its own writes with a
# different --chaos-net fault — must print the same stdout and write a
# byte-identical replay artifact. The greps prove the chaos really
# fired, and `wait` proves SIGTERM drained the server to exit 0.
smoke-net: build
	rm -rf _build/netsmoke && mkdir -p _build/netsmoke
	set -e; \
	BIN=_build/default/bin/asmsim.exe; D=_build/netsmoke; \
	timeout $(SMOKE_TIMEOUT) $$BIN sweep --algo safe_agreement_no_cancel \
	  --expect-violation --out $$D/net.replay > $$D/a.out; \
	cp $$D/net.replay $$D/a.replay; \
	timeout $(SMOKE_TIMEOUT) $$BIN serve --listen 127.0.0.1:0 \
	  --journal-dir $$D/jobs --metrics-out $$D/srv.metrics.json \
	  2> $$D/srv.err & SRV=$$!; \
	for i in $$(seq 1 100); do \
	  grep -q 'listening on port' $$D/srv.err 2>/dev/null && break; sleep 0.1; \
	done; \
	PORT=$$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' $$D/srv.err | head -1); \
	timeout $(SMOKE_TIMEOUT) $$BIN work --connect 127.0.0.1:$$PORT \
	  --chaos-net drop --chaos-every 3 2> $$D/w1.err & \
	timeout $(SMOKE_TIMEOUT) $$BIN work --connect 127.0.0.1:$$PORT \
	  --chaos-net truncate --chaos-every 5 2> $$D/w2.err & \
	sleep 0.3; \
	timeout $(SMOKE_TIMEOUT) $$BIN sweep --algo safe_agreement_no_cancel \
	  --expect-violation --connect 127.0.0.1:$$PORT \
	  --out $$D/net.replay > $$D/b.out 2> $$D/b.err; \
	kill -TERM $$SRV; wait $$SRV; \
	diff $$D/a.out $$D/b.out; \
	diff $$D/a.replay $$D/net.replay; \
	grep -l chaos $$D/w1.err $$D/w2.err > /dev/null; \
	grep -q draining $$D/srv.err; \
	grep -q net_shards_executed_total $$D/srv.metrics.json

# The Scenario DSL front to back through the real CLI: the shipped twin
# of a seeded-bug builtin must check, compile and reach a fmt fixpoint;
# every shipped twin (examples/*.sdl, named after its builtin) must
# sweep to the builtin's byte-identical stdout, exit code and replay
# artifact, and explore (--crashes 1) to the identical stdout and exit
# code; submitting the seeded-bug *source* over TCP to a serve + worker
# pair must produce the same bytes again; and a truncated source must
# bounce off `sdl check` with exit 2 and a spanned error, before
# anything executes.
smoke-sdl: build
	rm -rf _build/sdlsmoke && mkdir -p _build/sdlsmoke
	set -e; \
	BIN=_build/default/bin/asmsim.exe; D=_build/sdlsmoke; \
	SDL=examples/x_safe_agreement_first_subset.sdl; \
	timeout $(SMOKE_TIMEOUT) $$BIN sdl check $$SDL; \
	timeout $(SMOKE_TIMEOUT) $$BIN sdl compile $$SDL; \
	$$BIN sdl fmt $$SDL > $$D/fmt1.sdl; \
	$$BIN sdl fmt $$D/fmt1.sdl > $$D/fmt2.sdl; \
	diff $$D/fmt1.sdl $$D/fmt2.sdl; \
	for TWIN in examples/*.sdl; do \
	  NAME=$$(basename $$TWIN .sdl); T=$$D/$$NAME; mkdir -p $$T; \
	  for SIDE in builtin twin; do \
	    if [ $$SIDE = builtin ]; then SRC="--algo $$NAME"; \
	    else SRC="--scenario-file $$TWIN"; fi; \
	    code=0; timeout $(SMOKE_TIMEOUT) $$BIN sweep $$SRC \
	      --out $$T/out.replay > $$T/sweep.$$SIDE || code=$$?; \
	    test $$code -le 1; echo "exit $$code" >> $$T/sweep.$$SIDE; \
	    if [ -e $$T/out.replay ]; then mv $$T/out.replay $$T/$$SIDE.replay; fi; \
	    code=0; timeout $(SMOKE_TIMEOUT) $$BIN explore $$SRC --crashes 1 \
	      > $$T/explore.$$SIDE || code=$$?; \
	    test $$code -le 1; echo "exit $$code" >> $$T/explore.$$SIDE; \
	  done; \
	  diff $$T/sweep.builtin $$T/sweep.twin; \
	  diff $$T/explore.builtin $$T/explore.twin; \
	  if [ -e $$T/builtin.replay ]; then cmp $$T/builtin.replay $$T/twin.replay; \
	  else test ! -e $$T/twin.replay; fi; \
	done; \
	timeout $(SMOKE_TIMEOUT) $$BIN sweep --algo x_safe_agreement_first_subset \
	  --expect-violation --out $$D/out.replay > $$D/a.out; \
	cp $$D/out.replay $$D/builtin.replay; \
	head -c 100 $$SDL > $$D/broken.sdl; \
	code=0; $$BIN sdl check $$D/broken.sdl 2> $$D/broken.err || code=$$?; \
	test $$code -eq 2; grep -q 'broken.sdl:' $$D/broken.err; \
	timeout $(SMOKE_TIMEOUT) $$BIN serve --listen 127.0.0.1:0 \
	  --journal-dir $$D/jobs 2> $$D/srv.err & SRV=$$!; \
	for i in $$(seq 1 100); do \
	  grep -q 'listening on port' $$D/srv.err 2>/dev/null && break; sleep 0.1; \
	done; \
	PORT=$$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' $$D/srv.err | head -1); \
	timeout $(SMOKE_TIMEOUT) $$BIN work --connect 127.0.0.1:$$PORT 2> $$D/w.err & \
	sleep 0.3; \
	timeout $(SMOKE_TIMEOUT) $$BIN sweep --scenario-file $$SDL \
	  --expect-violation --connect 127.0.0.1:$$PORT \
	  --out $$D/out.replay > $$D/c.out 2> $$D/c.err; \
	kill -TERM $$SRV; wait $$SRV; \
	diff $$D/a.out $$D/c.out; \
	diff $$D/builtin.replay $$D/out.replay

# The soak runner and its corpus through the real CLI, every robustness
# claim at once:
#   1. a soak of a seeded bug, SIGKILLed mid-append by the store's own
#      torn-write chaos hook and resumed to the same absolute schedule
#      index, must converge on a corpus content-identical (byte-checked
#      via the sorted address listing) to an uninterrupted soak's;
#   2. re-soaking the same range must dedup every finding (0 new);
#   3. a bit-flipped cemented byte must surface as typed quarantine and
#      a --check exit of 1 — never a crash;
#   4. compaction must preserve the listing byte for byte;
#   5. a finding extracted from the corpus must replay (exit 1 = the
#      violation reproduced).
smoke-soak: build
	rm -rf _build/soaksmoke && mkdir -p _build/soaksmoke
	set -e; \
	BIN=_build/default/bin/asmsim.exe; D=_build/soaksmoke; \
	SOAK="--algo safe_agreement_no_cancel --seed 7 --until 120 --batch 40"; \
	timeout $(SMOKE_TIMEOUT) $$BIN soak $$SOAK --corpus $$D/clean \
	  > $$D/clean.out 2> /dev/null; \
	$$BIN corpus $$D/clean --check > /dev/null; \
	$$BIN corpus $$D/clean --list --kind finding > $$D/clean.list; \
	test -s $$D/clean.list; \
	code=0; timeout $(SMOKE_TIMEOUT) $$BIN soak $$SOAK --corpus $$D/chaos \
	  --chaos-store torn --chaos-at 3 > /dev/null 2>&1 || code=$$?; \
	test $$code -eq 137; \
	$$BIN corpus $$D/chaos --check > /dev/null; \
	timeout $(SMOKE_TIMEOUT) $$BIN soak $$SOAK --corpus $$D/chaos --resume \
	  > /dev/null 2> /dev/null; \
	$$BIN corpus $$D/chaos --list --kind finding > $$D/chaos.list; \
	diff $$D/clean.list $$D/chaos.list; \
	timeout $(SMOKE_TIMEOUT) $$BIN soak $$SOAK --corpus $$D/clean \
	  2> /dev/null | grep -q 'findings: 0 new'; \
	timeout $(SMOKE_TIMEOUT) $$BIN soak $$SOAK --corpus $$D/flip \
	  --chaos-store bitflip > /dev/null 2> /dev/null; \
	code=0; $$BIN corpus $$D/flip --check > $$D/flip.check || code=$$?; \
	test $$code -eq 1; \
	grep -q 'digest mismatch' $$D/flip.check; \
	$$BIN corpus $$D/clean --compact 2> /dev/null; \
	$$BIN corpus $$D/clean --list --kind finding > $$D/compacted.list; \
	diff $$D/clean.list $$D/compacted.list; \
	ADDR=$$(head -1 $$D/clean.list | cut -d' ' -f1); \
	$$BIN corpus $$D/clean --cat $$ADDR > $$D/finding.replay; \
	code=0; timeout $(SMOKE_TIMEOUT) $$BIN replay $$D/finding.replay \
	  > /dev/null || code=$$?; \
	test $$code -eq 1

# Fleet observability end to end, through the real CLI: a serve daemon
# and two chaos-drop workers, every process writing a --spans file and
# one worker logging JSON at debug level. The sweep stdout must stay
# byte-identical to the in-process run (all telemetry lives on stderr
# and side files); `top --once' must count both workers and the drained
# queue; `top --json' must carry the worker-pushed fleet counters
# (pushes ride the 0.5s heartbeat pings); `stats --json' must emit a
# one-line snapshot; and the four per-process span files must merge
# into one Chrome trace that passes the same trace-check CI runs on
# single-process exports.
smoke-obs: build
	rm -rf _build/obssmoke && mkdir -p _build/obssmoke
	set -e; \
	BIN=_build/default/bin/asmsim.exe; D=_build/obssmoke; \
	timeout $(SMOKE_TIMEOUT) $$BIN sweep --algo safe_agreement_no_cancel \
	  --expect-violation --out $$D/obs.replay > $$D/a.out; \
	cp $$D/obs.replay $$D/a.replay; \
	timeout $(SMOKE_TIMEOUT) $$BIN serve --listen 127.0.0.1:0 \
	  --journal-dir $$D/jobs --spans $$D/srv.spans --heartbeat-timeout 1 \
	  2> $$D/srv.err & SRV=$$!; \
	for i in $$(seq 1 100); do \
	  grep -q 'listening on port' $$D/srv.err 2>/dev/null && break; sleep 0.1; \
	done; \
	PORT=$$(sed -n 's/.*listening on port \([0-9]*\).*/\1/p' $$D/srv.err | head -1); \
	timeout $(SMOKE_TIMEOUT) $$BIN work --connect 127.0.0.1:$$PORT \
	  --chaos-net drop --chaos-every 3 --spans $$D/w1.spans 2> $$D/w1.err & \
	timeout $(SMOKE_TIMEOUT) $$BIN work --connect 127.0.0.1:$$PORT \
	  --chaos-net drop --chaos-every 5 --spans $$D/w2.spans \
	  --log-json --log-level debug 2> $$D/w2.err & \
	for i in $$(seq 1 100); do \
	  $$BIN top --connect 127.0.0.1:$$PORT --once > $$D/top-pre.out \
	    2>/dev/null || true; \
	  grep -q '2 worker(s)' $$D/top-pre.out && break; sleep 0.1; \
	done; \
	grep -q '2 worker(s)' $$D/top-pre.out; \
	timeout $(SMOKE_TIMEOUT) $$BIN sweep --algo safe_agreement_no_cancel \
	  --expect-violation --connect 127.0.0.1:$$PORT --spans $$D/client.spans \
	  --out $$D/obs.replay > $$D/b.out 2> $$D/b.err; \
	diff $$D/a.out $$D/b.out; \
	diff $$D/a.replay $$D/obs.replay; \
	for i in $$(seq 1 100); do \
	  $$BIN top --connect 127.0.0.1:$$PORT --json > $$D/top.json \
	    2>/dev/null || true; \
	  grep -q net_metrics_pushes_total $$D/top.json && break; sleep 0.1; \
	done; \
	grep -q net_metrics_pushes_total $$D/top.json; \
	timeout $(SMOKE_TIMEOUT) $$BIN top --connect 127.0.0.1:$$PORT --once \
	  > $$D/top.out; \
	grep -q 'queue: depth 0' $$D/top.out; \
	grep -Eq '[1-9][0-9]* shard\(s\) executed' $$D/top.out; \
	timeout $(SMOKE_TIMEOUT) $$BIN stats --algo safe_agreement_no_cancel \
	  --json > $$D/stats.json; \
	test -s $$D/stats.json; \
	test $$(wc -l < $$D/stats.json) -eq 1; \
	kill -TERM $$SRV; wait $$SRV; \
	grep -q '"level":"debug"' $$D/w2.err; \
	grep -q chaos $$D/w1.err; \
	timeout $(SMOKE_TIMEOUT) $$BIN trace-merge $$D/srv.spans $$D/w1.spans \
	  $$D/w2.spans $$D/client.spans --out $$D/fleet.json 2> $$D/merge.err; \
	grep -Eq 'across [34] process' $$D/merge.err; \
	timeout $(SMOKE_TIMEOUT) $$BIN trace-check $$D/fleet.json

# Sixty seconds of continuous soaking at --jobs 4 (capped at the host's
# cores), gated on the Gc-measured major-heap growth after the first
# batch: the journaled arenas, program reuse, the one domain farm per
# soak and per-batch cementing must hold the working set flat no matter
# how long the soak runs.
soak-heap: build
	rm -rf _build/soakheap
	timeout 120 $(ASMSIM) soak --algo safe_agreement --seed 1 --duration 60 \
	  --jobs 4 --corpus _build/soakheap --max-heap-growth 4000000 \
	  2> /dev/null

ci: check
	timeout $(TEST_TIMEOUT) dune runtest
	$(MAKE) smoke
	$(MAKE) smoke-trace
	$(MAKE) smoke-dist
	$(MAKE) smoke-net
	$(MAKE) smoke-soak
	$(MAKE) smoke-obs
	$(MAKE) smoke-sdl
	$(MAKE) soak-heap
	$(MAKE) explore-determinism

# The parallel explorer must be bit-for-bit deterministic in the job
# count, through the real CLI — both engines:
#   1. the seeded bugs (counterexample => the plan-engine fallback
#      defines the verdict): stdout AND the merged deterministic
#      metrics snapshot (--metrics-out) at jobs=8 must diff clean
#      against jobs=1 — the 2-process no-cancel bug, and the
#      4-process first-subset bug at crash budget 1, depth 16 (the
#      benchmark's explore-cex job);
#   2. a clean scenario (the work-stealing engine's own result is
#      kept): stdout and the metrics snapshot, likewise.
explore-determinism: build
	rm -rf _build/exdet && mkdir -p _build/exdet
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore --algo safe_agreement_no_cancel \
	  --expect-violation --jobs 1 --metrics-out _build/exdet/bug-j1.metrics.json \
	  > _build/exdet/bug-j1.out
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore --algo safe_agreement_no_cancel \
	  --expect-violation --jobs 8 --metrics-out _build/exdet/bug-j8.metrics.json \
	  > _build/exdet/bug-j8.out
	diff _build/exdet/bug-j1.out _build/exdet/bug-j8.out
	diff _build/exdet/bug-j1.metrics.json _build/exdet/bug-j8.metrics.json
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore \
	  --algo x_safe_agreement_first_subset -n 4 --crashes 1 --steps 16 \
	  --expect-violation --jobs 1 --metrics-out _build/exdet/cex4-j1.metrics.json \
	  > _build/exdet/cex4-j1.out
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore \
	  --algo x_safe_agreement_first_subset -n 4 --crashes 1 --steps 16 \
	  --expect-violation --jobs 8 --metrics-out _build/exdet/cex4-j8.metrics.json \
	  > _build/exdet/cex4-j8.out
	diff _build/exdet/cex4-j1.out _build/exdet/cex4-j8.out
	diff _build/exdet/cex4-j1.metrics.json _build/exdet/cex4-j8.metrics.json
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore --algo safe_agreement --jobs 1 \
	  --metrics-out _build/exdet/clean-j1.metrics.json \
	  > _build/exdet/clean-j1.out
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore --algo safe_agreement --jobs 8 \
	  --metrics-out _build/exdet/clean-j8.metrics.json \
	  > _build/exdet/clean-j8.out
	diff _build/exdet/clean-j1.out _build/exdet/clean-j8.out
	diff _build/exdet/clean-j1.metrics.json _build/exdet/clean-j8.metrics.json
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore --algo safe_agreement --crashes 1 \
	  --jobs 1 --metrics-out _build/exdet/crash1-j1.metrics.json \
	  > _build/exdet/crash1-j1.out
	timeout $(SMOKE_TIMEOUT) $(ASMSIM) explore --algo safe_agreement --crashes 1 \
	  --jobs 8 --metrics-out _build/exdet/crash1-j8.metrics.json \
	  > _build/exdet/crash1-j8.out
	diff _build/exdet/crash1-j1.out _build/exdet/crash1-j8.out
	diff _build/exdet/crash1-j1.metrics.json _build/exdet/crash1-j8.metrics.json

ci-heavy: ci test-heavy
