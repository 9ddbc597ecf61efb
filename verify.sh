#!/bin/sh
# Extended tier-1 gate: build everything, vet, vet and test the
# servebench module, check gofmt, run the full test suite under the race
# detector and at GOMAXPROCS 1, 2 and 8, and smoke-test the serving paths
# end to end.
set -eu

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== servebench module (its own go.mod, so ./... skips it): vet + tests"
(cd servebench && go vet . && go test -count=1 .)

echo "== gofmt (no file may need reformatting)"
UNFMT=$(gofmt -l .)
[ -z "$UNFMT" ] || { echo "gofmt -l lists unformatted files:"; echo "$UNFMT"; exit 1; }

echo "== go test -race ./..."
go test -race ./...

echo "== evaluation-kernel determinism suite under -race (serial vs workers=N, incl. bit-parallel BFS)"
go test -race -count=1 \
    -run 'Determinis|AcrossWorker|IdenticalAcross|SamplePairs|Parallel|BitBFS|MultiSource' \
    ./internal/graph/ ./internal/rng/ ./internal/spanner/ \
    ./internal/routing/ ./internal/experiments/ ./internal/bench/

echo "== server fault-injection suite under -race (oversized lines, slow loris, disconnects, shutdown drain)"
go test -race -count=1 ./internal/server/

echo "== go test + dccheck differential sweep at GOMAXPROCS 1, 2 and 8 (optimized == naive references, all gen families; per-check counts == cmd/dccheck/quick.tally)"
# A change that alters any dccheck count updates quick.tally
# (go run ./cmd/dccheck -quick -tally cmd/dccheck/quick.tally), and the
# diff of that file itemizes the change.
for procs in 1 2 8; do
    GOMAXPROCS=$procs go test -count=1 ./... \
        || { echo "go test failed at GOMAXPROCS=$procs"; exit 1; }
    GOMAXPROCS=$procs go run ./cmd/dccheck -quick -tally /tmp/dccheck.verify.tally \
        || { echo "dccheck failed at GOMAXPROCS=$procs"; exit 1; }
    diff -u cmd/dccheck/quick.tally /tmp/dccheck.verify.tally \
        || { echo "dccheck -quick counts at GOMAXPROCS=$procs differ from cmd/dccheck/quick.tally"; exit 1; }
done

echo "== dccheck per-backend sweep (each oracle backend forced, stretch bounds enforced)"
for be in landmark-bibfs exact-cached sparse-hub; do
    go run ./cmd/dccheck -quick -backend "$be" \
        || { echo "dccheck failed with backend $be forced"; exit 1; }
done

echo "== godoc lint (every exported symbol in internal/oracle, spanner, router, server and wire documented)"
UNDOC=$(awk '
    prev !~ /^\/\// && (/^(func|type|const|var) [A-Z]/ || /^func \([^)]*\) [A-Z]/) {
        print FILENAME ":" FNR ": " $0; bad = 1
    }
    { prev = $0 }
    END { exit bad }' $(ls internal/oracle/*.go internal/spanner/*.go internal/router/*.go \
        internal/server/*.go internal/wire/*.go | grep -v _test)) \
    || { echo "undocumented exported symbols:"; echo "$UNDOC"; exit 1; }

echo "== wire protocol suite (version refusal, trace-context echo, update/snapshot messages, burst flush, session deadlines, drain race)"
go test -race -count=1 -run 'Negotiate|BinaryVersionRejected|CrossVersionV4ClientV4Server|FrameTraceRoundTrip|TraceContext|BinaryTrace|UpdateSnap|BinaryUpdate|BinaryStatic|BinaryConcurrent|FrameBuffered|BinaryBurst|BinaryFrontDoor|BinaryIdleTimeout|StaleWriteDeadline|TextBatchAfterIdleWriteTimeout|DrainRaceWithReadArm|ClientStopsRequestTimers' \
    ./internal/wire/ ./internal/server/

echo "== fuzz smoke (line protocol + wire frames + graphio reader, 5s each)"
go test -run '^$' -fuzz '^FuzzServerProtocol$' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz '^FuzzWireFrame$' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz '^FuzzGraphioRead$' -fuzztime 5s ./internal/check/

echo "== dcserve demo (512-node expander, 10k mixed queries)"
go run ./cmd/dcserve -demo -queries 10000

echo "== dcserve debug endpoint (/healthz, /metrics scrape)"
go build -o /tmp/dcserve.verify ./cmd/dcserve
rm -f /tmp/dcserve.verify.log
# The landmark backend is forced so the bibfs path family the scrape
# below asserts on is registered (auto would pick the exact table on a
# 512-node graph, which counts table loads instead).
/tmp/dcserve.verify -listen 127.0.0.1:0 -debug-addr 127.0.0.1:0 \
    -oracle-backend landmark-bibfs \
    >/tmp/dcserve.verify.log 2>&1 &
SRV_PID=$!
trap 'kill "$SRV_PID" 2>/dev/null || true' EXIT
DEBUG_ADDR=""
for _ in $(seq 1 100); do
    DEBUG_ADDR=$(sed -n 's/^debug listening on //p' /tmp/dcserve.verify.log)
    [ -n "$DEBUG_ADDR" ] && break
    sleep 0.1
done
[ -n "$DEBUG_ADDR" ] || { echo "dcserve never announced its debug address"; cat /tmp/dcserve.verify.log; exit 1; }
# The debug listener is up before the spanner+oracle build finishes, so
# wait for the serving banner — only then are the oracle and server
# metric families registered.
for _ in $(seq 1 200); do
    grep -q '^serving on ' /tmp/dcserve.verify.log && break
    sleep 0.1
done
grep -q '^serving on ' /tmp/dcserve.verify.log || { echo "dcserve never started serving"; cat /tmp/dcserve.verify.log; exit 1; }
curl -fsS "http://$DEBUG_ADDR/healthz" | grep -q ok || { echo "/healthz failed"; exit 1; }
curl -fsS "http://$DEBUG_ADDR/metrics" >/tmp/dcserve.verify.metrics
for fam in oracle_dist_queries_total oracle_path_bibfs_total \
           oracle_backend_info oracle_backend_stretch_bound \
           oracle_dist_latency_seconds_bucket server_requests_total \
           server_active_conns go_goroutines; do
    grep -q "^$fam" /tmp/dcserve.verify.metrics || { echo "metric family $fam missing from /metrics"; exit 1; }
done
kill -INT "$SRV_PID"
wait "$SRV_PID" || { echo "dcserve did not drain cleanly"; exit 1; }
trap - EXIT
echo "scraped $(grep -c '^[a-z]' /tmp/dcserve.verify.metrics) samples from /metrics"

echo "== fleet e2e smoke (2-worker dcrouter + traced dcload over the binary protocol)"
go build -o /tmp/dcrouter.verify ./cmd/dcrouter
go build -o /tmp/dcload.verify ./cmd/dcload
rm -f /tmp/dcrouter.verify.log
# -d 64 keeps the 256-node graph inside the Theorem 2 expander regime
# (core.Build requires degree > n^{2/3}).
/tmp/dcrouter.verify -spawn 2 -n 256 -d 64 -listen 127.0.0.1:0 \
    -debug-addr 127.0.0.1:0 \
    >/tmp/dcrouter.verify.log 2>&1 &
RTR_PID=$!
trap 'kill "$RTR_PID" 2>/dev/null || true' EXIT
RTR_ADDR=""
for _ in $(seq 1 300); do
    RTR_ADDR=$(sed -n 's/^router serving on \([^ ]*\).*/\1/p' /tmp/dcrouter.verify.log)
    [ -n "$RTR_ADDR" ] && break
    sleep 0.1
done
[ -n "$RTR_ADDR" ] || { echo "dcrouter never announced its address"; cat /tmp/dcrouter.verify.log; exit 1; }
RTR_DEBUG=$(sed -n 's/^debug listening on //p' /tmp/dcrouter.verify.log)
[ -n "$RTR_DEBUG" ] || { echo "dcrouter never announced its debug address"; cat /tmp/dcrouter.verify.log; exit 1; }
# dcload exits 1 on zero answered requests or >1% errors, so its exit
# status is the assertion; -trace 8 sets the wire trace-context sampling
# bit on every 8th request and verifies the target echoes it.
/tmp/dcload.verify -addr "$RTR_ADDR" -duration 2s -conns 4 -batch 1:3,16:1 -zipf 0.9 -trace 8 \
    >/tmp/dcload.verify.out 2>&1 \
    || { echo "dcload run against the router failed"; cat /tmp/dcload.verify.out /tmp/dcrouter.verify.log; exit 1; }
cat /tmp/dcload.verify.out
grep -q '^traced: [1-9][0-9]* requests confirmed sampled' /tmp/dcload.verify.out \
    || { echo "target never confirmed a sampled trace (trace-context echo broken?)"; exit 1; }
echo "== flight recorder e2e (/debug/requests holds well-formed fan-out traces)"
curl -fsS "http://$RTR_DEBUG/debug/requests" >/tmp/dcrouter.verify.requests
python3 - <<'PYEOF'
import json
d = json.load(open("/tmp/dcrouter.verify.requests"))
assert d["recorded"] > 0, "flight recorder recorded nothing"
recs = d["requests"]
assert recs, "no requests drained from the recorder"
# Every record must carry a nonzero 16-hex-digit id and sane hops
# (hops append in completion order, so offsets need not be sorted).
for r in recs:
    assert len(r["id"]) == 16 and int(r["id"], 16) != 0, r["id"]
    for h in r["hops"]:
        assert h["offset_us"] >= 0 and h.get("dur_us", 0) >= 0, (r["id"], h)
        assert h["offset_us"] <= r["duration_us"] + 1, (r["id"], h)
# At least one fanned-out batch: split -> shard<i> -> merge hops with
# the split note naming the chunk/worker counts.
batch = next((r for r in recs
              for names in [[h["name"] for h in r["hops"]]]
              if "split" in names and "merge" in names
              and any(n.startswith("shard") for n in names)), None)
assert batch is not None, "no traced batch with split/shard/merge hops"
split = next(h for h in batch["hops"] if h["name"] == "split")
assert "chunks=" in split.get("note", "") and "workers=2" in split["note"], split
assert batch["duration_us"] > 0 and batch["path"] != "none"
print("flight recorder: %d traces, fan-out trace %s ok (%d hops, path=%s)"
      % (d["recorded"], batch["id"], len(batch["hops"]), batch["path"]))
PYEOF
kill -TERM "$RTR_PID"
wait "$RTR_PID" || { echo "dcrouter did not drain cleanly"; cat /tmp/dcrouter.verify.log; exit 1; }
trap - EXIT
grep -q '^drained, exiting' /tmp/dcrouter.verify.log || { echo "dcrouter missing drain banner"; cat /tmp/dcrouter.verify.log; exit 1; }
echo "fleet e2e: router drained cleanly"

echo "== dynamic churn e2e (race-built dcserve -dynamic + dcload update mix + /metrics scrapes, verified end state)"
# The server is built with -race and halts on the first report: updates
# edit the live spanner that queries read under the oracle's lock, while
# stats and the /metrics scrape take no lock and may read only fixed
# fields, atomics and the registry, so a reader of mutable state that
# skips the lock fails this step. It runs with default flags: -dynamic
# serves landmark-bibfs, whose searches and bulk sweeps read the live H
# that every update edits, without running the tuner.
go build -race -o /tmp/dcserve.race.verify ./cmd/dcserve
rm -f /tmp/dcserve.dyn.log
: >/tmp/dcserve.dyn.scrapes
# No expander regime needed here: dynamic mode maintains the incremental
# cluster spanner, so a thin regular graph exercises real topology churn.
GORACE=halt_on_error=1 /tmp/dcserve.race.verify -dynamic -n 256 -d 8 -listen 127.0.0.1:0 \
    -debug-addr 127.0.0.1:0 \
    >/tmp/dcserve.dyn.log 2>&1 &
DYN_PID=$!
trap 'kill "$DYN_PID" 2>/dev/null || true' EXIT
DYN_ADDR=""
for _ in $(seq 1 300); do
    DYN_ADDR=$(sed -n 's/^serving on \([^ ]*\).*/\1/p' /tmp/dcserve.dyn.log)
    [ -n "$DYN_ADDR" ] && break
    sleep 0.1
done
[ -n "$DYN_ADDR" ] || { echo "dynamic dcserve never started serving"; cat /tmp/dcserve.dyn.log; exit 1; }
DYN_DEBUG=$(sed -n 's/^debug listening on //p' /tmp/dcserve.dyn.log)
[ -n "$DYN_DEBUG" ] || { echo "dynamic dcserve never announced its debug address"; cat /tmp/dcserve.dyn.log; exit 1; }
grep -q '^oracle: backend=landmark-bibfs ' /tmp/dcserve.dyn.log \
    || { echo "dynamic dcserve does not serve landmark-bibfs by default"; cat /tmp/dcserve.dyn.log; exit 1; }
if grep -q '^oracle tuner:' /tmp/dcserve.dyn.log; then
    echo "dynamic dcserve ran the backend tuner"; cat /tmp/dcserve.dyn.log; exit 1
fi
# Scrape /metrics for as long as the server answers; the loop ends on its
# own if the race detector halts the server.
while curl -fsS "http://$DYN_DEBUG/metrics" >/dev/null 2>&1; do
    echo >>/tmp/dcserve.dyn.scrapes
done &
SCRAPE_PID=$!
trap 'kill "$SCRAPE_PID" "$DYN_PID" 2>/dev/null || true' EXIT
# -updates drives edge mutations on a dedicated connection while queries
# race them; dcload's exit status asserts the final verify snapshot shows
# the maintained spanner equal to a from-scratch rebuild.
/tmp/dcload.verify -addr "$DYN_ADDR" -duration 2s -conns 2 -batch 1:3,8:1 -updates 50 \
    >/tmp/dcload.dyn.out 2>&1 \
    || { echo "dcload churn run failed"; cat /tmp/dcload.dyn.out /tmp/dcserve.dyn.log; exit 1; }
kill "$SCRAPE_PID" 2>/dev/null || true
wait "$SCRAPE_PID" 2>/dev/null || true
cat /tmp/dcload.dyn.out
grep -q '^update consistency: .*verified=true consistent=true' /tmp/dcload.dyn.out \
    || { echo "dynamic server end state not verified consistent"; exit 1; }
grep -Eq '^updates: sent=[1-9][0-9]* applied=[1-9]' /tmp/dcload.dyn.out \
    || { echo "no updates were applied during the churn run"; exit 1; }
SCRAPES=$(wc -l </tmp/dcserve.dyn.scrapes)
[ "$SCRAPES" -gt 0 ] || { echo "no /metrics scrape completed during the churn run"; exit 1; }
# Every applied update observes the repair histogram (an update copies no
# graph and leaves no backend table to refresh).
curl -fsS "http://$DYN_DEBUG/metrics" >/tmp/dcserve.dyn.metrics
grep -Eq '^oracle_update_stage_repair_seconds_count [1-9]' /tmp/dcserve.dyn.metrics \
    || { echo "metric family oracle_update_stage_repair_seconds missing or empty on /metrics"; exit 1; }
kill -INT "$DYN_PID"
wait "$DYN_PID" || { echo "dynamic dcserve did not drain cleanly"; cat /tmp/dcserve.dyn.log; exit 1; }
trap - EXIT
if grep -q 'DATA RACE' /tmp/dcserve.dyn.log; then
    echo "race detector reported a data race in dynamic dcserve"; cat /tmp/dcserve.dyn.log; exit 1
fi
echo "dynamic churn e2e: landmark-bibfs untuned, verified consistent end state, $SCRAPES /metrics scrapes, repair histogram present, no data race"

echo "== dynamic dcserve refuses the table backends (exit non-zero, stderr names the backend)"
for be in exact-cached sparse-hub; do
    if /tmp/dcserve.race.verify -dynamic -n 64 -d 6 -oracle-backend "$be" \
        </dev/null >/dev/null 2>/tmp/dcserve.refuse.err; then
        echo "dcserve -dynamic -oracle-backend $be started"; exit 1
    fi
    grep -q "\"$be\"" /tmp/dcserve.refuse.err \
        || { echo "dcserve -dynamic -oracle-backend $be: stderr does not name the backend"; cat /tmp/dcserve.refuse.err; exit 1; }
done
echo "dynamic dcserve: exact-cached and sparse-hub refused"

echo "== dcspan CPU profile smoke"
rm -f /tmp/dcspan.verify.pprof
go run ./cmd/dcspan -n 512 -d 96 -trace -cpuprofile /tmp/dcspan.verify.pprof >/dev/null
test -s /tmp/dcspan.verify.pprof || { echo "cpuprofile is empty"; exit 1; }

echo "== dcbench quick smoke (schema-versioned BENCH_*.json)"
BENCH_DIR=$(mktemp -d /tmp/dcbench.verify.XXXXXX)
go run ./cmd/dcbench -quick -workers 2 -iters 1 -out "$BENCH_DIR"
BENCH_COUNT=$(ls "$BENCH_DIR"/BENCH_*.json | wc -l)
[ "$BENCH_COUNT" -ge 4 ] || { echo "dcbench emitted only $BENCH_COUNT scenarios, want >= 4"; exit 1; }
for f in "$BENCH_DIR"/BENCH_*.json; do
    for field in '"schema": "dcspanner/bench"' '"schema_version": 1' \
                 '"ns_per_op"' '"speedup_vs_serial"' '"fingerprint"' \
                 '"deterministic_across_workers": true'; do
        grep -q "$field" "$f" || { echo "$f missing $field"; exit 1; }
    done
done
echo "dcbench: $BENCH_COUNT scenarios validated in $BENCH_DIR"

echo "== dcbench -compare regression gate (self-compare must pass, slowed baseline must fail)"
go run ./cmd/dcbench -quick -workers 2 -iters 1 -run parallel_bfs,churn \
    -out "$BENCH_DIR" -compare "$BENCH_DIR" \
    || { echo "self-comparison against just-written baselines failed"; exit 1; }
# Corrupt one baseline's ns_per_op to 1 so any real timing regresses >25%.
sed 's/"ns_per_op": [0-9]*/"ns_per_op": 1/' "$BENCH_DIR/BENCH_parallel_bfs.json" \
    > "$BENCH_DIR/BENCH_parallel_bfs.json.tmp"
mv "$BENCH_DIR/BENCH_parallel_bfs.json.tmp" "$BENCH_DIR/BENCH_parallel_bfs.json"
if go run ./cmd/dcbench -quick -workers 2 -iters 1 -run parallel_bfs \
    -out /tmp -compare "$BENCH_DIR" 2>/dev/null; then
    echo "-compare did not fail against an impossible baseline"; exit 1
fi
rm -f /tmp/BENCH_parallel_bfs.json
echo "dcbench -compare: gate behaves"
rm -rf "$BENCH_DIR"

echo "== dcbench committed fingerprints (full-size run must reproduce every BENCH_*.json fingerprint)"
# Its own directory: full-size files in BENCH_DIR would let the quick
# self-compare above pass without comparing anything. The committed
# baselines come from 1- and 2-CPU hosts, so -tolerance 1000 leaves
# timing ungated; a changed fingerprint still fails the run.
FP_DIR=$(mktemp -d /tmp/dcbench.fp.XXXXXX)
go run ./cmd/dcbench -workers 2 -iters 1 -out "$FP_DIR" -compare . -tolerance 1000 \
    || { echo "a full-size fingerprint differs from its committed BENCH_*.json"; exit 1; }
rm -rf "$FP_DIR"

echo "verify: OK"
