#!/bin/sh
# Cluster smoke test: build pchls-coordinator, pchls-server and the pchls
# CLI, boot a coordinator plus two workers (the workers join via POST
# /cluster/register and form a cache-peer ring), run a sharded sweep and
# two sharded surfaces through the coordinator, and require every
# response to be byte-identical to a single worker computing the same
# request locally — and the synthesize response to be byte-identical to
# the CLI's -json output. A third surface overlaps an earlier one on
# other axes, so its shared cells come from the workers' warm caches. Also checks the cluster and peer-fill metrics.
# Exits non-zero on any failure. Used by `make cluster-smoke` and CI.
set -eu

GO=${GO:-go}
COORD_ADDR=${CLUSTER_SMOKE_COORD:-127.0.0.1:18090}
W1_ADDR=${CLUSTER_SMOKE_W1:-127.0.0.1:18091}
W2_ADDR=${CLUSTER_SMOKE_W2:-127.0.0.1:18092}
COORD="http://$COORD_ADDR"
W1="http://$W1_ADDR"
W2="http://$W2_ADDR"
TMP=$(mktemp -d)
trap 'kill "$COORD_PID" "$W1_PID" "$W2_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

$GO build -o "$TMP/pchls-coordinator" ./cmd/pchls-coordinator
$GO build -o "$TMP/pchls-server" ./cmd/pchls-server
$GO build -o "$TMP/pchls" ./cmd/pchls

"$TMP/pchls-coordinator" -addr "$COORD_ADDR" &
COORD_PID=$!

wait_healthy() {
    i=0
    until curl -sf "$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "cluster-smoke: $1 never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
}
wait_healthy "$COORD"

# Workers join the coordinator and carry a static peer ring; -join also
# exercises POST /cluster/register.
"$TMP/pchls-server" -addr "$W1_ADDR" -self "$W1" -peers "$W1,$W2" -join "$COORD" &
W1_PID=$!
wait_healthy "$W1"
"$TMP/pchls-server" -addr "$W2_ADDR" -self "$W2" -peers "$W1,$W2" -join "$COORD" &
W2_PID=$!
wait_healthy "$W2"
echo "cluster-smoke: coordinator + 2 workers healthy"

curl -sf "$COORD/metrics" -o "$TMP/metrics0"
grep -q '^pchls_cluster_workers 2$' "$TMP/metrics0" || {
    echo "cluster-smoke: coordinator does not report 2 registered workers" >&2
    grep '^pchls_cluster' "$TMP/metrics0" >&2 || true
    exit 1
}
echo "cluster-smoke: both workers registered"

# Sharded sweep through the coordinator vs the same sweep computed
# locally by one worker: byte-identical or the distribution layer leaks.
SWEEP='{"benchmark":"hal","deadline":17,"power_min":5,"power_max":50,"step":5}'
curl -sf -X POST -d "$SWEEP" "$COORD/v1/sweep" -o "$TMP/sweep-coord.json"
curl -sf -X POST -d "$SWEEP" "$W1/v1/sweep" -o "$TMP/sweep-w1.json"
cmp -s "$TMP/sweep-coord.json" "$TMP/sweep-w1.json" || {
    echo "cluster-smoke: sharded sweep differs from local sweep" >&2
    exit 1
}
echo "cluster-smoke: sharded sweep byte-identical ($(wc -c <"$TMP/sweep-coord.json") bytes)"

for bm_body in \
    'hal:{"benchmark":"hal","deadlines":[10,17],"powers":[20,40]}' \
    'diffeq2:{"benchmark":"diffeq2","deadlines":[20,30],"powers":[10,15],"single_pass":true}'; do
    bm=${bm_body%%:*}
    body=${bm_body#*:}
    curl -sf -X POST -d "$body" "$COORD/v1/surface" -o "$TMP/surface-$bm-coord.json"
    curl -sf -X POST -d "$body" "$W2/v1/surface" -o "$TMP/surface-$bm-w2.json"
    cmp -s "$TMP/surface-$bm-coord.json" "$TMP/surface-$bm-w2.json" || {
        echo "cluster-smoke: sharded $bm surface differs from local surface" >&2
        exit 1
    }
    echo "cluster-smoke: sharded $bm surface byte-identical"
done

# A surface on other axes that shares two cells with the hal surface
# above: the coordinator's own surface cache misses, so the grid reaches
# the workers, which answer the shared cells from their result caches.
# Only owner-side hits are summed: a cell a worker holds itself is one
# hit there, and a cell a stealing worker fills from its owner is one hit
# on the owner (the peer-fill probe reads the owner's cache), so each
# warm cell adds exactly one.
cache_hits() {
    curl -sf "$W1/metrics" -o "$TMP/hits-w1"
    curl -sf "$W2/metrics" -o "$TMP/hits-w2"
    awk '$1 == "pchls_cache_hits_total" {s += $2} END {print s+0}' "$TMP/hits-w1" "$TMP/hits-w2"
}
hits0=$(cache_hits)
OVERLAP='{"benchmark":"hal","deadlines":[17,20],"powers":[20,40]}'
curl -sf -D "$TMP/overlap-headers" -X POST -d "$OVERLAP" "$COORD/v1/surface" -o "$TMP/surface-overlap-coord.json"
grep -qi '^x-pchls-cache: miss' "$TMP/overlap-headers" || {
    echo "cluster-smoke: the overlapping surface did not miss the coordinator's cache" >&2
    exit 1
}
warm=$(($(cache_hits) - hits0))
[ "$warm" -ge 2 ] || {
    echo "cluster-smoke: the overlapping surface reached $warm warm worker cache entries, want 2" >&2
    exit 1
}
curl -sf -X POST -d "$OVERLAP" "$W2/v1/surface" -o "$TMP/surface-overlap-w2.json"
cmp -s "$TMP/surface-overlap-coord.json" "$TMP/surface-overlap-w2.json" || {
    echo "cluster-smoke: overlapping surface from warm workers differs from local surface" >&2
    exit 1
}
echo "cluster-smoke: overlapping surface byte-identical from warm worker caches ($warm hits)"

# A coordinated synthesize must match the CLI's -json output exactly.
curl -sf -X POST -d '{"benchmark":"hal","deadline":17,"power_max":20}' \
    "$COORD/v1/synthesize" -o "$TMP/synth-coord.json"
"$TMP/pchls" -g hal -T 17 -P 20 -json "$TMP/synth-cli.json" >/dev/null
cmp -s "$TMP/synth-coord.json" "$TMP/synth-cli.json" || {
    echo "cluster-smoke: coordinated synthesize differs from CLI -json output" >&2
    exit 1
}
echo "cluster-smoke: synthesize byte-identical to the CLI"

# Batch through the coordinator; -f fails the script on non-2xx.
BATCH='{"requests":[{"synthesize":{"benchmark":"hal","deadline":17,"power_max":20}},{"surface":{"benchmark":"hal","deadlines":[10,17],"powers":[20,40]}}]}'
curl -sf -X POST -d "$BATCH" "$COORD/v1/batch" -o "$TMP/batch.json"
grep -q '"status": 200' "$TMP/batch.json" || {
    echo "cluster-smoke: batch items did not all succeed" >&2
    cat "$TMP/batch.json" >&2
    exit 1
}
echo "cluster-smoke: batch ok"

# Peer fill: the coordinator already routed this synthesize to the
# worker owning its key, so posting it directly to BOTH workers makes
# the non-owner's miss a guaranteed peer hit — whichever worker that is.
SYNTH='{"benchmark":"hal","deadline":17,"power_max":20}'
curl -sf -X POST -d "$SYNTH" "$W1/v1/synthesize" -o "$TMP/synth-w1.json"
curl -sf -X POST -d "$SYNTH" "$W2/v1/synthesize" -o "$TMP/synth-w2.json"
cmp -s "$TMP/synth-w1.json" "$TMP/synth-w2.json" || {
    echo "cluster-smoke: the two workers disagree on the same synthesize" >&2
    exit 1
}

# Metrics: the coordinator dispatched points; the direct posts above
# filled the non-owning worker's cache from its peer.
curl -sf "$COORD/metrics" -o "$TMP/metrics-coord"
grep -q '^pchls_cluster_points_total' "$TMP/metrics-coord" || {
    echo "cluster-smoke: coordinator missing cluster metrics" >&2
    exit 1
}
points=$(awk '/^pchls_cluster_points_total/ {print $2}' "$TMP/metrics-coord")
[ "$points" -ge 10 ] || {
    echo "cluster-smoke: coordinator dispatched only $points points" >&2
    exit 1
}
grep -q '^pchls_request_seconds_count' "$TMP/metrics-coord" || {
    echo "cluster-smoke: coordinator missing per-endpoint latency histogram" >&2
    exit 1
}
curl -sf "$W1/metrics" -o "$TMP/metrics-w1"
curl -sf "$W2/metrics" -o "$TMP/metrics-w2"
fills=$(awk '/^pchls_cache_peer_hits_total/ {s += $2} END {print s+0}' "$TMP/metrics-w1" "$TMP/metrics-w2")
[ "$fills" -ge 1 ] || {
    echo "cluster-smoke: no peer fills recorded across the workers" >&2
    grep '^pchls_cache_peer' "$TMP/metrics-w1" "$TMP/metrics-w2" >&2 || true
    exit 1
}
echo "cluster-smoke: metrics ok ($points points dispatched, $fills peer fills)"

kill "$COORD_PID" "$W1_PID" "$W2_PID"
wait "$COORD_PID" "$W1_PID" "$W2_PID" 2>/dev/null || true
echo "cluster-smoke: all checks passed"
