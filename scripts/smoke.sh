#!/bin/sh
# Smoke test for cmd/pchls-server: build it, start it on a private port,
# probe /healthz, synthesize hal twice (the warm response must byte-match
# the cold one), and confirm /metrics reports the cache hit. Exits
# non-zero on any failure. Used by `make smoke` and the CI server job.
set -eu

GO=${GO:-go}
ADDR=${SMOKE_ADDR:-127.0.0.1:18080}
BASE="http://$ADDR"
TMP=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

$GO build -o "$TMP/pchls-server" ./cmd/pchls-server
"$TMP/pchls-server" -addr "$ADDR" &
SERVER_PID=$!

# Wait for the listener (up to ~10s).
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "smoke: server never became healthy on $ADDR" >&2
        exit 1
    fi
    sleep 0.1
done
echo "smoke: /healthz ok"

BODY='{"benchmark":"hal","deadline":17,"power_max":20}'
curl -sf -X POST -d "$BODY" "$BASE/v1/synthesize" -o "$TMP/cold.json" \
    -D "$TMP/cold.hdr"
grep -qi '^X-Pchls-Cache: miss' "$TMP/cold.hdr" || {
    echo "smoke: cold request was not a cache miss" >&2
    cat "$TMP/cold.hdr" >&2
    exit 1
}
echo "smoke: cold synthesize ok ($(wc -c <"$TMP/cold.json") bytes)"

curl -sf -X POST -d "$BODY" "$BASE/v1/synthesize" -o "$TMP/warm.json" \
    -D "$TMP/warm.hdr"
grep -qi '^X-Pchls-Cache: hit' "$TMP/warm.hdr" || {
    echo "smoke: warm request was not a cache hit" >&2
    cat "$TMP/warm.hdr" >&2
    exit 1
}
grep -qi '^X-Pchls-Scheduler-Runs: 0' "$TMP/warm.hdr" || {
    echo "smoke: warm request reports scheduler runs" >&2
    exit 1
}
cmp -s "$TMP/cold.json" "$TMP/warm.json" || {
    echo "smoke: warm response differs from cold response" >&2
    exit 1
}
echo "smoke: warm synthesize ok (byte-identical, zero scheduler runs)"

curl -sf "$BASE/v1/benchmarks" >/dev/null
echo "smoke: /v1/benchmarks ok"

# Batch: two items through one request; -f fails the script on non-2xx.
# The first item repeats the synthesize above, so its base64 body must
# decode to exactly the standalone response bytes.
BATCH='{"requests":[{"synthesize":{"benchmark":"hal","deadline":17,"power_max":20}},{"sweep":{"benchmark":"hal","deadline":17,"power_min":5,"power_max":20,"step":5,"single_pass":true}}]}'
curl -sf -X POST -d "$BATCH" "$BASE/v1/batch" -o "$TMP/batch.json"
grep -q '"status": 200' "$TMP/batch.json" || {
    echo "smoke: batch items did not all succeed" >&2
    cat "$TMP/batch.json" >&2
    exit 1
}
grep -o '"body": "[^"]*"' "$TMP/batch.json" | head -1 | cut -d'"' -f4 \
    | base64 -d >"$TMP/batch-item0.json"
cmp -s "$TMP/batch-item0.json" "$TMP/cold.json" || {
    echo "smoke: batch item body differs from the standalone response" >&2
    exit 1
}
echo "smoke: /v1/batch ok (item body byte-identical to standalone)"

# Two hits exactly: the warm synthesize plus batch item 0's repeat.
curl -sf "$BASE/metrics" -o "$TMP/metrics"
grep -q '^pchls_cache_hits_total 2$' "$TMP/metrics" || {
    echo "smoke: /metrics does not report the two cache hits" >&2
    grep '^pchls_cache' "$TMP/metrics" >&2 || true
    exit 1
}
grep -q '^pchls_request_seconds_count{endpoint="/v1/synthesize"}' "$TMP/metrics" || {
    echo "smoke: /metrics missing latency histogram" >&2
    exit 1
}
echo "smoke: /metrics ok"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
echo "smoke: all checks passed"
