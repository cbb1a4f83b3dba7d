#!/bin/sh
# End-to-end smoke for `c2b serve`: daemon on an ephemeral port with a
# disk cache attached, one DSE job over the wire, progress/metrics
# fetches, one invalid body rejected with a 400, then a drained shutdown
# with exit 0. Driven by
# cli_serve_smoke.cmake (ctest) and reused verbatim by the CI serve job.
set -e

BIN="$1"
DIR="$2"
[ -x "$BIN" ] || { echo "usage: cli_serve_smoke.sh <c2b> <work dir>" >&2; exit 2; }

rm -rf "$DIR/serve_cache" "$DIR/serve_spool"
rm -f "$DIR/serve_port" "$DIR/serve.log" "$DIR/serve_bad.out"
mkdir -p "$DIR/serve_spool"

"$BIN" serve --port 0 --port-file "$DIR/serve_port" --spool "$DIR/serve_spool" \
       --cache-dir "$DIR/serve_cache" > "$DIR/serve.log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

i=0
while [ ! -s "$DIR/serve_port" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "FAIL: port file never appeared; daemon log:" >&2
    cat "$DIR/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
port=$(cat "$DIR/serve_port")

"$BIN" submit --port "$port" --workload stencil --instructions 2000 \
       --per-core-cap 1000 --wait
"$BIN" fetch --port "$port" --path /jobs/0 | grep -q '"status":"done"'
"$BIN" fetch --port "$port" --path /jobs/0/events | grep -q '"type":"job_end"'
"$BIN" fetch --port "$port" --path /metrics | grep -q 'serve.jobs.completed'

# An invalid body is rejected at the boundary: HTTP 400 naming the key,
# submit exits nonzero, and the queue is unchanged.
if "$BIN" submit --port "$port" --body '{"type":"dse","instructions":-1}' \
     > "$DIR/serve_bad.out" 2>&1; then
  echo "FAIL: submit of an invalid body exited 0" >&2
  cat "$DIR/serve_bad.out" >&2
  exit 1
fi
grep -q 'HTTP 400' "$DIR/serve_bad.out"
grep -q '"error":"instructions:' "$DIR/serve_bad.out"
"$BIN" fetch --port "$port" --path /stats | grep -q '"queued":0,"running":0,"done":1,"failed":0'

"$BIN" fetch --port "$port" --path /shutdown --post
trap - EXIT
wait "$pid"
grep -q 'drained, exiting' "$DIR/serve.log"

# The attached cache dir must have persisted the sweep's results.
ls "$DIR/serve_cache"/seg-*.c2b > /dev/null

echo "serve smoke OK"
