#!/bin/sh
# End-to-end smoke for `c2b serve`: daemon on an ephemeral port with a
# disk cache attached, one DSE job over the wire, progress/metrics
# fetches, `c2b report` on the job's journal against a CLI run of the same
# sweep, one invalid body rejected with a 400, then a drained shutdown
# with exit 0. Driven by
# cli_serve_smoke.cmake (ctest) and reused verbatim by the CI serve job.
set -e

BIN="$1"
DIR="$2"
[ -x "$BIN" ] || { echo "usage: cli_serve_smoke.sh <c2b> <work dir>" >&2; exit 2; }

rm -rf "$DIR/serve_cache" "$DIR/serve_spool"
rm -f "$DIR/serve_port" "$DIR/serve.log" "$DIR/serve_bad.out" "$DIR"/serve_*report*
rm -f "$DIR/serve_cli.jsonl"
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

# The job's journal is a run journal: `c2b report` shows its thread count
# and its run_end, and the same replay counts as the same sweep run by the
# CLI (the cache section differs: the daemon has a disk tier attached).
"$BIN" report --journal "$DIR/serve_spool/job-0.jsonl" > "$DIR/serve_report.out"
"$BIN" dse --workload stencil --instructions 2000 --per-core-cap 1000 \
       --journal-out "$DIR/serve_cli.jsonl" > /dev/null
"$BIN" report --journal "$DIR/serve_cli.jsonl" > "$DIR/serve_cli_report.out"
if grep -q 'no run_end' "$DIR/serve_report.out"; then
  echo "FAIL: report of a finished job says it ends mid-run" >&2
  cat "$DIR/serve_report.out" >&2
  exit 1
fi
pattern='^  (threads|replayed configs|chunks shared|regen avoided|simd kernel) '
grep -E "$pattern" "$DIR/serve_report.out" > "$DIR/serve_report.lines"
grep -E "$pattern" "$DIR/serve_cli_report.out" > "$DIR/serve_cli_report.lines"
[ "$(wc -l < "$DIR/serve_report.lines")" -eq 5 ] || {
  echo "FAIL: job report lacks thread or replay lines" >&2
  cat "$DIR/serve_report.out" >&2
  exit 1
}
if ! cmp -s "$DIR/serve_report.lines" "$DIR/serve_cli_report.lines"; then
  echo "FAIL: job report and CLI report disagree" >&2
  diff "$DIR/serve_report.lines" "$DIR/serve_cli_report.lines" >&2
  exit 1
fi

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
