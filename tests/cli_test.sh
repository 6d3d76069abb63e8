#!/bin/sh
# End-to-end checks of the recperf command line:
#   (a) every command runs once at a tiny size and exits 0, so each
#       command registers every option it reads (reading an
#       unregistered option panics);
#   (b) an option that belongs to another command exits 2;
#   (c) a malformed or out-of-range value exits 2;
#   (d) two identical traced serve runs write byte-identical files.
#
# usage: cli_test.sh <path to the recperf binary>

R=$1
W=$(mktemp -d) || exit 1
trap 'rm -rf "$W"' EXIT
cd "$W" || exit 1
fail=0

# expect <exit code> <recperf arguments...>
expect() {
    want=$1
    shift
    "$R" "$@" >out.txt 2>err.txt
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: recperf $* exited $got, want $want"
        sed 's/^/  | /' err.txt | tail -n 5
        fail=1
    fi
}

# (a) every command, every option group read at least once.
expect 0 help
expect 0 zoo
expect 0 time --model rmc1 --batch 4 --iters 2 --zipf 0.9 --repeat 0.3 \
    --counters --metrics-out time.json
expect 0 time --model rmc2 --batch 4 --iters 2 --backend nmp \
    --nmp-ranks 4 --nmp-placement all
expect 0 colocate --model rmc1 --batch 4 --max-tenants 2
expect 0 serve --model rmc1 --items 300 --rate 20000 --workers 2 \
    --admission --degrade-batch 4 --brownout --deadline-ms 5 \
    --straggler-prob 0.05 --cluster-replicas 2 --healthy-replicas 1 \
    --trace-out serve.json --metrics-out serve_metrics.json \
    --timeseries-out serve.jsonl --request-log-out requests.jsonl \
    --exemplars-out exemplars.jsonl --request-log-k 2
expect 0 shard --model rmc1 --nodes 2 --iters 20 --replicas 2 \
    --router p2c --hedge --chaos-events 1 --mtbf-ms 20 --mttr-ms 1 \
    --timeout-ms 1 --retries 1 --corrupt-rate 1000 --corrupt-fc 0.1 \
    --scrub-interval-ms 5 --integrity-sample 0.5 --integrity-guards \
    --fault-log-out faults.jsonl --request-log-out shard.jsonl
expect 0 shard --model rmc1 --nodes 2 --iters 20 --hedge --hedge-ms 0.05
expect 0 trace --items 2000 --rows 10000 --seed 3
expect 0 eval --model rmc1 --rows-cap 256 --batch 4 --iters 1 \
    --isa scalar --integrity-sample 1 --corrupt-events 2
expect 0 report --metrics serve_metrics.json --trace serve.json \
    --timeseries serve.jsonl
expect 0 explain --request-log requests.jsonl \
    --metrics serve_metrics.json --top 2
for cmd in time colocate serve shard trace eval report explain zoo; do
    expect 0 "$cmd" --help
done
"$R" serve --help >help.txt
grep -q -- "--rate" help.txt || { echo "FAIL: serve --help lacks --rate"; fail=1; }
if grep -q -- "--hedge" help.txt; then
    echo "FAIL: serve --help lists shard's --hedge"
    fail=1
fi

# (b) knobs of another command are unknown arguments.
expect 2 serve --hedge
expect 2 serve --replicas 3 --router p2c --nodes 8
expect 2 serve --mtbf-ms 5
expect 2 serve --seed 5
expect 2 shard --workers 2
expect 2 shard --workers 9 --admission --sla-ms 3
expect 2 shard --brownout
expect 2 time --mtbf-ms 5
expect 2 time --mtbf-ms 5 --deadline-ms 2
expect 2 time --request-log-out r.jsonl
expect 2 eval --rate 5
expect 2 eval --rate 5 --hedge
expect 2 eval --machine skylake
expect 2 colocate --hedge
expect 2 colocate --trace-out c.json
if [ -e c.json ]; then
    echo "FAIL: colocate wrote c.json"
    fail=1
fi
expect 2 trace --nodes 2
expect 2 report --top 2
expect 2 explain --trace serve.json
expect 2 zoo --model rmc1
expect 2 bogus

# (c) malformed values, out-of-range integers, knobs without their
# switch, and options a library validator rejects.
expect 2 serve --items abc
expect 2 serve --rate 1e4x
expect 2 serve --rate nan
expect 2 shard --iters 1.5
expect 2 serve --items=
expect 2 serve --workers -1
expect 2 serve --sla-ms 0
expect 2 serve --healthy-replicas 3
expect 2 serve --brownout-enter 3
expect 2 serve --request-log-k 8
expect 2 serve stray
expect 2 time --batch 0
expect 2 time --model bogus
expect 2 colocate --max-tenants 0
expect 2 trace --items -1
expect 2 shard --nodes 9
expect 2 shard --router p2c
expect 2 shard --hedge-ms 1
expect 2 shard --corrupt-zipf 1
expect 2 shard --integrity-sample 0
expect 2 shard --retries 3
expect 2 shard --mtbf-ms 5 --mttr-ms 0
expect 2 shard --replicas 2 --chaos-events 2 --chaos-ms 0
expect 2 eval --corrupt-events 2
expect 2 eval --threads -1
expect 2 eval --nmp-ranks 4
expect 2 time --backend nmp --nmp-ranks 0

# (d) a traced run is reproducible byte for byte.
for run in 1 2; do
    expect 0 serve --model rmc1 --items 300 --trace-out "t$run.json"
done
if ! cmp -s t1.json t2.json; then
    echo "FAIL: two identical traced serve runs wrote different traces"
    fail=1
fi

[ "$fail" -eq 0 ] && echo "recperf CLI: all checks passed"
exit "$fail"
