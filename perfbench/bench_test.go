package main

import (
	"os"
	"testing"
)

// TestWorkloadsTiny runs every workload on tiny inputs, plain and
// traced, and requires zero failed operations and no failed check.
func TestWorkloadsTiny(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			p := params{seed: 3, seconds: 0.3, tiny: true, dataDir: t.TempDir()}
			if traced {
				p.tr = newTracer()
			}
			o, err := run(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if o.attempted == 0 || o.failed != 0 || len(o.violations) != 0 {
				t.Fatalf("%s (traced %v): attempted %d, failed %d, violations %q", name, traced, o.attempted, o.failed, o.violations)
			}
			if o.m["wall.elems_per_s"] <= 0 || o.m["wall.op_p50_ms"] <= 0 || o.m["setup_s"] <= 0 {
				t.Errorf("%s: missing end-to-end metrics: %v", name, o.m)
			}
		}
	}
}

// TestStreamIDsKnee steps stream-ids' paced rate and logs the ack
// latency at each step, to find the open-loop knee by hand:
//
//	PERFBENCH_KNEE=1 go test -run TestStreamIDsKnee -v -timeout 20m .
//
// The knee moves with the host, so no run of the benchmark gates on it.
func TestStreamIDsKnee(t *testing.T) {
	if os.Getenv("PERFBENCH_KNEE") == "" {
		t.Skip("set PERFBENCH_KNEE=1 to measure the open-loop knee")
	}
	for _, rate := range []int{400, 800, 1600, 3200, 6400, 12800} {
		p := params{seed: 1, seconds: 10, dataDir: t.TempDir(), rate: rate}
		o, err := runStreamIDs(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%5d chunks/s per slot: ack p50 %.3f ms, p99 %.3f ms, generator late p50 %.3f ms",
			rate, o.m["wall.op_p50_ms"], o.m["wall.op_p99_ms"], o.m["bench.gen_late_ms"])
	}
}
