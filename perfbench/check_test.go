package main

import (
	"encoding/json"
	"os"
	"testing"

	"opd/internal/core"
	"opd/internal/interval"
	"opd/internal/serve"
	"opd/internal/trace"
)

// TestCheckersRejectWrongOutput shows that each checker catches the
// fault it exists for.
func TestCheckersRejectWrongOutput(t *testing.T) {
	cfg := core.Config{CWSize: 2, TWSize: 2, SkipFactor: 1, Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.5}
	rc, _ := refConfigOf(cfg)
	in := stream("aaaabbbbaaaa")
	ref := refDetect(in, rc)
	if err := checkAgainstRef(ref.Phases, ref.Adjusted, ref.Sims, ref); err != nil {
		t.Fatalf("reference against itself: %v", err)
	}

	t.Run("shifted phase boundary", func(t *testing.T) {
		shifted := append([]interval.Interval(nil), ref.Phases...)
		shifted[0].End++
		if checkAgainstRef(shifted, ref.Adjusted, ref.Sims, ref) == nil {
			t.Error("a phase end one element late passed the reference check")
		}
		if checkPhases(iv(0, 4, 3, 6), iv(0, 4, 3, 6), 12) == nil {
			t.Error("overlapping phases passed")
		}
		if checkPhases(iv(2, 4), iv(3, 4), 12) == nil {
			t.Error("an adjusted start after the raw start passed")
		}
	})

	chunks := [][]trace.Branch{in[:5], in[5:]}
	want, err := offline(cfg, chunks, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.events) < 2 {
		t.Fatalf("test stream emits %d events, want at least 2", len(want.events))
	}
	t.Run("dropped event", func(t *testing.T) {
		if err := checkEvents(want.events, want.events); err != nil {
			t.Fatalf("events against themselves: %v", err)
		}
		dropped := append(append([]serve.Event(nil), want.events[:1]...), want.events[2:]...)
		if checkEvents(dropped, want.events) == nil {
			t.Error("a dropped event passed")
		}
		if checkEvents(append(want.events, want.events[len(want.events)-1]), want.events) == nil {
			t.Error("a duplicated event passed")
		}
	})

	t.Run("lost acked chunk", func(t *testing.T) {
		if checkRecovered("s", 7, 7) != nil {
			t.Error("a full recovery failed")
		}
		if checkRecovered("s", 6, 7) == nil {
			t.Error("a recovery missing an acked chunk passed")
		}
		if checkLedger(100, 100, 99) == nil {
			t.Error("an element missing from the ingest counter passed")
		}
	})

	t.Run("summary", func(t *testing.T) {
		sum := &serve.Summary{State: serve.StateClosed, Consumed: want.consumed, SimComputations: want.sims,
			Phases: want.raw, AdjustedPhases: want.adj, EventsTotal: uint64(len(want.events))}
		if err := checkSummary(sum, want); err != nil {
			t.Fatalf("matching summary: %v", err)
		}
		sum.Consumed--
		if checkSummary(sum, want) == nil {
			t.Error("a summary one element short passed")
		}
	})
}

// TestOfflineChunkingAgnostic checks that the offline expectation does
// not depend on chunking or on the ID path.
func TestOfflineChunkingAgnostic(t *testing.T) {
	cfg := core.FixedInterval(3, core.WeightedModel, core.ThresholdAnalyzer, 0.5)
	in := stream("abcabcabcxyzxyzxyzabcabcabc")
	whole, err := offline(cfg, [][]trace.Branch{in}, false)
	if err != nil {
		t.Fatal(err)
	}
	split, err := offline(cfg, [][]trace.Branch{in[:4], in[4:11], in[11:]}, true)
	if err != nil {
		t.Fatal(err)
	}
	sum := &serve.Summary{State: serve.StateClosed, Consumed: whole.consumed, SimComputations: whole.sims,
		Phases: whole.raw, AdjustedPhases: whole.adj, EventsTotal: uint64(len(whole.events))}
	if err := checkSummary(sum, split); err != nil {
		t.Fatal(err)
	}
	if err := checkEvents(whole.events, split.events); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the program
// prints in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", c.kind, len(c.defs), len(c.json))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("%s %d: program %s (%s), BENCHMARK.json %s (%s)", c.kind, i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
