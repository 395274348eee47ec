package main

import (
	"reflect"
	"testing"

	"opd/internal/core"
	"opd/internal/interval"
	"opd/internal/trace"
)

// stream spells a trace with one distinct element per letter.
func stream(s string) trace.Trace {
	t := make(trace.Trace, len(s))
	for i, c := range s {
		t[i] = trace.MakeBranch(uint32(c), 0, true)
	}
	return t
}

func iv(pairs ...int64) []interval.Interval {
	var out []interval.Interval
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, interval.Interval{Start: pairs[i], End: pairs[i+1]})
	}
	return out
}

// TestRefHandWorked checks the reference detector on streams worked out
// by hand from the paper's definitions, and the program's detector on
// the same streams against it.
func TestRefHandWorked(t *testing.T) {
	cases := []struct {
		name string
		in   string
		cfg  core.Config
		raw  []interval.Interval
		adj  []interval.Interval
		sims int64
		ties int64
	}{
		{
			// Windows of 2 fill at element 4. Group 3: CW aa, TW aa,
			// similarity 1, a phase starts; no TW element is absent
			// from the CW, so the RN anchor keeps the whole TW (0).
			// Group 4: CW ab, TW aa, 1/2 meets 0.5 exactly. Group 5:
			// CW bb, TW aa, 0: the phase ends at 5 and the windows
			// restart from 5, too late to fill again.
			name: "unweighted constant",
			in:   "aaaabbbb",
			cfg:  core.Config{CWSize: 2, TWSize: 2, SkipFactor: 1, Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.5},
			raw:  iv(3, 5), adj: iv(0, 5), sims: 3, ties: 1,
		},
		{
			// The same stream weighted: group 4 sums min(1/2, 2/2) for
			// a and min(1/2, 0) for b, 1/2 again.
			name: "weighted constant",
			in:   "aaaabbbb",
			cfg:  core.Config{CWSize: 2, TWSize: 2, SkipFactor: 1, Model: core.WeightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.5},
			raw:  iv(3, 5), adj: iv(0, 5), sims: 3, ties: 1,
		},
		{
			// Fixed Interval compares adjacent pairs, four times: [0,2)~
			// [2,4) in phase from 2, [2,4)~[4,6) ends it at 4, and after
			// the flush [4,6)~[6,8) starts one at 6 anchored at 4, which
			// [6,8)~[8,10) ends at 8.
			name: "fixed interval",
			in:   "aaaabbbbaa",
			cfg:  core.FixedInterval(2, core.UnweightedModel, core.ThresholdAnalyzer, 0.5),
			raw:  iv(2, 4, 6, 8), adj: iv(0, 4, 4, 8), sims: 4,
		},
		{
			// At group 3 the TW is "ac" and the CW "aa": RN anchors just
			// after the newest noisy element c (position 2).
			name: "RN anchor",
			in:   "acaaaa",
			cfg:  core.Config{CWSize: 2, TWSize: 2, SkipFactor: 1, Anchor: core.AnchorRN, Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.5},
			raw:  iv(3, 6), adj: iv(2, 6), sims: 3,
		},
		{
			// LNN anchors at the oldest non-noisy element, a at 0.
			name: "LNN anchor",
			in:   "acaaaa",
			cfg:  core.Config{CWSize: 2, TWSize: 2, SkipFactor: 1, Anchor: core.AnchorLNN, Model: core.UnweightedModel, Analyzer: core.ThresholdAnalyzer, Param: 0.5},
			raw:  iv(3, 6), adj: iv(0, 6), sims: 3,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rc, ok := refConfigOf(c.cfg)
			if !ok {
				t.Fatalf("config %s not covered by the reference", c.cfg.ID())
			}
			got := refDetect(stream(c.in), rc)
			want := refResult{Phases: c.raw, Adjusted: c.adj, Sims: c.sims, Ties: c.ties}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reference = %+v, worked by hand %+v", got, want)
			}
			d := core.RunTrace(c.cfg.MustNew(), stream(c.in))
			if err := checkAgainstRef(d.Phases(), d.AdjustedPhases(), d.SimilarityComputations(), got); err != nil {
				t.Fatalf("core detector: %v", err)
			}
		})
	}
}

func TestRefConfigCoverage(t *testing.T) {
	if _, ok := refConfigOf(core.Config{CWSize: 4, TW: core.AdaptiveTW, Analyzer: core.ThresholdAnalyzer, Param: 0.5}); ok {
		t.Error("Adaptive TW accepted")
	}
	if _, ok := refConfigOf(core.Config{CWSize: 4, Analyzer: core.AverageAnalyzer, Param: 0.1}); ok {
		t.Error("Average analyzer accepted")
	}
}
