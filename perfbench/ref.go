package main

import (
	"fmt"

	"opd/internal/core"
	"opd/internal/interval"
	"opd/internal/trace"
)

// refConfig is the part of the detector design space the reference
// detector implements: a Constant trailing window (Fixed Interval is the
// Constant TW with skip = CW = TW), the unweighted or weighted set
// similarity model, the Threshold analyzer and the RN/LNN anchors.
type refConfig struct {
	CW, TW, Skip int
	Weighted     bool
	Threshold    float64
	LNN          bool
}

// refConfigOf maps a core configuration onto the reference's space; ok
// is false for configurations the reference does not cover (Adaptive TW,
// Average analyzer).
func refConfigOf(c core.Config) (refConfig, bool) {
	if c.TW != core.ConstantTW || c.Analyzer != core.ThresholdAnalyzer {
		return refConfig{}, false
	}
	r := refConfig{CW: c.CWSize, TW: c.TWSize, Skip: c.SkipFactor, Weighted: c.Model == core.WeightedModel,
		Threshold: c.Param, LNN: c.Anchor == core.AnchorLNN}
	if r.TW == 0 {
		r.TW = r.CW
	}
	if r.Skip == 0 {
		r.Skip = 1
	}
	return r, true
}

// refResult is the reference detector's output over one stream.
type refResult struct {
	Phases, Adjusted []interval.Interval
	Sims             int64
	// Ties counts similarity values exactly equal to the threshold as
	// rationals: there the decision rests on how the detector rounds,
	// so they are reported beside a comparison.
	Ties int64
}

// refDetect runs the paper's online detector over a stream, recomputing
// every similarity from scratch for each group of Skip elements.
//
// The windows are the most recent elements consumed since the last
// window flush: the current window (CW) is the last CW of them, the
// trailing window (TW) the TW before that. A similarity is computed only
// once both windows are full. The Threshold analyzer reports "in phase"
// when similarity >= threshold. When a phase begins, the anchor is looked
// up in the TW (RN: just after the newest TW element absent from the CW;
// LNN: the oldest TW element present in the CW) and becomes the phase's
// adjusted start, bounded below by the previous adjusted phase's end and
// above by the raw start. When a phase ends, both windows are flushed and
// restart from the group that ended it. The stream's last, possibly
// short, group is processed like any other and an open phase is closed at
// the end of the stream.
func refDetect(elems []trace.Branch, c refConfig) refResult {
	var res refResult
	n := len(elems)
	// Dense symbols keep the from-scratch counting in flat arrays; the
	// numbering does not affect any similarity value.
	syms := map[trace.Branch]int{}
	ids := make([]int, n)
	for i, e := range elems {
		id, ok := syms[e]
		if !ok {
			id = len(syms)
			syms[e] = id
		}
		ids[i] = id
	}
	cwCount := make([]int64, len(syms))
	twCount := make([]int64, len(syms))
	seen := make([]int, len(syms)) // similarity number that last counted the symbol

	since := 0 // stream index the windows restart from
	inPhase := false
	curStart, curAdj := 0, 0
	for g := 0; g < n; g += c.Skip {
		p := g + c.Skip
		if p > n {
			p = n
		}
		if p-since < c.CW+c.TW {
			// Windows not full: no similarity, the state is transition
			// (a phase cannot be open here: windows only flush at a
			// phase end).
			continue
		}
		cw := ids[p-c.CW : p]
		tw := ids[p-c.CW-c.TW : p-c.CW]
		for _, id := range cw {
			cwCount[id]++
		}
		for _, id := range tw {
			twCount[id]++
		}
		res.Sims++
		phase, tie := refDecide(cw, cwCount, twCount, seen, int(res.Sims), c)
		if tie {
			res.Ties++
		}
		switch {
		case phase && !inPhase:
			adj := refAnchor(tw, cwCount, c.LNN) + (p - c.CW - c.TW)
			if k := len(res.Adjusted); k > 0 && int64(adj) < res.Adjusted[k-1].End {
				adj = int(res.Adjusted[k-1].End)
			}
			if adj > g {
				adj = g
			}
			inPhase, curStart, curAdj = true, g, adj
		case !phase && inPhase:
			res.close(curStart, curAdj, g)
			inPhase = false
			since = g
		}
		for _, id := range cw {
			cwCount[id] = 0
		}
		for _, id := range tw {
			twCount[id] = 0
		}
	}
	if inPhase {
		res.close(curStart, curAdj, n)
	}
	return res
}

// close records a phase that ends at end.
func (r *refResult) close(start, adj, end int) {
	if end > start {
		r.Phases = append(r.Phases, interval.Interval{Start: int64(start), End: int64(end)})
	}
	if end > adj {
		r.Adjusted = append(r.Adjusted, interval.Interval{Start: int64(adj), End: int64(end)})
	}
}

// refDecide computes the similarity of the windows whose multiset counts
// are given and applies the threshold. Similarities are compared as exact
// rationals: unweighted |distinct CW ∩ TW| / |distinct CW|, weighted
// Σ_e min(cw_e/CW, tw_e/TW) = Σ_e min(cw_e·TW, tw_e·CW) / (CW·TW).
func refDecide(cw []int, cwCount, twCount []int64, seen []int, stamp int, c refConfig) (phase, tie bool) {
	var num, den int64
	if c.Weighted {
		den = int64(c.CW) * int64(c.TW)
		for _, id := range cw {
			if seen[id] == stamp {
				continue
			}
			seen[id] = stamp
			a, b := cwCount[id]*int64(c.TW), twCount[id]*int64(c.CW)
			if b < a {
				a = b
			}
			num += a
		}
	} else {
		for _, id := range cw {
			if seen[id] == stamp {
				continue
			}
			seen[id] = stamp
			den++
			if twCount[id] > 0 {
				num++
			}
		}
	}
	// The threshold is a decimal with at most three places in every
	// configuration the benchmark draws (0.5 … 0.8), so it is exact as
	// a rational over 1000.
	t := int64(c.Threshold*1000 + 0.5)
	if float64(t)/1000 != c.Threshold {
		panic(fmt.Sprintf("perfbench: reference threshold %g is not a multiple of 0.001", c.Threshold))
	}
	lhs, rhs := num*1000, t*den
	return lhs >= rhs, lhs == rhs
}

// refAnchor returns the anchor's index within the TW.
func refAnchor(tw []int, cwCount []int64, lnn bool) int {
	if lnn {
		for i, id := range tw {
			if cwCount[id] > 0 {
				return i
			}
		}
		return len(tw)
	}
	for i := len(tw) - 1; i >= 0; i-- {
		if cwCount[tw[i]] == 0 {
			return i + 1
		}
	}
	return 0
}
