package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"opd/internal/baseline"
	"opd/internal/core"
	"opd/internal/sweep"
	"opd/internal/synth"
	"opd/internal/trace"
)

// Inputs of paper-sweep at full size: all eight synth benchmarks at
// scale 8 (about 2.3M elements), the paper's CW ladder ends 500 and
// 50000, and the MPL ladder 1K/10K/100K.
const (
	paperScale   = 8
	paperCWLow   = 500
	paperCWHigh  = 50000
	setupRepeats = 5
	// refBudget bounds the reference detector's work per run, in element
	// visits (from-scratch recomputation costs CW+TW visits per group).
	refBudget = 4e8
	refSample = 6
)

var paperMPLs = []int64{1000, 10000, 100000}

// paperBench is one synthesized, interned benchmark.
type paperBench struct {
	name   string
	tr     trace.Trace
	events trace.Events
	in     *trace.Interned
}

// paperSlice returns the configuration slice paper-sweep runs: at both
// ends of the CW ladder, every window family (Constant, the four
// Adaptive anchor/resize variants, Fixed Interval) under both models and
// both analyzer kinds, with the analyzer parameters rotating through the
// paper's settings.
func paperSlice(cws []int) []core.Config {
	params := map[core.AnalyzerKind][]float64{}
	for _, a := range sweep.PaperAnalyzers() {
		params[a.Kind] = append(params[a.Kind], a.Param)
	}
	k := 0
	pick := func(kind core.AnalyzerKind) float64 {
		k++
		return params[kind][k%len(params[kind])]
	}
	var out []core.Config
	for _, cw := range cws {
		for _, model := range []core.ModelKind{core.UnweightedModel, core.WeightedModel} {
			for _, kind := range []core.AnalyzerKind{core.ThresholdAnalyzer, core.AverageAnalyzer} {
				out = append(out,
					core.Config{CWSize: cw, TWSize: cw, SkipFactor: 1, TW: core.ConstantTW, Model: model, Analyzer: kind, Param: pick(kind)},
					core.FixedInterval(cw, model, kind, pick(kind)))
				for _, ar := range sweep.AllAnchorResize() {
					out = append(out, core.Config{CWSize: cw, TWSize: cw, SkipFactor: 1, TW: core.AdaptiveTW,
						Anchor: ar.Anchor, Resize: ar.Resize, Model: model, Analyzer: kind, Param: pick(kind)})
				}
			}
		}
	}
	return out
}

// paperSetup synthesizes and interns every benchmark.
func paperSetup(seed int64, scale int, tr *tracer) ([]paperBench, error) {
	var out []paperBench
	for _, name := range synth.Names() {
		sp := tr.begin("synth.Run", -1)
		t, ev, err := synth.RunSeeded(name, scale, int32(seed))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", name, err)
		}
		sp = tr.begin("trace.Intern", -1)
		in := trace.Intern(t)
		tr.end(sp)
		out = append(out, paperBench{name: name, tr: t, events: ev, in: in})
	}
	return out, nil
}

func runPaperSweep(p params) (*outcome, error) {
	o := newOutcome()
	scale, cws, mpls := paperScale, []int{paperCWLow, paperCWHigh}, paperMPLs
	if p.tiny {
		scale, cws, mpls = 1, []int{100, 2000}, []int64{200, 1000}
	}
	configs := paperSlice(cws)
	workers := runtime.GOMAXPROCS(0)

	// Set-up is repeated and its median reported: a single synthesis
	// pass is short enough for scheduler noise to show.
	var setups []float64
	var benches []paperBench
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every repetition starts from a collected heap
		t0 := processCPU()
		b, err := paperSetup(p.seed, scale, p.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - t0).Seconds())
		benches = b
	}
	o.m["setup_s"] = median(setups)
	var synthElems float64
	for _, b := range benches {
		synthElems += float64(len(b.tr))
	}
	if d := p.tr.total("synth.Run"); d > 0 {
		o.m["synth.elems_per_s"] = synthElems * setupRepeats / d.Seconds()
	}
	if d := p.tr.total("trace.Intern"); d > 0 {
		o.m["trace.intern_elems_per_s"] = synthElems * setupRepeats / d.Seconds()
	}

	// Measured phase: whole rounds of oracle, sweep and scoring over
	// every benchmark until the run length is reached.
	var runs []sweep.Run
	var elems float64
	var sweepWall time.Duration
	first := true
	m := startMeter()
	for first || time.Since(m.wall).Seconds() < p.seconds {
		round := p.tr.begin("round", -1)
		for _, b := range benches {
			sols := make([]*baseline.Solution, 0, len(mpls))
			for _, mpl := range mpls {
				sp := p.tr.begin("baseline.Compute", round)
				sol, err := baseline.Compute(b.events, int64(len(b.tr)), mpl)
				p.tr.end(sp)
				o.attempted++
				if err != nil {
					o.fail("oracle %s MPL %d: %v", b.name, mpl, err)
					continue
				}
				if first {
					if err := checkOracle(sol); err != nil {
						o.violate("%s MPL %d: %v", b.name, mpl, err)
					}
				}
				sols = append(sols, sol)
			}
			sp := p.tr.begin("sweep.Run", round)
			t0 := time.Now()
			rs, err := sweep.RunInternedContext(context.Background(), b.in, configs, sweep.Options{Workers: workers})
			sweepWall += time.Since(t0)
			p.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("sweeping %s: %w", b.name, err)
			}
			o.attempted += int64(len(rs))
			for _, r := range rs {
				if !r.OK() {
					o.fail("sweep run %s on %s: %v", r.Config.ID(), b.name, r.Err)
					continue
				}
				elems += float64(r.Elements)
				for _, sol := range sols {
					sp := p.tr.begin("score.Evaluate", round)
					res := r.Score(sol, true)
					p.tr.end(sp)
					o.attempted++
					if res.Score < 0 || res.Score > 1 {
						o.violate("%s on %s scored %v", r.Config.ID(), b.name, res)
					}
				}
			}
			if first {
				checkSweep(o, b, rs)
			}
			runs = append(runs, rs...)
		}
		p.tr.end(round)
		first = false
	}
	ph := m.stop()
	ph.report(o, elems)

	var elapsed []float64
	var detect time.Duration
	type rate struct{ elems, secs float64 }
	byKey := map[string]*rate{}
	add := func(key string, r sweep.Run) {
		if byKey[key] == nil {
			byKey[key] = &rate{}
		}
		byKey[key].elems += float64(r.Elements)
		byKey[key].secs += r.Elapsed.Seconds()
	}
	var sims, simElems float64
	for _, r := range runs {
		if !r.OK() {
			continue
		}
		elapsed = append(elapsed, float64(r.Elapsed.Nanoseconds())/1e6)
		detect += r.Elapsed
		add(map[sweep.WindowFamily]string{sweep.FamilyConstant: "constant", sweep.FamilyAdaptive: "adaptive",
			sweep.FamilyFixedInterval: "fixed"}[sweep.Family(r.Config)], r)
		add(r.Config.Model.String(), r)
		sims += float64(r.SimComputations)
		simElems += float64(r.Elements)
	}
	o.m["wall.op_p50_ms"] = quantile(elapsed, 0.50)
	o.m["wall.op_p99_ms"] = quantile(elapsed, 0.99)
	if p.tr != nil {
		o.m["baseline.compute_s"] = p.tr.total("baseline.Compute").Seconds()
		o.m["score.evaluate_s"] = p.tr.total("score.Evaluate").Seconds()
		o.m["core.detect_s"] = detect.Seconds()
		for key, r := range byKey {
			if r.secs > 0 {
				o.m["core."+key+"_elems_per_s"] = r.elems / r.secs
			}
		}
		o.m["core.sims_per_kelem"] = 1000 * sims / simElems
		o.m["sweep.worker_util"] = detect.Seconds() / (sweepWall.Seconds() * float64(workers))
	}
	fmt.Printf("paper-sweep: %d benchmarks, %d configs, %d runs, %.4g elements in %.3fs\n",
		len(benches), len(configs), len(runs), elems, ph.wall.Seconds())

	refCheck(o, rand.New(rand.NewSource(p.seed+1)), benches, configs, runs)
	return o, nil
}

// checkSweep checks one benchmark's sweep output: every run's phases,
// and Fixed Interval computing fewer similarities than the skip-1
// Constant TW run with the same CW, model and analyzer kind.
func checkSweep(o *outcome, b paperBench, rs []sweep.Run) {
	type key struct {
		cw       int
		model    core.ModelKind
		analyzer core.AnalyzerKind
	}
	constant := map[key]int64{}
	for _, r := range rs {
		if r.OK() && sweep.Family(r.Config) == sweep.FamilyConstant {
			constant[key{r.Config.CWSize, r.Config.Model, r.Config.Analyzer}] = r.SimComputations
		}
	}
	for _, r := range rs {
		if !r.OK() {
			continue
		}
		if err := checkPhases(r.Phases, r.AdjustedPhases, int64(len(b.tr))); err != nil {
			o.violate("%s on %s: %v", r.Config.ID(), b.name, err)
		}
		if sweep.Family(r.Config) != sweep.FamilyFixedInterval {
			continue
		}
		c, ok := constant[key{r.Config.CWSize, r.Config.Model, r.Config.Analyzer}]
		// Both count zero when the trace is too short to fill CW+TW.
		if ok && (r.SimComputations > c || (c > 0 && r.SimComputations == c)) {
			o.violate("%s on %s: %d similarities, not fewer than Constant TW's %d", r.Config.ID(), b.name, r.SimComputations, c)
		}
	}
}

// refCheck compares a seeded sample of the reference-eligible runs with
// the reference detector, within refBudget element visits. A weighted
// run whose similarity met its threshold exactly is not compared: there
// the program's decision depends on how it rounds a float sum.
func refCheck(o *outcome, rng *rand.Rand, benches []paperBench, configs []core.Config, runs []sweep.Run) {
	type pair struct{ b, c int }
	var eligible []pair
	for bi := range benches {
		for ci, c := range configs {
			if _, ok := refConfigOf(c); ok {
				eligible = append(eligible, pair{bi, ci})
			}
		}
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	budget, compared, ties := float64(refBudget), 0, 0
	for _, pr := range eligible {
		if compared == refSample {
			break
		}
		b, c := benches[pr.b], configs[pr.c]
		rc, _ := refConfigOf(c)
		cost := float64(len(b.tr)) * float64(rc.CW+rc.TW) / float64(rc.Skip)
		if cost > budget {
			continue
		}
		budget -= cost
		// The first round's runs are in benchmark-major, config order.
		r := runs[pr.b*len(configs)+pr.c]
		ref := refDetect(b.tr, rc)
		if rc.Weighted && ref.Ties > 0 {
			ties++
			continue
		}
		compared++
		if err := checkAgainstRef(r.Phases, r.AdjustedPhases, r.SimComputations, ref); err != nil {
			o.violate("reference check %s on %s: %v", c.ID(), b.name, err)
		}
	}
	fmt.Printf("reference: %d runs compared, %d weighted runs with exact threshold ties skipped\n", compared, ties)
}

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
