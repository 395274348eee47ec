package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"opd/internal/core"
	"opd/internal/durable"
	"opd/internal/serve"
	"opd/internal/sweep"
	"opd/internal/synth"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// Serving inputs: every synth benchmark at scale 2 (15K to 132K
// elements), cut into 1024-element chunks, each under six
// configurations from the paper's space at CW 500, 1000 and 2500: 48
// distinct sessions, run over and over.
const (
	serveScale      = 2
	serveChunk      = 1024
	pacedShare      = 0.4 // of the measured time; the rest is closed-loop
	serveSetupReps  = 9
	directOpenPairs = 16
)

var serveCWs = []int{500, 1000, 2500}

// A plan is one session's input: a trace in chunks under a config,
// with the offline core run it must reproduce.
type plan struct {
	bench  string
	cfg    core.Config
	req    serve.ConfigRequest
	chunks [][]trace.Branch
	elems  int64
	want   *expected
}

// requestOf spells a core configuration as a session-open request.
func requestOf(c core.Config) serve.ConfigRequest {
	r := serve.ConfigRequest{CW: c.CWSize, TW: c.TWSize, Skip: c.SkipFactor, Model: c.Model.String(),
		Analyzer: "threshold", Param: c.Param, Anchor: c.Anchor.String(), Resize: c.Resize.String()}
	if c.Analyzer == core.AverageAnalyzer {
		r.Analyzer = "average"
	}
	switch {
	case c.IsFixedInterval():
		r.Policy = "fixedinterval"
	case c.TW == core.AdaptiveTW:
		r.Policy = "adaptive"
	default:
		r.Policy = "constant"
	}
	return r
}

// serveTraces synthesizes the session traces, split into chunks.
func serveTraces(seed int64, scale int, tr *tracer) (map[string][][]trace.Branch, error) {
	out := map[string][][]trace.Branch{}
	for _, name := range synth.Names() {
		sp := tr.begin("synth.Run", -1)
		t, _, err := synth.RunSeeded(name, scale, int32(seed))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", name, err)
		}
		var chunks [][]trace.Branch
		for i := 0; i < len(t); i += serveChunk {
			chunks = append(chunks, t[i:min(i+serveChunk, len(t))])
		}
		out[name] = chunks
	}
	return out, nil
}

// synthRate reports the synthesis rate of the traced set-ups.
func synthRate(o *outcome, tr *tracer, traces map[string][][]trace.Branch) {
	d := tr.total("synth.Run")
	if d <= 0 {
		return
	}
	var n float64
	for _, chunks := range traces {
		for _, c := range chunks {
			n += float64(len(c))
		}
	}
	o.m["synth.elems_per_s"] = n * serveSetupReps / d.Seconds()
}

// makePlans builds the session plans: each benchmark under each window
// family and model, with the CW, analyzer setting and anchor/resize
// variant rotating over the plans, so every run has the same make-up and
// the seed changes only the traces. Plans alternate between benchmarks.
// Each plan's offline run is precomputed (ProcessBatchIDs when ids is
// set, ProcessBatch otherwise).
func makePlans(traces map[string][][]trace.Branch, ids bool) ([]*plan, error) {
	analyzers := sweep.PaperAnalyzers()
	variants := sweep.AllAnchorResize()
	var plans []*plan
	for combo := 0; combo < 6; combo++ {
		for bi, name := range synth.Names() {
			k := combo*len(synth.Names()) + bi
			cw := serveCWs[k%len(serveCWs)]
			model := core.ModelKind(combo % 2)
			an := analyzers[k%len(analyzers)]
			var cfg core.Config
			switch combo / 2 {
			case 0:
				cfg = core.Config{CWSize: cw, TWSize: cw, SkipFactor: 1, TW: core.ConstantTW, Model: model, Analyzer: an.Kind, Param: an.Param}
			case 1:
				v := variants[k%len(variants)]
				cfg = core.Config{CWSize: cw, TWSize: cw, SkipFactor: 1, TW: core.AdaptiveTW, Anchor: v.Anchor,
					Resize: v.Resize, Model: model, Analyzer: an.Kind, Param: an.Param}
			default:
				cfg = core.FixedInterval(cw, model, an.Kind, an.Param)
			}
			p := &plan{bench: name, cfg: cfg, req: requestOf(cfg), chunks: traces[name]}
			for _, c := range p.chunks {
				p.elems += int64(len(c))
			}
			want, err := offline(cfg, p.chunks, ids)
			if err != nil {
				return nil, fmt.Errorf("offline run of %s: %w", cfg.ID(), err)
			}
			p.want = want
			plans = append(plans, p)
		}
	}
	return plans, nil
}

// phasedOptions configures a node as cmd/phased does with its flag
// defaults: telemetry registry on, fsync "always" when store is set.
func phasedOptions(reg *telemetry.Registry, store *durable.Store) serve.Options {
	return serve.Options{
		MaxSessions:        1024,
		MaxWindowElems:     1 << 20,
		MaxChunkBytes:      8 << 20,
		IdleTimeout:        5 * time.Minute,
		SweepInterval:      15 * time.Second,
		MaxEventsRetained:  65536,
		Registry:           reg,
		SnapshotEvery:      64,
		FlightChunks:       64,
		Logger:             quietLogger(),
		MemBudgetBytes:     512 << 20,
		Durability:         serve.DurabilityStrict,
		WALFailureLimit:    3,
		MinDiskFreeBytes:   128 << 20,
		HeartbeatInterval:  30 * time.Second,
		StreamWriteTimeout: 15 * time.Second,
		SSEWriteTimeout:    15 * time.Second,
		WatchdogDeadline:   time.Minute,
		Store:              store,
	}
}

// quietLogger formats at phased's default level, info, and discards:
// the program pays its logging cost without filling the benchmark's
// output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// startNode starts a phased node on a loopback port; with dir set it is
// durable over that data directory and has replayed it.
func startNode(dir string) (*serve.Server, *telemetry.Registry, error) {
	reg := telemetry.NewRegistry()
	var store *durable.Store
	if dir != "" {
		var err error
		store, err = durable.Open(durable.Options{Dir: dir, Policy: durable.SyncAlways, Registry: reg})
		if err != nil {
			return nil, nil, err
		}
	}
	srv := serve.NewServer(phasedOptions(reg, store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	if _, _, err := srv.Recover(); err != nil {
		stopServer(srv)
		return nil, nil, err
	}
	return srv, reg, nil
}

func stopServer(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// httpClient is the load generator's HTTP client: at most nproc
// connections per host, the same bound as its client slots.
func httpClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     runtime.GOMAXPROCS(0),
		MaxIdleConnsPerHost: runtime.GOMAXPROCS(0),
	}}
}

// sumCounter sums a counter family over its label sets.
func sumCounter(s telemetry.Snapshot, name string) float64 {
	var v float64
	for _, p := range s.Counters {
		if p.Name == name {
			v += p.Value
		}
	}
	return v
}

// gauge reads an unlabelled gauge.
func gauge(s telemetry.Snapshot, name string) float64 {
	for _, p := range s.Gauges {
		if p.Name == name {
			return p.Value
		}
	}
	return 0
}

// stageLatency reads opd_serve_stage_latency_ns by stage.
func stageLatency(s telemetry.Snapshot) map[string]telemetry.LatencySummary {
	out := map[string]telemetry.LatencySummary{}
	for _, l := range s.Latencies {
		if l.Name == telemetry.MetricServeStageLatency {
			out[l.Labels["stage"]] = l.LatencySummary
		}
	}
	return out
}

// ledger is what the load generator saw, shared by its client slots.
type ledger struct {
	mu        sync.Mutex
	o         *outcome
	sentElems int64
	ackElems  int64
	acks      []float64 // paced chunk latency start → ack, ms
	events    []float64 // paced emitting chunk's latency start → event received, ms
	opens     []float64 // paced session opens, ms
	sends     []float64 // time in StreamClient.Send, µs (traced pass)
	late      []float64 // paced chunks: actual send time after due time, ms
}

func (l *ledger) add(f func(l *ledger)) {
	l.mu.Lock()
	f(l)
	l.mu.Unlock()
}

// eventLog collects a session's events from the client's reader
// goroutine with their arrival times.
type eventLog struct {
	mu     sync.Mutex
	events []serve.Event
	at     []time.Time
}

func (e *eventLog) record(ev serve.Event) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.at = append(e.at, time.Now())
	e.mu.Unlock()
}

// finishSession checks a closed session against its plan and, for a
// paced session, turns event arrivals into latencies from the latency
// start (see pacer) of the chunk that emitted each. A one-shot client cannot poll a closed
// session, so without closeEvents the events its close emitted are
// checked through the summary alone.
func finishSession(l *ledger, p *plan, sum *serve.Summary, ev *eventLog, starts []time.Time, closeEvents bool) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	want := p.want.events
	if !closeEvents {
		n := 0
		for n < len(want) && p.want.emitChunk[n] < len(p.chunks) {
			n++
		}
		want = want[:n]
	}
	l.add(func(l *ledger) {
		if err := checkSummary(sum, p.want); err != nil {
			l.o.violate("%s on %s: %v", p.cfg.ID(), p.bench, err)
		}
		if err := checkEvents(ev.events, want); err != nil {
			l.o.violate("%s on %s events: %v", p.cfg.ID(), p.bench, err)
		}
		if sum != nil {
			l.ackElems += sum.Consumed
		}
		for i := range ev.events {
			if i < len(p.want.emitChunk) && p.want.emitChunk[i] < len(starts) {
				l.events = append(l.events, ms(ev.at[i].Sub(starts[p.want.emitChunk[i]])))
			}
		}
	})
}

// refCheckPlans compares a seeded sample of the reference-eligible plans
// with the reference detector.
func refCheckPlans(o *outcome, rng *rand.Rand, plans []*plan, sample int) {
	compared, ties := 0, 0
	for _, i := range rng.Perm(len(plans)) {
		if compared == sample {
			break
		}
		p := plans[i]
		rc, ok := refConfigOf(p.cfg)
		if !ok {
			continue
		}
		var full []trace.Branch
		for _, c := range p.chunks {
			full = append(full, c...)
		}
		ref := refDetect(full, rc)
		if rc.Weighted && ref.Ties > 0 {
			ties++
			continue
		}
		compared++
		if err := checkAgainstRef(p.want.raw, p.want.adj, p.want.sims, ref); err != nil {
			o.violate("reference check %s on %s: %v", p.cfg.ID(), p.bench, err)
		}
	}
	fmt.Printf("reference: %d sessions compared, %d weighted sessions with exact threshold ties skipped\n", compared, ties)
}

// floors times the offline detector alone over the plans' chunks:
// ProcessBatchIDs over pre-interned IDs and ProcessBatch over branches.
func floors(o *outcome, plans []*plan) {
	var elems float64
	var idsTime, branchTime time.Duration
	for _, p := range plans {
		b := trace.NewInternedBuilder(0)
		ids := make([][]int32, len(p.chunks))
		for i, c := range p.chunks {
			for _, e := range c {
				ids[i] = append(ids[i], b.Intern(e))
			}
		}
		d := p.cfg.MustNew()
		d.Bind(trace.NewInternedTable(b.Symbols()))
		t0 := time.Now()
		for _, c := range ids {
			d.ProcessBatchIDs(c)
		}
		d.Finish()
		idsTime += time.Since(t0)
		d = p.cfg.MustNew()
		t0 = time.Now()
		for _, c := range p.chunks {
			d.ProcessBatch(c)
		}
		d.Finish()
		branchTime += time.Since(t0)
		elems += float64(p.elems)
	}
	o.m["core.ids_floor_elems_per_s"] = elems / idsTime.Seconds()
	o.m["core.branch_floor_elems_per_s"] = elems / branchTime.Seconds()
}

// stageLedger reports each stage's busy time over the measured phases
// (snapshots before, at the end of the paced phase, and after) and its
// median, and the paced phase's ack residual: mean client ack latency
// minus the stage time the servers spent per chunk.
func stageLedger(o *outcome, before, pacedAfter, after []telemetry.Snapshot, meanAckMS float64) {
	var pacedStageNS float64
	for _, st := range stages {
		var busy float64
		var p50 int64
		for i := range before {
			b, a := stageLatency(before[i])[st], stageLatency(after[i])[st]
			busy += float64(a.SumNS - b.SumNS)
			pacedStageNS += float64(stageLatency(pacedAfter[i])[st].SumNS - b.SumNS)
			p50 = max(p50, a.P50)
		}
		o.m["serve.stage."+st+"_busy_s"] = busy / 1e9
		o.m["serve.stage."+st+"_p50_us"] = float64(p50) / 1e3
	}
	if chunks := sumAll(pacedAfter, telemetry.MetricServeChunks) - sumAll(before, telemetry.MetricServeChunks); chunks > 0 {
		o.m["serve.ack_residual_us"] = meanAckMS*1e3 - pacedStageNS/chunks/1e3
	}
}

func snapAll(regs []*telemetry.Registry) []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}

func sumAll(snaps []telemetry.Snapshot, name string) float64 {
	var v float64
	for _, s := range snaps {
		v += sumCounter(s, name)
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// A pacer makes a client slot wait for each chunk's ack before sending
// the next. With an interval it also schedules the chunks at that
// interval and decides where each chunk's latency starts. A chunk whose due time
// passed while the slot still waited for the servers (a stall, which
// delays every later chunk) is timed from its due time. A chunk due
// while the slot was idle is timed from when it was actually sent: the
// gap is the load generator's own timer slack, reported apart as
// generator lateness.
type pacer struct {
	interval time.Duration
	due      time.Time
	lastResp time.Time // the slot's last response from the servers
}

func newPacer(interval time.Duration) *pacer {
	now := time.Now()
	return &pacer{interval: interval, due: now, lastResp: now}
}

// wait sleeps until the next chunk is due and returns the time its
// latency starts from and how late the generator sent it.
func (p *pacer) wait() (start time.Time, late time.Duration) {
	p.due = p.due.Add(p.interval)
	if d := time.Until(p.due); d > 0 {
		time.Sleep(d)
	}
	now := time.Now()
	if p.lastResp.After(p.due) {
		return p.due, now.Sub(p.due)
	}
	return now, now.Sub(p.due)
}

// timed reports whether the pacer schedules and times chunks.
func (p *pacer) timed() bool { return p != nil && p.interval > 0 }

// responded notes a response from the servers.
func (p *pacer) responded() {
	if p != nil {
		p.lastResp = time.Now()
	}
}
