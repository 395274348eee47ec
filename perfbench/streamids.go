package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"opd/internal/serve"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// pacedChunksPerSlot is stream-ids' open-loop rate per client slot, far
// below a node's capacity (about 400K elements/s with two slots against
// millions closed-loop).
const pacedChunksPerSlot = 400

func runStreamIDs(p params) (*outcome, error) {
	o := newOutcome()
	scale := serveScale
	if p.tiny {
		scale = 1
	}
	var setups []float64
	var srv *serve.Server
	var reg *telemetry.Registry
	var traces map[string][][]trace.Branch
	for i := 0; i < serveSetupReps; i++ {
		runtime.GC() // every repetition starts from a collected heap
		t0 := processCPU()
		tr, err := serveTraces(p.seed, scale, p.tr)
		if err != nil {
			return nil, err
		}
		s, r, err := startNode("")
		if err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - t0).Seconds())
		if srv != nil {
			stopServer(srv)
		}
		srv, reg, traces = s, r, tr
	}
	defer stopServer(srv)
	o.m["setup_s"] = median(setups)
	synthRate(o, p.tr, traces)

	plans, err := makePlans(traces, true)
	if err != nil {
		return nil, err
	}
	refCheckPlans(o, rand.New(rand.NewSource(p.seed+1)), plans, 4)
	if p.tr != nil {
		floors(o, plans)
	}

	l := &ledger{o: o}
	client := httpClient()
	defer client.CloseIdleConnections()
	addr, base := srv.Addr(), "http://"+srv.Addr()
	regs := []*telemetry.Registry{reg}
	slots := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	nextPlan := func() *plan { return plans[int(next.Add(1)-1)%len(plans)] }

	// Paced open loop: each slot sends one chunk per interval, from the
	// chunk's due time to its ack, sessions back to back.
	before := snapAll(regs)
	p.tr.snapshot("paced-start", "node", reg)
	pacedEnd := time.Now().Add(time.Duration(p.seconds * pacedShare * float64(time.Second)))
	rate := pacedChunksPerSlot
	if p.rate > 0 {
		rate = p.rate
	}
	interval := time.Second / time.Duration(rate)
	eachSlot(slots, func(int) {
		pc := newPacer(interval)
		for time.Now().Before(pacedEnd) {
			streamSession(l, nextPlan(), addr, base, client, true, pc, -1, p.tr)
		}
	})
	pacedAfter := snapAll(regs)
	p.tr.snapshot("paced-end", "node", reg)

	// Closed loop: each slot streams sessions back to back as fast as
	// acks allow.
	closedStart := l.ackElems
	m := startMeter()
	closedEnd := time.Now().Add(time.Duration(p.seconds * (1 - pacedShare) * float64(time.Second)))
	eachSlot(slots, func(int) {
		for time.Now().Before(closedEnd) {
			streamSession(l, nextPlan(), addr, base, client, true, nil, -1, p.tr)
		}
	})
	ph := m.stop()
	after := snapAll(regs)
	p.tr.snapshot("closed-end", "node", reg)
	ph.report(o, float64(l.ackElems-closedStart))

	ingested := sumAll(after, telemetry.MetricServeIngestElements) - sumAll(before, telemetry.MetricServeIngestElements)
	if err := checkLedger(l.sentElems, l.ackElems, int64(ingested)); err != nil {
		o.violate("%v", err)
	}
	reportLatencies(o, l)
	if p.tr != nil {
		stageLedger(o, before, pacedAfter, after, mean(l.acks))
		o.m["serve.send_us"] = mean(l.sends)
	}
	fmt.Printf("stream-ids: %d slots, %d sessions, %d paced acks, %.4g elements closed-loop in %.3fs\n",
		slots, next.Load(), len(l.acks), float64(l.ackElems-closedStart), ph.wall.Seconds())
	return o, nil
}

// reportLatencies stores the paced phase's latency metrics.
func reportLatencies(o *outcome, l *ledger) {
	o.m["wall.op_p50_ms"] = quantile(l.acks, 0.50)
	o.m["wall.op_p99_ms"] = quantile(l.acks, 0.99)
	o.m["bench.gen_late_ms"] = quantile(l.late, 0.50)
	o.m["serve.event_p50_ms"] = quantile(l.events, 0.50)
	o.m["serve.open_p50_ms"] = quantile(l.opens, 0.50)
}

// eachSlot runs f on n client slots and waits for all of them.
func eachSlot(n int, f func(slot int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			f(slot)
		}(i)
	}
	wg.Wait()
}

// streamSession runs one session over a framed stream: open, every
// chunk, end. ids selects dense-ID frames over branch frames. With a
// pacer each chunk waits for its ack before the next, and for its due
// time when the pacer has an interval; without one sends pipeline and
// the end waits for every ack.
// With stopAt >= 0 the client detaches after that many acked chunks,
// leaving the session open, and returns it.
func streamSession(l *ledger, pl *plan, addr, base string, client *http.Client, ids bool, pc *pacer, stopAt int, tr *tracer) *openSession {
	o := l.o
	// lockstep: wait for each chunk's ack; paced: also schedule and time
	// each chunk.
	lockstep, paced := pc != nil, pc.timed()
	sp := tr.begin("serve.OpenSession", -1)
	t0 := time.Now()
	opened, err := serve.OpenSession(client, base, pl.req, serve.OpenOptions{RetryPolicy: serve.RetryPolicy{MaxRetries: 1}})
	openMS := ms(time.Since(t0))
	pc.responded()
	tr.end(sp)
	l.add(func(l *ledger) {
		o.attempted++
		if paced {
			l.opens = append(l.opens, openMS)
		}
	})
	if err != nil {
		l.add(func(*ledger) { o.fail("open %s: %v", pl.cfg.ID(), err) })
		return nil
	}
	evs := &eventLog{}
	sc, err := serve.DialStream(addr, opened.ID, serve.StreamOptions{IDs: ids, OnEvent: evs.record})
	if err != nil {
		l.add(func(*ledger) { o.fail("dial %s: %v", opened.ID, err) })
		return nil
	}
	defer sc.Close()
	var starts []time.Time
	var sent int64
	var sends []float64
	for i, c := range pl.chunks {
		if i == stopAt {
			return detach(l, pl, sc, opened.ID, i, sent)
		}
		var start time.Time
		if paced {
			var late time.Duration
			start, late = pc.wait()
			starts = append(starts, start)
			l.add(func(l *ledger) { l.late = append(l.late, ms(late)) })
		}
		sp := tr.begin("serve.StreamClient.Send", -1)
		ts := time.Now()
		err := sc.Send(c)
		if tr != nil {
			sends = append(sends, float64(time.Since(ts).Nanoseconds())/1e3)
		}
		tr.end(sp)
		if err == nil && lockstep {
			if err = sc.Flush(); err == nil {
				err = sc.Drain()
			}
		}
		if err != nil {
			l.add(func(*ledger) { o.attempted++; o.fail("chunk of %s: %v", opened.ID, err) })
			return nil
		}
		sent += int64(len(c))
		if paced {
			pc.responded()
			lat := ms(time.Since(start))
			l.add(func(l *ledger) { l.acks = append(l.acks, lat) })
		}
	}
	sum, err := sc.End(true)
	pc.responded()
	l.add(func(l *ledger) {
		o.attempted += int64(len(pl.chunks)) + 1
		l.sentElems += sent
		l.sends = append(l.sends, sends...)
		if err != nil {
			o.fail("end %s: %v", opened.ID, err)
		}
	})
	if err != nil {
		return nil
	}
	finishSession(l, pl, sum, evs, starts, true)
	return nil
}

// An openSession is one a client left open mid-trace.
type openSession struct {
	id     string
	pl     *plan
	chunks int // chunks acked before the client left
}

// detach waits for every sent chunk's ack and leaves the session open.
func detach(l *ledger, pl *plan, sc *serve.StreamClient, id string, chunks int, sent int64) *openSession {
	err := sc.Drain()
	if err == nil {
		_, err = sc.End(false)
	}
	l.add(func(l *ledger) {
		l.o.attempted += int64(chunks) + 1
		if err != nil {
			l.o.fail("detach %s: %v", id, err)
			return
		}
		l.sentElems += sent
		l.ackElems += sent
	})
	if err != nil {
		return nil
	}
	return &openSession{id: id, pl: pl, chunks: chunks}
}
