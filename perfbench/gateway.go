package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"opd/internal/cluster"
	"opd/internal/durable"
	"opd/internal/serve"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// pacedGatewayPerSlot is gateway-durable-branch's open-loop rate per
// client slot: every chunk pays a WAL fsync, so it is lower than
// stream-ids' rate.
const pacedGatewayPerSlot = 120

// abandonOneIn is how often a session is left open mid-trace, for the
// crash and recovery at the end of the run.
const abandonOneIn = 6

// cluster2 is the gateway over its two durable nodes.
type cluster2 struct {
	dir   string
	nodes [2]*serve.Server
	regs  [2]*telemetry.Registry
	gw    *cluster.Gateway
	gwReg *telemetry.Registry
}

// startCluster starts two durable nodes over fresh data directories
// under dir and a gateway over them, configured as cmd/phasedgw does
// with its flag defaults.
func startCluster(dir string) (*cluster2, error) {
	c := &cluster2{dir: dir}
	for i := range c.nodes {
		s, r, err := startNode(filepath.Join(dir, fmt.Sprintf("node%d", i)))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes[i], c.regs[i] = s, r
	}
	c.gwReg = telemetry.NewRegistry()
	gw, err := cluster.New(cluster.Options{
		Nodes:         []string{c.nodes[0].Addr(), c.nodes[1].Addr()},
		MaxSessions:   4096,
		ProbeInterval: 500 * time.Millisecond,
		FailThreshold: 3,
		IdleTimeout:   10 * time.Minute,
		Registry:      c.gwReg,
		Logger:        quietLogger(),
	})
	if err == nil {
		err = gw.Start("127.0.0.1:0")
	}
	if err != nil {
		c.stop()
		return nil, err
	}
	c.gw = gw
	return c, nil
}

func (c *cluster2) stopGateway() {
	if c.gw != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.gw.Shutdown(ctx)
		c.gw = nil
	}
}

func (c *cluster2) stop() {
	c.stopGateway()
	for i, n := range c.nodes {
		if n != nil {
			stopServer(n)
			c.nodes[i] = nil
		}
	}
	_ = os.RemoveAll(c.dir)
}

func runGatewayDurable(p params) (*outcome, error) {
	o := newOutcome()
	scale := serveScale
	if p.tiny {
		scale = 1
	}
	var setups []float64
	var c *cluster2
	var traces map[string][][]trace.Branch
	for i := 0; i < serveSetupReps; i++ {
		runtime.GC() // every repetition starts from a collected heap
		t0 := processCPU()
		tr, err := serveTraces(p.seed, scale, p.tr)
		if err != nil {
			return nil, err
		}
		nc, err := startCluster(filepath.Join(p.dataDir, fmt.Sprintf("cluster%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - t0).Seconds())
		if c != nil {
			c.stop()
		}
		c, traces = nc, tr
	}
	defer c.stop()
	o.m["setup_s"] = median(setups)
	synthRate(o, p.tr, traces)

	plans, err := makePlans(traces, false)
	if err != nil {
		return nil, err
	}
	if p.tr != nil {
		floors(o, plans)
	}

	l := &ledger{o: o}
	client := httpClient()
	defer client.CloseIdleConnections()
	gwAddr := c.gw.Addr()
	gwBase := "http://" + gwAddr
	regs := []*telemetry.Registry{c.regs[0], c.regs[1]}
	slots := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	nextPlan := func() *plan { return plans[int(next.Add(1)-1)%len(plans)] }
	var left []*openSession
	var leftMu sync.Mutex
	keep := func(s *openSession) {
		if s != nil {
			leftMu.Lock()
			left = append(left, s)
			leftMu.Unlock()
		}
	}
	// Even slots stream branch frames through the gateway splice, odd
	// slots post one-shot chunks and poll events. One session in
	// abandonOneIn is left open at a seeded chunk.
	session := func(rng *rand.Rand, slot int, pc *pacer) {
		pl := nextPlan()
		stopAt := -1
		if rng.Intn(abandonOneIn) == 0 {
			stopAt = 1 + rng.Intn(len(pl.chunks))
		}
		if slot%2 == 0 {
			keep(streamSession(l, pl, gwAddr, gwBase, client, false, pc, stopAt, p.tr))
		} else {
			keep(postSession(l, pl, client, gwBase, pc, stopAt, p.tr))
		}
	}

	hopOpens(o, client, gwBase, "http://"+c.nodes[0].Addr(), plans[0].req)

	before := snapAll(regs)
	gwBefore := c.gwReg.Snapshot()
	for i, r := range regs {
		p.tr.snapshot("paced-start", fmt.Sprintf("node%d", i), r)
	}
	pacedEnd := time.Now().Add(time.Duration(p.seconds * pacedShare * float64(time.Second)))
	interval := time.Second / pacedGatewayPerSlot
	eachSlot(slots, func(slot int) {
		rng := rand.New(rand.NewSource(p.seed*31 + int64(slot)))
		pc := newPacer(interval)
		for time.Now().Before(pacedEnd) {
			session(rng, slot, pc)
		}
	})
	pacedAfter := snapAll(regs)

	// Closed loop: each slot sends a chunk as soon as the previous one
	// is acked. Streams are not pipelined here as in stream-ids: with an
	// fsync per chunk, how many frames a pipelined stream batches per
	// read follows the disk's latency, and CPU per element with it.
	closedStart := l.ackElems
	m := startMeter()
	closedEnd := time.Now().Add(time.Duration(p.seconds * (1 - pacedShare) * float64(time.Second)))
	eachSlot(slots, func(slot int) {
		rng := rand.New(rand.NewSource(p.seed*37 + int64(slot)))
		lockstep := newPacer(0)
		for time.Now().Before(closedEnd) {
			session(rng, slot, lockstep)
		}
	})
	ph := m.stop()
	after := snapAll(regs)
	for i, r := range regs {
		p.tr.snapshot("closed-end", fmt.Sprintf("node%d", i), r)
	}
	p.tr.snapshot("closed-end", "gateway", c.gwReg)
	ph.report(o, float64(l.ackElems-closedStart))
	o.m["cluster.requests"] = sumCounter(c.gwReg.Snapshot(), telemetry.MetricGatewayRequests) - sumCounter(gwBefore, telemetry.MetricGatewayRequests)

	ingested := sumAll(after, telemetry.MetricServeIngestElements) - sumAll(before, telemetry.MetricServeIngestElements)
	if err := checkLedger(l.sentElems, l.ackElems, int64(ingested)); err != nil {
		o.violate("%v", err)
	}
	o.m["durable.wal_bytes_per_elem"] = (sumAll(after, telemetry.MetricDurableWALBytes) - sumAll(before, telemetry.MetricDurableWALBytes)) / float64(l.ackElems)
	reportLatencies(o, l)
	if p.tr != nil {
		stageLedger(o, before, pacedAfter, after, mean(l.acks))
		o.m["serve.send_us"] = mean(l.sends)
	}
	fmt.Printf("gateway-durable-branch: %d slots, %d sessions (%d left open), %d paced acks, %.4g elements closed-loop in %.3fs\n",
		slots, next.Load(), len(left), len(l.acks), float64(l.ackElems-closedStart), ph.wall.Seconds())

	if err := crashAndRecover(o, c, left, client, p.tr); err != nil {
		return nil, err
	}
	return o, nil
}

// hopOpens times session opens through the gateway and directly on a
// node, alternating, and reports the gateway hop as the difference of
// their medians.
func hopOpens(o *outcome, client *http.Client, gwBase, nodeBase string, req serve.ConfigRequest) {
	var viaGW, direct []float64
	for i := 0; i < directOpenPairs; i++ {
		for _, base := range []string{gwBase, nodeBase} {
			t0 := time.Now()
			opened, err := serve.OpenSession(client, base, req, serve.OpenOptions{RetryPolicy: serve.RetryPolicy{MaxRetries: 1}})
			d := ms(time.Since(t0))
			o.attempted += 2
			if err == nil {
				_, err = closeSession(client, base, opened.ID)
			}
			if err != nil {
				o.fail("open/close on %s: %v", base, err)
				continue
			}
			if base == gwBase {
				viaGW = append(viaGW, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	o.m["cluster.hop_open_ms"] = median(viaGW) - median(direct)
}

// postSession runs one session over one-shot HTTP: open, a POST per
// chunk with events polled whenever the response reports new ones,
// close. Paced as streamSession; with stopAt >= 0 the session is left
// open after that many chunks.
func postSession(l *ledger, pl *plan, client *http.Client, base string, pc *pacer, stopAt int, tr *tracer) *openSession {
	o := l.o
	paced := pc.timed()
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
	var starts []time.Time
	var sent int64
	var buf []byte
	for i, c := range pl.chunks {
		if i == stopAt {
			l.add(func(l *ledger) {
				o.attempted += int64(i)
				l.sentElems += sent
				l.ackElems += sent
			})
			return &openSession{id: opened.ID, pl: pl, chunks: i}
		}
		var start time.Time
		if paced {
			var late time.Duration
			start, late = pc.wait()
			starts = append(starts, start)
			l.add(func(l *ledger) { l.late = append(l.late, ms(late)) })
		}
		buf = trace.AppendBranches(buf[:0], c)
		sp := tr.begin("http.PostElements", -1)
		total, err := postChunk(client, base, opened.ID, buf)
		tr.end(sp)
		if err == nil && total > uint64(len(evs.events)) {
			err = pollEvents(client, base, opened.ID, evs)
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
	sum, err := closeSession(client, base, opened.ID)
	pc.responded()
	l.add(func(l *ledger) {
		o.attempted += int64(len(pl.chunks)) + 1
		l.sentElems += sent
		if err != nil {
			o.fail("close %s: %v", opened.ID, err)
		}
	})
	if err != nil {
		return nil
	}
	finishSession(l, pl, sum, evs, starts, false)
	return nil
}

// postChunk sends one one-shot chunk and returns the session's event
// total from the response.
func postChunk(client *http.Client, base, id string, payload []byte) (uint64, error) {
	resp, err := client.Post(base+"/v1/sessions/"+id+"/elements", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		EventsTotal uint64 `json:"events_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("decoding ingest response (status %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("ingest status %d", resp.StatusCode)
	}
	return body.EventsTotal, nil
}

// pollEvents fetches the session's events after those already held.
func pollEvents(client *http.Client, base, id string, evs *eventLog) error {
	resp, err := client.Get(fmt.Sprintf("%s/v1/sessions/%s/events?since=%d", base, id, len(evs.events)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body struct {
		Events []serve.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("decoding events (status %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events status %d", resp.StatusCode)
	}
	for _, e := range body.Events {
		evs.record(e)
	}
	return nil
}

// closeSession finishes a session and returns its summary.
func closeSession(client *http.Client, base, id string) (*serve.Summary, error) {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sum serve.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		return nil, fmt.Errorf("decoding close response (status %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("close status %d", resp.StatusCode)
	}
	return &sum, nil
}

// holds reports whether a node holds a session.
func holds(client *http.Client, base, id string) (bool, error) {
	resp, err := client.Get(base + "/v1/sessions/" + id)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("status of %s: %d", id, resp.StatusCode)
}

// crashAndRecover stops the gateway, crashes node 1, restarts it on its
// data directory timing the recovery, and finishes every session left
// open directly on its node, checking that no acked chunk was lost.
func crashAndRecover(o *outcome, c *cluster2, left []*openSession, client *http.Client, tr *tracer) error {
	c.stopGateway()
	crashed := c.nodes[1]
	if err := crashed.Abort(); err != nil {
		return fmt.Errorf("aborting node 1: %w", err)
	}
	// The crashed node's manager still runs its janitor; it is stopped
	// after the restarted node is done with the directory.
	defer crashed.Manager().Shutdown()

	dir := filepath.Join(c.dir, "node1")
	records, err := countReplayRecords(dir)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	store, err := durable.Open(durable.Options{Dir: dir, Policy: durable.SyncAlways, Registry: reg})
	if err != nil {
		return fmt.Errorf("reopening node 1's data dir: %w", err)
	}
	srv := serve.NewServer(phasedOptions(reg, store))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	c.nodes[1], c.regs[1] = srv, reg
	sp := tr.begin("serve.Server.Recover", -1)
	t0 := time.Now()
	recovered, dropped, err := srv.Recover()
	recoverS := time.Since(t0).Seconds()
	tr.end(sp)
	o.attempted++
	if err != nil {
		o.fail("recovering node 1: %v", err)
		return nil
	}
	tr.snapshot("recovered", "node1", reg)
	o.m["durable.recover_s"] = recoverS
	o.m["durable.replay_records_per_s"] = float64(records) / recoverS
	// The gauge and Len are reported side by side: they disagree after a
	// recovery while Manager.Recover does not count the sessions it
	// restores into opd_serve_sessions_active.
	o.m["serve.sessions_active"] = gauge(reg.Snapshot(), telemetry.MetricServeSessionsActive)
	o.m["serve.sessions_len"] = float64(srv.Manager().Len())
	fmt.Printf("recovery: node 1 recovered %d sessions (%d dropped, %d WAL records) in %.4fs; sessions gauge %g, Len %d\n",
		recovered, dropped, records, recoverS, o.m["serve.sessions_active"], srv.Manager().Len())
	if dropped > 0 {
		o.violate("node 1 dropped %d sessions at recovery", dropped)
	}

	l := &ledger{o: o}
	for _, s := range left {
		finishLeft(l, s, c, client)
	}
	return nil
}

// countReplayRecords counts the WAL records a recovery of dir replays.
func countReplayRecords(dir string) (int, error) {
	st, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		return 0, fmt.Errorf("opening %s: %w", dir, err)
	}
	recs, err := st.Recover()
	if err != nil {
		return 0, fmt.Errorf("scanning %s: %w", dir, err)
	}
	n := 0
	for _, r := range recs {
		n += len(r.Records)
		if r.Log() != nil {
			_ = r.Log().Close()
		}
	}
	return n, nil
}

// finishLeft finds the node holding a session left open, checks over a
// direct stream handshake that the node holds every acked chunk, and
// streams the rest of the trace to that node.
func finishLeft(l *ledger, s *openSession, c *cluster2, client *http.Client) {
	o := l.o
	addr := ""
	for _, n := range c.nodes {
		ok, err := holds(client, "http://"+n.Addr(), s.id)
		if err != nil {
			o.fail("%v", err)
			return
		}
		if ok {
			addr = n.Addr()
		}
	}
	o.attempted++
	if addr == "" {
		o.violate("session %s left open with %d acked chunks is on no node", s.id, s.chunks)
		return
	}
	evs := &eventLog{}
	sc, err := serve.DialStream(addr, s.id, serve.StreamOptions{OnEvent: evs.record})
	if err != nil {
		o.fail("dialing %s: %v", s.id, err)
		return
	}
	defer sc.Close()
	if err := checkRecovered(s.id, int64(sc.Applied()), int64(s.chunks)); err != nil {
		o.violate("%v", err)
		return
	}
	// Send skips the chunks the node already applied.
	for _, ch := range s.pl.chunks {
		if err = sc.Send(ch); err != nil {
			break
		}
	}
	var sum *serve.Summary
	if err == nil {
		sum, err = sc.End(true)
	}
	o.attempted += int64(len(s.pl.chunks)-s.chunks) + 1
	if err != nil {
		o.fail("finishing %s: %v", s.id, err)
		return
	}
	finishSession(l, s.pl, sum, evs, nil, true)
}
