package main

import (
	"fmt"

	"opd/internal/baseline"
	"opd/internal/core"
	"opd/internal/interval"
	"opd/internal/score"
	"opd/internal/serve"
	"opd/internal/telemetry"
	"opd/internal/trace"
)

// checkPhases checks one detector output over a stream of n elements:
// raw phases sorted, disjoint and inside [0, n), one adjusted phase per
// raw phase with the same end and a start no later than the raw start.
func checkPhases(raw, adj []interval.Interval, n int64) error {
	for i, p := range raw {
		if p.Start < 0 || p.End > n || p.Start >= p.End {
			return fmt.Errorf("phase %d %v outside [0,%d) or empty", i, p, n)
		}
		if i > 0 && p.Start < raw[i-1].End {
			return fmt.Errorf("phase %d %v overlaps or precedes phase %d %v", i, p, i-1, raw[i-1])
		}
	}
	if len(adj) != len(raw) {
		return fmt.Errorf("%d adjusted phases for %d raw phases", len(adj), len(raw))
	}
	for i, a := range adj {
		if a.Start > raw[i].Start || a.End != raw[i].End || a.Start < 0 {
			return fmt.Errorf("adjusted phase %d %v does not extend raw phase %v backwards", i, a, raw[i])
		}
		if i > 0 && a.Start < adj[i-1].End {
			return fmt.Errorf("adjusted phase %d %v overlaps adjusted phase %d %v", i, a, i-1, adj[i-1])
		}
	}
	return nil
}

// checkAgainstRef compares a detector's output with the reference
// detector's over the same stream.
func checkAgainstRef(raw, adj []interval.Interval, sims int64, ref refResult) error {
	if err := samePhases("raw", raw, ref.Phases); err != nil {
		return err
	}
	if err := samePhases("adjusted", adj, ref.Adjusted); err != nil {
		return err
	}
	if sims != ref.Sims {
		return fmt.Errorf("%d similarity computations, reference %d", sims, ref.Sims)
	}
	return nil
}

func samePhases(kind string, got, want []interval.Interval) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("%s phase %d is %v, reference %v", kind, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d %s phases, reference %d", len(got), kind, len(want))
	}
	return nil
}

// checkOracle checks an oracle solution: every phase at least MPL long,
// and the oracle's own intervals scoring exactly 1.
func checkOracle(sol *baseline.Solution) error {
	for i, p := range sol.Phases {
		if p.Len() < sol.MPL {
			return fmt.Errorf("oracle phase %d %v shorter than MPL %d", i, p, sol.MPL)
		}
	}
	if r := score.Evaluate(sol.Phases, sol); r.Score != 1 {
		return fmt.Errorf("oracle scored against itself: %v", r)
	}
	return nil
}

// expected is an offline core run over a session's chunks: what the
// served session must report.
type expected struct {
	consumed int64
	sims     int64
	raw, adj []interval.Interval
	events   []serve.Event
	// emitChunk[i] is the index of the chunk whose processing emitted
	// event i; len(chunks) for events emitted by the final flush.
	emitChunk []int
}

// offline runs the configuration over the chunks through core directly:
// ProcessBatchIDs against a table interned in stream order when ids is
// set, ProcessBatch otherwise.
func offline(cfg core.Config, chunks [][]trace.Branch, ids bool) (*expected, error) {
	d, err := cfg.New()
	if err != nil {
		return nil, err
	}
	e := &expected{}
	chunk := 0
	src := cfg.ID()
	d.SetPhaseStartHook(func(adjStart int64, _ []trace.Branch) {
		e.events = append(e.events, serve.Event{Seq: uint64(len(e.events)), Kind: telemetry.EvPhaseStart.String(),
			Src: src, At: adjStart, V1: adjStart})
		e.emitChunk = append(e.emitChunk, chunk)
	})
	d.SetPhaseEndHook(func(iv interval.Interval, _ []trace.Branch) {
		e.events = append(e.events, serve.Event{Seq: uint64(len(e.events)), Kind: telemetry.EvPhaseEnd.String(),
			Src: src, At: iv.End, V1: iv.Start, V2: iv.Len()})
		e.emitChunk = append(e.emitChunk, chunk)
	})
	b := trace.NewInternedBuilder(0)
	var idBuf []int32
	bound := -1
	for chunk = range chunks {
		if !ids {
			d.ProcessBatch(chunks[chunk])
			continue
		}
		idBuf = idBuf[:0]
		for _, el := range chunks[chunk] {
			idBuf = append(idBuf, b.Intern(el))
		}
		if b.Cardinality() != bound {
			// The model aliases the table, so it is re-bound whenever
			// the table grows.
			bound = b.Cardinality()
			d.Bind(trace.NewInternedTable(b.Symbols()))
		}
		d.ProcessBatchIDs(idBuf)
	}
	chunk = len(chunks)
	d.Finish()
	e.consumed = d.Consumed()
	e.sims = d.SimilarityComputations()
	e.raw, e.adj = d.Phases(), d.AdjustedPhases()
	return e, nil
}

// checkSummary compares a served session's summary with the offline run.
func checkSummary(got *serve.Summary, want *expected) error {
	if got == nil {
		return fmt.Errorf("no summary")
	}
	if got.State != serve.StateClosed {
		return fmt.Errorf("session state %q, want closed", got.State)
	}
	if got.Consumed != want.consumed || got.SimComputations != want.sims || got.EventsTotal != uint64(len(want.events)) {
		return fmt.Errorf("summary consumed %d sims %d events %d, offline %d %d %d",
			got.Consumed, got.SimComputations, got.EventsTotal, want.consumed, want.sims, len(want.events))
	}
	if err := samePhases("raw", got.Phases, want.raw); err != nil {
		return fmt.Errorf("summary vs offline: %w", err)
	}
	if err := samePhases("adjusted", got.AdjustedPhases, want.adj); err != nil {
		return fmt.Errorf("summary vs offline: %w", err)
	}
	return nil
}

// checkEvents checks the events a client received: each exactly once,
// seqs contiguous from 0, identical to the offline run's.
func checkEvents(got []serve.Event, want []serve.Event) error {
	for i, ev := range got {
		if ev.Seq != uint64(i) {
			return fmt.Errorf("event %d carries seq %d (duplicate or gap)", i, ev.Seq)
		}
		if i < len(want) && ev != want[i] {
			return fmt.Errorf("event %d is %+v, offline %+v", i, ev, want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("received %d events, offline %d", len(got), len(want))
	}
	return nil
}

// checkLedger checks that every element sent was acknowledged and
// counted by the servers' ingest counter.
func checkLedger(sent, acked, ingested int64) error {
	if sent != acked || acked != ingested {
		return fmt.Errorf("elements sent %d, acked %d, ingested (opd_serve_ingest_elements_total) %d", sent, acked, ingested)
	}
	return nil
}

// checkRecovered checks that a restarted node holds every chunk it
// acknowledged before the crash.
func checkRecovered(id string, applied, acked int64) error {
	if applied < acked {
		return fmt.Errorf("session %s: node recovered %d chunks but had acked %d", id, applied, acked)
	}
	return nil
}
