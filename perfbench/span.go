package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"opd/internal/telemetry"
)

// A span is one call into a module's public function, recorded by the
// benchmark around the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
}

// A regSnap is a telemetry registry snapshot taken at a phase boundary.
type regSnap struct {
	At       string             `json:"at"`
	Source   string             `json:"source"`
	Snapshot telemetry.Snapshot `json:"snapshot"`
}

// tracer keeps a traced pass's spans and registry snapshots in memory
// until the run ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	snaps []regSnap
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot records a registry's state at a phase boundary.
func (t *tracer) snapshot(at, source string, reg *telemetry.Registry) {
	if t == nil {
		return
	}
	s := reg.Snapshot()
	t.mu.Lock()
	t.snaps = append(t.snaps, regSnap{At: at, Source: source, Snapshot: s})
	t.mu.Unlock()
}

// total sums the durations of the closed spans with the given name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			sum += s.End - s.Start
		}
	}
	return time.Duration(sum)
}

// write saves the spans and snapshots as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans     []span    `json:"spans"`
		Snapshots []regSnap `json:"snapshots"`
	}{t.spans, t.snaps})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
