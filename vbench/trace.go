package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// tracer records the spans of one traced run from the benchmark's own
// code, around each call into the client API, plus peaks of layer
// gauges sampled at every call's end. Simulation goroutines run one at
// a time, so the mutex is never contended; it only orders the accesses
// for the race detector.
type tracer struct {
	wall0 time.Time
	// epoch is the simulated time the run began; span times count
	// from it.
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	phases []span
	peaks  peaks

	prof     bytes.Buffer
	cpu      cpuBuckets // samples of the measured phases, by module
	cpuFuncs cpuBuckets // the same samples by deciding function
}

// span is one client call or phase. Ids are 1-based; a call's parent
// is the id of the phase span it ran in.
type span struct {
	name         string
	id, parent   int
	rank         int
	simStart     time.Duration // since the virtual epoch
	simDur       time.Duration
	wallStart    time.Duration // since the tracer began
	wallDuration time.Duration
}

// peaks are layer gauges' maxima over call ends: dirty bytes summed over
// the clients, extent-cache entries and pinned entries summed over the
// servers.
type peaks struct{ dirty, entries, pinned int64 }

func (p *peaks) fold(o peaks) {
	p.dirty = max(p.dirty, o.dirty)
	p.entries = max(p.entries, o.entries)
	p.pinned = max(p.pinned, o.pinned)
}

func newTracer() *tracer { return &tracer{wall0: time.Now()} }

func (t *tracer) span(name string, rank, parent int, simStart time.Time, simDur time.Duration, wallStart time.Time) {
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		name: name, id: len(t.spans) + 1, parent: parent, rank: rank,
		simStart: simStart.Sub(t.epoch), simDur: simDur,
		wallStart: wallStart.Sub(t.wall0), wallDuration: now.Sub(wallStart),
	})
	t.mu.Unlock()
}

// beginPhase opens a phase span and returns its id; phase ids count
// down from -1 so they never collide with call ids.
func (t *tracer) beginPhase(name string, simNow time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := -(len(t.phases) + 1)
	t.phases = append(t.phases, span{name: name, id: id, rank: -1,
		simStart: simNow.Sub(t.epoch), wallStart: time.Since(t.wall0)})
	return id
}

func (t *tracer) endPhase(id int, simNow time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := &t.phases[-id-1]
	p.simDur = simNow.Sub(t.epoch) - p.simStart
	p.wallDuration = time.Since(t.wall0) - p.wallStart
}

// sample folds the current gauges into the peaks.
func (t *tracer) sample(r *run) {
	var now peaks
	for _, cl := range r.cls {
		now.dirty += cl.PageCache().DirtyBytes()
	}
	for _, s := range r.c.Servers {
		now.entries += int64(s.Cache.Entries())
		now.pinned += s.Cache.Pinned()
	}
	t.mu.Lock()
	t.peaks.fold(now)
	t.mu.Unlock()
}

// startProfile starts the CPU profile of the measured phases.
func (t *tracer) startProfile() error {
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// stopProfile stops the profile and buckets its samples by module.
func (t *tracer) stopProfile() error {
	pprof.StopCPUProfile()
	var err error
	t.cpu, t.cpuFuncs, err = attribute(t.prof.Bytes())
	return err
}

// traceEvent is one Chrome trace-event ("X" complete event). Times are
// simulated microseconds; the wall times ride in args.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file
// (chrome://tracing, Perfetto): one track per rank, phases on track 0.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]traceEvent, 0, len(t.phases)+len(t.spans))
	conv := func(s span, cat string, tid int) traceEvent {
		return traceEvent{
			Name: s.name, Cat: cat, Ph: "X",
			Ts: us(s.simStart), Dur: us(s.simDur), Pid: 1, Tid: tid,
			Args: map[string]any{
				"op": s.id, "rank": s.rank, "parent": s.parent,
				"sim_start_us": us(s.simStart), "sim_end_us": us(s.simStart + s.simDur),
				"wall_start_us": us(s.wallStart), "wall_end_us": us(s.wallStart + s.wallDuration),
			},
		}
	}
	for _, p := range t.phases {
		evs = append(evs, conv(p, "phase", 0))
	}
	for _, s := range t.spans {
		evs = append(evs, conv(s, "op", s.rank+1))
	}
	b, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{evs, "ns"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
