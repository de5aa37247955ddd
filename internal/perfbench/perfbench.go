// Package perfbench holds the parallel hot-path benchmarks of the
// node-local IO stack: extent-cache apply/lookup, data-server flush,
// page-cache mixed read/write, cached-lock hits, and raw DLM
// grant/release. Each benchmark body is an exported func(*testing.B) so
// it runs both under `go test -bench` (thin wrappers live next to the
// package under test) and programmatically via testing.Benchmark from
// `seqbench -benchjson`, which records the results in BENCH_dlm.json to
// track the perf trajectory across PRs.
//
// Every benchmark is b.RunParallel-shaped with each worker goroutine
// pinned to its own stripe / resource: the measured quantity is
// aggregate throughput when the workload itself has no data conflicts,
// i.e. exactly the serialization the node-local locks add. The flush
// benchmarks include the per-op cleanup budget check the data server's
// write routine performs (an O(1) atomic load here; an O(stripes) scan
// under the cache mutex before the counters were made atomic). The
// *CleanupParallel variants additionally run a daemon-style poller
// (entry-count check + cleanup round in a loop) concurrently, the way
// extcache.Daemon does, so they also measure how much the background
// task stalls foreground IO.
package perfbench

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"ccpfs/internal/dataserver"
	"ccpfs/internal/dlm"
	"ccpfs/internal/extcache"
	"ccpfs/internal/extent"
	"ccpfs/internal/pagecache"
	"ccpfs/internal/wire"
)

// benchStripes is the number of distinct stripes/resources the parallel
// benchmarks spread over; workers are assigned round-robin so any two
// workers touch different stripes whenever GOMAXPROCS <= benchStripes.
const benchStripes = 64

// cleanupStripes is the stripe population for the *CleanupParallel
// variants: a data server realistically hosts thousands of stripes, and
// the size of the stripe set is exactly what the cleanup daemon's
// entry-count polls and batch scans must not multiply into foreground
// stalls.
const cleanupStripes = 4096

// blockSize is the per-op payload of the data-moving benchmarks.
const blockSize = 4096

// window bounds the per-stripe offset space so trees and page maps stay
// at a steady size instead of growing with b.N.
const window = 256

// worker hands out distinct stripe slots to RunParallel goroutines.
type worker struct {
	next atomic.Uint64
}

func (w *worker) stripe() uint64 { return w.next.Add(1) % benchStripes }

// ExtcacheApplyParallel: concurrent SN-tagged inserts on distinct
// stripes — the extent-cache half of the flush path. Like the data
// server's write routine, every op also runs the cleanup budget check
// (dataserver.Flush tests NeedsCleanup after each merge to wake the
// cleanup daemon promptly).
func ExtcacheApplyParallel(b *testing.B) {
	c := extcache.New(0, false)
	var w worker
	var sn atomic.Uint64
	b.ReportAllocs()
	b.SetBytes(blockSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stripe := w.stripe()
		i, over := 0, 0
		for pb.Next() {
			off := int64(i%window) * blockSize
			c.Apply(stripe, extent.Span(off, blockSize), sn.Add(1))
			if c.NeedsCleanup() {
				over++
			}
			i++
		}
		_ = over
	})
}

// ExtcacheApplyCleanupParallel: same insert load (including the per-op
// budget check of the flush path) while a daemon-style poller loops
// over Entries + CleanupRound, the way extcache.Daemon does when the
// cache is over budget. The mSN query pins every entry (msn=0) so the
// cleanup scan runs at full batch size each round.
func ExtcacheApplyCleanupParallel(b *testing.B) {
	c := extcache.New(1, false) // budget of 1 entry: always over, daemon always scanning
	// Populate the full stripe set up front so the daemon's entry-count
	// polls see the realistic stripe population from the first iteration.
	for s := uint64(0); s < cleanupStripes; s++ {
		c.Apply(s, extent.Span(0, blockSize), 1)
	}
	pinned := func(uint64, extent.Extent) (extent.SN, bool) { return 0, true }
	stopped := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c.NeedsCleanup() {
				c.CleanupRound(pinned)
			}
		}
	}()
	var w worker
	var sn atomic.Uint64
	b.ReportAllocs()
	b.SetBytes(blockSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stripe := w.stripe()
		i, over := 0, 0
		for pb.Next() {
			off := int64(i%window) * blockSize
			c.Apply(stripe, extent.Span(off, blockSize), sn.Add(1))
			if c.NeedsCleanup() {
				over++
			}
			i++
		}
		_ = over
	})
	b.StopTimer()
	close(stop)
	<-stopped
}

// ExtcacheMaxSNParallel: concurrent read-side lookups (the data-server
// read path queries MaxSN for every read RPC) on distinct stripes.
func ExtcacheMaxSNParallel(b *testing.B) {
	c := extcache.New(0, false)
	for s := uint64(0); s < benchStripes; s++ {
		for i := 0; i < window; i++ {
			c.Apply(s, extent.Span(int64(i)*blockSize, blockSize), extent.SN(i+1))
		}
	}
	var w worker
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stripe := w.stripe()
		i := 0
		for pb.Next() {
			off := int64(i%window) * blockSize
			c.MaxSN(stripe, extent.Span(off, blockSize))
			i++
		}
	})
}

// newBenchServer builds an in-process data server with no simulated
// hardware, no listener, and no cleanup daemon: Flush cost is extent
// cache + store only.
func newBenchServer() *dataserver.Server {
	return dataserver.New(dataserver.Config{Name: "bench", Policy: dlm.SeqDLM()})
}

// DataserverFlushParallel: concurrent SN-tagged flushes to distinct
// stripes through the full server-side write routine (extent cache
// merge + stripe store write).
func DataserverFlushParallel(b *testing.B) {
	s := newBenchServer()
	var w worker
	var sn atomic.Uint64
	data := make([]byte, blockSize)
	b.ReportAllocs()
	b.SetBytes(blockSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stripe := w.stripe()
		req := &wire.FlushRequest{Resource: stripe, Client: 1}
		i := 0
		for pb.Next() {
			off := int64(i%window) * blockSize
			req.Blocks = req.Blocks[:0]
			req.Blocks = append(req.Blocks, wire.Block{
				Range: extent.Span(off, blockSize),
				SN:    sn.Add(1),
				Data:  data,
			})
			if err := s.Flush(req); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// DataserverFlushCleanupParallel: the flush load with the extent-cache
// cleanup poller running concurrently, as on a real data server whose
// cache sits over budget with every entry pinned by unreleased locks.
func DataserverFlushCleanupParallel(b *testing.B) {
	s := newBenchServer()
	for st := uint64(0); st < cleanupStripes; st++ {
		s.Cache.Apply(st, extent.Span(0, blockSize), 1)
	}
	pinned := func(uint64, extent.Extent) (extent.SN, bool) { return 0, true }
	stopped := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s.Cache.Entries() > 0 {
				s.Cache.CleanupRound(pinned)
			}
		}
	}()
	var w worker
	var sn atomic.Uint64
	data := make([]byte, blockSize)
	b.ReportAllocs()
	b.SetBytes(blockSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stripe := w.stripe()
		req := &wire.FlushRequest{Resource: stripe, Client: 1}
		i := 0
		for pb.Next() {
			off := int64(i%window) * blockSize
			req.Blocks = req.Blocks[:0]
			req.Blocks = append(req.Blocks, wire.Block{
				Range: extent.Span(off, blockSize),
				SN:    sn.Add(1),
				Data:  data,
			})
			if err := s.Flush(req); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-stopped
}

// PagecacheMixedParallel: each worker writes then reads back a page on
// its own stripe — the client-side cache hot path of WriteAt/ReadAt.
func PagecacheMixedParallel(b *testing.B) {
	c := pagecache.New(pagecache.Config{PageSize: blockSize})
	var w worker
	data := make([]byte, blockSize)
	b.ReportAllocs()
	b.SetBytes(2 * blockSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stripe := w.stripe()
		buf := make([]byte, blockSize)
		i := 0
		for pb.Next() {
			off := int64(i%window) * blockSize
			c.Write(stripe, off, data, extent.SN(i+1))
			c.Read(stripe, off, buf)
			i++
		}
	})
}

// collectStripe is the stripe PagecacheCollectDirty dirties and
// collects per op.
const collectStripe = 1 << 20

// PagecacheCollectDirty: dirty a 1 MiB stripe of 4 KiB pages under one
// SN and collect it for flushing, the client's gather step before every
// flush RPC. B/op against the collected bytes per op is the copy-once
// target: each collected byte should be allocated once, in its run's
// buffer, and the rewrite's extent-list bookkeeping should stay small.
func PagecacheCollectDirty(b *testing.B) {
	c := pagecache.New(pagecache.Config{PageSize: blockSize})
	data := make([]byte, collectStripe)
	all := extent.New(0, collectStripe)
	var collected int64
	b.ReportAllocs()
	b.SetBytes(collectStripe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(0, 0, data, extent.SN(i+1))
		for _, blk := range c.CollectDirty(0, all, extent.SN(i+1)) {
			collected += int64(len(blk.Data))
		}
	}
	b.ReportMetric(float64(collected)/float64(b.N), "collected_B/op")
}

// directConn adapts an in-process dlm.Server to dlm.ServerConn.
type directConn struct{ srv *dlm.Server }

func (d directConn) Lock(ctx context.Context, req dlm.Request) (dlm.Grant, error) {
	return d.srv.Lock(ctx, req)
}
func (d directConn) Release(_ context.Context, res dlm.ResourceID, id dlm.LockID) error {
	d.srv.Release(res, id)
	return nil
}
func (d directConn) Downgrade(_ context.Context, res dlm.ResourceID, id dlm.LockID, m dlm.Mode) error {
	return d.srv.Downgrade(res, id, m)
}

// LockClientCachedHitParallel: concurrent cached-lock lookups on
// distinct resources within one client — the fast path of every IO
// operation once the working set's locks are cached.
func LockClientCachedHitParallel(b *testing.B) {
	policy := dlm.SeqDLM()
	srv := dlm.NewServer(policy, dlm.NotifierFunc(func(context.Context, dlm.Revocation) {}))
	noFlush := dlm.FlusherFunc(func(context.Context, dlm.ResourceID, extent.Extent, extent.SN) error { return nil })
	c := dlm.NewLockClient(1, policy, func(dlm.ResourceID) dlm.ServerConn { return directConn{srv} }, noFlush)
	for r := 0; r < benchStripes; r++ {
		h, err := c.Acquire(context.Background(), dlm.ResourceID(r), dlm.NBW, extent.New(0, window*blockSize))
		if err != nil {
			b.Fatal(err)
		}
		c.Unlock(h)
	}
	var w worker
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		res := dlm.ResourceID(w.stripe())
		for pb.Next() {
			h, err := c.Acquire(context.Background(), res, dlm.NBW, extent.New(0, blockSize))
			if err != nil {
				b.Error(err)
				return
			}
			c.Unlock(h)
		}
	})
}

// DLMGrantReleaseParallel: uncontended grant/release rounds through the
// server engine on distinct resources — lock-table shard + lock-ID
// allocation cost.
func DLMGrantReleaseParallel(b *testing.B) {
	srv := dlm.NewServer(dlm.SeqDLM(), dlm.NotifierFunc(func(context.Context, dlm.Revocation) {}))
	var w worker
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		res := dlm.ResourceID(w.stripe())
		for pb.Next() {
			g, err := srv.Lock(context.Background(), dlm.Request{Resource: res, Client: 1, Mode: dlm.NBW, Range: extent.New(0, blockSize)})
			if err != nil {
				b.Error(err)
				return
			}
			srv.Release(res, g.LockID)
		}
	})
}

// NamedBench pairs a benchmark body with its reporting name.
type NamedBench struct {
	Name string
	Fn   func(*testing.B)
}

// All returns every hot-path benchmark in reporting order.
func All() []NamedBench {
	return []NamedBench{
		{"ExtcacheApplyParallel", ExtcacheApplyParallel},
		{"ExtcacheApplyCleanupParallel", ExtcacheApplyCleanupParallel},
		{"ExtcacheMaxSNParallel", ExtcacheMaxSNParallel},
		{"DataserverFlushParallel", DataserverFlushParallel},
		{"DataserverFlushCleanupParallel", DataserverFlushCleanupParallel},
		{"PagecacheMixedParallel", PagecacheMixedParallel},
		{"PagecacheCollectDirty", PagecacheCollectDirty},
		{"LockClientCachedHitParallel", LockClientCachedHitParallel},
		{"DLMGrantReleaseParallel", DLMGrantReleaseParallel},
		{"RpcRoundTrip", RpcRoundTrip},
		{"RpcRoundTripObs", RpcRoundTripObs},
		{"RpcRoundTripParallel", RpcRoundTripParallel},
		{"ObsHistogramRecordParallel", ObsHistogramRecordParallel},
		{"FlushPipelineSequential", FlushPipelineSequential},
		{"FlushPipelineWindowed", FlushPipelineWindowed},
		{"LockGrantIndexed", LockGrantIndexed},
		{"LockGrantLinear", LockGrantLinear},
		{"RevokeStorm", RevokeStorm},
		{"RevokeStormUnbatched", RevokeStormUnbatched},
		{"LockGrantScale1", LockGrantScale1},
		{"LockGrantScale2", LockGrantScale2},
		{"LockGrantScale4", LockGrantScale4},
		{"LockGrantScale8", LockGrantScale8},
		{"ServerPingPong", ServerPingPong},
		{"HandoffPingPong", HandoffPingPong},
		{"ReaderFanServer", ReaderFanServer},
		{"ReaderFanDelegated", ReaderFanDelegated},
	}
}

// Result is one benchmark's outcome in BENCH_dlm.json.
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// BytesPerOp is the heap bytes allocated per op (B/op).
	BytesPerOp int64 `json:"bytes_per_op,omitempty"`
	// Extra carries custom b.ReportMetric values (e.g. the ping-pong
	// benchmarks' server_rpcs/exchange). Unlike ns/op these are
	// protocol counts, hardware-independent and safe to gate on
	// absolute thresholds.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Env records the machine facts a result file needs to be interpreted.
// It is captured inside Run, after the GOMAXPROCS override is applied,
// so the recorded values are exactly what the benchmarks saw — a report
// assembled by the caller from its own environment can drift (the
// original BENCH_dlm.json carried num_cpu from the wrong moment).
type Env struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Warn flags an environment that distorts parallel results: fewer
	// schedulable CPUs than GOMAXPROCS means the runtime multiplexes
	// benchmark workers onto shared cores and contention numbers
	// measure the scheduler, not the code. Recorded in the report so a
	// reviewer of BENCH_dlm.json sees the caveat next to the numbers.
	Warn string `json:"warn,omitempty"`
}

// Run executes every benchmark at the given GOMAXPROCS and returns the
// results plus the environment they ran under. The previous GOMAXPROCS
// is restored before returning.
func Run(procs int) ([]Result, Env) {
	if procs > 0 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
	}
	env := Env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: numCPU()}
	if env.NumCPU < env.GOMAXPROCS {
		env.Warn = fmt.Sprintf("only %d schedulable CPUs for GOMAXPROCS=%d: parallel results are scheduler-bound",
			env.NumCPU, env.GOMAXPROCS)
	}
	var out []Result
	for _, nb := range All() {
		out = append(out, Measure(nb))
	}
	return out, env
}

// Measure runs one benchmark via testing.Benchmark and converts the
// outcome to a Result.
func Measure(nb NamedBench) Result {
	r := testing.Benchmark(nb.Fn)
	nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
	res := Result{
		Name:        nb.Name,
		N:           r.N,
		NsPerOp:     nsPerOp,
		OpsPerSec:   1e9 / nsPerOp,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.Bytes > 0 {
		res.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	if len(r.Extra) > 0 {
		res.Extra = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			res.Extra[k] = v
		}
	}
	return res
}

// RunNamed executes only the named benchmarks (in the given order) at
// the given GOMAXPROCS. Unknown names are reported as an error by the
// caller via the nil-Result convention: the returned slice is aligned
// with names, and a missing benchmark yields a Result with N == 0.
func RunNamed(procs int, names []string) []Result {
	if procs > 0 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
	}
	byName := map[string]NamedBench{}
	for _, nb := range All() {
		byName[nb.Name] = nb
	}
	out := make([]Result, len(names))
	for i, name := range names {
		if nb, ok := byName[name]; ok {
			out[i] = Measure(nb)
		} else {
			out[i] = Result{Name: name}
		}
	}
	return out
}

// String renders a result line in `go test -bench` style.
func (r Result) String() string {
	s := fmt.Sprintf("%-32s %10d %12.1f ns/op %14.0f ops/s", r.Name, r.N, r.NsPerOp, r.OpsPerSec)
	if r.MBPerSec > 0 {
		s += fmt.Sprintf(" %10.1f MB/s", r.MBPerSec)
	}
	return s
}
