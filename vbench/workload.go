package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"ccpfs"
	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/sim"
)

// Workload shapes (README.md). The seed varies the data patterns and
// the virtual clock's delivery jitter; op and byte counts are the same
// for every seed.
const (
	iorRanks      = 8
	iorWrites     = 256 // per rank: 2,048 writes, so every p99 has ≥1,000 samples
	iorWriteSize  = 47008
	iorBytes      = iorRanks * iorWrites * iorWriteSize
	iorStripeSize = 1 << 20
	iorStripes    = 4

	fanReaders   = 32
	fanRounds    = 1024
	fanWriteSize = 64 << 10
	// fanChunk rounds (2,112 client calls) form one timed interval, about
	// the calls of one write-workload run, so a fan-out run yields 16
	// cost samples instead of one.
	fanChunk = 64
)

// spec is one named workload.
type spec struct {
	name string
	// segmented selects the N-1 segmented offsets instead of N-1
	// strided for the IOR-style write workloads.
	segmented bool
	fan       bool
	// subRuns is how many differently seeded runs one invocation pools
	// its simulated metrics over. The IOR workloads pool four: the
	// per-seed spread of a single run (write bandwidth ±5%, p99 ±10%)
	// would otherwise exceed the regression bounds. One fan-out run
	// already repeats within 0.1% across seeds and costs ~10 s.
	subRuns int
}

var specs = []spec{
	{name: "strided-write", subRuns: 4},
	{name: "segmented-write", segmented: true, subRuns: 4},
	{name: "fanout-read", fan: true, subRuns: 1},
}

// subSeed is the seed of the j-th pooled run of an invocation seeded
// with seed; distinct invocation seeds never share a sub-seed.
func (s spec) subSeed(seed int64, j int) int64 {
	return seed*int64(s.subRuns) + int64(j)
}

// servers is the number of data servers the workload's cluster runs.
func (s spec) servers() int {
	if s.fan {
		return 1
	}
	return iorStripes
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// simOut holds everything one run computes on the virtual clock. It is
// a pure function of (workload, seed): two runs with the same seed
// must produce equal values, which digest checks.
type simOut struct {
	writeLat []int64 // ns per WriteAtOpts, all ranks
	readLat  []int64 // ns per ReadAt

	runs                  int // pooled runs (pool)
	writeBytes, readBytes int64
	writePhase, readPhase time.Duration
	durable               time.Duration // summed over the pooled runs
	fsyncSum, releaseSum  time.Duration

	ops      int64 // client calls in the measured phases
	reads    int64 // reads among them (the readback is outside)
	attempts int64 // every client call, readback included
	failures int64 // client errors + verification mismatches
	firstErr string

	layers layerDelta
}

// pool merges the simulated results of several runs: latencies
// concatenate, bytes, phase times and counters add, so bandwidths are
// total bytes over total time and per-op ratios keep their meaning.
func pool(outs []simOut) simOut {
	var p simOut
	for _, o := range outs {
		p.writeLat = append(p.writeLat, o.writeLat...)
		p.readLat = append(p.readLat, o.readLat...)
		p.runs += o.runs
		p.writeBytes += o.writeBytes
		p.readBytes += o.readBytes
		p.writePhase += o.writePhase
		p.readPhase += o.readPhase
		p.durable += o.durable
		p.fsyncSum += o.fsyncSum
		p.releaseSum += o.releaseSum
		p.ops += o.ops
		p.reads += o.reads
		p.layers = p.layers.add(o.layers)
	}
	return p
}

// usage is what a timed interval cost the process.
type usage struct {
	wall  time.Duration // real time
	cpu   time.Duration // user + system CPU time, every thread
	alloc uint64        // bytes allocated (TotalAlloc delta)
	ops   int64         // client calls in the interval
}

// cost is a reading of the process's clocks and allocation counter.
type cost struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// readCost reads the clocks, and with alloc the allocation counter
// too (runtime.ReadMemStats stops the world, so timed set-ups skip it).
func readCost(alloc bool) cost {
	c := cost{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if alloc {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.alloc = ms.TotalAlloc
	}
	return c
}

func (c cost) since(c0 cost) usage {
	return usage{wall: c.wall.Sub(c0.wall), cpu: c.cpu - c0.cpu, alloc: c.alloc - c0.alloc}
}

// run is one workload instance inside one fresh virtual clock.
type run struct {
	spec spec
	seed int64
	clk  sim.Clock
	c    *cluster.Cluster
	cls  []*client.Client
	fs   []*client.File

	tr  *tracer // nil when untraced
	out simOut

	// intervals are the timed slices of the measured phases (mark).
	intervals []usage
	last      cost
	marked    int64

	lat      [][]int64 // per rank: write latencies
	rlat     [][]int64 // per rank: read latencies
	fails    atomic.Int64
	attempts atomic.Int64
	errMsg   atomic.Pointer[string]
}

// runOnce executes one instance of s seeded with seed inside its own
// VClock: setup, the measured phases, the readback, and teardown.
// It returns the simulated results and the timed intervals.
func runOnce(s spec, seed int64, tr *tracer) (simOut, []usage, error) {
	v := sim.NewVClock(seed)
	hw := ccpfs.BenchHardware()
	hw.Clock = sim.Virtual(v)
	r := &run{spec: s, seed: seed, clk: hw.Clock, tr: tr}
	var err error
	v.Run(func() { err = r.execute(hw) })
	if err != nil {
		return simOut{}, nil, err
	}
	r.out.runs = 1
	r.out.failures = r.fails.Load()
	r.out.attempts = r.attempts.Load()
	if p := r.errMsg.Load(); p != nil {
		r.out.firstErr = *p
	}
	for _, l := range r.lat {
		r.out.writeLat = append(r.out.writeLat, l...)
	}
	for _, l := range r.rlat {
		r.out.readLat = append(r.out.readLat, l...)
	}
	return r.out, r.intervals, nil
}

func (r *run) execute(hw sim.Hardware) error {
	if r.tr != nil {
		r.tr.epoch = r.clk.Now()
	}
	defer r.teardown()
	if err := r.setup(hw); err != nil {
		return err
	}

	before := r.snapLayers()
	if r.tr != nil {
		if err := r.tr.startProfile(); err != nil {
			return err
		}
	}
	r.last = readCost(true)
	if r.spec.fan {
		r.fanPhases()
	} else {
		r.iorPhases()
	}
	r.mark(r.out.ops - r.marked)
	if r.tr != nil {
		if err := r.tr.stopProfile(); err != nil {
			return err
		}
	}
	r.out.layers = r.snapLayers().sub(before)
	if !r.spec.fan {
		r.readback()
	}
	return nil
}

// mark closes the current timed interval, which covered ops client
// calls, and opens the next.
func (r *run) mark(ops int64) {
	c := readCost(true)
	w := c.since(r.last)
	w.ops = ops
	r.intervals = append(r.intervals, w)
	r.last, r.marked = c, r.marked+ops
}

// timeSetup builds s's cluster, clients and open files on a fresh
// virtual clock, tears them down, and returns what the build cost.
func timeSetup(s spec, seed int64) (usage, error) {
	v := sim.NewVClock(seed)
	hw := ccpfs.BenchHardware()
	hw.Clock = sim.Virtual(v)
	r := &run{spec: s, seed: seed, clk: hw.Clock}
	var w usage
	var err error
	v.Run(func() {
		defer r.teardown()
		c0 := readCost(false)
		if err = r.setup(hw); err == nil {
			w = readCost(false).since(c0)
			w.ops = 1
		}
	})
	return w, err
}

func (r *run) setup(hw sim.Hardware) error {
	opts := cluster.Options{Servers: r.spec.servers(), Policy: dlm.SeqDLM(), Hardware: hw}
	n := iorRanks
	path, stripes := "/ior", uint32(iorStripes)
	if r.spec.fan {
		opts.Handoff = true
		opts.ReaderFanout = true
		n = 1 + fanReaders
		path, stripes = "/fan", 1
	}
	c, err := cluster.New(opts)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	r.c = c
	if r.cls, err = c.Clients(n, "rank"); err != nil {
		return fmt.Errorf("clients: %w", err)
	}
	for _, cl := range r.cls {
		f, err := cl.OpenOrCreate(path, iorStripeSize, stripes)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		r.fs = append(r.fs, f)
	}
	r.lat = make([][]int64, n)
	r.rlat = make([][]int64, n+1) // the last slot is the readback client
	return nil
}

func (r *run) teardown() {
	for _, cl := range r.cls {
		cl.Close()
	}
	if r.c != nil {
		r.c.Close()
	}
}

// fail records one failed client call or verification mismatch.
func (r *run) fail(err error) {
	r.fails.Add(1)
	msg := err.Error()
	r.errMsg.CompareAndSwap(nil, &msg)
}

// call runs one client call on rank's timeline and returns its
// simulated latency and error; a failed call is already counted.
// Traced runs also record a span.
func (r *run) call(rank int, name string, parent int, f func() error) (time.Duration, error) {
	r.attempts.Add(1)
	var wall time.Time
	if r.tr != nil {
		wall = time.Now()
	}
	t := r.clk.Now()
	err := f()
	d := r.clk.Since(t)
	if r.tr != nil {
		r.tr.span(name, rank, parent, t, d, wall)
		r.tr.sample(r)
	}
	if err != nil {
		r.fail(fmt.Errorf("rank %d %s: %w", rank, name, err))
	}
	return d, err
}

// iorPhases is the write phase and the drain of the IOR-style
// workloads: each rank writes its blocks in a closed loop, then every
// rank runs Fsync + ReleaseAll.
func (r *run) iorPhases() {
	ctx := context.Background()
	start := r.clk.Now()
	ph := r.phase("write")
	grp := sim.NewGroup(r.clk)
	for rank := range r.cls {
		grp.Go(func() {
			buf := make([]byte, iorWriteSize)
			lat := make([]int64, 0, iorWrites)
			for k := 0; k < iorWrites; k++ {
				id := int64(rank*iorWrites + k)
				fill(buf, r.seed, id)
				off := r.iorOffset(rank, k)
				d, _ := r.call(rank, "write", ph, func() error {
					_, err := r.fs[rank].WriteAtOpts(ctx, buf, off, client.WriteOptions{})
					return err
				})
				lat = append(lat, d.Nanoseconds())
			}
			r.lat[rank] = lat
		})
	}
	grp.Wait()
	r.out.writePhase = r.clk.Since(start)
	r.out.writeBytes = iorBytes
	r.out.ops = int64(iorRanks * iorWrites)
	r.endPhase(ph)
	r.drain()
	r.out.durable = r.clk.Since(start)
}

// drain runs Fsync + Locks().ReleaseAll on every rank in parallel.
func (r *run) drain() {
	ctx := context.Background()
	ph := r.phase("drain")
	fsync := make([]time.Duration, len(r.cls))
	release := make([]time.Duration, len(r.cls))
	grp := sim.NewGroup(r.clk)
	for rank := range r.cls {
		grp.Go(func() {
			fsync[rank], _ = r.call(rank, "fsync", ph, r.fs[rank].Fsync)
			release[rank], _ = r.call(rank, "release", ph, func() error {
				return r.cls[rank].Locks().ReleaseAll(ctx)
			})
		})
	}
	grp.Wait()
	for i := range r.cls {
		r.out.fsyncSum += fsync[i]
		r.out.releaseSum += release[i]
	}
	r.out.ops += int64(2 * len(r.cls))
	r.endPhase(ph)
}

// iorOffset is where rank's k-th write lands: N-1 strided interleaves
// the ranks' blocks iteration by iteration, N-1 segmented gives each
// rank one contiguous segment.
func (r *run) iorOffset(rank, k int) int64 {
	if r.spec.segmented {
		return int64(rank*iorWrites+k) * iorWriteSize
	}
	return int64(k*iorRanks+rank) * iorWriteSize
}

// readback is the correctness pass of the write workloads: a fresh
// client reads every block in file order and checks its pattern. Its
// simulated timings are the write workloads' read_* metrics; its real
// time is not measured.
func (r *run) readback() {
	cl, err := r.c.NewClient("readback")
	if err != nil {
		r.attempts.Add(1)
		r.fail(fmt.Errorf("readback client: %w", err))
		return
	}
	defer cl.Close()
	rank := len(r.cls)
	f, err := cl.Open("/ior")
	if err != nil {
		r.attempts.Add(1)
		r.fail(fmt.Errorf("readback open: %w", err))
		return
	}
	ph := r.phase("readback")
	p := make([]byte, iorWriteSize)
	lat := make([]int64, 0, iorRanks*iorWrites)
	start := r.clk.Now()
	// File order: rank-major for segmented, iteration-major for strided.
	for i := 0; i < iorRanks*iorWrites; i++ {
		rk, k := i%iorRanks, i/iorRanks
		if r.spec.segmented {
			rk, k = i/iorWrites, i%iorWrites
		}
		off := r.iorOffset(rk, k)
		var n int
		d, err := r.call(rank, "read", ph, func() error {
			var err error
			n, err = f.ReadAt(p, off)
			if err == io.EOF && n == len(p) {
				err = nil
			}
			return err
		})
		lat = append(lat, d.Nanoseconds())
		if err == nil && (n != len(p) || !check(p, r.seed, int64(rk*iorWrites+k))) {
			r.fail(fmt.Errorf("readback block at offset %d (rank %d write %d): content mismatch", off, rk, k))
		}
	}
	r.out.readPhase = r.clk.Since(start)
	r.out.readBytes = iorBytes
	r.rlat[rank] = lat
	r.endPhase(ph)
}

// fanPhases is the fan-out rotation: each round the writer replaces the
// whole stripe in NBW with a round-tagged pattern, then every reader
// reads it back and checks the tag; a barrier ends the round. A final
// drain runs Fsync + ReleaseAll on every client.
func (r *run) fanPhases() {
	ctx := context.Background()
	start := r.clk.Now()
	ph := r.phase("rounds")
	wbuf := make([]byte, fanWriteSize)
	rbufs := make([][]byte, fanReaders)
	for i := range rbufs {
		rbufs[i] = make([]byte, fanWriteSize)
	}
	wlat := make([]int64, 0, fanRounds)
	for round := 0; round < fanRounds; round++ {
		fill(wbuf, r.seed, int64(round))
		d, _ := r.call(0, "write", ph, func() error {
			_, err := r.fs[0].WriteAtOpts(ctx, wbuf, 0, client.WriteOptions{Mode: dlm.NBW, LockWholeStripe: true})
			return err
		})
		wlat = append(wlat, d.Nanoseconds())
		grp := sim.NewGroup(r.clk)
		for i := 0; i < fanReaders; i++ {
			rank := 1 + i
			grp.Go(func() {
				var n int
				d, err := r.call(rank, "read", ph, func() error {
					var err error
					n, err = r.fs[rank].ReadAtContext(ctx, rbufs[i], 0)
					return err
				})
				r.rlat[rank] = append(r.rlat[rank], d.Nanoseconds())
				if err == nil && (n != fanWriteSize || !check(rbufs[i], r.seed, int64(round))) {
					r.fail(fmt.Errorf("reader %d round %d: tag mismatch", i, round))
				}
			})
		}
		grp.Wait()
		if done := round + 1; done%fanChunk == 0 && done < fanRounds {
			r.mark(fanChunk * (1 + fanReaders))
		}
	}
	r.lat[0] = wlat
	r.out.writePhase = r.clk.Since(start)
	r.out.readPhase = r.out.writePhase
	r.out.writeBytes = int64(fanRounds * fanWriteSize)
	r.out.readBytes = int64(fanRounds * fanReaders * fanWriteSize)
	r.out.ops = int64(fanRounds * (1 + fanReaders))
	r.out.reads = int64(fanRounds * fanReaders)
	r.endPhase(ph)
	r.drain()
	r.out.durable = r.clk.Since(start)
}

// phase opens a phase span (traced runs only) and returns its id.
func (r *run) phase(name string) int {
	if r.tr == nil {
		return 0
	}
	return r.tr.beginPhase(name, r.clk.Now())
}

func (r *run) endPhase(id int) {
	if r.tr != nil {
		r.tr.endPhase(id, r.clk.Now())
	}
}

// fill writes block id's verification pattern for seed into p: 8-byte
// word i holds mix(seed, id) + i·φ, so a stale, misplaced or torn block
// fails check.
func fill(p []byte, seed, id int64) {
	base := mix(seed, id)
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], base+uint64(i)*0x9e3779b97f4a7c15)
	}
}

// check reports whether p holds block id's pattern for seed.
func check(p []byte, seed, id int64) bool {
	base := mix(seed, id)
	for i := 0; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != base+uint64(i)*0x9e3779b97f4a7c15 {
			return false
		}
	}
	return true
}

// mix is splitmix64 over (seed, id).
func mix(seed, id int64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(id) + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
