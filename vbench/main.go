// Command vbench is the repository's benchmark. It runs one named
// workload on a fresh seeded virtual clock (sim.NewVClock) over an
// in-process cluster on ccpfs.BenchHardware, drives it through the
// public client.File API, checks every byte it reads back, and prints
// every metric by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	vbench --workload strided-write --seed 1 --seconds 10 --trace 0
//
// Simulated metrics (write_*, read_*, durable_s and every layer
// counter) are a pure function of the workload and seed. Within one
// invocation the seeded runs repeat until --seconds of real time have
// passed; every repetition must reproduce its seed's first run
// exactly, and the cost metrics (cpu_us_per_op, alloc_kb_per_op,
// setup_s) are medians over the repetitions' timed intervals. With
// --trace 1 the repetitions alternate traced and untraced, and the
// per-layer metrics are printed instead of the end-to-end ones.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ccpfs"
)

// overrun bounds how far past --seconds an invocation may run: the run
// loop starts no repetition after --seconds, and the watchdog kills a
// wedged one before --seconds + overrun.
const overrun = 140 * time.Second

// repBudget is the real time one repetition (or one timed set-up) may
// take before the watchdog dumps the goroutine stacks and exits.
// TestWatchdog shrinks it.
var repBudget = 60 * time.Second

// An invocation times the set-up setupReps times, after setupWarmup
// untimed builds that let the heap and the runtime's caches grow.
const (
	setupWarmup = 5
	setupReps   = 25
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number. base, for a ratio, names the counts
// it was computed from.
type metric struct {
	name, unit string
	value      float64
	base       string
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("vbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: strided-write, segmented-write or fanout-read")
	seed := fs.Int64("seed", 1, "seed of the virtual clock and the data patterns")
	seconds := fs.Int("seconds", 10, "real seconds to keep repeating the seeded run")
	traceFlag := fs.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := lookupSpec(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "vbench: need --workload strided-write|segmented-write|fanout-read, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	if procs, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > ncpu {
		fmt.Fprintf(stderr, "vbench: GOMAXPROCS=%d exceeds the %d CPUs available; refusing to run\n", procs, ncpu)
		return 2
	}
	traced := *traceFlag == 1
	traceOut := filepath.Join(".bench_build", "vbench", fmt.Sprintf("trace-%s-%d.json", sp.name, *seed))

	env := map[string]any{
		"workload": sp.name, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
		"go": runtime.Version(), "commit": commit(),
	}
	envJSON, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	wd := &watchdog{workload: sp.name, seed: *seed, budget: repBudget, stop: start.Add(time.Duration(*seconds)*time.Second + overrun), out: stderr}
	diskCapacity := float64(sp.servers()) * ccpfs.BenchHardware().DiskBandwidth

	var (
		subs              = make([]simOut, sp.subRuns)
		pk                peaks
		spans             *tracer
		plain, tracedUse  []usage
		attempted, failed int64
		cpu, cpuFuncs     = cpuBuckets{}, cpuBuckets{}
		notes             []string
		reps              int
	)
	// setup_s is the median of setupReps builds after setupWarmup
	// untimed ones, each started from a settled process.
	idle := runtime.NumGoroutine()
	var setups []usage
	for i := 0; i < setupWarmup+setupReps; i++ {
		settle(idle)
		wd.arm()
		w, err := timeSetup(sp, sp.subSeed(*seed, 0))
		wd.disarm()
		if err != nil {
			fmt.Fprintf(stderr, "vbench: %s seed %d: %v\n", sp.name, *seed, err)
			return 1
		}
		if i >= setupWarmup {
			setups = append(setups, w)
		}
	}

	// The first subRuns repetitions run each sub-seed once and define
	// the simulated results; later ones cycle through the sub-seeds
	// again, each checked against its first run. A traced invocation
	// traces the defining repetitions (the peaks and spans come from
	// them) and then alternates untraced and traced. The first
	// repetition grows the heap from nothing and is never timed.
	deadline := start.Add(time.Duration(*seconds) * time.Second)
	more := func(rep int) bool {
		switch {
		case rep < sp.subRuns, len(plain) == 0, traced && len(tracedUse) == 0:
			return true
		}
		return time.Now().Before(deadline)
	}
	for rep := 0; more(rep); rep++ {
		reps++
		j := rep % sp.subRuns
		var tr *tracer
		if traced && (rep < sp.subRuns || (rep-sp.subRuns)%2 == 1) {
			tr = newTracer()
		}
		settle(idle)
		wd.arm()
		out, ws, err := runOnce(sp, sp.subSeed(*seed, j), tr)
		wd.disarm()
		if err != nil {
			fmt.Fprintf(stderr, "vbench: %s seed %d: %v\n", sp.name, *seed, err)
			return 1
		}
		attempted += out.attempts
		failed += out.failures
		if out.firstErr != "" {
			notes = append(notes, out.firstErr)
		}
		if rep < sp.subRuns {
			subs[j] = out
		} else if !sameSim(subs[j], out) {
			failed++
			notes = append(notes, fmt.Sprintf("repetition %d (sub-seed %d) diverged from the first run of its seed: the simulation is not deterministic", rep, sp.subSeed(*seed, j)))
		}
		if tr == nil {
			if rep > 0 {
				plain = append(plain, ws...)
			}
			continue
		}
		if rep > 0 {
			tracedUse = append(tracedUse, ws...)
		}
		cpu.add(tr.cpu)
		cpuFuncs.add(tr.cpuFuncs)
		if rep < sp.subRuns {
			pk.fold(tr.peaks)
		}
		if spans == nil {
			spans = tr
		}
	}
	pooled := pool(subs)

	e2e := endToEnd(pooled, plain, setups)
	fmt.Fprintf(stdout, "\n%s seed %d: simulated metrics pool %d runs (sub-seeds %d..%d); %d repetitions in %.1f s real gave %d untraced and %d traced timed intervals\n",
		sp.name, *seed, sp.subRuns, sp.subSeed(*seed, 0), sp.subSeed(*seed, sp.subRuns-1),
		reps, time.Since(start).Seconds(), len(plain), len(tracedUse))
	printTable(stdout, "end-to-end", e2e)
	extra := ungated(pooled, plain, setups)
	printTable(stdout, "reported, not gated (README.md)", extra)
	failRatio := ratio(float64(failed), float64(attempted))
	fmt.Fprintf(stdout, "  %-34s %14.6g %-8s %s\n", "op_fail_ratio", failRatio, "ratio", fmtBase("failed", failed, "attempted", attempted))

	report := e2e
	if traced {
		layers := append(extra, layerMetrics(pooled, pk, diskCapacity, readSize(sp))...)
		layers = append(layers, cpuMetrics(cpu)...)
		cpuOf := func(w usage) float64 { return us(w.cpu) }
		with, without := median(perOp(tracedUse, cpuOf)), median(perOp(plain, cpuOf))
		layers = append(layers, metric{name: "trace.overhead_frac", unit: "ratio", value: ratio(with-without, without),
			base: fmt.Sprintf("traced vs untraced median cpu_us_per_op, %d vs %d intervals", len(tracedUse), len(plain))})
		printTable(stdout, "per-layer", layers)
		printCounters(stdout, pooled.layers)
		printCPU(stdout, cpu, cpuFuncs)
		if err := spans.writeChrome(traceOut); err != nil {
			fmt.Fprintf(stderr, "vbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nspans of sub-seed %d: %d calls, %d phases → %s\n", sp.subSeed(*seed, 0), len(spans.spans), len(spans.phases), traceOut)
		report = layers
	}
	for _, n := range notes[:min(len(notes), 5)] {
		fmt.Fprintf(stdout, "FAILURE: %s\n", n)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range report {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "vbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

// endToEnd computes the gated end-to-end metrics: simulated ones from
// the pooled runs, real-time ones as medians over the timed intervals of
// the untraced repetitions (one per write-workload run, one per
// fanChunk rounds of fanout-read). The real-time costs are CPU time,
// not wall time: on a VM whose hypervisor steals CPU in bursts (about
// 17% of this box's CPU time), wall-clock medians swing ±25% between
// invocations, while the kernel leaves stolen time out of a process's
// CPU time.
func endToEnd(o simOut, walls, setups []usage) []metric {
	return append(simMetrics(o),
		metric{"cpu_us_per_op", "us", median(perOp(walls, func(w usage) float64 { return us(w.cpu) })),
			"process CPU, " + intervals(walls)},
		metric{"alloc_kb_per_op", "KiB", median(perOp(walls, func(w usage) float64 { return float64(w.alloc) / 1024 })),
			intervals(walls)},
		metric{"peak_rss_mb", "MiB", peakRSS(), "process peak resident set"},
		metric{"setup_s", "s", median(perOp(setups, func(w usage) float64 { return w.cpu.Seconds() })),
			fmt.Sprintf("process CPU, median of %d builds of cluster, clients and open files", len(setups))},
	)
}

// ungated are reported beside the end-to-end metrics but not gated
// (README.md): the median write latency and the wall-clock costs.
func ungated(o simOut, walls, setups []usage) []metric {
	return []metric{
		{"write_p50_us", "us", pct(o.writeLat, 0.50) / 1e3, fmt.Sprintf("n=%d simulated", len(o.writeLat))},
		{"wall_us_per_op", "us", median(perOp(walls, func(w usage) float64 { return us(w.wall) })),
			"real time, " + intervals(walls)},
		{"setup_wall_s", "s", median(perOp(setups, func(w usage) float64 { return w.wall.Seconds() })),
			fmt.Sprintf("real time, median of %d builds", len(setups))},
	}
}

func intervals(ws []usage) string {
	if len(ws) == 0 {
		return "no timed intervals"
	}
	return fmt.Sprintf("median of %d intervals of ~%d calls", len(ws), ws[0].ops)
}

// perOp maps each interval to f(interval) per client call.
func perOp(ws []usage, f func(usage) float64) []float64 {
	var v []float64
	for _, w := range ws {
		v = append(v, f(w)/float64(w.ops))
	}
	return v
}

// simMetrics are the end-to-end metrics measured on the virtual clock.
func simMetrics(o simOut) []metric {
	mib := float64(1 << 20)
	wn, rn := len(o.writeLat), len(o.readLat)
	readNote := "simulated, the fresh-client readback"
	if o.reads > 0 {
		readNote = "simulated, over the rounds"
	}
	return []metric{
		{"write_bw_MBps", "MiB/s", float64(o.writeBytes) / mib / o.writePhase.Seconds(),
			fmt.Sprintf("%d B in %v simulated", o.writeBytes, o.writePhase)},
		{"write_mean_us", "us", mean(o.writeLat) / 1e3, fmt.Sprintf("n=%d simulated", wn)},
		{"write_p99_us", "us", pct(o.writeLat, 0.99) / 1e3, fmt.Sprintf("n=%d simulated", wn)},
		{"durable_s", "s", o.durable.Seconds() / float64(o.runs), "simulated, first write → last Fsync+ReleaseAll, mean of runs"},
		{"read_bw_MBps", "MiB/s", float64(o.readBytes) / mib / o.readPhase.Seconds(),
			fmt.Sprintf("%d B in %v %s", o.readBytes, o.readPhase, readNote)},
		{"read_p50_us", "us", pct(o.readLat, 0.50) / 1e3, fmt.Sprintf("n=%d %s", rn, readNote)},
		{"read_p99_us", "us", pct(o.readLat, 0.99) / 1e3, fmt.Sprintf("n=%d %s", rn, readNote)},
	}
}

// cpuFracs lists the modules reported as cpu.<module>_frac; every other
// bucket of the CPU table is summed into cpu.other_frac.
var cpuFracs = []string{"pagecache", "dlm", "rpc", "wire", "memnet", "dataserver", "extcache", "sim", "client", "gc", "sched"}

func cpuMetrics(cpu cpuBuckets) []metric {
	total := cpu.total()
	base := fmt.Sprintf("of %d samples", total)
	var ms []metric
	var named int64
	for _, m := range cpuFracs {
		named += cpu[m]
		ms = append(ms, metric{"cpu." + m + "_frac", "ratio", ratio(float64(cpu[m]), float64(total)), fmt.Sprintf("%d %s", cpu[m], base)})
	}
	ms = append(ms, metric{"cpu.other_frac", "ratio", ratio(float64(total-named), float64(total)), fmt.Sprintf("%d %s", total-named, base)})
	return ms
}

func readSize(sp spec) int64 {
	if sp.fan {
		return fanWriteSize
	}
	return iorWriteSize
}

// sameSim reports whether two runs' simulated results are identical.
func sameSim(a, b simOut) bool { return reflect.DeepEqual(a, b) }

// pct is the nearest-rank q-quantile of v.
func pct(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func mean(v []int64) float64 {
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return ratio(sum, float64(len(v)))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func fmtBase(a string, av int64, b string, bv int64) string {
	if b == "" {
		return fmt.Sprintf("%s=%d", a, av)
	}
	return fmt.Sprintf("%s=%d / %s=%d", a, av, b, bv)
}

func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "\n%s metrics:\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.base)
	}
}

// printCounters prints the raw counter deltas the layer metrics are
// computed from.
func printCounters(w io.Writer, l layerDelta) {
	d := l.dlm
	fmt.Fprintf(w, "\ncounter deltas over the measured phases:\n")
	fmt.Fprintf(w, "  dlm: grants=%d early=%d releases=%d revocations=%d batches=%d early_revocations=%d upgrades=%d downgrades=%d lock_ops=%d\n",
		d.Grants, d.EarlyGrants, d.Releases, d.Revocations, d.RevokeBatches, d.EarlyRevocations, d.Upgrades, d.Downgrades, d.LockOps)
	fmt.Fprintf(w, "  dlm fan-out: handoffs=%d handoff_acks=%d reclaims=%d fan_runs=%d fan_grants=%d broadcasts=%d gathers=%d lease_grants=%d\n",
		d.Handoffs, d.HandoffAcks, d.HandoffReclaims, d.FanRuns, d.FanGrants, d.Broadcasts, d.Gathers, d.LeaseGrants)
	fmt.Fprintf(w, "  dlm waits (simulated): grant n=%d sum=%v, revocation n=%d sum=%v, cancel n=%d sum=%v\n",
		l.grantWait.Count, time.Duration(l.grantWait.Sum), l.revocationWait.Count, time.Duration(l.revocationWait.Sum), l.cancel.Count, time.Duration(l.cancel.Sum))
	fmt.Fprintf(w, "  client: lock=%v io=%v read_hits=%d read_misses=%d read_rpcs=%d lock_cache_hits=%d lock_cache_misses=%d\n",
		time.Duration(l.lockNs), time.Duration(l.ioNs), l.pcHits, l.pcMisses, l.readRPCs, l.lcHits, l.lcMisses)
	fmt.Fprintf(w, "  flush: rpcs=%d rpc_sum=%v groups=%d group_sum=%v\n",
		l.flushRPC.Count, time.Duration(l.flushRPC.Sum), l.flushGroup.Count, time.Duration(l.flushGroup.Sum))
	fmt.Fprintf(w, "  dataserver: flushed_bytes=%d discarded_bytes=%d extcache_inserts=%d\n", l.flushed, l.discarded, l.extInserts)
	var calls []string
	for _, m := range rpcMethodsSeen(l) {
		calls = append(calls, m+"="+strconv.FormatInt(l.rpcCalls[m], 10))
	}
	fmt.Fprintf(w, "  rpc: bytes_out=%d calls: %s\n", l.rpcBytesOut, strings.Join(calls, " "))
}

func printCPU(w io.Writer, cpu, funcs cpuBuckets) {
	total := cpu.total()
	fmt.Fprintf(w, "\nCPU of the measured phases by module (traced runs, %d samples):\n", total)
	for _, b := range cpu.sorted() {
		fmt.Fprintf(w, "  %-12s %8d %6.1f%%\n", b, cpu[b], 100*ratio(float64(cpu[b]), float64(total)))
	}
	fmt.Fprintf(w, "top deciding functions:\n")
	names := funcs.sorted()
	for _, f := range names[:min(len(names), 12)] {
		fmt.Fprintf(w, "  %-60s %8d %6.1f%%\n", f, funcs[f], 100*ratio(float64(funcs[f]), float64(total)))
	}
}

// settle waits (up to 100 ms) for the goroutines a finished virtual run
// released to real time to exit, then collects the garbage, so that no
// timed interval pays for the previous run's teardown.
func settle(idle int) {
	for t := 0; t < 100 && runtime.NumGoroutine() > idle; t++ {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commit is the source revision, passed in by run.sh (the benchmark
// may run from a checkout that is not a git repository).
func commit() string {
	if c := os.Getenv("VBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// watchdog bounds each repetition's real time. A virtual run that
// blocks outside the clock's mediation (a raw sync.Mutex held across a
// clock wait) hangs without the stall detector firing; the watchdog
// turns that into a goroutine dump and a non-zero exit naming the
// workload and seed.
type watchdog struct {
	workload string
	seed     int64
	budget   time.Duration
	stop     time.Time
	out      io.Writer
	t        *time.Timer
}

func (w *watchdog) arm() {
	d := min(w.budget, time.Until(w.stop))
	w.t = time.AfterFunc(d, func() {
		fmt.Fprintf(w.out, "vbench: WEDGED: workload %s seed %d: a repetition exceeded its %v real-time budget; goroutine stacks follow\n", w.workload, w.seed, d)
		pprof.Lookup("goroutine").WriteTo(w.out, 2)
		os.Exit(3)
	})
}

func (w *watchdog) disarm() { w.t.Stop() }
