// Command seqbench runs the SeqDLM/ccPFS experiment suite and prints
// every table and figure series of the paper's evaluation.
//
// Usage:
//
//	seqbench                 # run every experiment at the default scale
//	seqbench -exp fig20      # run one experiment
//	seqbench -list           # list experiment IDs
//	seqbench -scale 2        # halve simulated device speeds (slower,
//	                         # sharper contention shapes)
//
// Experiment IDs: fig4, fig5, model, fig17, fig18, fig19a, fig19b,
// table3, fig20, fig21, fig23, fig24, ablation (fig22 and fig25 are the
// time columns of fig21 and fig24), pingpong — the producer-consumer
// exchange pattern with and without client-to-client lock handoff —
// readfan — the write-then-fan-out rotation with and without batched
// shared-mode grants and peer-to-peer read-lease propagation — and
// partition — the lock-space partitioning scaling curve (not in the
// paper; -lock-servers picks the server counts).
//
// -benchjson FILE runs the parallel hot-path benchmarks of
// internal/perfbench instead of the experiment suite and writes the
// results to FILE (BENCH_dlm.json by convention); -benchbaseline FILE
// folds per-benchmark baseline numbers and speedups into the report.
// -mutexprofile FILE and -blockprofile FILE capture pprof contention
// profiles covering the whole benchmark run (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ccpfs"
	"ccpfs/internal/perfbench"
)

type experiment struct {
	id   string
	desc string
	run  func(ccpfs.Hardware) (*ccpfs.Experiment, error)
}

func suite() []experiment {
	return []experiment{
		{"fig4", "IO pattern gap under a traditional DLM (motivation)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig4()
			cfg.Hardware = hw
			return ccpfs.RunFig4(cfg)
		}},
		{"fig5", "bandwidth vs data flushing cost (motivation)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig5()
			cfg.Hardware = hw
			return ccpfs.RunFig5(cfg)
		}},
		{"model", "analytic bottleneck model, Table I / Eq. (1)-(2)", func(ccpfs.Hardware) (*ccpfs.Experiment, error) {
			return ccpfs.RunModel(), nil
		}},
		{"fig17", "sequential conflicting writes: time breakdown", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig17()
			cfg.Hardware = hw
			return ccpfs.RunFig17(cfg)
		}},
		{"fig18", "parallel throughput ± early revocation + lock ratio", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig18()
			cfg.Hardware = hw
			return ccpfs.RunFig18(cfg)
		}},
		{"fig19a", "lock upgrading: interleaved reads/writes", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig19a()
			cfg.Hardware = hw
			return ccpfs.RunFig19a(cfg)
		}},
		{"fig19b", "lock downgrading: two-stripe spanning writes", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig19b()
			cfg.Hardware = hw
			return ccpfs.RunFig19b(cfg)
		}},
		{"table3", "IOR N-1 segmented, low contention", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig20()
			cfg.Hardware = hw
			return ccpfs.RunTable3(cfg)
		}},
		{"fig20", "IOR N-1 strided on one stripe (+ fig20b PIO split)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig20()
			cfg.Hardware = hw
			return ccpfs.RunFig20(cfg)
		}},
		{"fig21", "N-1 strided on 4/8 stripes (+ fig22 times)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig21()
			cfg.Hardware = hw
			return ccpfs.RunFig21(cfg)
		}},
		{"fig23", "Tile-IO: SeqDLM vs DLM-datatype", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig23()
			cfg.Hardware = hw
			return ccpfs.RunFig23(cfg)
		}},
		{"fig24", "VPIC-IO: ccPFS-SeqDLM vs ccPFS-Lustre (+ fig25 times)", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultFig24()
			cfg.Hardware = hw
			return ccpfs.RunFig24(cfg)
		}},
		{"ablation", "SeqDLM mechanisms disabled one at a time", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultAblation()
			cfg.Hardware = hw
			cfg.Virtual = virtualOpts()
			return ccpfs.RunAblation(cfg)
		}},
		{"pingpong", "producer-consumer exchanges: server revoke path vs handoff", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultPingPong()
			cfg.Hardware = hw
			cfg.Virtual = virtualOpts()
			return ccpfs.RunPingPong(cfg)
		}},
		{"readfan", "write-then-fan-out rotation: server grants vs batched fan-out + lease propagation", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultReaderFan()
			cfg.Hardware = hw
			cfg.Virtual = virtualOpts()
			if widths := readerCounts(); widths != nil {
				cfg.Readers = widths
			}
			return ccpfs.RunReaderFan(cfg)
		}},
		{"partition", "lock-space partitioning: grant throughput vs lock servers", func(hw ccpfs.Hardware) (*ccpfs.Experiment, error) {
			cfg := ccpfs.DefaultPartitionScale()
			cfg.Hardware = hw
			cfg.Virtual = virtualOpts()
			if counts := lockServerCounts(); counts != nil {
				cfg.Servers = counts
			}
			return ccpfs.RunPartitionScale(cfg)
		}},
	}
}

// lockServerCounts parses the -lock-servers flag into the partition
// experiment's server-count list; nil keeps the default curve.
func lockServerCounts() []int {
	if *lockServersFlag == "" {
		return nil
	}
	var counts []int
	for _, part := range strings.Split(*lockServersFlag, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad -lock-servers element %q\n", part)
			os.Exit(1)
		}
		counts = append(counts, n)
	}
	return counts
}

var lockServersFlag = flag.String("lock-servers", "",
	"comma-separated lock-server counts for the partition experiment (e.g. 1,2,4,8; default 1,2,4)")

var readersFlag = flag.String("readers", "",
	"comma-separated fan-out widths for the readfan experiment (e.g. 64,256,1024; default 2,4,8)")

var virtualFlag = flag.Bool("virtual", false,
	"run supporting experiments (ablation, pingpong, readfan, partition) in deterministic discrete-event mode: simulated delays advance virtual time instead of sleeping, so large client counts finish in seconds and the same -seed reproduces the numbers exactly")

var seedFlag = flag.Int64("seed", 1, "virtual-mode random seed (with -virtual)")

// virtualOpts folds the -virtual/-seed flags into experiment configs.
func virtualOpts() ccpfs.VirtualOpts {
	return ccpfs.VirtualOpts{Enabled: *virtualFlag, Seed: *seedFlag}
}

// readerCounts parses -readers into the readfan experiment's width
// list; nil keeps the default curve.
func readerCounts() []int {
	if *readersFlag == "" {
		return nil
	}
	var widths []int
	for _, part := range strings.Split(*readersFlag, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad -readers element %q\n", part)
			os.Exit(1)
		}
		widths = append(widths, n)
	}
	return widths
}

func main() {
	expFlag := flag.String("exp", "", "run a single experiment (see -list)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	scale := flag.Float64("scale", 1, "slow simulated devices by this factor")
	csv := flag.Bool("csv", false, "emit CSV rows instead of tables")
	benchJSON := flag.String("benchjson", "", "run the parallel hot-path benchmarks and write results to this file")
	benchBaseline := flag.String("benchbaseline", "", "baseline results file to compute speedups against (with -benchjson)")
	benchProcs := flag.Int("benchprocs", 0, "GOMAXPROCS for -benchjson (0 = 8 or NumCPU, whichever is larger)")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile of the -benchjson run to this file")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile of the -benchjson run to this file")
	flag.Parse()

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *benchBaseline, *benchProcs, *mutexProfile, *blockProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	exps := suite()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.id, e.desc)
		}
		return
	}

	hw := ccpfs.BenchHardware()
	if *scale > 0 && *scale != 1 {
		hw.RTT = time.Duration(float64(hw.RTT) * *scale)
		hw.NetBandwidth /= *scale
		hw.DiskBandwidth /= *scale
		hw.ServerOPS /= *scale
	}

	ran := 0
	for _, e := range exps {
		if *expFlag != "" && !strings.EqualFold(*expFlag, e.id) {
			continue
		}
		ran++
		start := time.Now()
		exp, err := e.run(hw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(exp.CSV())
		} else {
			fmt.Printf("=== %s (%s, %.1fs)\n%s\n", exp.ID, exp.Title, time.Since(start).Seconds(), exp.Text)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *expFlag)
		os.Exit(1)
	}
}

// benchReport is the schema of the -benchjson output file.
type benchReport struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Warn       string       `json:"warn,omitempty"`
	Results    []benchEntry `json:"results"`
}

type benchEntry struct {
	perfbench.Result
	// BaselineNsPerOp and Speedup are present when -benchbaseline named
	// a file containing a result with the same benchmark name.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

// runBenchJSON runs the perfbench suite at the requested parallelism and
// writes the report, printing a human-readable summary to stdout. When
// mutexPath or blockPath is non-empty the corresponding runtime profiler
// covers the whole suite and the pprof profile is written alongside the
// report, so a contention regression spotted by the numbers can be
// pinned to a stack without re-running anything.
func runBenchJSON(outPath, baselinePath string, procs int, mutexPath, blockPath string) error {
	if procs <= 0 {
		procs = 8
		if n := runtime.NumCPU(); n > procs {
			procs = n
		}
	}
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
		defer runtime.SetMutexProfileFraction(0)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
		defer runtime.SetBlockProfileRate(0)
	}
	baseline := map[string]perfbench.Result{}
	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("benchbaseline: %w", err)
		}
		var rs []perfbench.Result
		if err := json.Unmarshal(data, &rs); err != nil {
			// Accept a previous -benchjson report as the baseline too.
			var rep benchReport
			if err2 := json.Unmarshal(data, &rep); err2 != nil {
				return fmt.Errorf("benchbaseline: %v", err)
			}
			for _, e := range rep.Results {
				rs = append(rs, e.Result)
			}
		}
		for _, r := range rs {
			baseline[r.Name] = r
		}
	}

	fmt.Printf("running %d parallel benchmarks at GOMAXPROCS=%d...\n", len(perfbench.All()), procs)
	results, env := perfbench.Run(procs)
	if env.Warn != "" {
		fmt.Fprintf(os.Stderr, "WARN: %s\n", env.Warn)
	}
	rep := benchReport{GOMAXPROCS: env.GOMAXPROCS, NumCPU: env.NumCPU, Warn: env.Warn}
	for _, r := range results {
		e := benchEntry{Result: r}
		if b, ok := baseline[r.Name]; ok && r.NsPerOp > 0 {
			e.BaselineNsPerOp = b.NsPerOp
			e.Speedup = b.NsPerOp / r.NsPerOp
			fmt.Printf("  %-34s %10.1f ns/op  (baseline %10.1f, %.2fx)\n", r.Name, r.NsPerOp, b.NsPerOp, e.Speedup)
		} else {
			fmt.Printf("  %-34s %10.1f ns/op\n", r.Name, r.NsPerOp)
		}
		rep.Results = append(rep.Results, e)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if err := writeProfile("mutex", mutexPath); err != nil {
		return err
	}
	return writeProfile("block", blockPath)
}

// writeProfile dumps the named runtime profile in pprof format to path
// (no-op when path is empty).
func writeProfile(name, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		return fmt.Errorf("writing %s profile: %w", name, err)
	}
	fmt.Printf("wrote %s profile to %s\n", name, path)
	return nil
}
