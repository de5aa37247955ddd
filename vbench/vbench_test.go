package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestDeterministic is the benchmark's self-check. For each workload:
// two runs at one seed, one of them traced, produce identical
// simulated results (latencies, phase times, layer counters), so
// neither reruns nor tracing perturb the simulation; a second seed
// changes the timings but not the op and byte counts; and no run
// fails. It logs the simulated metrics of both seeds, the spread the
// regression bounds must cover.
func TestDeterministic(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, _, err := runOnce(sp, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := runOnce(sp, 1, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			c, _, err := runOnce(sp, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []simOut{a, b, c} {
				if o.failures != 0 {
					t.Fatalf("%d failed calls or mismatches: %s", o.failures, o.firstErr)
				}
			}
			if !sameSim(a, b) {
				t.Errorf("seed 1 ran twice (once traced) with different simulated results")
			}
			if sameSim(a, c) {
				t.Errorf("seeds 1 and 2 gave identical simulated results: the seed does not reach the simulation")
			}
			type counts struct{ ops, reads, attempts, writeBytes, readBytes, writes, readsAll int64 }
			count := func(o simOut) counts {
				return counts{o.ops, o.reads, o.attempts, o.writeBytes, o.readBytes, int64(len(o.writeLat)), int64(len(o.readLat))}
			}
			if count(a) != count(c) {
				t.Errorf("op and byte counts differ between seeds: %+v vs %+v", count(a), count(c))
			}
			ma, mc := simMetrics(a), simMetrics(c)
			for i, m := range ma {
				t.Logf("%-14s seed 1 %12.6g  seed 2 %12.6g %s (%+.2f%%)", m.name, m.value, mc[i].value, m.unit, 100*(mc[i].value-m.value)/m.value)
			}
		})
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "ccpfs/internal/pagecache.mergeBlocks", "ccpfs/internal/client.(*Client).collectStripe"}, "pagecache"},
		{[]string{"runtime.chansend1", "ccpfs/internal/transport/memnet.(*pipe).deliver"}, "memnet"},
		{[]string{"main.check", "main.(*run).fanPhases.func1", "ccpfs/internal/sim.(*Group).Go.func1"}, "vbench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "ccpfs/internal/pagecache.(*Cache).write", "runtime.gcAssistAlloc"}, "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "sched"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
	} {
		if got, _ := bucketOf(tc.frames); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// TestAttributeProfile decodes a real CPU profile.
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = mix(int64(x), int64(i))
		}
	}
	pprof.StopCPUProfile()
	b, funcs, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if b.total() == 0 || funcs.total() != b.total() {
		t.Fatalf("decoded %d module and %d function samples from a 300 ms busy loop (x=%d)", b.total(), funcs.total(), x)
	}
}

// TestWatchdog runs the benchmark in a child process with a budget no
// repetition can meet: the watchdog must dump the goroutine stacks,
// name the workload and seed, and exit with code 3 before any result.
func TestWatchdog(t *testing.T) {
	if os.Getenv("VBENCH_WEDGE_CHILD") == "1" {
		repBudget = time.Millisecond
		os.Exit(benchMain([]string{"--workload", "segmented-write", "--seed", "9", "--seconds", "1"}, os.Stdout, os.Stderr))
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWatchdog$")
	cmd.Env = append(os.Environ(), "VBENCH_WEDGE_CHILD=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("child exited with %v, want code 3; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "WEDGED: workload segmented-write seed 9") || !strings.Contains(stderr.String(), "goroutine ") {
		t.Errorf("stderr lacks the wedge report and stacks:\n%.2000s", stderr.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("a wedged run printed a result line:\n%s", stdout.String())
	}
}
