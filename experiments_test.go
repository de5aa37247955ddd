package ccpfs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// These tests assert the *shape* of every reproduced figure: who wins
// and in roughly which direction, with deliberately loose margins so
// scheduling noise cannot flake them. The faithful magnitudes are
// reported by the benchmarks and recorded in EXPERIMENTS.md.

// skipShape skips performance-shape assertions in modes where the
// simulated timing ratios are meaningless.
func skipShape(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("shape test")
	}
	if raceEnabled {
		t.Skip("shape ratios are meaningless under the race detector's slowdown")
	}
}

// quickHW shrinks delays for shape tests, keeping the Table I ordering
// (flush ≫ RTT ≫ service time).
func quickHW() Hardware {
	hw := BenchHardware()
	hw.RTT = 40 * time.Microsecond
	hw.DiskBandwidth = 150e6
	hw.DiskLatency = 10 * time.Microsecond
	hw.ServerOPS = 100e3
	return hw
}

func TestShapeFig4PatternGap(t *testing.T) {
	skipShape(t)
	cfg := DefaultFig4()
	cfg.Hardware = quickHW()
	cfg.BytesPerClient = 1 << 20
	cfg.WriteSizes = []int64{64 << 10}
	exp, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	get := func(p string) float64 {
		r, ok := exp.Find(func(r Row) bool { return r.Pattern == p })
		if !ok {
			t.Fatalf("missing pattern %s", p)
		}
		return r.Bandwidth
	}
	nn, seg, str := get("N-N"), get("N-1 segmented"), get("N-1 strided")
	if seg < 2*str {
		t.Errorf("segmented (%.1f MB/s) should be well above strided (%.1f MB/s)", seg/1e6, str/1e6)
	}
	if nn < 2*str {
		t.Errorf("N-N (%.1f MB/s) should be well above strided (%.1f MB/s)", nn/1e6, str/1e6)
	}
}

func TestShapeFig5FlushReduction(t *testing.T) {
	skipShape(t)
	cfg := DefaultFig5()
	cfg.Hardware = quickHW()
	// Slow the disk well below the protocol-round ceiling so the flush
	// term is unambiguously the variable under test.
	cfg.Hardware.DiskBandwidth = 30e6
	cfg.BytesPerClient = 2 << 20
	exp, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	full := exp.Bandwidth("full flush", 0, 0)
	none := exp.Bandwidth("no flush (fakeWrite)", 0, 0)
	if none < 1.5*full {
		t.Errorf("removing flush gained only %.1fx; it should dominate", none/full)
	}
}

func TestShapeFig17Breakdown(t *testing.T) {
	skipShape(t)
	cfg := DefaultFig17()
	cfg.Hardware = quickHW()
	cfg.TotalWrites = 64
	cfg.WriteSizes = []int64{128 << 10}
	exp, err := RunFig17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	pw, _ := exp.Find(func(r Row) bool { return r.Variant == "PW" })
	nbw, _ := exp.Find(func(r Row) bool { return r.Variant == "NBW" })
	if pw.PIO <= nbw.PIO {
		t.Errorf("PW total (%v) should exceed NBW total (%v)", pw.PIO, nbw.PIO)
	}
	// For PW the conflict resolution dominates (paper: 67.9–69.3%) and
	// its cancel part dominates the resolution (paper: 66.5–95.7%).
	res := pw.Revocation + pw.Cancel
	if float64(res) < 0.4*float64(pw.PIO) {
		t.Errorf("PW resolution share = %.0f%%, want the dominant part",
			100*float64(res)/float64(pw.PIO))
	}
	if pw.Cancel < pw.Revocation {
		t.Errorf("PW cancel (%v) should dominate revocation (%v)", pw.Cancel, pw.Revocation)
	}
}

func TestShapeFig18Throughput(t *testing.T) {
	skipShape(t)
	cfg := DefaultFig18()
	cfg.Hardware = quickHW()
	cfg.WritesPerClient = 10
	cfg.WriteSizes = []int64{256 << 10}
	exp, err := RunFig18(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	get := func(v string) Row {
		r, ok := exp.Find(func(r Row) bool { return r.Variant == v })
		if !ok {
			t.Fatalf("missing variant %s", v)
		}
		return r
	}
	pw, nbwER := get("PW"), get("NBW")
	if nbwER.Throughput < 2*pw.Throughput {
		t.Errorf("NBW+ER (%.0f op/s) should be well above PW (%.0f op/s)",
			nbwER.Throughput, pw.Throughput)
	}
	// Fig. 18b: early grant cuts the locking share of IO time.
	if nbwER.LockRatio >= pw.LockRatio {
		t.Errorf("NBW lock ratio (%.2f) should be below PW's (%.2f)",
			nbwER.LockRatio, pw.LockRatio)
	}
}

func TestShapeFig19aUpgrading(t *testing.T) {
	skipShape(t)
	cfg := DefaultFig19a()
	cfg.Hardware = quickHW()
	cfg.Ops = 600
	exp, err := RunFig19a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	pw := exp.Bandwidth // silence linters; use Find for throughput
	_ = pw
	get := func(v string) float64 {
		r, _ := exp.Find(func(r Row) bool { return r.Variant == v })
		return r.Throughput
	}
	if get("NBW+U") < 2*get("NBW") {
		t.Errorf("upgrading should rescue NBW: NBW+U=%.0f NBW=%.0f", get("NBW+U"), get("NBW"))
	}
	if get("NBW+U") < 0.3*get("PW") {
		t.Errorf("NBW+U (%.0f) should approach PW (%.0f)", get("NBW+U"), get("PW"))
	}
}

func TestShapeFig19bDowngrading(t *testing.T) {
	skipShape(t)
	cfg := DefaultFig19b()
	cfg.Hardware = quickHW()
	cfg.WritesPerClient = 8
	cfg.WriteSizes = []int64{256 << 10}
	exp, err := RunFig19b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	pw := exp.Bandwidth("PW", 0, 0)
	bwd := exp.Bandwidth("BW+D", 0, 0)
	if bwd < 1.3*pw {
		t.Errorf("BW+D (%.1f MB/s) should beat PW (%.1f MB/s)", bwd/1e6, pw/1e6)
	}
}

func TestShapeTable3LowContention(t *testing.T) {
	skipShape(t)
	// This is the only two-sided ratio bound in the file, and PIO is real
	// wall time: when `go test ./...` runs sibling package binaries on a
	// small CI box, a burst of external load during one variant's run can
	// skew the cross-variant ratio by an order of magnitude. Retry the
	// whole experiment and accept any attempt with the expected shape.
	var last error
	for attempt := 0; attempt < 4; attempt++ {
		cfg := DefaultFig20()
		cfg.Hardware = quickHW()
		cfg.BytesPerClient = 1 << 20
		exp, err := RunTable3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", exp)
		seq := exp.Bandwidth("SeqDLM", 0, 0)
		basic := exp.Bandwidth("DLM-basic", 0, 0)
		lustre := exp.Bandwidth("DLM-Lustre", 0, 0)
		// Low contention: everyone within a small factor (paper: within 2%).
		last = nil
		for name, bw := range map[string]float64{"DLM-basic": basic, "DLM-Lustre": lustre} {
			ratio := seq / bw
			if ratio < 0.4 || ratio > 2.5 {
				last = fmt.Errorf("segmented low-contention gap SeqDLM/%s = %.2fx, want near 1", name, ratio)
			}
		}
		if last == nil {
			return
		}
	}
	t.Error(last)
}

func TestShapeFig20Strided(t *testing.T) {
	skipShape(t)
	cfg := DefaultFig20()
	cfg.Hardware = quickHW()
	cfg.BytesPerClient = 2 << 20
	cfg.WriteSizes = []int64{64 << 10}
	exp, err := RunFig20(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	seq := exp.Bandwidth("SeqDLM", 0, 0)
	basic := exp.Bandwidth("DLM-basic", 0, 0)
	if seq < 2*basic {
		t.Errorf("SeqDLM strided (%.1f MB/s) should be well above DLM-basic (%.1f MB/s)",
			seq/1e6, basic/1e6)
	}
	// Fig. 20b: SeqDLM's PIO share of total time is small, the
	// baselines' is large.
	seqRow, _ := exp.Find(func(r Row) bool { return r.Variant == "SeqDLM" })
	basicRow, _ := exp.Find(func(r Row) bool { return r.Variant == "DLM-basic" })
	seqShare := float64(seqRow.PIO) / float64(seqRow.PIO+seqRow.Flush)
	basicShare := float64(basicRow.PIO) / float64(basicRow.PIO+basicRow.Flush)
	if seqShare >= basicShare {
		t.Errorf("SeqDLM PIO share (%.0f%%) should be below DLM-basic's (%.0f%%)",
			seqShare*100, basicShare*100)
	}
}

func TestShapeFig21MultiStripe(t *testing.T) {
	skipShape(t)
	// PIO is real wall time, so sibling package binaries running beside
	// this one can compress the cross-variant gap below the margin (see
	// TestShapeTable3LowContention). Retry and accept any attempt with
	// the expected shape.
	var last error
	for attempt := 0; attempt < 4; attempt++ {
		cfg := DefaultFig21()
		cfg.Hardware = quickHW()
		cfg.Clients = 8
		cfg.WritesPerClient = 6
		cfg.WriteSizes = []int64{188032}
		cfg.StripeCounts = []uint32{4}
		exp, err := RunFig21(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", exp)
		seq := exp.Bandwidth("SeqDLM", 0, 4)
		lus := exp.Bandwidth("DLM-Lustre", 0, 4)
		last = nil
		if seq < 1.5*lus {
			last = fmt.Errorf("SeqDLM (%.1f MB/s) should beat DLM-Lustre (%.1f MB/s) on 4 stripes",
				seq/1e6, lus/1e6)
			continue
		}
		return
	}
	t.Error(last)
}

func TestShapeFig23TileIO(t *testing.T) {
	skipShape(t)
	cfg := DefaultFig23()
	cfg.Hardware = quickHW()
	cfg.TilesX, cfg.TilesY = 3, 2
	cfg.TileDim = 64
	cfg.StripeCounts = []uint32{1}
	exp, err := RunFig23(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	seq := exp.Bandwidth("SeqDLM", 0, 1)
	dt := exp.Bandwidth("DLM-datatype", 0, 1)
	if seq < 1.5*dt {
		t.Errorf("SeqDLM (%.1f MB/s) should beat DLM-datatype (%.1f MB/s) at 1 stripe",
			seq/1e6, dt/1e6)
	}
}

func TestShapeFig24VPIC(t *testing.T) {
	skipShape(t)
	cfg := DefaultFig24()
	cfg.Hardware = quickHW()
	cfg.ClientNodes = 4
	cfg.ProcsPerNode = 2
	cfg.Iterations = 2
	cfg.ParticleCounts = []int{16384}
	cfg.StripeCounts = []uint32{1}
	exp, err := RunFig24(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	s := exp.Bandwidth("ccPFS-S", 0, 1)
	l := exp.Bandwidth("ccPFS-L", 0, 1)
	if s < 1.5*l {
		t.Errorf("ccPFS-S (%.1f MB/s) should beat ccPFS-L (%.1f MB/s) at 1 stripe",
			s/1e6, l/1e6)
	}
}

func TestPublicAPISmoke(t *testing.T) {
	c, err := NewCluster(Options{Servers: 2, Policy: SeqDLM(), Hardware: FastHardware()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("smoke")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Create("/smoke", 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello ccpfs"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	if _, err := f.ReadAt(buf, 0); err != nil && err.Error() != "EOF" {
		t.Fatal(err)
	}
	if string(buf) != "hello ccpfs" {
		t.Fatalf("read %q", buf)
	}
	res, err := RunIOR(c, IORConfig{
		Pattern: PatternN1Strided, Clients: 2, WriteSize: 4096,
		WritesPerClient: 4, StripeSize: 1 << 20, StripeCount: 1, Path: "/smoke-ior",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 8 {
		t.Fatalf("res = %+v", res)
	}
}

// TestShapeAblation runs on the virtual clock, so its ratios are exact
// for the seed instead of wall-clock samples.
func TestShapeAblation(t *testing.T) {
	cfg := DefaultAblation()
	cfg.Hardware = quickHW()
	cfg.WritesPerClient = 12
	cfg.Virtual = VirtualOpts{Enabled: true, Seed: 1}
	exp, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", exp)
	full := exp.Bandwidth("SeqDLM (full)", 0, 0)
	noEG := exp.Bandwidth("- early grant", 0, 0)
	if full < 1.5*noEG {
		t.Errorf("early grant should carry most of the win: full=%.1f no-EG=%.1f MB/s",
			full/1e6, noEG/1e6)
	}
	// Disabling conversion must not matter on a single-stripe write-only
	// workload (no mixed reads, no spanning writes).
	noConv := exp.Bandwidth("- conversion", 0, 0)
	if noConv < 0.3*full {
		t.Errorf("conversion should be irrelevant here: full=%.1f no-conv=%.1f MB/s",
			full/1e6, noConv/1e6)
	}
}

func TestExperimentCSV(t *testing.T) {
	exp := &Experiment{ID: "X", Rows: []Row{
		{Variant: "a", WriteSize: 65536, Stripes: 4, Bandwidth: 1e6,
			PIO: 2 * time.Second, Flush: time.Second, Throughput: 10, LockRatio: 0.5},
	}}
	csv := exp.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv = %q", csv)
	}
	if !strings.HasPrefix(lines[0], "experiment,variant") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], `X,"a",`) || !strings.Contains(lines[1], "65536,4,1000000") {
		t.Fatalf("row = %q", lines[1])
	}
}
