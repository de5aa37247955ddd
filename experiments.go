package ccpfs

import (
	"fmt"
	"strings"
	"time"

	"ccpfs/internal/analysis"
	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/metrics"
	"ccpfs/internal/sim"
	"ccpfs/internal/workload"
)

// This file implements one runner per table and figure of the paper's
// evaluation (§II-B motivation and §V). Absolute numbers cannot match
// the authors' 96-node InfiniBand/NVMe testbed — the cluster here is
// in-process with simulated devices — so each experiment reproduces the
// *shape*: which DLM wins, by roughly what factor, and how the gap moves
// with write size and stripe count. Paper-scale parameters are recorded
// in the comments; the default configs are scaled down so the whole
// suite runs in minutes on one machine.

// Row is one data point of an experiment.
type Row struct {
	Variant    string
	Pattern    string
	WriteSize  int64
	Stripes    uint32
	Bandwidth  float64 // bytes/s over PIO time (the paper's headline)
	PIO        time.Duration
	Flush      time.Duration
	Throughput float64 // ops/s
	LockRatio  float64 // locking time / IO time on one client
	Revocation time.Duration
	Cancel     time.Duration
	Other      time.Duration
}

// Experiment is a completed run: rows plus a rendered table.
type Experiment struct {
	ID    string
	Title string
	Rows  []Row
	Text  string
}

// Find returns the first row matching the filter.
func (e *Experiment) Find(filter func(Row) bool) (Row, bool) {
	for _, r := range e.Rows {
		if filter(r) {
			return r, true
		}
	}
	return Row{}, false
}

// Bandwidth returns the PIO bandwidth of the row matching the keys
// (zero keys match anything).
func (e *Experiment) Bandwidth(variant string, size int64, stripes uint32) float64 {
	r, ok := e.Find(func(r Row) bool {
		return (variant == "" || r.Variant == variant) &&
			(size == 0 || r.WriteSize == size) &&
			(stripes == 0 || r.Stripes == stripes)
	})
	if !ok {
		return 0
	}
	return r.Bandwidth
}

func (e *Experiment) String() string {
	return fmt.Sprintf("%s — %s\n%s", e.ID, e.Title, e.Text)
}

// BenchHardware is the scaled testbed model the experiment suite runs
// on by default. It preserves the Table I ordering that drives every
// result: cache ≫ network ≫ disk, flush time ≫ RTT ≫ lock-server
// service time.
func BenchHardware() Hardware {
	return sim.Hardware{
		RTT:            40 * time.Microsecond,
		NetBandwidth:   1e9,
		DiskBandwidth:  25e6,
		DiskLatency:    20 * time.Microsecond,
		ServerOPS:      50e3,
		CacheBandwidth: 1e9,
	}
}

// VirtualOpts selects discrete-event mode for the experiments that
// support it (ablation, pingpong, readfan, partition). Each measured
// point then runs inside its own seeded virtual clock: simulated delays
// advance logical time instead of sleeping, so hundreds of clients
// finish in seconds of wall time, and the same seed reproduces the
// run — timings, SNs, stats — byte for byte.
type VirtualOpts struct {
	Enabled bool
	Seed    int64
}

// runPoint executes one measured point (cluster build + workload +
// teardown) on the wall clock, or inside a fresh virtual run seeded
// with vo.Seed. A fresh clock per point keeps points independent:
// variant A's event order can never leak into variant B's timeline.
func runPoint(vo VirtualOpts, hw Hardware, f func(hw Hardware) error) error {
	if !vo.Enabled {
		return f(hw)
	}
	v := sim.NewVClock(vo.Seed)
	hw.Clock = sim.Virtual(v)
	var err error
	v.Run(func() { err = f(hw) })
	return err
}

func newCluster(pol Policy, hw Hardware, servers int) (*Cluster, error) {
	return cluster.New(cluster.Options{
		Servers:  servers,
		Policy:   pol,
		Hardware: hw,
	})
}

func serversFor(stripes uint32) int {
	s := int(stripes)
	if s > 8 {
		s = 8
	}
	if s < 1 {
		s = 1
	}
	return s
}

// ---------------------------------------------------------------------
// Fig. 4 — motivation: the IO pattern gap on a traditional DLM.
// Paper: Lustre 2.10.8, 16 clients, 1 stripe, 1 GB/client, write sizes
// 16 KB–1 MB; N-N and N-1 segmented reach cache speed, N-1 strided
// collapses.

// Fig4Config parameterizes the pattern-gap experiment.
type Fig4Config struct {
	Hardware       Hardware
	Clients        int
	BytesPerClient int64
	WriteSizes     []int64
}

// DefaultFig4 returns the scaled-down configuration.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		Hardware:       BenchHardware(),
		Clients:        8,
		BytesPerClient: 3 << 20,
		WriteSizes:     []int64{16 << 10, 64 << 10, 256 << 10},
	}
}

// RunFig4 measures the three patterns under DLM-basic.
func RunFig4(cfg Fig4Config) (*Experiment, error) {
	exp := &Experiment{ID: "Fig4", Title: "IO pattern bandwidth gap under a traditional DLM"}
	tb := metrics.NewTable("pattern", "write size", "bandwidth (PIO)")
	for _, pat := range []workload.Pattern{workload.NN, workload.N1Segmented, workload.N1Strided} {
		for _, ws := range cfg.WriteSizes {
			c, err := newCluster(dlm.Basic(), cfg.Hardware, 1)
			if err != nil {
				return nil, err
			}
			res, err := workload.RunIOR(c, workload.IORConfig{
				Pattern:         pat,
				Clients:         cfg.Clients,
				WriteSize:       ws,
				WritesPerClient: int(cfg.BytesPerClient / ws),
				StripeSize:      1 << 20,
				StripeCount:     1,
			})
			c.Close()
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{
				Pattern:   pat.String(),
				WriteSize: ws,
				Bandwidth: res.BandwidthPIO(),
				PIO:       res.PIO,
				Flush:     res.Flush,
			})
			tb.Row(pat.String(), metrics.Size(ws), metrics.Bandwidth(res.BandwidthPIO()))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 5 — motivation: reducing data flushing time recovers bandwidth.
// Paper: Lustre with fakeWrite (no disk) and a first-page-only flush
// hack. Here the equivalent knobs are the simulated disk's bandwidth.

// Fig5Config parameterizes the flush-reduction experiment.
type Fig5Config struct {
	Hardware       Hardware
	Clients        int
	WriteSize      int64
	BytesPerClient int64
}

// DefaultFig5 returns the scaled-down configuration.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Hardware:       BenchHardware(),
		Clients:        8,
		WriteSize:      64 << 10,
		BytesPerClient: 1 << 20,
	}
}

// RunFig5 measures N-1 strided under DLM-basic with progressively
// cheaper data flushing.
func RunFig5(cfg Fig5Config) (*Experiment, error) {
	exp := &Experiment{ID: "Fig5", Title: "N-1 strided bandwidth as data flushing gets cheaper"}
	tb := metrics.NewTable("flush cost", "bandwidth (PIO)")
	variants := []struct {
		name string
		mod  func(Hardware) Hardware
	}{
		{"full flush", func(h Hardware) Hardware { return h }},
		{"1/16 flush (first-page hack)", func(h Hardware) Hardware {
			h.DiskBandwidth *= 16
			h.NetBandwidth *= 16
			return h
		}},
		{"no flush (fakeWrite)", func(h Hardware) Hardware {
			h.DiskBandwidth = 0
			h.DiskLatency = 0
			h.NetBandwidth = 0
			return h
		}},
	}
	for _, v := range variants {
		c, err := newCluster(dlm.Basic(), v.mod(cfg.Hardware), 1)
		if err != nil {
			return nil, err
		}
		res, err := workload.RunIOR(c, workload.IORConfig{
			Pattern:         workload.N1Strided,
			Clients:         cfg.Clients,
			WriteSize:       cfg.WriteSize,
			WritesPerClient: int(cfg.BytesPerClient / cfg.WriteSize),
			StripeSize:      1 << 20,
			StripeCount:     1,
		})
		c.Close()
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{
			Variant:   v.name,
			WriteSize: cfg.WriteSize,
			Bandwidth: res.BandwidthPIO(),
			PIO:       res.PIO,
			Flush:     res.Flush,
		})
		tb.Row(v.name, metrics.Bandwidth(res.BandwidthPIO()))
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// §II-C / Table I — the analytic bottleneck model.

// RunModel evaluates Equations (1)–(2) with the Table I parameters.
func RunModel() *Experiment {
	exp := &Experiment{ID: "TableI", Title: "Analytic model of lock conflict resolution (§II-C)"}
	tb := metrics.NewTable("D", "term ① (s/B)", "term ② (s/B)", "term ③ (s/B)", "bottleneck", "B_total", "w/o flush", "w/o flush+revoke")
	for _, d := range []float64{64e3, 256e3, 1e6} {
		p := analysis.TableI(16, d)
		t1, t2, t3 := p.Terms()
		tb.Row(metrics.Size(int64(d)),
			fmt.Sprintf("%.1e", t1), fmt.Sprintf("%.1e", t2), fmt.Sprintf("%.1e", t3),
			p.Bottleneck(),
			metrics.Bandwidth(p.BTotal()),
			metrics.Bandwidth(p.WithoutFlush()),
			metrics.Bandwidth(p.WithoutFlushAndRevocation()))
		exp.Rows = append(exp.Rows, Row{
			WriteSize: int64(d),
			Bandwidth: p.BTotal(),
			Variant:   p.Bottleneck(),
		})
	}
	exp.Text = tb.String()
	return exp
}

// ---------------------------------------------------------------------
// Fig. 17 — time breakdown of a totally conflicting sequential write
// sequence, PW vs NBW. Paper: 16 clients round-robin, 4,000 writes
// each, X = 16 KB–1 MB; for PW the conflict resolution is 67.9–69.3% of
// total time, dominated by the cancel (flush) part.

// Fig17Config parameterizes the breakdown experiment.
type Fig17Config struct {
	Hardware    Hardware
	Clients     int
	TotalWrites int
	WriteSizes  []int64
}

// DefaultFig17 returns the scaled-down configuration.
func DefaultFig17() Fig17Config {
	return Fig17Config{
		Hardware:    BenchHardware(),
		Clients:     8,
		TotalWrites: 96,
		WriteSizes:  []int64{16 << 10, 64 << 10, 256 << 10},
	}
}

// RunFig17 measures the ①/②/③ breakdown for PW and NBW.
func RunFig17(cfg Fig17Config) (*Experiment, error) {
	exp := &Experiment{ID: "Fig17", Title: "Sequential conflicting writes: time breakdown (PW vs NBW)"}
	tb := metrics.NewTable("mode", "write size", "total", "① revocation", "② cancel", "③ other", "resolution share")
	for _, mode := range []Mode{PW, NBW} {
		for _, ws := range cfg.WriteSizes {
			c, err := newCluster(dlm.SeqDLM(), cfg.Hardware, 1)
			if err != nil {
				return nil, err
			}
			_, bd, err := workload.RunSequential(c, workload.SequentialConfig{
				Clients:     cfg.Clients,
				Writes:      cfg.TotalWrites,
				WriteSize:   ws,
				StripeSize:  1 << 20,
				StripeCount: 1,
				Mode:        mode,
			})
			c.Close()
			if err != nil {
				return nil, err
			}
			share := 0.0
			if bd.Total > 0 {
				share = float64(bd.Revocation+bd.Cancel) / float64(bd.Total)
			}
			exp.Rows = append(exp.Rows, Row{
				Variant:    mode.String(),
				WriteSize:  ws,
				PIO:        bd.Total,
				Revocation: bd.Revocation,
				Cancel:     bd.Cancel,
				Other:      bd.Other,
			})
			tb.Row(mode, metrics.Size(ws), metrics.Seconds(bd.Total),
				metrics.Seconds(bd.Revocation), metrics.Seconds(bd.Cancel), metrics.Seconds(bd.Other),
				fmt.Sprintf("%.0f%%", share*100))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 18 — one-resource throughput under contention: NBW/PW with and
// without early revocation, plus the locking/IO ratio. Paper: 16
// clients × 4,000 writes; NBW+ER beats PW by 12.9×/40.2× at 64 KB/1 MB.

// Fig18Config parameterizes the throughput experiment.
type Fig18Config struct {
	Hardware        Hardware
	Clients         int
	WritesPerClient int
	WriteSizes      []int64
}

// DefaultFig18 returns the scaled-down configuration.
func DefaultFig18() Fig18Config {
	return Fig18Config{
		Hardware:        BenchHardware(),
		Clients:         8,
		WritesPerClient: 16,
		WriteSizes:      []int64{64 << 10, 256 << 10},
	}
}

// RunFig18 measures throughput (Fig. 18a) and the locking/IO ratio
// (Fig. 18b) for the four variants.
func RunFig18(cfg Fig18Config) (*Experiment, error) {
	exp := &Experiment{ID: "Fig18", Title: "Parallel conflicting writes: throughput and locking/IO ratio"}
	tb := metrics.NewTable("variant", "write size", "throughput (op/s)", "locking/IO ratio")
	variants := []struct {
		name string
		mode Mode
		er   bool
	}{
		{"PW", PW, true},
		{"PW w/o ER", PW, false},
		{"NBW", NBW, true},
		{"NBW w/o ER", NBW, false},
	}
	for _, v := range variants {
		for _, ws := range cfg.WriteSizes {
			pol := dlm.SeqDLM()
			pol.EarlyRevocation = v.er
			c, err := newCluster(pol, cfg.Hardware, 1)
			if err != nil {
				return nil, err
			}
			st, err := workload.RunParallel(c, workload.ParallelConfig{
				Clients:         cfg.Clients,
				WritesPerClient: cfg.WritesPerClient,
				WriteSize:       ws,
				StripeSize:      1 << 20,
				StripeCount:     1,
				Mode:            v.mode,
			})
			c.Close()
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{
				Variant:    v.name,
				WriteSize:  ws,
				Throughput: st.Throughput(),
				LockRatio:  st.LockRatio,
				PIO:        st.PIO,
				Flush:      st.Flush,
			})
			tb.Row(v.name, metrics.Size(ws), fmt.Sprintf("%.0f", st.Throughput()), fmt.Sprintf("%.2f", st.LockRatio))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 19a — lock upgrading: interleaved reads/writes from one client.
// Paper: 1,000 interleaved ops; NBW+U matches PW, NBW without
// conversion collapses under continuous self-conflicts.

// Fig19aConfig parameterizes the upgrading experiment.
type Fig19aConfig struct {
	Hardware Hardware
	Ops      int
	Size     int64
}

// DefaultFig19a returns the scaled-down configuration.
func DefaultFig19a() Fig19aConfig {
	return Fig19aConfig{Hardware: BenchHardware(), Ops: 1000, Size: 64 << 10}
}

// RunFig19a measures interleaved read/write throughput for PW, NBW
// without conversion, and NBW with upgrading.
func RunFig19a(cfg Fig19aConfig) (*Experiment, error) {
	exp := &Experiment{ID: "Fig19a", Title: "Lock upgrading: interleaved reads/writes from one client"}
	tb := metrics.NewTable("variant", "throughput (op/s)")
	variants := []struct {
		name string
		mode Mode
		conv bool
	}{
		{"PW", PW, true},
		{"NBW", NBW, false},
		{"NBW+U", NBW, true},
	}
	for _, v := range variants {
		pol := dlm.SeqDLM()
		pol.Conversion = v.conv
		c, err := newCluster(pol, cfg.Hardware, 1)
		if err != nil {
			return nil, err
		}
		res, err := workload.RunMixed(c, workload.MixedConfig{
			Ops:        cfg.Ops,
			Size:       cfg.Size,
			StripeSize: 1 << 20,
			WriteMode:  v.mode,
		})
		c.Close()
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{Variant: v.name, Throughput: res.Throughput(), PIO: res.PIO})
		tb.Row(v.name, fmt.Sprintf("%.0f", res.Throughput()))
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 19b — lock downgrading: every write spans two stripes. Paper:
// 16 clients; BW+D beats PW by 2.48×/9.40× at 64 KB/1 MB; BW−D ≈ PW.

// Fig19bConfig parameterizes the downgrading experiment.
type Fig19bConfig struct {
	Hardware        Hardware
	Clients         int
	WritesPerClient int
	WriteSizes      []int64
}

// DefaultFig19b returns the scaled-down configuration.
func DefaultFig19b() Fig19bConfig {
	return Fig19bConfig{
		Hardware:        BenchHardware(),
		Clients:         8,
		WritesPerClient: 12,
		WriteSizes:      []int64{64 << 10, 256 << 10},
	}
}

// RunFig19b measures spanning-write bandwidth for PW, BW without
// downgrading, and BW with downgrading.
func RunFig19b(cfg Fig19bConfig) (*Experiment, error) {
	exp := &Experiment{ID: "Fig19b", Title: "Lock downgrading: writes spanning two stripes"}
	tb := metrics.NewTable("variant", "write size", "bandwidth (PIO)")
	variants := []struct {
		name string
		mode Mode
		conv bool
	}{
		{"PW", PW, true},
		{"BW-D", BW, false},
		{"BW+D", BW, true},
	}
	for _, v := range variants {
		for _, ws := range cfg.WriteSizes {
			pol := dlm.SeqDLM()
			pol.Conversion = v.conv
			c, err := newCluster(pol, cfg.Hardware, 2)
			if err != nil {
				return nil, err
			}
			res, err := workload.RunSpan(c, workload.SpanConfig{
				Clients:         cfg.Clients,
				WritesPerClient: cfg.WritesPerClient,
				WriteSize:       ws,
				StripeSize:      1 << 20,
				Mode:            v.mode,
			})
			c.Close()
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{
				Variant:   v.name,
				WriteSize: ws,
				Bandwidth: res.BandwidthPIO(),
				PIO:       res.PIO,
				Flush:     res.Flush,
			})
			tb.Row(v.name, metrics.Size(ws), metrics.Bandwidth(res.BandwidthPIO()))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Table III + Fig. 20 — IOR on a single-striped file. Paper: 16
// clients, 2 GB/client. Table III: N-1 segmented at 64 KB, all DLMs
// within noise. Fig. 20: N-1 strided bandwidth vs write size, SeqDLM up
// to 18.1×; SeqDLM's PIO is ~5% of total vs up to 99% for baselines.

// Fig20Config parameterizes both the Table III and Fig. 20 runs.
type Fig20Config struct {
	Hardware       Hardware
	Clients        int
	BytesPerClient int64
	WriteSizes     []int64
}

// DefaultFig20 returns the scaled-down configuration.
func DefaultFig20() Fig20Config {
	return Fig20Config{
		Hardware:       BenchHardware(),
		Clients:        8,
		BytesPerClient: 1 << 20,
		WriteSizes:     []int64{64 << 10, 256 << 10},
	}
}

type namedPolicy struct {
	name string
	pol  Policy
}

func threeDLMs() []namedPolicy {
	return []namedPolicy{
		{"SeqDLM", dlm.SeqDLM()},
		{"DLM-basic", dlm.Basic()},
		{"DLM-Lustre", dlm.Lustre()},
	}
}

// RunTable3 measures IOR N-1 segmented at 64 KB on one stripe for the
// three DLMs: low contention, so everyone should be close.
func RunTable3(cfg Fig20Config) (*Experiment, error) {
	exp := &Experiment{ID: "Table3", Title: "IOR N-1 segmented, 1 stripe, 64 KB writes"}
	tb := metrics.NewTable("DLM", "bandwidth (PIO)", "total IO time")
	for _, np := range threeDLMs() {
		c, err := newCluster(np.pol, cfg.Hardware, 1)
		if err != nil {
			return nil, err
		}
		ws := int64(64 << 10)
		// Low contention needs enough volume per client to amortize the
		// initial lock redistribution (the paper writes 2 GB/client).
		res, err := workload.RunIOR(c, workload.IORConfig{
			Pattern:         workload.N1Segmented,
			Clients:         cfg.Clients,
			WriteSize:       ws,
			WritesPerClient: int(4 * cfg.BytesPerClient / ws),
			StripeSize:      1 << 20,
			StripeCount:     1,
		})
		c.Close()
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{
			Variant:   np.name,
			WriteSize: ws,
			Bandwidth: res.BandwidthPIO(),
			PIO:       res.PIO,
			Flush:     res.Flush,
		})
		tb.Row(np.name, metrics.Bandwidth(res.BandwidthPIO()), metrics.Seconds(res.Total()))
	}
	exp.Text = tb.String()
	return exp, nil
}

// RunFig20 measures IOR N-1 strided on one stripe across write sizes
// for the three DLMs, plus the SeqDLM N-1 segmented reference; rows
// carry the PIO/F split (Fig. 20b).
func RunFig20(cfg Fig20Config) (*Experiment, error) {
	exp := &Experiment{ID: "Fig20", Title: "IOR N-1 strided, 1 stripe: bandwidth and PIO/F split"}
	tb := metrics.NewTable("variant", "write size", "bandwidth (PIO)", "PIO", "F", "PIO share")
	type variant struct {
		name    string
		pol     Policy
		pattern workload.Pattern
	}
	variants := []variant{{"SeqDLM segmented (ref)", dlm.SeqDLM(), workload.N1Segmented}}
	for _, np := range threeDLMs() {
		variants = append(variants, variant{np.name, np.pol, workload.N1Strided})
	}
	for _, v := range variants {
		for _, ws := range cfg.WriteSizes {
			c, err := newCluster(v.pol, cfg.Hardware, 1)
			if err != nil {
				return nil, err
			}
			res, err := workload.RunIOR(c, workload.IORConfig{
				Pattern:         v.pattern,
				Clients:         cfg.Clients,
				WriteSize:       ws,
				WritesPerClient: int(cfg.BytesPerClient / ws),
				StripeSize:      1 << 20,
				StripeCount:     1,
			})
			c.Close()
			if err != nil {
				return nil, err
			}
			share := 0.0
			if res.Total() > 0 {
				share = float64(res.PIO) / float64(res.Total())
			}
			exp.Rows = append(exp.Rows, Row{
				Variant:   v.name,
				Pattern:   v.pattern.String(),
				WriteSize: ws,
				Bandwidth: res.BandwidthPIO(),
				PIO:       res.PIO,
				Flush:     res.Flush,
			})
			tb.Row(v.name, metrics.Size(ws), metrics.Bandwidth(res.BandwidthPIO()),
				metrics.Seconds(res.PIO), metrics.Seconds(res.Flush), fmt.Sprintf("%.0f%%", share*100))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 21/22 — N-1 strided on a multi-striped file with unaligned
// IO500-style write sizes, some writes spanning two stripes. Paper: 96
// clients, stripes 4 and 8, write sizes 47,008 / 188,032 / 752,128 B;
// SeqDLM beats DLM-Lustre by 3.6–10.3× (4 stripes) and 2.0–6.2× (8).

// Fig21Config parameterizes the multi-stripe experiment.
type Fig21Config struct {
	Hardware        Hardware
	Clients         int
	WritesPerClient int
	WriteSizes      []int64
	StripeCounts    []uint32
}

// DefaultFig21 returns the scaled-down configuration (write sizes kept
// byte-exact from IO500 so stripe-spanning writes still occur).
func DefaultFig21() Fig21Config {
	return Fig21Config{
		Hardware:        BenchHardware(),
		Clients:         16,
		WritesPerClient: 12,
		WriteSizes:      []int64{47008, 188032},
		StripeCounts:    []uint32{4, 8},
	}
}

// RunFig21 measures multi-stripe strided bandwidth (rows also carry the
// Fig. 22 PIO/F split).
func RunFig21(cfg Fig21Config) (*Experiment, error) {
	exp := &Experiment{ID: "Fig21", Title: "N-1 strided on a multi-striped file (unaligned, stripe-spanning)"}
	tb := metrics.NewTable("DLM", "stripes", "write size", "bandwidth (PIO)", "PIO", "F")
	for _, stripes := range cfg.StripeCounts {
		for _, np := range threeDLMs() {
			for _, ws := range cfg.WriteSizes {
				c, err := newCluster(np.pol, cfg.Hardware, serversFor(stripes))
				if err != nil {
					return nil, err
				}
				res, err := workload.RunIOR(c, workload.IORConfig{
					Pattern:         workload.N1Strided,
					Clients:         cfg.Clients,
					WriteSize:       ws,
					WritesPerClient: cfg.WritesPerClient,
					StripeSize:      1 << 20,
					StripeCount:     stripes,
				})
				c.Close()
				if err != nil {
					return nil, err
				}
				exp.Rows = append(exp.Rows, Row{
					Variant:   np.name,
					Stripes:   stripes,
					WriteSize: ws,
					Bandwidth: res.BandwidthPIO(),
					PIO:       res.PIO,
					Flush:     res.Flush,
				})
				tb.Row(np.name, stripes, metrics.Size(ws), metrics.Bandwidth(res.BandwidthPIO()),
					metrics.Seconds(res.PIO), metrics.Seconds(res.Flush))
			}
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 23 — Tile-IO: atomic non-contiguous writes, SeqDLM vs
// DLM-datatype. Paper: 96 clients, 8×12 tiles of 20,480² pixels with
// 100-pixel overlap; SeqDLM wins 51×→4.1× as stripes go 1→16.

// Fig23Config parameterizes the Tile-IO experiment.
type Fig23Config struct {
	Hardware       Hardware
	TilesX, TilesY int
	TileDim        int
	OverlapPx      int
	StripeCounts   []uint32
}

// DefaultFig23 returns the scaled-down configuration.
func DefaultFig23() Fig23Config {
	return Fig23Config{
		Hardware: BenchHardware(),
		TilesX:   4, TilesY: 3,
		TileDim:      96,
		OverlapPx:    8,
		StripeCounts: []uint32{1, 4, 16},
	}
}

// RunFig23 measures Tile-IO bandwidth and total time for both policies.
func RunFig23(cfg Fig23Config) (*Experiment, error) {
	exp := &Experiment{ID: "Fig23", Title: "Tile-IO atomic non-contiguous writes: SeqDLM vs DLM-datatype"}
	tb := metrics.NewTable("DLM", "stripes", "bandwidth (PIO)", "total time")
	pols := []namedPolicy{
		{"SeqDLM", dlm.SeqDLM()},
		{"DLM-datatype", dlm.Datatype()},
	}
	for _, stripes := range cfg.StripeCounts {
		for _, np := range pols {
			c, err := newCluster(np.pol, cfg.Hardware, serversFor(stripes))
			if err != nil {
				return nil, err
			}
			res, err := workload.RunTileIO(c, workload.TileConfig{
				TilesX:      cfg.TilesX,
				TilesY:      cfg.TilesY,
				TileDim:     cfg.TileDim,
				OverlapPx:   cfg.OverlapPx,
				ElementSize: 4,
				StripeSize:  64 << 10,
				StripeCount: stripes,
			})
			c.Close()
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{
				Variant:   np.name,
				Stripes:   stripes,
				Bandwidth: res.BandwidthPIO(),
				PIO:       res.PIO,
				Flush:     res.Flush,
			})
			tb.Row(np.name, stripes, metrics.Bandwidth(res.BandwidthPIO()), metrics.Seconds(res.Total()))
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Fig. 24/25 — VPIC-IO particle writes, ccPFS-SeqDLM vs ccPFS-Lustre.
// Paper: 1,280 processes on 80 nodes, 16 data servers, 320 GB total,
// stripes 1/4/16, write sizes 256 KB and 1 MB; SeqDLM wins 6.2×/34.8×
// at 1 stripe and 1.5×/8.8× at 16 stripes.

// Fig24Config parameterizes the VPIC experiment.
type Fig24Config struct {
	Hardware     Hardware
	ClientNodes  int
	ProcsPerNode int
	Iterations   int
	// ParticleCounts maps a label (write size) to particles/iteration.
	ParticleCounts []int
	StripeCounts   []uint32
}

// DefaultFig24 returns the scaled-down configuration: chunk sizes 64 KB
// and 256 KB stand in for the paper's 256 KB and 1 MB.
func DefaultFig24() Fig24Config {
	return Fig24Config{
		Hardware:       BenchHardware(),
		ClientNodes:    8,
		ProcsPerNode:   2,
		Iterations:     2,
		ParticleCounts: []int{16384, 65536}, // ×4 B = 64 KB, 256 KB writes
		StripeCounts:   []uint32{1, 4, 16},
	}
}

// RunFig24 measures VPIC-IO bandwidth (rows carry the Fig. 25 PIO/F
// split).
func RunFig24(cfg Fig24Config) (*Experiment, error) {
	exp := &Experiment{ID: "Fig24", Title: "VPIC-IO write bandwidth: ccPFS-SeqDLM vs ccPFS-DLM-Lustre"}
	tb := metrics.NewTable("DLM", "stripes", "write size", "bandwidth (PIO)", "PIO", "F")
	pols := []namedPolicy{
		{"ccPFS-S", dlm.SeqDLM()},
		{"ccPFS-L", dlm.Lustre()},
	}
	for _, particles := range cfg.ParticleCounts {
		ws := int64(particles) * 4
		for _, stripes := range cfg.StripeCounts {
			for _, np := range pols {
				c, err := newCluster(np.pol, cfg.Hardware, serversFor(stripes))
				if err != nil {
					return nil, err
				}
				res, err := workload.RunVPIC(c, workload.VPICConfig{
					ClientNodes:      cfg.ClientNodes,
					ProcsPerNode:     cfg.ProcsPerNode,
					ParticlesPerIter: particles,
					Iterations:       cfg.Iterations,
					Variables:        8,
					ElementSize:      4,
					StripeSize:       1 << 20,
					StripeCount:      stripes,
				})
				c.Close()
				if err != nil {
					return nil, err
				}
				exp.Rows = append(exp.Rows, Row{
					Variant:   np.name,
					Stripes:   stripes,
					WriteSize: ws,
					Bandwidth: res.BandwidthPIO(),
					PIO:       res.PIO,
					Flush:     res.Flush,
				})
				tb.Row(np.name, stripes, metrics.Size(ws), metrics.Bandwidth(res.BandwidthPIO()),
					metrics.Seconds(res.PIO), metrics.Seconds(res.Flush))
			}
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Ablation — not a paper figure, but the decomposition DESIGN.md calls
// for: the N-1 strided workload of Fig. 20 with each SeqDLM mechanism
// disabled in turn, bounded below by DLM-basic. Early grant should carry
// most of the win; early revocation and conversion are incremental.

// AblationConfig parameterizes the ablation sweep.
type AblationConfig struct {
	Hardware        Hardware
	Clients         int
	WriteSize       int64
	WritesPerClient int
	// Virtual runs each variant in discrete-event mode.
	Virtual VirtualOpts
}

// DefaultAblation returns the scaled-down configuration.
func DefaultAblation() AblationConfig {
	return AblationConfig{
		Hardware:        BenchHardware(),
		Clients:         8,
		WriteSize:       64 << 10,
		WritesPerClient: 16,
	}
}

// RunAblation measures strided bandwidth with individual SeqDLM
// mechanisms disabled.
func RunAblation(cfg AblationConfig) (*Experiment, error) {
	exp := &Experiment{ID: "Ablation", Title: "SeqDLM mechanisms disabled one at a time (N-1 strided)"}
	tb := metrics.NewTable("variant", "bandwidth (PIO)", "early grants", "early revocations", "conversions")
	variants := []struct {
		name string
		pol  Policy
	}{
		{"SeqDLM (full)", dlm.SeqDLM()},
		{"- early grant", func() Policy { p := dlm.SeqDLM(); p.EarlyGrant = false; return p }()},
		{"- early revocation", func() Policy { p := dlm.SeqDLM(); p.EarlyRevocation = false; return p }()},
		{"- conversion", func() Policy { p := dlm.SeqDLM(); p.Conversion = false; return p }()},
		{"DLM-basic (floor)", dlm.Basic()},
	}
	for _, v := range variants {
		var res workload.Result
		var st dlm.Snapshot
		err := runPoint(cfg.Virtual, cfg.Hardware, func(hw Hardware) error {
			c, err := newCluster(v.pol, hw, 1)
			if err != nil {
				return err
			}
			res, err = workload.RunIOR(c, workload.IORConfig{
				Pattern:         workload.N1Strided,
				Clients:         cfg.Clients,
				WriteSize:       cfg.WriteSize,
				WritesPerClient: cfg.WritesPerClient,
				StripeSize:      1 << 20,
				StripeCount:     1,
			})
			st = c.DLMStats()
			c.Close()
			return err
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{
			Variant:   v.name,
			WriteSize: cfg.WriteSize,
			Bandwidth: res.BandwidthPIO(),
			PIO:       res.PIO,
			Flush:     res.Flush,
		})
		tb.Row(v.name, metrics.Bandwidth(res.BandwidthPIO()),
			st.EarlyGrants, st.EarlyRevocations, st.Upgrades+st.Downgrades)
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Ping-pong — not a paper figure: the producer-consumer exchange
// pattern DESIGN.md §13's handoff fast path targets, with and without
// handoff. Two clients alternate whole-stripe writes over one stripe
// set; the server path pays Lock + Release per lock exchange (~2 server
// RPCs), handoff delegates the transfer client-to-client (~1). The
// grant-wait percentiles give the Fig. 17-style wait picture before and
// after.

// PingPongExpConfig parameterizes the handoff before/after experiment.
type PingPongExpConfig struct {
	Hardware    Hardware
	Exchanges   int
	WriteSize   int64
	StripeCount uint32
	// Virtual runs each variant in discrete-event mode.
	Virtual VirtualOpts
}

// DefaultPingPong returns the scaled-down configuration.
func DefaultPingPong() PingPongExpConfig {
	return PingPongExpConfig{
		Hardware:    BenchHardware(),
		Exchanges:   64,
		WriteSize:   64 << 10,
		StripeCount: 2,
	}
}

// RunPingPong measures the exchange pattern with handoff off and on.
func RunPingPong(cfg PingPongExpConfig) (*Experiment, error) {
	exp := &Experiment{ID: "PingPong", Title: "Producer-consumer exchanges: server revoke path vs client-to-client handoff"}
	tb := metrics.NewTable("variant", "bandwidth (PIO)", "server RPCs/exchange", "handoffs", "reclaims",
		"grant wait p50", "grant wait p99")
	for _, v := range []struct {
		name    string
		handoff bool
	}{
		{"server path", false},
		{"handoff", true},
	} {
		var st workload.PingPongStats
		err := runPoint(cfg.Virtual, cfg.Hardware, func(hw Hardware) error {
			c, err := cluster.New(cluster.Options{
				Servers:  1,
				Policy:   dlm.SeqDLM(),
				Hardware: hw,
				Handoff:  v.handoff,
			})
			if err != nil {
				return err
			}
			st, err = workload.RunPingPong(c, workload.PingPongConfig{
				Exchanges:   cfg.Exchanges,
				WriteSize:   cfg.WriteSize,
				StripeSize:  1 << 20,
				StripeCount: cfg.StripeCount,
			})
			c.Close()
			return err
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, Row{
			Variant:    v.name,
			WriteSize:  cfg.WriteSize,
			Stripes:    cfg.StripeCount,
			Bandwidth:  st.BandwidthPIO(),
			PIO:        st.PIO,
			Flush:      st.Flush,
			Throughput: st.Throughput(),
		})
		tb.Row(v.name, metrics.Bandwidth(st.BandwidthPIO()),
			fmt.Sprintf("%.2f", st.ServerRPCsPerExchange),
			st.DLM.Handoffs, st.DLM.HandoffReclaims,
			time.Duration(st.GrantWait.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(st.GrantWait.Quantile(0.99)).Round(time.Microsecond))
	}
	exp.Text = tb.String()
	return exp, nil
}

// ---------------------------------------------------------------------
// Reader fan — not a paper figure: the write-then-fan-out rotation
// DESIGN.md §14's batched grants and lease propagation trees target.
// One writer updates a shared stripe, N readers re-read it, round after
// round; the server path pays at least one lock RPC per reader-round,
// the fan-out path amortizes the writer's single lock RPC over the
// whole cohort.

// ReaderFanExpConfig parameterizes the fan-out before/after experiment.
type ReaderFanExpConfig struct {
	Hardware  Hardware
	Rounds    int
	WriteSize int64
	// Readers lists the fan-out widths measured (a scaling curve per
	// variant).
	Readers []int
	// Virtual runs each point in discrete-event mode — the only way
	// fan widths in the hundreds finish in seconds.
	Virtual VirtualOpts
}

// DefaultReaderFan returns the scaled-down configuration.
func DefaultReaderFan() ReaderFanExpConfig {
	return ReaderFanExpConfig{
		Hardware:  BenchHardware(),
		Rounds:    32,
		WriteSize: 64 << 10,
		Readers:   []int{2, 4, 8},
	}
}

// RunReaderFan measures the rotation with the reader fan-out off and on
// at each fan width.
func RunReaderFan(cfg ReaderFanExpConfig) (*Experiment, error) {
	exp := &Experiment{ID: "ReaderFan", Title: "Write-then-fan-out rotation: server grant path vs batched fan-out + lease propagation"}
	tb := metrics.NewTable("variant", "readers", "read bandwidth (PIO)", "server RPCs/reader",
		"broadcasts", "gathers", "lease grants", "reclaims")
	for _, v := range []struct {
		name string
		fan  bool
	}{
		{"server path", false},
		{"fan-out", true},
	} {
		for _, n := range cfg.Readers {
			var st workload.ReaderFanStats
			err := runPoint(cfg.Virtual, cfg.Hardware, func(hw Hardware) error {
				c, err := cluster.New(cluster.Options{
					Servers:      1,
					Policy:       dlm.SeqDLM(),
					Hardware:     hw,
					Handoff:      v.fan,
					ReaderFanout: v.fan,
				})
				if err != nil {
					return err
				}
				st, err = workload.RunReaderFan(c, workload.ReaderFanConfig{
					Readers:    n,
					Rounds:     cfg.Rounds,
					WriteSize:  cfg.WriteSize,
					StripeSize: 1 << 20,
				})
				c.Close()
				return err
			})
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, Row{
				Variant:    v.name,
				Pattern:    fmt.Sprintf("N=%d", n),
				WriteSize:  cfg.WriteSize,
				Bandwidth:  st.BandwidthPIO(),
				PIO:        st.PIO,
				Flush:      st.Flush,
				Throughput: st.Throughput(),
				LockRatio:  st.ServerRPCsPerReader,
			})
			tb.Row(v.name, n, metrics.Bandwidth(st.BandwidthPIO()),
				fmt.Sprintf("%.2f", st.ServerRPCsPerReader),
				st.DLM.Broadcasts, st.DLM.Gathers, st.DLM.LeaseGrants, st.DLM.HandoffReclaims)
		}
	}
	exp.Text = tb.String()
	return exp, nil
}

// CSV renders the experiment's rows as comma-separated values with a
// header, for plotting outside Go. Duration columns are in seconds,
// bandwidth in bytes/second.
func (e *Experiment) CSV() string {
	var b strings.Builder
	b.WriteString("experiment,variant,pattern,write_size,stripes,bandwidth_Bps,pio_s,flush_s,throughput_ops,lock_ratio,revocation_s,cancel_s,other_s\n")
	for _, r := range e.Rows {
		fmt.Fprintf(&b, "%s,%q,%q,%d,%d,%.0f,%.6f,%.6f,%.2f,%.4f,%.6f,%.6f,%.6f\n",
			e.ID, r.Variant, r.Pattern, r.WriteSize, r.Stripes,
			r.Bandwidth, r.PIO.Seconds(), r.Flush.Seconds(),
			r.Throughput, r.LockRatio,
			r.Revocation.Seconds(), r.Cancel.Seconds(), r.Other.Seconds())
	}
	return b.String()
}
