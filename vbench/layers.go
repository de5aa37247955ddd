package main

import (
	"fmt"
	"sort"
	"strings"

	"ccpfs/internal/dlm"
	"ccpfs/internal/obs"
)

// layerDelta is the change of the layers' public counters over the
// measured phases of one run, read from outside the program:
// Cluster.DLMStatsBreakdown, client.Stats, lock-client stats, the
// clients' and servers' obs registries, extcache.Cache.Stats and the
// cluster's flushed/discarded byte counts. Every field is a simulated
// quantity, so it repeats exactly for a seed.
type layerDelta struct {
	dlm                                dlm.Snapshot
	grantWait, revocationWait, cancel  obs.HistSnapshot
	lockNs, ioNs                       int64
	pcHits, pcMisses, lcHits, lcMisses int64
	readRPCs                           int64
	flushRPC, flushGroup               obs.HistSnapshot
	rpcCalls                           map[string]int64 // rpc.calls.<Method>, clients + servers
	rpcBytesOut                        int64
	flushed, discarded, extInserts     int64
}

// snapLayers reads every counter layerDelta covers, summed over the
// workload's clients and the cluster's servers.
func (r *run) snapLayers() layerDelta {
	agg := r.c.DLMStatsBreakdown()
	l := layerDelta{
		dlm:            agg.Total,
		grantWait:      agg.GrantWait,
		revocationWait: agg.RevocationWait,
		cancel:         agg.CancelWait,
		rpcCalls:       map[string]int64{},
		flushed:        r.c.FlushedBytes(),
		discarded:      r.c.DiscardedBytes(),
	}
	regs := make([]*obs.Registry, 0, len(r.cls)+len(r.c.Servers))
	for _, cl := range r.cls {
		st := &cl.Stats
		l.lockNs += st.LockNs.Load()
		l.ioNs += st.IONs.Load()
		l.pcHits += st.ReadCacheHits.Load()
		l.pcMisses += st.ReadCacheMisses.Load()
		l.readRPCs += st.ReadRPCs.Load()
		l.flushRPC.Merge(st.FlushRPCHist.Snapshot())
		l.flushGroup.Merge(st.FlushGroupHist.Snapshot())
		l.lcHits += cl.Locks().Stats.CacheHits.Load()
		l.lcMisses += cl.Locks().Stats.CacheMisses.Load()
		regs = append(regs, cl.Obs())
	}
	for _, s := range r.c.Servers {
		ins, _, _ := s.Cache.Stats()
		l.extInserts += ins
		regs = append(regs, s.Obs())
	}
	for _, reg := range regs {
		snap := reg.Snapshot()
		for name, v := range snap.Counters {
			if m, ok := strings.CutPrefix(name, "rpc.calls."); ok {
				l.rpcCalls[m] += v
			}
		}
		l.rpcBytesOut += snap.Counters["rpc.bytes_out"]
	}
	return l
}

// sub returns l − before.
func (l layerDelta) sub(before layerDelta) layerDelta {
	d := l
	d.dlm = l.dlm.Sub(before.dlm)
	d.grantWait = histSub(l.grantWait, before.grantWait)
	d.revocationWait = histSub(l.revocationWait, before.revocationWait)
	d.cancel = histSub(l.cancel, before.cancel)
	d.lockNs -= before.lockNs
	d.ioNs -= before.ioNs
	d.pcHits -= before.pcHits
	d.pcMisses -= before.pcMisses
	d.lcHits -= before.lcHits
	d.lcMisses -= before.lcMisses
	d.readRPCs -= before.readRPCs
	d.flushRPC = histSub(l.flushRPC, before.flushRPC)
	d.flushGroup = histSub(l.flushGroup, before.flushGroup)
	d.rpcCalls = map[string]int64{}
	for m, v := range l.rpcCalls {
		if v -= before.rpcCalls[m]; v != 0 {
			d.rpcCalls[m] = v
		}
	}
	d.rpcBytesOut -= before.rpcBytesOut
	d.flushed -= before.flushed
	d.discarded -= before.discarded
	d.extInserts -= before.extInserts
	return d
}

// add returns l + o, for pooling runs.
func (l layerDelta) add(o layerDelta) layerDelta {
	d := l
	// dlm.Snapshot only has Sub: a + b = a − (0 − b).
	d.dlm = l.dlm.Sub(dlm.Snapshot{}.Sub(o.dlm))
	d.grantWait.Merge(o.grantWait)
	d.revocationWait.Merge(o.revocationWait)
	d.cancel.Merge(o.cancel)
	d.lockNs += o.lockNs
	d.ioNs += o.ioNs
	d.pcHits += o.pcHits
	d.pcMisses += o.pcMisses
	d.lcHits += o.lcHits
	d.lcMisses += o.lcMisses
	d.readRPCs += o.readRPCs
	d.flushRPC.Merge(o.flushRPC)
	d.flushGroup.Merge(o.flushGroup)
	d.rpcCalls = map[string]int64{}
	for m, v := range l.rpcCalls {
		d.rpcCalls[m] += v
	}
	for m, v := range o.rpcCalls {
		d.rpcCalls[m] += v
	}
	d.rpcBytesOut += o.rpcBytesOut
	d.flushed += o.flushed
	d.discarded += o.discarded
	d.extInserts += o.extInserts
	return d
}

// histSub is the bucket-wise difference of two snapshots of one
// histogram; Max stays the later snapshot's (a maximum cannot be
// un-merged).
func histSub(a, b obs.HistSnapshot) obs.HistSnapshot {
	d := a
	d.Count -= b.Count
	d.Sum -= b.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= b.Buckets[i]
	}
	return d
}

// rpcMethods lists the RPC methods reported per op: every method the
// three workloads issue on client and server endpoints. Handoff and
// LeasePropagate travel client to client on peer endpoints, which carry
// no metrics registry; dlm.gathers and dlm.lease_grants_per_read count
// that traffic instead.
var rpcMethods = []string{"Lock", "Release", "Downgrade", "HandoffAck", "Flush", "Read", "SetSize", "Stat", "RevokeBatch"}

// layerMetrics derives the per-layer metrics from the pooled runs and
// the peaks their tracers sampled. Ratios pool every run's counts;
// times and counts are per run. Each metric carries its base.
func layerMetrics(o simOut, pk peaks, diskCapacity float64, readSize int64) []metric {
	l := o.layers
	runs := float64(o.runs)
	perRun := fmt.Sprintf(", mean of %d runs", o.runs)
	ops := float64(o.ops)
	reads := float64(o.reads)
	userBytes := float64(o.writeBytes)
	if o.reads > 0 {
		userBytes += float64(o.readBytes)
	}
	d := l.dlm
	var ms []metric
	add := func(name, unit string, v float64, base string) {
		ms = append(ms, metric{name: name, unit: unit, value: v, base: base})
	}
	add("client.lock_wait_frac", "ratio", ratio(float64(l.lockNs), float64(l.ioNs)), fmtBase("lock ns", l.lockNs, "IO ns", l.ioNs))
	add("client.fsync_s", "s", o.fsyncSum.Seconds()/runs, "sum of fsync spans"+perRun)
	add("client.release_s", "s", o.releaseSum.Seconds()/runs, "sum of ReleaseAll spans"+perRun)
	add("pagecache.read_hit_ratio", "ratio", ratio(float64(l.pcHits), float64(l.pcHits+l.pcMisses)), fmtBase("hits", l.pcHits, "segments read", l.pcHits+l.pcMisses))
	add("pagecache.dirty_peak_mb", "MiB", float64(pk.dirty)/(1<<20), "max over op ends of Σ client dirty bytes")
	add("dlm.lock_rpcs_per_op", "1/op", ratio(float64(d.LockOps), ops), fmtBase("lock RPCs", d.LockOps, "ops", o.ops))
	add("lockclient.cache_hit_ratio", "ratio", ratio(float64(l.lcHits), float64(l.lcHits+l.lcMisses)), fmtBase("hits", l.lcHits, "acquires", l.lcHits+l.lcMisses))
	add("dlm.grant_wait_p50_us", "us", float64(l.grantWait.Quantile(0.50))/1e3, fmtBase("grants", l.grantWait.Count, "", 0)+", log2 buckets")
	add("dlm.grant_wait_p99_us", "us", float64(l.grantWait.Quantile(0.99))/1e3, fmtBase("grants", l.grantWait.Count, "", 0)+", log2 buckets")
	add("dlm.revocation_wait_s", "s", float64(l.revocationWait.Sum)/1e9/runs, "① summed over grants"+perRun)
	add("dlm.cancel_wait_s", "s", float64(l.cancel.Sum)/1e9/runs, "② summed over grants"+perRun)
	add("dlm.early_grant_ratio", "ratio", ratio(float64(d.EarlyGrants), float64(d.Grants)), fmtBase("early", d.EarlyGrants, "grants", d.Grants))
	add("dlm.revocations_per_op", "1/op", ratio(float64(d.Revocations), ops), fmtBase("revocations", d.Revocations, "ops", o.ops))
	add("dlm.revoke_batch_factor", "ratio", ratio(float64(d.Revocations), float64(d.RevokeBatches)), fmtBase("revocations", d.Revocations, "batches", d.RevokeBatches))
	add("dlm.upgrades", "count", float64(d.Upgrades)/runs, perRun[2:])
	add("dlm.downgrades", "count", float64(d.Downgrades)/runs, perRun[2:])
	add("dlm.lease_grants_per_read", "1/op", ratio(float64(d.LeaseGrants), reads), fmtBase("lease grants", d.LeaseGrants, "reads", o.reads))
	add("dlm.gathers", "count", float64(d.Gathers)/runs, perRun[2:])
	add("dlm.handoff_reclaims", "count", float64(d.HandoffReclaims)/runs, perRun[2:])
	for _, m := range rpcMethods {
		add("rpc.calls_per_op."+m, "1/op", ratio(float64(l.rpcCalls[m]), ops), fmtBase("calls", l.rpcCalls[m], "ops", o.ops))
	}
	add("rpc.bytes_per_user_byte", "ratio", ratio(float64(l.rpcBytesOut), userBytes), fmtBase("bytes sent", l.rpcBytesOut, "user bytes", int64(userBytes)))
	add("client.flush_rpcs_per_op", "1/op", ratio(float64(l.flushRPC.Count), ops), fmtBase("flush RPCs", l.flushRPC.Count, "ops", o.ops))
	add("client.flush_rpc_p99_us", "us", float64(l.flushRPC.Quantile(0.99))/1e3, fmtBase("flush RPCs", l.flushRPC.Count, "", 0)+", log2 buckets")
	add("client.flush_group_p99_us", "us", float64(l.flushGroup.Quantile(0.99))/1e3, fmtBase("flush groups", l.flushGroup.Count, "", 0)+", log2 buckets")
	add("dataserver.flush_amplification", "ratio", ratio(float64(l.flushed), float64(o.writeBytes)), fmtBase("flushed bytes", l.flushed, "user bytes written", o.writeBytes))
	add("dataserver.discarded_ratio", "ratio", ratio(float64(l.discarded), float64(l.flushed+l.discarded)), fmtBase("discarded bytes", l.discarded, "flush bytes received", l.flushed+l.discarded))
	add("extcache.inserts_per_op", "1/op", ratio(float64(l.extInserts), ops), fmtBase("inserts", l.extInserts, "ops", o.ops))
	add("extcache.entries_peak", "count", float64(pk.entries), "max over op ends, Σ servers")
	add("extcache.pinned_peak", "count", float64(pk.pinned), "max over op ends, Σ servers")
	// The devices count no bytes, so the numerator is an estimate: the
	// flushed bytes plus one whole block per read RPC, without the
	// per-operation DiskLatency the device also charges.
	dev := l.flushed + l.readRPCs*readSize
	add("disk.utilization", "ratio", ratio(float64(dev), diskCapacity*o.durable.Seconds()),
		fmtBase("estimated device bytes (flushed + read RPCs × block, latency not counted)", dev, "servers × DiskBandwidth × durable_s bytes", int64(diskCapacity*o.durable.Seconds())))
	add("write_samples", "count", float64(len(o.writeLat)), "")
	add("read_samples", "count", float64(len(o.readLat)), "")
	return ms
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rpcMethodsSeen returns the methods with traffic, sorted, for the
// human-readable counter table.
func rpcMethodsSeen(l layerDelta) []string {
	var ms []string
	for m := range l.rpcCalls {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return ms
}
