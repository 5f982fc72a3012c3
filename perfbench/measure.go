package main

import (
	"runtime"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// cpuTime returns the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// window holds the program's own counters at both ends of the measured
// work.
type window struct{ p0, p1 progSnap }

// openWindow reads the counters at the start of the measured work and
// clears the program's install-age histogram, so that it covers the
// measured work only.
func openWindow(s *system) *window {
	s.sched.Freshness().StalenessHistogram().Reset()
	return &window{p0: snapProgram(s)}
}

func (w *window) close(s *system) { w.p1 = snapProgram(s) }

// progSnap is a reading of the program's own counters.
type progSnap struct {
	oltpBatches, committed, aborted uint64
	oltpBusy                        time.Duration
	checkpoints, walBytes           uint64
	lastCkptNanos                   int64
	applyRounds, applyNanos         uint64
	applyEntries                    uint64
	olapBatches, olapQueries        uint64
	snapWaitNanos                   int64
	buildNanos, scanNanos           int64
	mergeNanos                      int64
	blocksScanned, blocksSkipped    uint64
	blocksVectorized, tuplesPruned  uint64
	queriesShared                   uint64
	gcCycles                        uint32
	gcPauseNanos, allocBytes        uint64
}

func snapProgram(s *system) progSnap {
	var p progSnap
	es := s.engine.Stats()
	p.oltpBatches = es.Batches.Load()
	p.committed = es.Committed.Load()
	p.aborted = es.Aborted.Load()
	p.oltpBusy = es.Busy.Busy()
	if s.dur != nil {
		ds := s.dur.Stats()
		p.checkpoints = ds.Checkpoints.Load()
		p.walBytes = ds.WALAppendedBytes.Load()
		p.lastCkptNanos = ds.LastCheckpointNanos.Load()
	}
	ss := s.sched.Stats()
	p.applyRounds = ss.ApplyTime.Count()
	p.applyNanos = uint64(ss.ApplyTime.Sum())
	p.applyEntries = ss.AppliedEntries.Load()
	p.olapBatches = ss.Batches.Load()
	p.olapQueries = ss.Queries.Load()
	p.snapWaitNanos = ss.SnapWait.Sum()
	p.buildNanos = ss.ExecBuildPrepare.Sum()
	p.scanNanos = ss.ExecScan.Sum()
	p.mergeNanos = ss.ExecMerge.Sum()
	p.blocksScanned = ss.ExecBlocksScanned.Load()
	p.blocksSkipped = ss.ExecBlocksSkipped.Load()
	p.blocksVectorized = ss.ExecBlocksVectorized.Load()
	p.tuplesPruned = ss.ExecTuplesPruned.Load()
	p.queriesShared = ss.ExecQueriesShared.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gcCycles = ms.NumGC
	p.gcPauseNanos = ms.PauseTotalNs
	p.allocBytes = ms.TotalAlloc
	return p
}

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer figures from the window's counter
// deltas, the tracer's wrapped calls and the clients' own figures. Every
// workload reports every figure; a layer the workload leaves idle reads
// 0 (no command log in analytics and hybrid, no queries in tpcc).
// Names ending in _us, and the per-call _ms figures of apply, olap and
// exec, are means per call; oltp.busy_ms and runtime.gc_pause_ms are
// totals over the window.
func layerMetrics(w *window, tr *tracer, conflictRetries uint64, s *system, c clientFigures) []metric {
	a, b := w.p0, w.p1
	d := func(x, y uint64) float64 { return float64(y - x) }
	ms := func(n float64) float64 { return n / 1e6 }
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	txns := d(a.committed, b.committed) + d(a.aborted, b.aborted)
	batches := d(a.olapBatches, b.olapBatches)
	ob := d(a.oltpBatches, b.oltpBatches)
	add("oltp.batches", ob, "count")
	add("oltp.txns_per_batch", ratio(txns, ob), "txn")
	add("oltp.busy_ms", ms(float64(b.oltpBusy-a.oltpBusy)), "ms")
	add("oltp.conflict_retries", float64(conflictRetries), "count")
	add("wal.appends", float64(tr.walAppend.calls.Load()), "count")
	add("wal.append_us", tr.walAppend.meanMicros(), "us")
	add("wal.commits", float64(tr.walCommit.calls.Load()), "count")
	add("wal.commit_us", tr.walCommit.meanMicros(), "us")
	add("wal.bytes_per_txn", ratio(d(a.walBytes, b.walBytes), d(a.committed, b.committed)), "B")
	add("checkpoint.count", d(a.checkpoints, b.checkpoints), "count")
	add("checkpoint.ms", ms(float64(b.lastCkptNanos)), "ms")
	add("push.count", float64(tr.push.calls.Load()), "count")
	add("push.entries", float64(tr.push.units.Load()), "count")
	add("push.us", tr.push.meanMicros(), "us")
	add("sync.count", float64(tr.syncs.calls.Load()), "count")
	add("sync.us", tr.syncs.meanMicros(), "us")
	rounds := d(a.applyRounds, b.applyRounds)
	add("apply.rounds", rounds, "count")
	add("apply.entries", d(a.applyEntries, b.applyEntries), "count")
	add("apply.ms", ratio(ms(d(a.applyNanos, b.applyNanos)), rounds), "ms")
	add("olap.batches", batches, "count")
	add("olap.queries_per_batch", ratio(d(a.olapQueries, b.olapQueries), batches), "query")
	add("olap.barrier_ms", ratio(ms(float64(b.snapWaitNanos-a.snapWaitNanos)), batches), "ms")
	add("olap.batch_ms", tr.batch.meanMicros()/1e3, "ms")
	add("exec.build_ms", ratio(ms(float64(b.buildNanos-a.buildNanos)), batches), "ms")
	add("exec.scan_ms", ratio(ms(float64(b.scanNanos-a.scanNanos)), batches), "ms")
	add("exec.merge_ms", ratio(ms(float64(b.mergeNanos-a.mergeNanos)), batches), "ms")
	add("exec.blocks_scanned", d(a.blocksScanned, b.blocksScanned), "count")
	add("exec.blocks_skipped", d(a.blocksSkipped, b.blocksSkipped), "count")
	add("exec.blocks_vectorized", d(a.blocksVectorized, b.blocksVectorized), "count")
	add("exec.tuples_pruned", d(a.tuplesPruned, b.tuplesPruned), "count")
	add("exec.queries_shared", d(a.queriesShared, b.queriesShared), "count")
	add("fresh.install_age_p50_ms", ms(float64(s.sched.Freshness().StalenessHistogram().Percentile(50))), "ms")
	add("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles), "count")
	add("runtime.gc_pause_ms", ms(d(a.gcPauseNanos, b.gcPauseNanos)), "ms")
	add("runtime.alloc_mb", d(a.allocBytes, b.allocBytes)/(1<<20), "MiB")
	add("client.txn_per_s", c.txnPerS, "1/s")
	add("client.txn_p50_ms", c.txnP50, "ms")
	add("client.txn_p99_ms", c.txnP99, "ms")
	add("client.queries_per_s", c.queriesPerS, "1/s")
	add("client.staleness_p50_ms", c.staleP50, "ms")
	add("client.staleness_p90_ms", c.staleP90, "ms")
	add("gen.late_ms", c.genLate99, "ms")
	return out
}
