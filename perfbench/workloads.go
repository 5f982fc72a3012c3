package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"batchdb/internal/baseline"
	"batchdb/internal/chbench"
	"batchdb/internal/olap/exec"
)

// Work per nominal second of --seconds. Each run does a fixed, seeded
// amount of work, so every run does the same; the rates make a run's
// measured work last about --seconds on the reference host. The measured
// work is split into equal rounds; analytics reports each latency figure
// as the median of its per-round values, so a burst of load from outside
// the process that spoils one round does not move it.
const (
	// tpcc: transactions of the standard mix, split over two
	// closed-loop clients.
	tpccTxnsPerSec = 7000
	tpccClients    = 2
	tpccRounds     = 9
	tpccWarmup     = 4000
	// analytics: refreshes of the 14 CH templates, two draws each.
	analyticsRefreshesPerSec = 5
	analyticsDraws           = 2
	analyticsRounds          = 9
	analyticsWarmup          = 2
	// hybrid: an open-loop TPC-C stream and one dashboard refresh (the
	// 14 templates, one draw each) every period.
	hybridTxnRate = 1000
	hybridPeriod  = 500 * time.Millisecond
	hybridRounds  = 5
	hybridWarmup  = 500
)

// options are one run's settings.
type options struct {
	seed      int64
	seconds   int
	traced    bool
	setupReps int
	workDir   string
	// quick runs a single round and omits percentiles too few samples
	// support; it does not require a checkpoint during the measured work.
	quick bool
}

// rounds returns how many rounds a run makes: one in quick mode.
func (o options) rounds(full int) int {
	if o.quick {
		return 1
	}
	return full
}

// outcome is one workload run's result.
type outcome struct {
	quick             bool
	attempted, failed int
	e2e, layers       []metric
	chk               checker
	tr                *tracer
	// perRound holds each per-round latency figure's values.
	perRound map[string][]float64
	// client holds the figures the clients measured for the per-layer
	// report.
	client clientFigures
}

// clientFigures are the workload's own view of its requests, reported
// with the per-layer metrics of a traced run. A figure a workload does
// not produce (no queries in tpcc, no writes in analytics) reads 0.
type clientFigures struct {
	txnPerS, txnP50, txnP99       float64
	queriesPerS                   float64
	staleP50, staleP90, genLate99 float64
}

func newOutcome(o options, epoch time.Time) *outcome {
	out := &outcome{quick: o.quick, perRound: map[string][]float64{}}
	if o.traced {
		out.tr = newTracer(epoch)
	}
	return out
}

// pct returns the p-th percentile of sorted samples in ms when enough
// samples lie beyond it for it to mean anything. A full run that cannot
// report one is misconfigured and fails its checks; a quick run, whose
// counts are short by design, reads 0.
func (o *outcome) pct(name string, sorted []float64, p float64) float64 {
	v, ok := percentile(sorted, p)
	if !ok && !o.quick {
		o.chk.failf("%s: %d samples leave fewer than %d beyond the %vth percentile", name, len(sorted), minBeyond, p)
	}
	return v
}

// addRound records one round's value of a per-round figure.
func (o *outcome) addRound(name string, v float64) {
	o.perRound[name] = append(o.perRound[name], v)
}

// roundMedian is the median of a figure's per-round values.
func (o *outcome) roundMedian(name string) float64 { return median(o.perRound[name]) }

// finish sets the end-to-end metrics every workload reports: the
// set-up time, the latency of the workload's operations at the median
// and the 90th percentile, the CPU the measured work took and the live
// heap after it.
func (o *outcome) finish(setup, p50, p90 float64, cpu time.Duration, heap float64) {
	o.e2e = []metric{
		{"setup_s", setup, "s"},
		{"op_p50_ms", p50, "ms"},
		{"op_p90_ms", p90, "ms"},
		{"cpu_s", cpu.Seconds(), "s"},
		{"live_heap_mb", heap, "MiB"},
	}
}

// setTracing switches span and call recording on or off.
func (o *outcome) setTracing(on bool) {
	if o.tr != nil {
		o.tr.on.Store(on)
	}
}

// settledHeap checks the replica against the baseline evaluator, which
// also leaves the instance quiescent (every update pushed and applied,
// no batch running), and then reads the live heap.
func settledHeap(out *outcome, s *system, seed int64) float64 {
	phase("measured work done")
	checkReplica(&out.chk, s, seed)
	phase("replica checked against the baseline")
	return liveHeapMiB()
}

// runTPCC drives two closed-loop TPC-C clients through a fixed number
// of transactions, with replication, the command log and the checkpoint
// runner on and no queries.
func runTPCC(o options) (*outcome, error) {
	epoch := time.Now()
	out := newOutcome(o, epoch)
	s, setup, err := setUp(o.setupReps, o.seed, o.workDir, true, out.tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	phase("set up")
	before := readYTD(s.db)
	tally := newTxnTally()

	nr := o.rounds(tpccRounds)
	per := o.seconds * tpccTxnsPerSec / (tpccClients * nr) // per client and round
	warm := tpccWarmup / tpccClients
	reqs := make([][]txnReq, tpccClients)
	for c := range reqs {
		reqs[c] = genTxns(s.db.Scale, o.seed*100+int64(c)+1, warm+per*nr)
	}
	// run sends reqs[c][from:to] from each client c and returns every
	// transaction's latency.
	run := func(from, to int) []time.Duration {
		var wg sync.WaitGroup
		done := make([][]txnDone, tpccClients)
		lat := make([][]time.Duration, tpccClients)
		for c := 0; c < tpccClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, r := range reqs[c][from:to] {
					t0 := time.Now()
					d := doTxn(s.engine, r, epoch)
					lat[c] = append(lat[c], time.Since(t0))
					done[c] = append(done[c], d)
					if out.tr != nil && out.tr.on.Load() {
						out.tr.record(span{Name: "txn", Start: int64(t0.Sub(epoch)), End: d.acked, ID: txnID(d, c, from+i), N: d.retries})
					}
				}
			}(c)
		}
		wg.Wait()
		var all []time.Duration
		for c := range done {
			for _, d := range done[c] {
				tally.add(d)
			}
			all = append(all, lat[c]...)
		}
		return all
	}
	run(0, warm)
	warmDone, warmFailed, warmRetries := tally.done, tally.failed, tally.retries

	w := openWindow(s)
	out.setTracing(true)
	// The rounds only log the run's progress: throughput falls round by
	// round as the tables age (see README.md), so the rounds are not
	// alike and a median of rounds would be one round's figure. The
	// percentiles are over every transaction of the run instead.
	var all []time.Duration
	t0, cpu0 := time.Now(), cpuTime()
	for k := 0; k < nr; k++ {
		from := warm + k*per
		r0 := time.Now()
		lat := run(from, from+per)
		phase(fmt.Sprintf("round %d: %.0f txn/s", k+1, float64(len(lat))/time.Since(r0).Seconds()))
		all = append(all, lat...)
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	out.setTracing(false)
	w.close(s)
	reqs = nil
	out.attempted = tally.done - warmDone
	out.failed = tally.failed - warmFailed
	ms := sortedMillis(all)
	p50, p90, p99 := out.pct("txn p50", ms, 50), out.pct("txn p90", ms, 90), out.pct("txn p99", ms, 99)
	out.finish(setup, p50, p90, cpu, settledHeap(out, s, o.seed))
	if out.tr != nil {
		out.client = clientFigures{txnPerS: float64(len(all)) / wall.Seconds(), txnP50: p50, txnP99: p99}
		out.layers = layerMetrics(w, out.tr, tally.retries-warmRetries, s, out.client)
	}

	// Mechanisms the workload claims to drive must have run.
	if w.p1.applyEntries == w.p0.applyEntries {
		out.chk.failf("tpcc: no propagated update was applied to the replica")
	}
	if !o.quick && w.p1.checkpoints == w.p0.checkpoints {
		out.chk.failf("tpcc: the checkpoint runner took no checkpoint during the measured work")
	}
	checkTPCC(&out.chk, s.db, before, tally.paid)
	phase("TPC-C consistency checked")
	checkRecovery(&out.chk, s, o.seed, tally.lastVID)
	phase("recovery checked")
	return out, nil
}

// txnID names a transaction span: by commit VID when it wrote, so it
// shares its id with its command-log record, else by client and number.
func txnID(d txnDone, client, n int) string {
	if d.vid > 0 {
		return vidID(d.vid)
	}
	return fmt.Sprintf("c%d-%d", client, n)
}

// answer is one analytical query as its client saw it. Times are
// nanoseconds since the run's epoch.
type answer struct {
	q                   *exec.Query
	due, sent, answered int64
	res                 exec.Result
	err                 error
}

// ask submits q through the OLAP dispatcher and records the answer.
func ask(s *system, q *exec.Query, due time.Time, epoch time.Time, tr *tracer) answer {
	a := answer{q: q, due: int64(due.Sub(epoch)), sent: int64(time.Since(epoch))}
	a.res, a.err = s.sched.Query(q)
	if a.err == nil && a.res.Err != nil {
		a.err = a.res.Err
	}
	a.answered = int64(time.Since(epoch))
	if tr != nil && tr.on.Load() {
		tr.record(span{Name: "query", Start: a.sent, End: a.answered, ID: tr.nextID("q"), Batch: tr.batchOf(q)})
	}
	return a
}

// refresh asks every query at once and waits for all the answers, as a
// dashboard does when it redraws.
func refresh(s *system, qs []*exec.Query, due time.Time, epoch time.Time, tr *tracer) []answer {
	out := make([]answer, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q *exec.Query) {
			defer wg.Done()
			out[i] = ask(s, q, due, epoch, tr)
		}(i, q)
	}
	wg.Wait()
	return out
}

// dashboard draws n refreshes of the 14 CH templates, draws instances
// of each.
func dashboard(gen *chbench.Gen, n, draws int) [][]*exec.Query {
	out := make([][]*exec.Query, n)
	for k := range out {
		for d := 0; d < draws; d++ {
			for _, name := range chbench.QueryNames {
				out[k] = append(out[k], gen.ByName(name))
			}
		}
	}
	return out
}

// warmUp runs refreshes unmeasured, so that lazily built synopses and
// join builds exist before timing starts.
func warmUp(s *system, refreshes [][]*exec.Query, epoch time.Time) error {
	for _, qs := range refreshes {
		for _, a := range refresh(s, qs, time.Now(), epoch, nil) {
			if a.err != nil {
				return fmt.Errorf("warm-up %s: %w", a.q.Name, a.err)
			}
		}
	}
	return nil
}

// countAnswers adds answers to the attempted and failed counts and
// returns the successful ones.
func (o *outcome) countAnswers(as []answer) []answer {
	var ok []answer
	for _, a := range as {
		o.attempted++
		if a.err != nil {
			o.failed++
			fmt.Printf("failed: %s: %v\n", a.q.Name, a.err)
			continue
		}
		ok = append(ok, a)
	}
	return ok
}

// runAnalytics drives one closed-loop dashboard client through a fixed
// number of refreshes over the loaded database; the OLTP engine runs
// but receives no transactions.
func runAnalytics(o options) (*outcome, error) {
	epoch := time.Now()
	out := newOutcome(o, epoch)
	s, setup, err := setUp(o.setupReps, o.seed, "", false, out.tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	phase("set up")

	nr := o.rounds(analyticsRounds)
	per := o.seconds * analyticsRefreshesPerSec / nr
	if per < 1 {
		per = 1
	}
	gen := chbench.NewGen(s.db.Schemas, o.seed)
	if err := warmUp(s, dashboard(gen, analyticsWarmup, analyticsDraws), epoch); err != nil {
		return nil, err
	}
	refreshes := dashboard(gen, per*nr, analyticsDraws)

	var answers [][]answer
	w := openWindow(s)
	out.setTracing(true)
	var cpu time.Duration
	for k := 0; k < nr; k++ {
		t0, cpu0 := time.Now(), cpuTime()
		var lat []float64
		for _, qs := range refreshes[k*per : (k+1)*per] {
			as := refresh(s, qs, time.Now(), epoch, out.tr)
			answers = append(answers, as)
			for _, a := range out.countAnswers(as) {
				lat = append(lat, float64(a.answered-a.sent)/1e6)
			}
		}
		wall := time.Since(t0)
		cpu += cpuTime() - cpu0
		ms := sortedFloats(lat)
		out.addRound("queries_per_s", float64(per*len(refreshes[0]))/wall.Seconds())
		out.addRound("p50", out.pct("query p50", ms, 50))
		out.addRound("p90", out.pct("query p90", ms, 90))
		phase(fmt.Sprintf("round %d: %.1f queries/s, p50 %.1f ms", k+1, float64(per*len(refreshes[0]))/wall.Seconds(), ms[len(ms)/2]))
	}
	out.setTracing(false)
	w.close(s)
	out.finish(setup, out.roundMedian("p50"), out.roundMedian("p90"), cpu, settledHeap(out, s, o.seed))
	if out.tr != nil {
		out.client = clientFigures{queriesPerS: out.roundMedian("queries_per_s")}
		out.layers = layerMetrics(w, out.tr, 0, s, out.client)
	}

	if w.p1.queriesShared == w.p0.queriesShared {
		out.chk.failf("analytics: no query ran in a shared cohort")
	}
	// A seeded sample of answers covering every template, checked
	// against the baseline evaluator over the (unchanged) primary.
	vid := s.engine.LatestVID()
	base := baseline.New(s.db, 1, baseline.FairShared)
	defer base.Close()
	rng := rand.New(rand.NewSource(o.seed))
	nt := len(chbench.QueryNames)
	for t, name := range chbench.QueryNames {
		a := answers[rng.Intn(len(answers))][t+nt*rng.Intn(analyticsDraws)]
		if a.err != nil {
			continue
		}
		if a.res.SnapshotVID != vid {
			out.chk.failf("sample %s: answered at VID %d, primary at %d", name, a.res.SnapshotVID, vid)
		}
		sameAnswer(&out.chk, "sample "+name, a.res, base.Query(a.q))
	}
	return out, nil
}

// runHybrid sends an open-loop TPC-C stream at a fixed rate and an
// open-loop dashboard refresh every period, each a fixed number of
// requests timed from when they were due.
func runHybrid(o options) (*outcome, error) {
	epoch := time.Now()
	out := newOutcome(o, epoch)
	s, setup, err := setUp(o.setupReps, o.seed, "", false, out.tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	phase("set up")
	before := readYTD(s.db)
	tally := newTxnTally()

	nr := o.rounds(hybridRounds)
	roundLen := time.Duration(o.seconds) * time.Second / time.Duration(nr)
	nTxn := int(roundLen.Seconds() * hybridTxnRate)
	nRef := int(roundLen / hybridPeriod)
	if nRef < 1 {
		nRef = 1
	}
	gen := chbench.NewGen(s.db.Schemas, o.seed)
	warmQ := dashboard(gen, 1, 1)
	queries := dashboard(gen, nRef*nr, 1)
	warmTx := genTxns(s.db.Scale, o.seed*100+1, hybridWarmup)
	txns := genTxns(s.db.Scale, o.seed*100+2, nTxn*nr)
	for _, r := range warmTx {
		tally.add(doTxn(s.engine, r, epoch))
	}
	if err := warmUp(s, warmQ, epoch); err != nil {
		return nil, err
	}
	warmDone, warmFailed, warmRetries := tally.done, tally.failed, tally.retries

	var late []time.Duration
	var answers []answer
	var txLat []time.Duration
	w := openWindow(s)
	out.setTracing(true)
	t0, cpu0 := time.Now(), cpuTime()
	for k := 0; k < nr; k++ {
		txDue := poissonSchedule(o.seed*100+int64(k), hybridTxnRate, nTxn)
		qDue := periodicSchedule(hybridPeriod/2, hybridPeriod, nRef)
		rLat := make([]time.Duration, nTxn)
		txOut := make([]txnDone, nTxn)
		refs := make([][]answer, nRef)
		start := time.Now().Add(10 * time.Millisecond)
		var qLate []time.Duration
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			qLate = runOpenLoop(start, qDue, func(i int, due time.Time) {
				refs[i] = refresh(s, queries[k*nRef+i], due, epoch, out.tr)
			})
		}()
		tLate := runOpenLoop(start, txDue, func(i int, due time.Time) {
			d := doTxn(s.engine, txns[k*nTxn+i], epoch)
			txOut[i] = d
			rLat[i] = time.Duration(d.acked - int64(due.Sub(epoch)))
			if out.tr != nil {
				out.tr.record(span{Name: "txn", Start: int64(due.Sub(epoch)), End: d.acked, ID: txnID(d, 0, k*nTxn+i), N: d.retries})
			}
		})
		wg.Wait()
		late = append(append(late, tLate...), qLate...)
		for _, d := range txOut {
			tally.add(d)
		}
		for _, as := range refs {
			answers = append(answers, out.countAnswers(as)...)
		}
		txLat = append(txLat, rLat...)
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	out.setTracing(false)
	w.close(s)
	out.attempted += tally.done - warmDone
	out.failed += tally.failed - warmFailed

	// Query latency, staleness and the freshness guarantee, over the
	// answers of all rounds at once: a refresh's answers come from one or
	// two batches and share their latency, so a round of 12 refreshes has
	// too few distinct values for a steady p90 of its own. Staleness comes
	// from the benchmark's own acknowledgement records of every write.
	acks := newAckLog(tally.acks)
	var qLat, stale []float64
	for _, a := range answers {
		qLat = append(qLat, float64(a.answered-a.due)/1e6)
		stale = append(stale, float64(acks.staleness(a.res.SnapshotVID, a.answered))/1e6)
		// The per-batch freshness guarantee: every write acknowledged
		// before the query was sent is in its snapshot.
		if v := acks.maxVIDBefore(a.sent); v > a.res.SnapshotVID {
			out.chk.failf("hybrid %s: snapshot VID %d misses VID %d acknowledged before it was sent", a.q.Name, a.res.SnapshotVID, v)
		}
	}
	qms := sortedFloats(qLat)
	out.finish(setup, out.pct("query p50", qms, 50), out.pct("query p90", qms, 90), cpu, settledHeap(out, s, o.seed))
	if out.tr != nil {
		sms, tms := sortedFloats(stale), sortedMillis(txLat)
		out.client = clientFigures{
			txnPerS:     float64(len(txLat)) / wall.Seconds(),
			txnP50:      out.pct("txn p50", tms, 50),
			txnP99:      out.pct("txn p99", tms, 99),
			queriesPerS: float64(len(answers)) / wall.Seconds(),
			staleP50:    out.pct("staleness p50", sms, 50),
			staleP90:    out.pct("staleness p90", sms, 90),
			genLate99:   out.pct("generator lateness p99", sortedMillis(late), 99),
		}
		out.layers = layerMetrics(w, out.tr, tally.retries-warmRetries, s, out.client)
	}
	checkTPCC(&out.chk, s.db, before, tally.paid)
	return out, nil
}
