package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/proplog"
	"batchdb/internal/wal"
)

// maxSpans bounds the in-memory span buffer; spans past it are counted
// as dropped rather than kept.
const maxSpans = 2 << 20

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the run's epoch. ID names the request the call
// served where the benchmark knows it (a commit VID, a batch number);
// Parent names the span that caused it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     string `json:"id,omitempty"`
	Parent string `json:"parent,omitempty"`
	// N is the amount of work the call carried (records, entries,
	// queries), when it carried more than one unit.
	N int `json:"n,omitempty"`
	// Batch names the OLAP batch that answered a query span.
	Batch string `json:"batch,omitempty"`
}

// layer accumulates one wrapped interface's calls: how many, how much
// work they carried, and the wall time spent inside them.
type layer struct {
	calls atomic.Int64
	units atomic.Int64
	nanos atomic.Int64
}

func (l *layer) add(units int, d time.Duration) {
	l.calls.Add(1)
	l.units.Add(int64(units))
	l.nanos.Add(int64(d))
}

// meanMicros is the mean wall time per call in microseconds.
func (l *layer) meanMicros() float64 {
	c := l.calls.Load()
	if c == 0 {
		return 0
	}
	return float64(l.nanos.Load()) / float64(c) / 1e3
}

// tracer times the calls the program makes through the interfaces the
// benchmark hands it. It is installed only in traced runs; untraced runs
// pass the program's own implementations straight through. Calls are
// recorded only while on is set, so warm-up and checks stay out.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	walAppend, walCommit, push, syncs, batch layer
	// queryBatch maps each query (by pointer) to the batch that ran it.
	queryBatch sync.Map

	mu      sync.Mutex
	spans   []span
	dropped int
	seq     atomic.Int64
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// nextID returns a run-unique span id with the given prefix.
func (t *tracer) nextID(prefix string) string {
	return fmt.Sprintf("%s%d", prefix, t.seq.Add(1))
}

// writeSpans writes every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"name\":\"dropped\",\"n\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedLog wraps the command log the benchmark installs in the engine.
// Append spans carry the record's commit VID as their id, which is also
// the id the client's transaction span carries once acknowledged.
type tracedLog struct {
	inner oltp.CommandLog
	t     *tracer
	// commit is the id of the group commit the next appends belong to;
	// only the OLTP dispatcher calls the log, so it needs no lock.
	commit string
}

func (l *tracedLog) Append(r wal.Record) error {
	if !l.t.on.Load() {
		return l.inner.Append(r)
	}
	if l.commit == "" {
		l.commit = l.t.nextID("commit")
	}
	t0 := time.Now()
	s := l.t.now()
	err := l.inner.Append(r)
	l.t.walAppend.add(1, time.Since(t0))
	l.t.record(span{Name: "wal.append", Start: s, End: l.t.now(), ID: vidID(r.CommitVID), Parent: l.commit})
	return err
}

func (l *tracedLog) Commit() error {
	if !l.t.on.Load() {
		return l.inner.Commit()
	}
	id := l.commit
	if id == "" {
		id = l.t.nextID("commit")
	}
	l.commit = ""
	t0 := time.Now()
	s := l.t.now()
	err := l.inner.Commit()
	l.t.walCommit.add(1, time.Since(t0))
	l.t.record(span{Name: "wal.commit", Start: s, End: l.t.now(), ID: id})
	return err
}

func (l *tracedLog) Close() error { return l.inner.Close() }

// tracedSink wraps the update sink; its calls run on the OLTP dispatcher.
type tracedSink struct {
	inner oltp.UpdateSink
	t     *tracer
}

func (k *tracedSink) ApplyUpdates(batches []proplog.Batch, upTo uint64) {
	if !k.t.on.Load() {
		k.inner.ApplyUpdates(batches, upTo)
		return
	}
	n := 0
	for i := range batches {
		n += batches[i].NumEntries()
	}
	t0 := time.Now()
	s := k.t.now()
	k.inner.ApplyUpdates(batches, upTo)
	k.t.push.add(n, time.Since(t0))
	k.t.record(span{Name: "push", Start: s, End: k.t.now(), ID: vidID(upTo), N: n})
}

// tracedPrimary wraps the OLAP dispatcher's view of the primary: each
// call is the primary's half of the freshness barrier.
type tracedPrimary struct {
	inner olap.Primary
	t     *tracer
}

func (p *tracedPrimary) SyncUpdates() uint64 {
	if !p.t.on.Load() {
		return p.inner.SyncUpdates()
	}
	t0 := time.Now()
	s := p.t.now()
	v := p.inner.SyncUpdates()
	p.t.syncs.add(1, time.Since(t0))
	p.t.record(span{Name: "sync", Start: s, End: p.t.now(), ID: vidID(v)})
	return v
}

// tracedRun wraps the batch executor and notes which batch ran each
// query, so the query's span can name it.
func (t *tracer) tracedRun(run olap.RunBatchFunc[*exec.Query, exec.Result]) olap.RunBatchFunc[*exec.Query, exec.Result] {
	return func(qs []*exec.Query, snap uint64) []exec.Result {
		if !t.on.Load() {
			return run(qs, snap)
		}
		id := t.nextID("batch")
		for _, q := range qs {
			t.queryBatch.Store(q, id)
		}
		t0 := time.Now()
		s := t.now()
		rs := run(qs, snap)
		t.batch.add(len(qs), time.Since(t0))
		t.record(span{Name: "olap.batch", Start: s, End: t.now(), ID: id, N: len(qs)})
		return rs
	}
}

func vidID(v uint64) string { return fmt.Sprintf("vid%d", v) }

// batchOf returns the id of the batch that ran q, if it was traced.
func (t *tracer) batchOf(q *exec.Query) string {
	if v, ok := t.queryBatch.Load(q); ok {
		return v.(string)
	}
	return ""
}
