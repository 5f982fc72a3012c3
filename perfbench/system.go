package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"batchdb/internal/chbench"
	"batchdb/internal/checkpoint"
	"batchdb/internal/olap"
	"batchdb/internal/olap/exec"
	"batchdb/internal/oltp"
	"batchdb/internal/tpcc"
)

// The engine configuration batchdb-server runs with by default.
const (
	warehouses   = 2
	oltpWorkers  = 4
	olapWorkers  = 4
	partitions   = 8
	pushPeriod   = 200 * time.Millisecond
	ckptEvery    = 50000
	segmentBytes = 16 << 20
)

// system is one running BatchDB instance: the primary with its TPC-C
// data, the OLAP replica fed by it, and, when durable, its data dir.
type system struct {
	db      *tpcc.DB
	engine  *oltp.Engine
	rep     *olap.Replica
	sched   *olap.Scheduler[*exec.Query, exec.Result]
	dur     *checkpoint.State
	dataDir string
	stopped bool
}

// build generates the TPC-C + CH data from seed and starts the engines
// as batchdb-server does by default: zone maps, compression and shared
// execution on, the overlap scheduler, a 200 ms push period. A non-empty
// dataDir adds the segmented command log and the checkpoint runner, with
// fsync off. A non-nil tracer wraps the log, the update sink, the
// primary and the batch executor; otherwise the program's own
// implementations are installed unwrapped.
func build(seed int64, dataDir string, tr *tracer) (*system, error) {
	db := tpcc.NewDB(tpcc.BenchScale(warehouses))
	if err := tpcc.Generate(db, seed); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	engine, err := newEngine(db)
	if err != nil {
		return nil, err
	}
	s := &system{db: db, engine: engine, dataDir: dataDir}
	if dataDir != "" {
		st, _, err := checkpoint.Boot(engine, checkpoint.BootConfig{Dir: dataDir, SegmentBytes: segmentBytes})
		if err != nil {
			engine.Close()
			return nil, fmt.Errorf("boot: %w", err)
		}
		s.dur = st
		if tr != nil {
			engine.SetLog(&tracedLog{inner: st.WAL(), t: tr})
		}
	}
	rep, err := chbench.NewReplica(db, partitions)
	if err != nil {
		engine.Close()
		return nil, fmt.Errorf("replica: %w", err)
	}
	s.rep = rep
	var sink oltp.UpdateSink = rep
	var primary olap.Primary = engine
	rep.SetApplyWorkers(olapWorkers)
	ex := exec.NewEngine(rep, olapWorkers)
	rep.EnableZoneMaps(exec.DefaultMorselTuples)
	rep.EnableCompression()
	rep.ActivateSynopses()
	run := ex.RunBatch
	if tr != nil {
		sink = &tracedSink{inner: rep, t: tr}
		primary = &tracedPrimary{inner: engine, t: tr}
		run = tr.tracedRun(run)
	}
	engine.SetSink(sink)
	s.sched = olap.NewScheduler(rep, primary, run)
	ex.AttachStats(s.sched.Stats())
	s.sched.Start()
	engine.Start()
	if s.dur != nil {
		s.dur.StartRunner(engine, checkpoint.Policy{EveryVIDs: ckptEvery})
	}
	return s, nil
}

// newEngine creates an unstarted OLTP engine over db with the TPC-C
// procedures registered in their constant-size form: each New-Order
// deletes the order that slid out of its district's window, so the
// database holds the same number of orders at the end of a run as at
// its start and query costs do not drift as a run goes on.
func newEngine(db *tpcc.DB) (*oltp.Engine, error) {
	e, err := oltp.New(db.Store, oltp.Config{
		Workers:       oltpWorkers,
		PushPeriod:    pushPeriod,
		Replicated:    tpcc.ReplicatedTables(),
		FieldSpecific: true,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	tpcc.RegisterProcs(e, db, true)
	return e, nil
}

// stop shuts the instance down: the checkpointer, the OLAP dispatcher,
// then the engine, which flushes and closes the command log.
func (s *system) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	if s.dur != nil {
		s.dur.StopRunner()
	}
	s.sched.Close()
	return s.engine.Close()
}

// close stops the instance and removes its data dir.
func (s *system) close() error {
	err := s.stop()
	if s.dataDir != "" {
		if rerr := os.RemoveAll(s.dataDir); err == nil {
			err = rerr
		}
	}
	return err
}

// setUp builds the instance reps times, each from scratch, and keeps the
// last. It returns the median build time: set-up is timed as a median of
// repeats so that a single slow build does not move the figure. Each
// build of a durable instance gets its own fresh data dir.
func setUp(reps int, seed int64, workDir string, durable bool, tr *tracer) (*system, float64, error) {
	var times []float64
	var s *system
	for i := 0; i < reps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, err
			}
			s = nil
			// Collect the discarded instance outside the timed build.
			runtime.GC()
		}
		dir := ""
		if durable {
			d, err := os.MkdirTemp(workDir, "data-")
			if err != nil {
				return nil, 0, err
			}
			dir = d
		}
		t0 := time.Now()
		var err error
		s, err = build(seed, dir, tr)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}
