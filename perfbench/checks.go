package main

import (
	"fmt"
	"os"

	"batchdb/internal/baseline"
	"batchdb/internal/chbench"
	"batchdb/internal/checkpoint"
	"batchdb/internal/mvcc"
	"batchdb/internal/olap/exec"
	"batchdb/internal/tpcc"
)

// sumTolerance is the relative tolerance for aggregate sums compared
// between the replica's query engine and the baseline evaluator: the
// two add the same float64 values in different orders. Row counts must
// match exactly.
const sumTolerance = 1e-6

// ytdTolerance is the relative tolerance for the TPC-C year-to-date
// balances, which add two-decimal amounts in float64 in different
// orders.
const ytdTolerance = 1e-9

// checker collects answer-check failures; a run with any is incorrect.
type checker struct{ errs []string }

func (c *checker) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.errs = append(c.errs, msg)
	fmt.Fprintln(os.Stderr, "check failed:", msg)
}

func (c *checker) ok() bool { return len(c.errs) == 0 }

// ytd holds the warehouse and district year-to-date balances.
type ytd struct {
	w map[int64]float64
	d map[[2]int64]float64
}

// readYTD reads the balances at the store's latest snapshot.
func readYTD(db *tpcc.DB) ytd {
	tx := db.Store.BeginRO()
	defer tx.Release()
	s := db.Schemas
	out := ytd{w: map[int64]float64{}, d: map[[2]int64]float64{}}
	for w := int64(1); w <= int64(db.Scale.Warehouses); w++ {
		if t, ok := tx.Get(db.Warehouse, tpcc.WarehouseKey(w)); ok {
			out.w[w] = s.Warehouse.GetFloat64(t, tpcc.WYtd)
		}
		for d := int64(1); d <= int64(db.Scale.DistrictsPerWarehouse); d++ {
			if t, ok := tx.Get(db.District, tpcc.DistrictKey(w, d)); ok {
				out.d[[2]int64{w, d}] = s.District.GetFloat64(t, tpcc.DYtd)
			}
		}
	}
	return out
}

// checkTPCC verifies TPC-C consistency conditions on the primary's
// latest snapshot:
//   - each warehouse's W_YTD grew by the sum of its districts' D_YTD
//     growth, and by the amounts of the payments its clients saw
//     acknowledged (paid, per warehouse);
//   - D_NEXT_O_ID - 1 is the district's highest order id;
//   - every new_order row's order exists and is undelivered.
func checkTPCC(c *checker, db *tpcc.DB, before ytd, paid map[int64]float64) {
	after := readYTD(db)
	for w := int64(1); w <= int64(db.Scale.Warehouses); w++ {
		dw := after.w[w] - before.w[w]
		var dd float64
		for d := int64(1); d <= int64(db.Scale.DistrictsPerWarehouse); d++ {
			k := [2]int64{w, d}
			dd += after.d[k] - before.d[k]
		}
		if !relClose(dw, dd, ytdTolerance) {
			c.failf("warehouse %d: W_YTD grew %.2f, its districts' D_YTD %.2f", w, dw, dd)
		}
		if !relClose(dw, paid[w], ytdTolerance) {
			c.failf("warehouse %d: W_YTD grew %.2f, acknowledged payments total %.2f", w, dw, paid[w])
		}
	}

	tx := db.Store.BeginRO()
	defer tx.Release()
	s := db.Schemas
	maxO := map[[2]int64]int64{}
	db.Order.ScanChains(func(ch *mvcc.Chain) bool {
		if r := tx.ReadChain(ch); r != nil {
			k := [2]int64{s.Order.GetInt64(r.Data, tpcc.OWID), s.Order.GetInt64(r.Data, tpcc.ODID)}
			if o := s.Order.GetInt64(r.Data, tpcc.OID); o > maxO[k] {
				maxO[k] = o
			}
		}
		return true
	})
	for w := int64(1); w <= int64(db.Scale.Warehouses); w++ {
		for d := int64(1); d <= int64(db.Scale.DistrictsPerWarehouse); d++ {
			t, ok := tx.Get(db.District, tpcc.DistrictKey(w, d))
			if !ok {
				c.failf("district %d/%d missing", w, d)
				continue
			}
			next := s.District.GetInt64(t, tpcc.DNextOID)
			if m := maxO[[2]int64{w, d}]; next-1 != m {
				c.failf("district %d/%d: D_NEXT_O_ID-1 = %d, max O_ID = %d", w, d, next-1, m)
			}
		}
	}
	db.NewOrder.ScanChains(func(ch *mvcc.Chain) bool {
		r := tx.ReadChain(ch)
		if r == nil {
			return true
		}
		w, d, o := s.NewOrder.GetInt64(r.Data, tpcc.NOWID), s.NewOrder.GetInt64(r.Data, tpcc.NODID), s.NewOrder.GetInt64(r.Data, tpcc.NOOID)
		ot, ok := tx.Get(db.Order, tpcc.OrderKey(w, d, o))
		switch {
		case !ok:
			c.failf("new_order %d/%d/%d has no order", w, d, o)
		case s.Order.GetInt64(ot, tpcc.OCarrierID) != 0:
			c.failf("new_order %d/%d/%d: order already delivered", w, d, o)
		}
		return true
	})
}

// sameAnswer compares a replica answer with the baseline evaluator's.
// Only totals are compared: the baseline does not group.
func sameAnswer(c *checker, what string, got, want exec.Result) {
	if got.Err != nil || want.Err != nil {
		c.failf("%s: errors %v (replica) / %v (baseline)", what, got.Err, want.Err)
		return
	}
	if got.Rows != want.Rows {
		c.failf("%s: %d rows (replica) != %d (baseline)", what, got.Rows, want.Rows)
	}
	if len(got.Values) != len(want.Values) {
		c.failf("%s: %d aggregates (replica) != %d (baseline)", what, len(got.Values), len(want.Values))
		return
	}
	for i := range got.Values {
		if !relClose(got.Values[i], want.Values[i], sumTolerance) {
			c.failf("%s aggregate %d: %v (replica) != %v (baseline)", what, i, got.Values[i], want.Values[i])
		}
	}
}

// checkReplica forces a final push, then asks the replica every CH
// template once through the OLAP dispatcher and compares each answer
// with the baseline evaluator, which scans the primary's MVCC version
// chains directly. The primary is idle, so both read the same VID.
func checkReplica(c *checker, s *system, seed int64) {
	s.engine.SyncUpdates()
	vid := s.engine.LatestVID()
	base := baseline.New(s.db, 1, baseline.FairShared)
	defer base.Close()
	gen := chbench.NewGen(s.db.Schemas, seed)
	for _, name := range chbench.QueryNames {
		q := gen.ByName(name)
		got, err := s.sched.Query(q)
		if err != nil {
			c.failf("final %s: %v", name, err)
			continue
		}
		if got.SnapshotVID != vid {
			c.failf("final %s: answered at VID %d, primary at %d", name, got.SnapshotVID, vid)
		}
		sameAnswer(c, "final "+name, got, base.Query(q))
	}
}

// checkRecovery stops the instance, restarts its data dir into a fresh
// store, and compares the recovered store's fingerprint with the live
// store's at the last acknowledged VID.
func checkRecovery(c *checker, s *system, seed int64, lastAck uint64) {
	want := checkpoint.SumAt(s.db.Store, lastAck)
	if err := s.stop(); err != nil {
		c.failf("recovery: stopping the live instance: %v", err)
		return
	}
	db := tpcc.NewDB(s.db.Scale)
	has, err := checkpoint.DirHasCheckpoint(s.dataDir)
	if err != nil {
		c.failf("recovery: %v", err)
		return
	}
	if !has {
		if err := tpcc.Generate(db, seed); err != nil {
			c.failf("recovery: seed: %v", err)
			return
		}
	}
	e, err := newEngine(db)
	if err != nil {
		c.failf("recovery: %v", err)
		return
	}
	defer e.Close()
	st, info, err := checkpoint.Boot(e, checkpoint.BootConfig{Dir: s.dataDir, SegmentBytes: segmentBytes})
	if err != nil {
		c.failf("recovery: boot: %v", err)
		return
	}
	defer st.Close()
	fmt.Fprintf(os.Stderr, "recovery: checkpoint vid %d, replayed %d, watermark %d, last ack %d\n",
		info.CheckpointVID, info.Replayed, info.WatermarkVID, lastAck)
	if info.WatermarkVID < lastAck {
		c.failf("recovery: watermark %d below last acknowledged VID %d", info.WatermarkVID, lastAck)
		return
	}
	if !checkpoint.SumsEqual(checkpoint.SumAt(db.Store, lastAck), want) {
		c.failf("recovery: recovered state differs from the live state at VID %d", lastAck)
	}
}
