package main

import (
	"errors"
	"fmt"
	"time"

	"batchdb/internal/mvcc"
	"batchdb/internal/oltp"
	"batchdb/internal/tpcc"
)

// maxRetries bounds conflict retries of one transaction; a transaction
// that conflicts this often counts as failed.
const maxRetries = 1000

// txnReq is one pre-generated TPC-C call.
type txnReq struct {
	proc string
	args []byte
}

// genTxns draws n calls of the standard TPC-C mix from seed.
func genTxns(scale tpcc.Scale, seed int64, n int) []txnReq {
	drv := tpcc.NewDriver(scale, seed)
	out := make([]txnReq, n)
	for i := range out {
		out[i].proc, out[i].args = drv.Next()
	}
	return out
}

// txnDone is one transaction as its client saw it.
type txnDone struct {
	// acked is when the client saw the final outcome, in nanoseconds
	// since the run's epoch; vid is the commit VID (0 for read-only
	// calls and rollbacks).
	acked   int64
	vid     uint64
	retries int
	err     error
	// paidWID and paid record an acknowledged Payment's warehouse and
	// amount, for the year-to-date check.
	paidWID int64
	paid    float64
}

// doTxn runs one call to its outcome, retrying conflicts. A TPC-C
// New-Order rollback (1% of New-Orders, by design of the mix) is a
// completed transaction, not a failure.
func doTxn(e *oltp.Engine, r txnReq, epoch time.Time) txnDone {
	var d txnDone
	for {
		resp := e.Exec(r.proc, r.args)
		d.acked = int64(time.Since(epoch))
		switch {
		case resp.Err == nil:
			d.vid = resp.CommitVID
			if r.proc == tpcc.ProcPayment {
				a, err := tpcc.DecodePaymentArgs(r.args)
				if err != nil {
					d.err = err
					return d
				}
				d.paidWID, d.paid = a.WID, a.Amount
			}
			return d
		case errors.Is(resp.Err, tpcc.ErrRollback):
			return d
		case errors.Is(resp.Err, mvcc.ErrConflict) && d.retries < maxRetries:
			d.retries++
		default:
			d.err = fmt.Errorf("%s: %w", r.proc, resp.Err)
			return d
		}
	}
}

// txnTally folds transaction outcomes into the figures the checks and
// metrics need.
type txnTally struct {
	done, failed int
	retries      uint64
	lastVID      uint64
	paid         map[int64]float64
	acks         []ack
}

func newTxnTally() *txnTally { return &txnTally{paid: map[int64]float64{}} }

func (t *txnTally) add(d txnDone) {
	t.done++
	t.retries += uint64(d.retries)
	if d.err != nil {
		t.failed++
		fmt.Printf("failed: %v\n", d.err)
		return
	}
	if d.paid != 0 {
		t.paid[d.paidWID] += d.paid
	}
	if d.vid > 0 {
		t.acks = append(t.acks, ack{at: d.acked, vid: d.vid})
		if d.vid > t.lastVID {
			t.lastVID = d.vid
		}
	}
}
