package main

import (
	"sort"
	"testing"
)

// Acknowledgements of a synthetic write stream: VIDs 1..5 acked at 10,
// 20, ..., 50 ns, except that VIDs 3 and 4 were acked out of order.
var stream = []ack{
	{at: 10, vid: 1},
	{at: 20, vid: 2},
	{at: 40, vid: 3},
	{at: 30, vid: 4},
	{at: 50, vid: 5},
}

func TestStalenessZeroWhenAnswerIncludesEveryAck(t *testing.T) {
	l := newAckLog(stream)
	for _, c := range []struct {
		snap     uint64
		answered int64
	}{
		{5, 100}, // every write in the snapshot
		{2, 25},  // answered before VID 3 or 4 was acknowledged
		{0, 5},   // nothing acknowledged yet
		{0, 10},  // the ack at 10 is not before an answer at 10
	} {
		if got := l.staleness(c.snap, c.answered); got != 0 {
			t.Errorf("snap %d answered %d: staleness %d, want 0", c.snap, c.answered, got)
		}
	}
}

func TestStalenessIsAgeOfOldestMissingAck(t *testing.T) {
	l := newAckLog(stream)
	for _, c := range []struct {
		snap     uint64
		answered int64
		want     int64
	}{
		{0, 100, 90}, // misses VID 1, acked at 10
		{2, 100, 70}, // misses 3, 4, 5; the oldest ack is VID 4's at 30
		{3, 100, 70}, // misses VID 4, acked at 30 before VID 3
		{4, 100, 50}, // misses VID 5, acked at 50
		{2, 35, 5},   // only VID 4 acked so far among the missing
	} {
		if got := l.staleness(c.snap, c.answered); got != c.want {
			t.Errorf("snap %d answered %d: staleness %d, want %d", c.snap, c.answered, got, c.want)
		}
	}
}

// The binary search agrees with a direct scan on a longer stream whose
// VIDs arrive out of acknowledgement order.
func TestStalenessMatchesDirectScan(t *testing.T) {
	var acks []ack
	for i := 0; i < 200; i++ {
		acks = append(acks, ack{at: int64(i*7 + (i%5)*3), vid: uint64(i + 1)})
	}
	l := newAckLog(acks)
	sorted := append([]ack(nil), acks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	for snap := uint64(0); snap <= 201; snap += 3 {
		for answered := int64(0); answered < 1500; answered += 11 {
			var want int64
			for _, a := range sorted {
				if a.at < answered && a.vid > snap {
					want = answered - a.at
					break
				}
			}
			if got := l.staleness(snap, answered); got != want {
				t.Fatalf("snap %d answered %d: staleness %d, want %d", snap, answered, got, want)
			}
		}
	}
}

func TestMaxVIDBefore(t *testing.T) {
	l := newAckLog(stream)
	for _, c := range []struct {
		t    int64
		want uint64
	}{{5, 0}, {10, 0}, {11, 1}, {31, 4}, {41, 4}, {51, 5}} {
		if got := l.maxVIDBefore(c.t); got != c.want {
			t.Errorf("maxVIDBefore(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs, 91); ok {
		t.Fatal("p91 of 100 samples has only 9 beyond it but was reported")
	}
	if v, ok := percentile(xs, 50); !ok || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	if _, ok := percentile(xs[:19], 50); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it but was reported")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Fatal("percentile of no samples was reported")
	}
}
