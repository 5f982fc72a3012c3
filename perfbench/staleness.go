package main

import "sort"

// ack is one acknowledged write transaction: when its client saw the
// acknowledgement (nanoseconds since the run's epoch) and its commit VID.
type ack struct {
	at  int64
	vid uint64
}

// ackLog answers freshness questions about a run's acknowledged writes
// from the benchmark's own records, not from the program's trackers.
type ackLog struct {
	acks []ack
	// maxVID[i] is the highest commit VID among acks[:i+1]; it is
	// non-decreasing, so searches over it are binary.
	maxVID []uint64
}

// newAckLog orders acks by acknowledgement time.
func newAckLog(acks []ack) *ackLog {
	s := append([]ack(nil), acks...)
	sort.Slice(s, func(i, j int) bool { return s[i].at < s[j].at })
	l := &ackLog{acks: s, maxVID: make([]uint64, len(s))}
	var m uint64
	for i, a := range s {
		if a.vid > m {
			m = a.vid
		}
		l.maxVID[i] = m
	}
	return l
}

// staleness returns how stale an answer on snapshot snap, delivered at
// time answered, was: the age at that moment of the oldest
// acknowledgement before it whose write the snapshot misses. It is 0
// when the snapshot includes every write acknowledged before the answer.
func (l *ackLog) staleness(snap uint64, answered int64) int64 {
	// The first ack (in time) with vid > snap is where the running
	// maximum first exceeds snap.
	i := sort.Search(len(l.maxVID), func(i int) bool { return l.maxVID[i] > snap })
	if i == len(l.acks) || l.acks[i].at >= answered {
		return 0
	}
	return answered - l.acks[i].at
}

// maxVIDBefore returns the highest commit VID acknowledged strictly
// before time t (0 when none was).
func (l *ackLog) maxVIDBefore(t int64) uint64 {
	i := sort.Search(len(l.acks), func(i int) bool { return l.acks[i].at >= t })
	if i == 0 {
		return 0
	}
	return l.maxVID[i-1]
}
