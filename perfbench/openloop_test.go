package main

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeededAndIncreasing(t *testing.T) {
	a := poissonSchedule(7, 1000, 5000)
	b := poissonSchedule(7, 1000, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 1000, 5000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due time %d (%v) before due time %d (%v)", i, a[i], i-1, a[i-1])
		}
	}
	// 5000 exponential gaps of mean 1 ms: the total is 5 s within a few
	// standard deviations (sd = sqrt(5000) ms, about 71 ms).
	if got := a[len(a)-1].Seconds(); math.Abs(got-5) > 0.4 {
		t.Fatalf("5000 arrivals at 1000/s span %.3f s, want about 5 s", got)
	}
}

func TestPeriodicSchedule(t *testing.T) {
	got := periodicSchedule(50*time.Millisecond, 100*time.Millisecond, 3)
	want := []time.Duration{50 * time.Millisecond, 150 * time.Millisecond, 250 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Every request is sent once, never before it is due, and handed its
// due time so the caller times it from there.
func TestRunOpenLoopSendsOnScheduleFromDueTime(t *testing.T) {
	due := periodicSchedule(0, 2*time.Millisecond, 20)
	start := time.Now().Add(5 * time.Millisecond)
	var mu sync.Mutex
	seen := map[int]time.Time{}
	sentAt := map[int]time.Time{}
	late := runOpenLoop(start, due, func(i int, at time.Time) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[i]; dup {
			t.Errorf("request %d sent twice", i)
		}
		seen[i], sentAt[i] = at, now
	})
	if len(seen) != len(due) || len(late) != len(due) {
		t.Fatalf("sent %d requests with %d lateness figures, want %d", len(seen), len(late), len(due))
	}
	for i, off := range due {
		want := start.Add(off)
		if !seen[i].Equal(want) {
			t.Errorf("request %d got due time %v, want %v", i, seen[i], want)
		}
		if sentAt[i].Before(want) {
			t.Errorf("request %d sent %v before it was due", i, want.Sub(sentAt[i]))
		}
		if late[i] < 0 {
			t.Errorf("request %d has negative lateness %v", i, late[i])
		}
	}
}

// A slow request does not hold back the ones due after it: the loop is
// open, so they are sent on time while it is still running.
func TestRunOpenLoopDoesNotWaitForEarlierRequests(t *testing.T) {
	due := []time.Duration{0, 10 * time.Millisecond}
	release := make(chan struct{})
	second := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		runOpenLoop(time.Now(), due, func(i int, _ time.Time) {
			if i == 0 {
				<-release
				return
			}
			close(second)
		})
	}()
	select {
	case <-second:
	case <-time.After(5 * time.Second):
		t.Fatal("second request waited for the first")
	}
	close(release)
	<-done
}
