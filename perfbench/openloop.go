package main

import (
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns n due offsets of a Poisson arrival process
// with the given mean rate per second: independent users, each request
// sent regardless of how the previous ones fared. The same seed gives
// the same schedule.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * 1e9)
	}
	return out
}

// periodicSchedule returns n due offsets one period apart, starting at
// offset first.
func periodicSchedule(first, period time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = first + time.Duration(i)*period
	}
	return out
}

// runOpenLoop sends request i at start+due[i], each in its own
// goroutine, without waiting for earlier requests to finish. fire gets
// the request's due time, from which it times the request, so a stall
// that delays later sends is charged to them. It returns once every
// request has been sent and has finished, with how late each send was.
func runOpenLoop(start time.Time, due []time.Duration, fire func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(due))
	var wg sync.WaitGroup
	for i, off := range due {
		at := start.Add(off)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(at)
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			fire(i, at)
		}(i, at)
	}
	wg.Wait()
	return late
}
