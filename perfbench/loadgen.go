package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Open-loop load generator. Arrivals follow a seeded Poisson schedule fixed
// before the run starts; a fixed set of senders (one per connection) takes
// requests in due order. A request whose due time passes while every sender
// is busy waits in the generator, and its latency is timed from the due
// time, so a stall in the server is charged to every request scheduled
// during it (coordinated omission is counted, not hidden).

// poissonSchedule returns the arrival offsets of a Poisson process at rate
// requests per second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// sample is one issued request, as offsets from the start of the run.
type sample struct {
	Index           int
	Due, Sent, Done time.Duration
	Err             error
	issued          bool
}

// Latency is the time from the request's due time to its completion.
func (s sample) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the generator sent the request.
func (s sample) Lag() time.Duration { return s.Sent - s.Due }

// Service is the time from send to completion.
func (s sample) Service() time.Duration { return s.Done - s.Sent }

// runOpenLoop issues request i at due[i] through conns concurrent senders
// calling do(i). Senders take no request due at or after stop (0 = no cut),
// so an overloaded run ends on time instead of draining an unbounded
// backlog. It returns the issued requests in due order and the wall time
// from start until the last one completed.
func runOpenLoop(due []time.Duration, conns int, stop time.Duration, do func(i int) error) ([]sample, time.Duration) {
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if stop > 0 && (due[i] >= stop || time.Since(start) >= stop) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				err := do(i)
				out[i] = sample{Index: i, Due: due[i], Sent: sent, Done: time.Since(start), Err: err, issued: true}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	issued := out[:0]
	for _, s := range out {
		if s.issued {
			issued = append(issued, s)
		}
	}
	return issued, elapsed
}
