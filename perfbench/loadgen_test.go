package main

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleSeededRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 2000, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 2000, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	if n := len(a); n < 3600 || n > 4400 {
		t.Fatalf("%d arrivals in 2s at 2000/s", n)
	}
}

// A server that stalls once must charge the stall to every request that
// fell due while it lasted: their latency runs from their due time, not
// from when the blocked sender finally got to them.
func TestOpenLoopChargesStallToWaitingRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 50 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	client := srv.Client()

	const rate = 400.0
	due := poissonSchedule(rand.New(rand.NewSource(3)), rate, 800*time.Millisecond)
	samples, _ := runOpenLoop(due, 1, 0, func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
	if len(samples) != len(due) {
		t.Fatalf("issued %d of %d requests", len(samples), len(due))
	}

	var stalled sample
	for _, s := range samples {
		if s.Err != nil {
			t.Fatalf("request %d: %v", s.Index, s.Err)
		}
		if s.Service() >= stall {
			stalled = s
		}
	}
	if stalled.Service() < stall {
		t.Fatal("no request observed the stall")
	}
	waited := 0
	for _, s := range samples {
		if s.Due <= stalled.Sent || s.Due >= stalled.Done {
			continue
		}
		waited++
		if s.Latency() < stalled.Done-s.Due {
			t.Errorf("request %d due %v during the stall reports latency %v, want >= %v",
				s.Index, s.Due, s.Latency(), stalled.Done-s.Due)
		}
		if s.Lag() < stalled.Done-s.Due {
			t.Errorf("request %d lag %v does not show the wait", s.Index, s.Lag())
		}
	}
	// ~60 arrivals fall in a 150 ms stall at 400/s; allow Poisson spread.
	if waited < 30 {
		t.Fatalf("only %d requests fell due during the stall", waited)
	}
	lat := make([]float64, len(samples))
	svc := make([]float64, len(samples))
	for i, s := range samples {
		lat[i], svc[i] = ms(s.Latency()), ms(s.Service())
	}
	if p := quantile(lat, 0.9); p < ms(stall)/4 {
		t.Errorf("latency p90 %.2f ms hides the stall", p)
	}
	if quantile(svc, 0.9) >= quantile(lat, 0.9) {
		t.Errorf("service-time p90 %.2f ms not below due-time p90 %.2f ms", quantile(svc, 0.9), quantile(lat, 0.9))
	}
}

func TestOpenLoopStopCut(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(1)), 1000, time.Second)
	samples, elapsed := runOpenLoop(due, 2, 200*time.Millisecond, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if len(samples) == 0 || len(samples) >= len(due) {
		t.Fatalf("issued %d of %d with a 200ms cut", len(samples), len(due))
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cut run took %v", elapsed)
	}
	for _, s := range samples {
		if s.Due >= 200*time.Millisecond {
			t.Fatalf("request due %v issued after the cut", s.Due)
		}
	}
}
