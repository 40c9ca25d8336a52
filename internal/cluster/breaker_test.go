package cluster

import (
	"testing"
	"time"
)

// failTimes records n failures at time now.
func failTimes(b *breaker, now time.Time, n int) {
	for i := 0; i < n; i++ {
		b.record(now, true)
	}
}

// TestBreakerTripsOnFailureRate drives a fresh breaker to its trip point
// and asserts it refuses admission without a network attempt once open,
// admits exactly one half-open trial after cooldown, and lets that trial's
// outcome alone decide between closing and reopening.
//
//sync4:covers SYNC4-CLUS-004
func TestBreakerTripsOnFailureRate(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(10, 4, time.Second)

	// Below minSamples nothing trips, even at 100% failure.
	failTimes(b, now, 3)
	if !b.admit(now) {
		t.Fatal("breaker tripped below its sample floor")
	}
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state %s below sample floor, want closed", breakerStateName(st))
	}

	// Fourth failure reaches minSamples with a 100% failure rate: open.
	failTimes(b, now, 1)
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("state %s after trip, want open", breakerStateName(st))
	}
	if b.admit(now) {
		t.Fatal("open breaker admitted an exchange before cooldown")
	}
	if b.admit(now.Add(500 * time.Millisecond)) {
		t.Fatal("open breaker admitted an exchange mid-cooldown")
	}

	// Cooldown elapses: exactly one half-open trial is admitted; a second
	// concurrent exchange is refused while the trial is in flight.
	trial := now.Add(time.Second + time.Millisecond)
	if !b.admit(trial) {
		t.Fatal("breaker refused the half-open trial after cooldown")
	}
	if st, _ := b.snapshot(); st != breakerHalfOpen {
		t.Fatalf("state %s during trial, want half-open", breakerStateName(st))
	}
	if b.admit(trial) {
		t.Fatal("half-open breaker admitted a second exchange during the trial")
	}

	// Trial failure reopens for another full cooldown.
	b.record(trial, true)
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("state %s after failed trial, want open", breakerStateName(st))
	}
	if b.admit(trial.Add(500 * time.Millisecond)) {
		t.Fatal("reopened breaker admitted an exchange mid-cooldown")
	}

	// Next trial succeeds: closed, window reset, exchanges flow again.
	trial2 := trial.Add(time.Second + time.Millisecond)
	if !b.admit(trial2) {
		t.Fatal("breaker refused the second half-open trial")
	}
	b.record(trial2, false)
	st, transitions := b.snapshot()
	if st != breakerClosed {
		t.Fatalf("state %s after successful trial, want closed", breakerStateName(st))
	}
	if !b.admit(trial2) {
		t.Fatal("closed breaker refused an exchange")
	}
	// closed→open, open→half-open, half-open→open, open→half-open,
	// half-open→closed.
	if transitions != 5 {
		t.Fatalf("observed %d transitions, want 5", transitions)
	}

	// A reset window forgets old failures: one new failure must not trip.
	b.record(trial2, true)
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state %s after one post-reset failure, want closed", breakerStateName(st))
	}
}

// TestBreakerMixedWindowBelowHalfStaysClosed checks the rate condition:
// the breaker trips at >= 50% failures over the window, not on any failure.
func TestBreakerMixedWindowBelowHalfStaysClosed(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(10, 4, time.Second)
	for i := 0; i < 10; i++ {
		b.record(now, i%3 == 2) // 3 of 10 fail, and below half at every prefix
	}
	if st, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state %s at 30%% failures, want closed", breakerStateName(st))
	}
	// Two more failures push the sliding window to 50%: trip.
	failTimes(b, now, 2)
	if st, _ := b.snapshot(); st != breakerOpen {
		t.Fatalf("state %s at half failures, want open", breakerStateName(st))
	}
}
