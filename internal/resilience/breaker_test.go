package resilience

import (
	"errors"
	"testing"
	"time"
)

func TestBreakerStateMachine(t *testing.T) {
	clk := NewFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Second, HalfOpenProbes: 2, Clock: clk})

	// Closed: failures below the threshold keep passing traffic; a success
	// resets the consecutive count.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed Allow: %v", err)
		}
		b.Record(false)
	}
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(true) // resets: the next two failures alone must not trip
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.Record(false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after reset + 2 failures = %v, want closed", got)
	}

	// Third consecutive failure trips it open.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open Allow = %v, want ErrBreakerOpen", err)
	}

	// Cool-down elapses: half-open admits exactly HalfOpenProbes probes.
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe: %v", err)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe beyond budget = %v, want ErrBreakerOpen", err)
	}

	// A failed probe reopens immediately and restarts the cool-down.
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	b.Record(true) // the other probe's late success changes nothing while open
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after late success = %v, want open", got)
	}

	// Full recovery: both probes succeed → closed.
	clk.Advance(time.Second)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("recovery probe %d: %v", i, err)
		}
		b.Record(true)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probes = %v, want closed", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed after recovery: %v", err)
	}
	b.Record(true)
}

func TestBreakerHalfOpenOnlyAfterCooldown(t *testing.T) {
	clk := NewFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: 10 * time.Second, Clock: clk})
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false)
	clk.Advance(9 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow 1s before cool-down end = %v, want ErrBreakerOpen", err)
	}
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow at cool-down end: %v", err)
	}
}

// TestBreakerAdmitsAnswersAsAllow pins the read-only admission check: in
// every state Admits answers as the next Allow does, and asking never
// moves the breaker — a cooled-down open breaker stays open until an
// Allow half-opens it.
func TestBreakerAdmitsAnswersAsAllow(t *testing.T) {
	clk := NewFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, Clock: clk})
	step := func(name string, want bool, state BreakerState) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if got := b.Admits(); got != want {
				t.Fatalf("%s: Admits = %v, want %v", name, got, want)
			}
		}
		if got := b.State(); got != state {
			t.Fatalf("%s: state %v after Admits, want %v", name, got, state)
		}
		if err := b.Allow(); (err == nil) != want {
			t.Fatalf("%s: Allow = %v after Admits = %v", name, err, want)
		}
	}
	step("closed", true, BreakerClosed)
	b.Record(false) // trips
	step("open, cooling", false, BreakerOpen)
	clk.Advance(time.Second)
	step("open, cooled down", true, BreakerOpen) // this Allow takes the half-open probe
	step("half-open, probe out", false, BreakerHalfOpen)
	b.Record(true)
	step("closed again", true, BreakerClosed)
	b.Record(true)
}
