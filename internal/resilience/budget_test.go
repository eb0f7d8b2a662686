package resilience

import (
	"context"
	"testing"
	"time"
)

// TestRetryAttemptContextCarriesBudgetDeadline pins the shrinking-deadline
// contract on the fake clock: every attempt context carries the budget's
// fixed end as its deadline, wherever in the budget it was opened, and
// Remaining shrinks with the clock down to zero, never below.
func TestRetryAttemptContextCarriesBudgetDeadline(t *testing.T) {
	clk := NewFakeClock()
	start := clk.Now()
	budget := NewBudget(clk, 30*time.Second)
	end := start.Add(30 * time.Second)

	for _, step := range []struct {
		advance   time.Duration
		remaining time.Duration
	}{
		{0, 30 * time.Second},
		{10 * time.Second, 20 * time.Second},
		{19 * time.Second, time.Second},
		{time.Second, 0},
		{time.Hour, 0},
	} {
		clk.Advance(step.advance)
		if got := budget.Remaining(); got != step.remaining {
			t.Errorf("at +%v: Remaining %v, want %v", clk.Now().Sub(start), got, step.remaining)
		}
		ctx, cancel := budget.Context(context.Background())
		dl, ok := ctx.Deadline()
		cancel()
		if !ok || !dl.Equal(end) {
			t.Errorf("at +%v: attempt deadline %v (set %v), want the budget's end %v", clk.Now().Sub(start), dl, ok, end)
		}
	}

	// A parent that ends sooner keeps its own deadline.
	parent, cancelParent := context.WithDeadline(context.Background(), start.Add(5*time.Second))
	defer cancelParent()
	ctx, cancel := NewBudget(clk, time.Minute).Context(parent)
	defer cancel()
	if dl, _ := ctx.Deadline(); !dl.Equal(start.Add(5 * time.Second)) {
		t.Errorf("attempt deadline %v, want the parent's earlier %v", dl, start.Add(5*time.Second))
	}
}
