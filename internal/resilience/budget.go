package resilience

import (
	"context"
	"time"
)

// Budget is one request's total time allowance, shared across every
// retry attempt: each attempt runs under a context whose deadline is the
// budget's end, so attempt N+1 inherits only what attempt N left behind —
// the shrinking-deadline contract that guarantees retries can never push
// a request past its deadline.
type Budget struct {
	clock    Clock
	deadline time.Time
}

// NewBudget opens a budget of total starting now.
func NewBudget(clock Clock, total time.Duration) *Budget {
	if clock == nil {
		clock = RealClock()
	}
	return &Budget{clock: clock, deadline: clock.Now().Add(total)}
}

// Remaining is how much of the budget is left (never negative).
func (b *Budget) Remaining() time.Duration {
	if d := b.deadline.Sub(b.clock.Now()); d > 0 {
		return d
	}
	return 0
}

// Context derives a child context that dies at the budget's end (or the
// parent's earlier deadline).
func (b *Budget) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithDeadline(ctx, b.deadline)
}
