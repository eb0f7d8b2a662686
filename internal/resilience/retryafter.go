package resilience

import (
	"errors"
	"net/http"
	"strconv"
	"time"
)

// MaxRetryAfter caps every Retry-After wait. A backend asking for more
// than an hour is sitting out longer than any probe or breaker cycle, and
// the cap keeps now.Add(d) inside the range time.Time.UnixNano can
// represent, so a hostile or garbled hint cannot wrap a penalty deadline
// into the past.
const MaxRetryAfter = time.Hour

// RetryAfterSeconds turns a delta-seconds Retry-After into a wait within
// [1s, MaxRetryAfter]. It is the one place a delta becomes a Duration, so
// no caller multiplies untrusted seconds by time.Second itself.
func RetryAfterSeconds(secs int64) time.Duration {
	switch {
	case secs < 1:
		return time.Second
	case secs >= int64(MaxRetryAfter/time.Second):
		return MaxRetryAfter
	}
	return time.Duration(secs) * time.Second
}

// ParseRetryAfter reads an HTTP Retry-After value in either form RFC 9110
// §10.2.3 allows: a non-negative decimal delta in seconds, or an HTTP-date
// after which the client may retry. The date form is resolved against now,
// so callers with a fake clock stay deterministic. Unparseable input, a
// zero/negative delta and a date in the past all yield the 1s floor — a
// server that answered 429/503 is telling us to go away, never to hammer
// it immediately — and every answer is at most MaxRetryAfter. A delta too
// long for an int64 reads as the longest wait (RFC 9111 §1.2.2): ParseInt
// clamps it to ±MaxInt64, which RetryAfterSeconds caps or floors.
func ParseRetryAfter(v string, now time.Time) time.Duration {
	secs, err := strconv.ParseInt(v, 10, 64)
	if err == nil || errors.Is(err, strconv.ErrRange) {
		return RetryAfterSeconds(secs)
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > time.Second {
			return min(d, MaxRetryAfter)
		}
		return time.Second
	}
	return time.Second
}
