package resilience

import (
	"net/http"
	"testing"
	"time"
)

// retryAfterNow is the clock reading the ParseRetryAfter table and the
// fuzz seeds resolve HTTP-dates against.
var retryAfterNow = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// retryAfterCases are the ParseRetryAfter table; their inputs are also
// FuzzParseRetryAfter's committed seeds (testdata/fuzz/FuzzParseRetryAfter).
var retryAfterCases = []struct {
	name string
	in   string
	want time.Duration
}{
	{"delta seconds", "30", 30 * time.Second},
	{"delta one", "1", time.Second},
	{"delta zero floors", "0", time.Second},
	{"delta negative floors", "-5", time.Second},
	{"http date rfc1123", retryAfterNow.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
	{"http date rfc850", retryAfterNow.Add(2 * time.Minute).Format("Monday, 02-Jan-06 15:04:05 GMT"), 2 * time.Minute},
	{"http date asctime", retryAfterNow.Add(45 * time.Second).Format(time.ANSIC), 45 * time.Second},
	{"http date in past floors", retryAfterNow.Add(-time.Hour).Format(http.TimeFormat), time.Second},
	{"http date now floors", retryAfterNow.Format(http.TimeFormat), time.Second},
	{"empty", "", time.Second},
	{"garbage", "soon-ish", time.Second},
	{"float delta is not a delta", "2.5", time.Second},
	{"delta overflowing int64 caps", "999999999999999999999999", MaxRetryAfter},
	{"delta overflowing int64 negative floors", "-999999999999999999999999", time.Second},
	{"delta below the cap", "3599", 3599 * time.Second},
	{"delta at the cap", "3600", MaxRetryAfter},
	{"delta wrapping negative caps", "10000000000", MaxRetryAfter},
	{"delta wrapping small caps", "18446744074", MaxRetryAfter},
	{"delta max int64 caps", "9223372036854775807", MaxRetryAfter},
	{"http date far future caps", "Fri, 31 Dec 9999 23:59:59 GMT", MaxRetryAfter},
}

// TestParseRetryAfter pins both RFC 9110 forms plus both bounds:
// delta-seconds, HTTP-dates in all three accepted formats, inputs that
// must collapse to the 1s minimum instead of panicking or zeroing, and
// deltas whose seconds would overflow a Duration or an int64, which cap
// at MaxRetryAfter instead of wrapping (a negative one floors).
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range retryAfterCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ParseRetryAfter(tc.in, retryAfterNow); got != tc.want {
				t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

// FuzzParseRetryAfter checks the documented bounds on arbitrary input and
// any clock reading: the wait is never below the 1s floor and never above
// MaxRetryAfter.
func FuzzParseRetryAfter(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string, nowUnix int64) {
		if got := ParseRetryAfter(v, time.Unix(nowUnix, 0)); got < time.Second || got > MaxRetryAfter {
			t.Fatalf("ParseRetryAfter(%q, %d) = %v, outside [1s, %v]", v, nowUnix, got, MaxRetryAfter)
		}
	})
}
