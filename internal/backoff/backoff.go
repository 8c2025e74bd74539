// Package backoff is the one retry schedule shared by every retry loop in
// the module: sweep-point retries, remote dispatch retries and lost
// work-queue claim races.
package backoff

import (
	"context"
	"time"
)

// Delay returns the pause before retry attempt (1-based): base doubled
// per attempt up to max, plus up to 50% jitter, and never more than max.
// The jitter is a hash of key and attempt, so Delay is a pure function:
// a repeated run backs off identically, while callers with distinct keys
// (one per sweep rate, or per worker and point) do not retry in
// lockstep. Attempts below 1 count as 1.
func Delay(attempt int, base, max time.Duration, key uint64) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	d = min(d, max)
	h := (key ^ uint64(attempt)*0x517cc1b727220a95) * 0x9e3779b97f4a7c15
	d += time.Duration(h>>56) * d / 512
	return min(d, max)
}

// Sleep waits d or until ctx is done, reporting whether the full wait
// elapsed. A context that is already done returns false at once.
func Sleep(ctx context.Context, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
