package backoff

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestSchedules drives the one schedule with each caller's parameters.
// Every row checks that delays are deterministic, within [base, max],
// non-decreasing in the attempt number (strictly below the cap), that
// distinct keys decorrelate, and that a cancelled context cuts the
// row's longest sleep short at once.
func TestSchedules(t *testing.T) {
	rateKeys := func(rates ...float64) []uint64 {
		keys := make([]uint64, len(rates))
		for i, r := range rates {
			keys[i] = math.Float64bits(r)
		}
		return keys
	}
	for _, row := range []struct {
		name      string
		base, max time.Duration
		attempts  int
		keys      []uint64
	}{
		// runPoint: a sweep point's transient-failure retries, keyed by rate.
		{"point retry", 100 * time.Millisecond, 5 * time.Second, 8,
			rateKeys(0, 0.01, 0.02, 0.03, 0.05, 0.11, 0.5, 0.999)},
		// remote.Pool: HTTP dispatch retries, keyed by rate.
		{"remote dispatch", 10 * time.Millisecond, 200 * time.Millisecond, 60,
			rateKeys(0.02, 0.04, 0.05, 0.06, 0.08)},
		// A queue worker: a lost claim race, keyed by worker and point.
		{"claim race", 500 * time.Millisecond, time.Second, 1,
			[]uint64{1, 2, 3, 0xdeadbeef, 1 << 63}},
	} {
		t.Run(row.name, func(t *testing.T) {
			distinct := map[time.Duration]bool{}
			for _, key := range row.keys {
				prev := time.Duration(0)
				for a := 1; a <= row.attempts; a++ {
					d := Delay(a, row.base, row.max, key)
					if again := Delay(a, row.base, row.max, key); again != d {
						t.Fatalf("key %x attempt %d: %v then %v", key, a, d, again)
					}
					if d < row.base || d > row.max {
						t.Fatalf("key %x attempt %d: %v outside [%v, %v]", key, a, d, row.base, row.max)
					}
					if d < prev || (d == prev && prev < row.max) {
						t.Fatalf("key %x attempt %d: %v does not grow past attempt %d's %v", key, a, d, a-1, prev)
					}
					prev = d
				}
				if row.attempts >= 60 && prev != row.max {
					t.Errorf("key %x: attempt %d waits %v, want the %v cap", key, row.attempts, prev, row.max)
				}
				distinct[Delay(1, row.base, row.max, key)] = true
			}
			if len(distinct) < 2 {
				t.Errorf("%d keys share one first delay; retries would synchronize", len(row.keys))
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			if Sleep(ctx, Delay(row.attempts, row.base, row.max, row.keys[0])+time.Hour) {
				t.Fatal("Sleep reported a full wait under a cancelled context")
			}
			if waited := time.Since(start); waited > 100*time.Millisecond {
				t.Fatalf("cancelled Sleep waited %v", waited)
			}
		})
	}
}

// TestSleepCancelledMidWait cancels while the timer is pending.
func TestSleepCancelledMidWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if Sleep(ctx, time.Hour) {
		t.Fatal("Sleep reported a full wait after mid-wait cancellation")
	}
	if !Sleep(context.Background(), time.Millisecond) {
		t.Fatal("Sleep cut short without cancellation")
	}
}
