package orion

import (
	"context"
	"errors"
	"testing"
	"time"

	"orion/internal/backoff"
)

// TestPointBackoffDelaySchedule pins the sweep-point retry schedule: the
// delay starts in [100ms, 150ms), doubles per attempt with under 50%
// jitter keyed by the rate, and is capped at 5s from attempt 7 on.
func TestPointBackoffDelaySchedule(t *testing.T) {
	for _, rate := range []float64{0, 0.01, 0.02, 0.5, 0.999} {
		nominal := 100 * time.Millisecond
		for attempt := 1; attempt <= 10; attempt++ {
			lo := min(nominal, 5*time.Second)
			hi := min(nominal*3/2, 5*time.Second)
			got := pointRetryDelay(attempt, rate)
			if got < lo || got > hi || (lo < hi && got == hi) {
				t.Errorf("rate %g attempt %d: delay %v outside [%v, %v)", rate, attempt, got, lo, hi)
			}
			if attempt >= 7 && got != 5*time.Second {
				t.Errorf("rate %g attempt %d: delay %v, want the 5s cap", rate, attempt, got)
			}
			nominal *= 2
		}
	}
}

// TestPointBackoffCancelledContext: a cancelled sweep must not sit out
// its backoff — the wait aborts immediately, and runPoint gives up on a
// retrying point at once instead of working through its retries.
func TestPointBackoffCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	// Attempt 20 would wait the full 5s cap if the cancellation were
	// ignored.
	if backoff.Sleep(ctx, pointRetryDelay(20, 0.05)) {
		t.Fatal("point backoff reported a full wait under a cancelled context")
	}
	cfg := OnChip4x4(VC16(), 0)
	cfg.Sim.PointTimeout = time.Nanosecond
	cfg.Sim.PointRetries = 20
	if _, err := runPoint(ctx, cfg, 0.05); err == nil {
		t.Fatal("runPoint succeeded under a cancelled context")
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("cancelled point backoff waited %v, want an immediate return", waited)
	}
}

// TestPointBackoffCancelledMidWait: a point that keeps timing out is
// retried with backoff; cancelling the sweep while a retry waits ends
// the point at once instead of sitting out the remaining schedule
// (twenty retries would otherwise wait over a minute). The schedule
// itself is tested in internal/backoff.
func TestPointBackoffCancelledMidWait(t *testing.T) {
	cfg := OnChip4x4(VC16(), 0)
	cfg.Sim.PointTimeout = time.Nanosecond
	cfg.Sim.PointRetries = 20
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	_, err := runPoint(ctx, cfg, 0.05)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("runPoint = %v, want the point's timeout", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancelled sweep still waited %v in point backoff", waited)
	}
}
