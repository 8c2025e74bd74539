package orion

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// TestSweepKeepsStructuredErrors: a point's typed error survives the
// sweep, so errors.As recovers an *InvariantError's fields through the
// *SweepError, in memory and on a journal alike (the journal's own
// points merge their live errors, not rebuilds from the outcome code).
func TestSweepKeepsStructuredErrors(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.05}
	run := func(_ context.Context, _ Config, rate float64) (*Result, error) {
		return nil, fmt.Errorf("point %g: %w", rate, &InvariantError{Invariant: "hop-limit", Node: 7, Port: -1, VC: -1})
	}
	check := func(name string, err error) {
		t.Helper()
		var inv *InvariantError
		if !errors.As(err, &inv) || inv.Node != 7 || inv.Invariant != "hop-limit" {
			t.Fatalf("%s: errors.As(%v) = %+v, want the runner's *InvariantError at node 7", name, err, inv)
		}
		var serr *SweepError
		if !errors.As(err, &serr) || len(serr.Index) != len(rates) {
			t.Fatalf("%s: %v, want a *SweepError over every point", name, err)
		}
	}
	_, err := SweepWithRunner(context.Background(), cfg, rates, run, nil)
	check("in memory", err)
	path := filepath.Join(t.TempDir(), "sweep.wal")
	_, err = SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{Path: path, Run: run})
	check("journaled", err)
}

// TestSweepProgressReachesTotal: the progress feed of a journaled sweep
// never goes backwards and ends at total/total, as an in-memory one does.
func TestSweepProgressReachesTotal(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.04, 0.06}
	for _, path := range []string{"", filepath.Join(t.TempDir(), "sweep.wal")} {
		var seen []int
		_, err := SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{
			Path: path, InFlight: 2,
			Progress: func(done, total int) {
				if total != len(rates) {
					t.Errorf("progress total %d, want %d", total, len(rates))
				}
				seen = append(seen, done)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] <= seen[i-1] {
				t.Fatalf("path %q: progress %v does not grow", path, seen)
			}
		}
		if len(seen) == 0 || seen[len(seen)-1] != len(rates) {
			t.Fatalf("path %q: progress %v does not end at %d", path, seen, len(rates))
		}
	}
}

// TestSweepEmptyRates: an in-memory sweep of no rates returns an empty
// result slice and no error.
func TestSweepEmptyRates(t *testing.T) {
	results, err := Sweep(fastConfig(0), []float64{})
	if err != nil || results == nil || len(results) != 0 {
		t.Fatalf("empty sweep = %v, %v; want [], nil", results, err)
	}
}

// TestSaturationThroughputKeepsOtherFailures: only a point that failed
// with ErrSaturated witnesses saturation. Points that merely timed out
// say nothing about the curve, so the sweep's error comes back and no
// saturation rate is claimed.
func TestSaturationThroughputKeepsOtherFailures(t *testing.T) {
	cfg := OnChip4x4(VC16(), 0)
	cfg.Sim.PointTimeout = time.Nanosecond
	rate, ok, _, err := SaturationThroughput(cfg, []float64{0.02, 0.04})
	if ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out sweep: rate %g, ok %v, err %v; want no saturation and the timeout", rate, ok, err)
	}

	// A saturated failure is a witness: the rate is found and the
	// expected failure is not an error.
	witness := fmt.Errorf("run: %w", ErrSaturated)
	results := []*Result{{AvgLatency: 10}, nil}
	serr := &SweepError{Index: []int{1}, Rates: []float64{0.2}, Errs: []error{witness}}
	if rate, ok, err := Saturation([]float64{0.1, 0.2}, results, serr, 8); !ok || rate != 0.2 || err != nil {
		t.Fatalf("saturated witness: rate %g, ok %v, err %v; want 0.2, true, nil", rate, ok, err)
	}
}
