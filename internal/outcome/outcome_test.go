package outcome

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"orion/internal/core"
	"orion/internal/fault"
)

// sentinels is every error the taxonomy classifies by.
var sentinels = []error{
	core.ErrInvariant, core.ErrSaturated, core.ErrDeadlock,
	ErrOverloaded, ErrRemote, ErrBackendDown,
	context.DeadlineExceeded, context.Canceled, fault.ErrFaulted,
}

// TestRoundTrip classifies one error of each kind the program raises,
// rebuilds it from its code, and requires the rebuilt error to carry the
// same code, the same message and exactly the same sentinels.
func TestRoundTrip(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{&core.InvariantError{Invariant: "flit-conservation"}, Invariant},
		{fmt.Errorf("run: %w", core.ErrSaturated), Saturated},
		{fmt.Errorf("run: %w: %w", core.ErrSaturated, fault.ErrFaulted), Saturated},
		{fmt.Errorf("run: %w", core.ErrDeadlock), Deadlock},
		{fmt.Errorf("run: %w: %w", core.ErrDeadlock, fault.ErrFaulted), Deadlock},
		{ErrOverloaded, Overloaded},
		{fmt.Errorf("remote: %w: %w", ErrRemote, ErrBackendDown), BackendDown},
		{fmt.Errorf("point: %w", context.DeadlineExceeded), Timeout},
		{fmt.Errorf("point: %w", context.Canceled), Cancelled},
		{errors.New("worker panicked"), Internal},
		{fmt.Errorf("stalled: %w", fault.ErrFaulted), Internal},
	}
	for _, tc := range cases {
		code, faulted := Code(tc.err)
		if code != tc.code {
			t.Errorf("Code(%v) = %q, want %q", tc.err, code, tc.code)
		}
		back := Err(code, faulted, tc.err.Error())
		if back.Error() != tc.err.Error() {
			t.Errorf("Err(%q) message %q, want %q", code, back, tc.err)
		}
		if c, f := Code(back); c != code || f != faulted {
			t.Errorf("Code(Err(%q, %v)) = %q, %v", code, faulted, c, f)
		}
		for _, s := range sentinels {
			if errors.Is(back, s) != errors.Is(tc.err, s) {
				t.Errorf("%q: errors.Is(rebuilt, %v) = %v, original %v", code, s, errors.Is(back, s), errors.Is(tc.err, s))
			}
		}
	}
}

// TestFinal pins which codes a re-run reproduces: exactly the
// simulator's own deterministic outcomes.
func TestFinal(t *testing.T) {
	final := map[string]bool{Invariant: true, Saturated: true, Deadlock: true}
	for _, row := range table {
		if Final(row.code) != final[row.code] {
			t.Errorf("Final(%q) = %v, want %v", row.code, Final(row.code), final[row.code])
		}
	}
	for _, code := range []string{Internal, "", "failed", "bad_request"} {
		if Final(code) {
			t.Errorf("Final(%q) = true, want false", code)
		}
	}
}

// TestInternal: a failure with no code of its own — a dispatch that
// failed without finding every backend down, which says nothing about
// the simulation — classifies as Internal, and a code this build does
// not know (an older journal's "failed", a newer peer's) rebuilds as
// Internal, keeping the fault mark.
func TestInternal(t *testing.T) {
	if code, _ := Code(fmt.Errorf("remote: %w after 3 attempts", ErrRemote)); code != Internal {
		t.Errorf("Code(ErrRemote) = %q, want internal", code)
	}
	for _, faulted := range []bool{false, true} {
		if c, f := Code(Err("failed", faulted, "boom")); c != Internal || f != faulted {
			t.Errorf("Code(Err(failed, %v)) = %q, %v; want internal, %v", faulted, c, f, faulted)
		}
	}
}
