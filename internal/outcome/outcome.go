// Package outcome is the failure taxonomy of a simulation point, kept in
// one place: which error maps to which stable code, which codes are
// final, and how to rebuild a typed error from a code. The sweep journal
// persists the codes (its err_kind), orion-serve answers with them, the
// remote client rebuilds backend failures from them, and orion-sweep
// labels failed points by them, so a failure classifies the same whether
// it ran live, was merged from a journal, or came back from a backend.
//
// A final outcome (saturated, deadlock, invariant) reproduces exactly on
// a re-run: it is a result — saturation witnesses the paper's saturation
// throughput — so a resume keeps it, the service caches it and the remote
// client does not retry it. Every other code is transient.
package outcome

import (
	"context"
	"errors"

	"orion/internal/core"
	"orion/internal/fault"
)

// Sentinels of the serving and remote-dispatch layers, re-exported by
// package orion.
var (
	// ErrOverloaded marks a request shed by admission control.
	ErrOverloaded = errors.New("orion: overloaded, retry later")
	// ErrRemote marks a failure of the remote dispatch itself.
	ErrRemote = errors.New("orion: remote dispatch failed")
	// ErrBackendDown marks a point that found every remote backend
	// unavailable with local fallback disabled.
	ErrBackendDown = errors.New("orion: every remote backend is down")
)

// Stable failure codes. They are persisted in journals and cached
// responses and travel between hosts, so their spelling never changes.
const (
	Invariant   = "invariant"    // core.ErrInvariant
	Saturated   = "saturated"    // core.ErrSaturated
	Deadlock    = "deadlock"     // core.ErrDeadlock
	Overloaded  = "overloaded"   // ErrOverloaded
	BackendDown = "backend_down" // ErrBackendDown (with ErrRemote)
	Timeout     = "timeout"      // context.DeadlineExceeded
	Cancelled   = "cancelled"    // context.Canceled
	Internal    = "internal"     // anything else
)

// table lists the codes in classification order: an error takes the
// code of the first row whose first sentinel it wraps. ErrInvariant
// comes first (an invariant failure may also look saturated), the
// context kinds after the simulator's and the services' own sentinels.
// A rebuilt error wraps every sentinel of its row.
var table = []struct {
	code      string
	final     bool
	sentinels []error
}{
	{Invariant, true, []error{core.ErrInvariant}},
	{Saturated, true, []error{core.ErrSaturated}},
	{Deadlock, true, []error{core.ErrDeadlock}},
	{Overloaded, false, []error{ErrOverloaded}},
	{BackendDown, false, []error{ErrBackendDown, ErrRemote}},
	{Timeout, false, []error{context.DeadlineExceeded}},
	{Cancelled, false, []error{context.Canceled}},
}

// Code classifies a non-nil error: its stable code, and whether it also
// wraps fault.ErrFaulted (a failure attributable to injected faults).
// ErrRemote without ErrBackendDown is Internal: the dispatch failed and
// the simulation's own outcome is unknown.
func Code(err error) (code string, faulted bool) {
	faulted = errors.Is(err, fault.ErrFaulted)
	for _, row := range table {
		if errors.Is(err, row.sentinels[0]) {
			return row.code, faulted
		}
	}
	return Internal, faulted
}

// Final reports whether a code is a deterministic outcome that a re-run
// would reproduce exactly: saturated, deadlock or invariant.
func Final(code string) bool {
	for _, row := range table {
		if row.code == code {
			return row.final
		}
	}
	return false
}

// Err rebuilds the error a code was taken from: its message is msg and
// it wraps the code's sentinels, plus fault.ErrFaulted when faulted, so
// errors.Is answers as it did for the original. An unknown code — a
// newer peer's, or the "failed" of an older journal — rebuilds as
// Internal.
func Err(code string, faulted bool, msg string) error {
	e := &rebuilt{msg: msg}
	for _, row := range table {
		if row.code == code {
			e.sentinels = append(e.sentinels, row.sentinels...)
			break
		}
	}
	if faulted {
		e.sentinels = append(e.sentinels, fault.ErrFaulted)
	}
	return e
}

// rebuilt is an error read back from a code: the original message and
// the sentinels the original wrapped.
type rebuilt struct {
	msg       string
	sentinels []error
}

func (e *rebuilt) Error() string   { return e.msg }
func (e *rebuilt) Unwrap() []error { return e.sentinels }
