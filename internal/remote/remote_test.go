package remote

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"orion"
)

func TestParseBackendsValid(t *testing.T) {
	got, err := ParseBackends(" http://a:8080 , https://b.example/prefix/ ,http://c")
	if err != nil {
		t.Fatalf("ParseBackends: %v", err)
	}
	want := []string{"http://a:8080", "https://b.example/prefix", "http://c"}
	if len(got) != len(want) {
		t.Fatalf("got %d backends %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("backend[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestParseBackendsRejects(t *testing.T) {
	cases := []struct {
		name, list, wantSub string
	}{
		{"empty list", "   ", "at least one backend"},
		{"empty entry", "http://a,,http://b", "backends[1]"},
		{"bad scheme", "ftp://a", "backends[0]"},
		{"scheme only", "http://", "backends[0]"},
		{"no scheme", "localhost:8080", "backends[0]"},
		{"query", "http://a?x=1", "backends[0]"},
		{"fragment", "http://a#frag", "backends[0]"},
		{"credentials", "http://user:pw@a", "backends[0]"},
		{"duplicate", "http://a,http://b,http://a/", "backends[2]"},
		{"too many", strings.Repeat("http://a,", MaxBackends) + "http://b", "exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseBackends(tc.list); err == nil {
				t.Fatalf("ParseBackends(%q) accepted, want error", tc.list)
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := breaker{tripAfter: 3, coolDown: 30 * time.Millisecond}

	// Closed admits; two failures stay closed; the third trips.
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused try %d", i)
		}
		if b.fail() {
			t.Fatalf("failure %d tripped early", i+1)
		}
	}
	if !b.allow() {
		t.Fatal("closed breaker refused the third try")
	}
	if !b.fail() {
		t.Fatal("third consecutive failure did not trip")
	}
	if state, _ := b.status(); state != "open" {
		t.Fatalf("state after trip = %q, want open", state)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a try before cool-down")
	}

	// After cool-down: exactly one half-open probe.
	time.Sleep(40 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}

	// Probe failure re-opens immediately.
	if !b.fail() {
		t.Fatal("half-open probe failure did not re-open")
	}
	if b.allow() {
		t.Fatal("re-opened breaker admitted a try before cool-down")
	}

	// Probe success closes.
	time.Sleep(40 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooled-down breaker refused the second probe")
	}
	b.succeed()
	if state, consecutive := b.status(); state != "closed" || consecutive != 0 {
		t.Fatalf("state after probe success = %q/%d, want closed/0", state, consecutive)
	}
}

func TestBreakerReleaseRevertsProbe(t *testing.T) {
	b := breaker{tripAfter: 1, coolDown: time.Millisecond}
	b.fail()
	time.Sleep(5 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	b.release()
	if state, _ := b.status(); state != "open" {
		t.Fatalf("state after release = %q, want open", state)
	}
	// The original open time is kept, so the next probe is due at once.
	if !b.allow() {
		t.Fatal("released breaker refused the next probe")
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"0", 0}, {"2", 2 * time.Second}, {"-1", 0},
		{"nonsense", 0}, {"Tue, 01 Jan 2030 00:00:00 GMT", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestSleepRetryCancelledContext: a dispatch whose context ends while it
// sits out its retry backoff returns the context's error at once instead
// of waiting out the hour-long delay, and does not fall back to a local
// run.
func TestSleepRetryCancelledContext(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "broken (injected)", http.StatusInternalServerError)
	}))
	defer broken.Close()
	p, err := NewPool(Options{Backends: []string{broken.URL}, RetryBase: time.Hour, RetryMax: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := p.RunPoint(ctx, orion.OnChip4x4(orion.VC16(), 0), 0.05); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunPoint = %v, want the context's deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("RunPoint blocked %v in its retry backoff after the context ended", elapsed)
	}
	if st := p.Stats(); st.Attempts != 1 || st.Local != 0 {
		t.Fatalf("stats %+v, want one failed attempt and no local fallback", st)
	}
}

func TestNewPoolValidates(t *testing.T) {
	if _, err := NewPool(Options{}); err == nil {
		t.Fatal("NewPool with no backends accepted")
	}
	many := make([]string, MaxBackends+1)
	for i := range many {
		many[i] = "http://a"
	}
	if _, err := NewPool(Options{Backends: many}); err == nil {
		t.Fatal("NewPool beyond MaxBackends accepted")
	}
	p, err := NewPool(Options{Backends: []string{"http://a"}, Lease: time.Second})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if p.perTry != 10*time.Second {
		t.Fatalf("PerTryTimeout default = %v, want 10×lease", p.perTry)
	}
	states := p.BackendStates()
	if len(states) != 1 || states[0].State != "closed" || states[0].URL != "http://a" {
		t.Fatalf("initial backend states = %+v", states)
	}
}
