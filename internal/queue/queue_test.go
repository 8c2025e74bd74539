package queue

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testHeader is a 3-point sweep identity.
func testHeader() Header {
	return Header{Version: Version, ConfigDigest: "abcd", Rates: []float64{0.02, 0.06, 0.10}}
}

// fakeClock pins the protocol clock and returns an advance function, so
// lease-expiry tests never depend on real sleeps.
func fakeClock(t *testing.T, start int64) func(ms int64) {
	t.Helper()
	now := start
	old := nowMs
	nowMs = func() int64 { return now }
	t.Cleanup(func() { nowMs = old })
	return func(ms int64) { now += ms }
}

func mustCreate(t *testing.T, dir string) *File {
	t.Helper()
	qf, err := Create(filepath.Join(dir, "queue.wal"), testHeader(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qf.Close() })
	return qf
}

// TestClaimCommitLifecycle walks the happy path: claim, heartbeat,
// commit, complete.
func TestClaimCommitLifecycle(t *testing.T) {
	fakeClock(t, 1000)
	qf := mustCreate(t, t.TempDir())
	for i := 0; i < 3; i++ {
		won, st, err := qf.TryClaim(i, "w1", time.Second)
		if err != nil || !won {
			t.Fatalf("claim %d: won=%v err=%v", i, won, err)
		}
		if st.HolderOf(i) != "w1" {
			t.Fatalf("claim %d: holder %q", i, st.HolderOf(i))
		}
		if err := qf.Beat(i, "w1", time.Second); err != nil {
			t.Fatal(err)
		}
		if err := qf.Commit(i, "w1", json.RawMessage(`{"index":0}`), true); err != nil {
			t.Fatal(err)
		}
	}
	st, err := qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete() || st.DoneCount() != 3 {
		t.Fatalf("queue not complete: %+v", st.Points)
	}
}

// TestMemoryQueue runs the protocol over an in-memory queue: claims,
// beats, drops and commits take effect at once, a done needs no
// payload, and a stale commit is still refused.
func TestMemoryQueue(t *testing.T) {
	clock := fakeClock(t, 1000)
	qf := Memory(testHeader())
	defer qf.Close()
	if qf.Path() != "" {
		t.Fatalf("in-memory queue has path %q", qf.Path())
	}
	for i := 0; i < 3; i++ {
		if won, st, err := qf.TryClaim(i, "w1", time.Second); err != nil || !won || st.HolderOf(i) != "w1" {
			t.Fatalf("claim %d: won=%v err=%v", i, won, err)
		}
	}
	if err := qf.Beat(0, "w1", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := qf.Drop(1, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := qf.Commit(0, "w1", nil, true); err != nil {
		t.Fatal(err)
	}
	// Point 2's lease lapses and another worker steals it.
	clock(2000)
	if won, _, err := qf.TryClaim(2, "w2", time.Second); err != nil || !won {
		t.Fatalf("steal: won=%v err=%v", won, err)
	}
	if err := qf.Commit(2, "w1", nil, true); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale commit: got %v, want ErrLeaseLost", err)
	}
	st, err := qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if p, c, d := st.Counts(); p != 1 || c != 1 || d != 1 {
		t.Fatalf("counts = %d pending, %d claimed, %d done; want 1, 1, 1", p, c, d)
	}
	if err := qf.Beat(3, "w1", time.Second); !errors.Is(err, ErrQueue) {
		t.Fatalf("out-of-range record: got %v, want ErrQueue", err)
	}
}

// TestLoadParsesOnlyNewRecords pins incremental replay: however long
// the journal already is, a Load after k appends decodes exactly k
// lines, and leaves a torn tail to be decoded once it is terminated.
func TestLoadParsesOnlyNewRecords(t *testing.T) {
	fakeClock(t, 1000)
	dir := t.TempDir()
	qf := mustCreate(t, dir)
	for round := 0; round < 3; round++ {
		st, err := qf.Load()
		if err != nil {
			t.Fatal(err)
		}
		before := qf.rp.lines
		const k = 40
		for i := 0; i < k; i++ {
			if err := qf.Beat(i%3, "w1", time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := qf.Load(); err != nil {
			t.Fatal(err)
		}
		if got := qf.rp.lines - before; got != k {
			t.Fatalf("round %d: Load after %d appends decoded %d lines", round, k, got)
		}
		if st2, _ := qf.Load(); st2 != st || qf.rp.lines-before != k {
			t.Fatalf("round %d: a Load with nothing appended decoded %d lines", round, qf.rp.lines-before-k)
		}
	}

	path := filepath.Join(dir, "queue.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	claim := `{"t":"claim","index":1,"w":"w2","at_ms":1000,"lease_ms":100}` + "\n"
	if _, err := f.WriteString(claim[:20]); err != nil {
		t.Fatal(err)
	}
	before := qf.rp.lines
	if st, err := qf.Load(); err != nil || st.HolderOf(1) != "" || qf.rp.lines != before {
		t.Fatalf("torn tail: holder %q, %d lines decoded, err %v", st.HolderOf(1), qf.rp.lines-before, err)
	}
	if _, err := f.WriteString(claim[20:]); err != nil {
		t.Fatal(err)
	}
	if st, err := qf.Load(); err != nil || st.HolderOf(1) != "w2" || qf.rp.lines != before+1 {
		t.Fatalf("completed tail: holder %q, %d lines decoded, err %v", st.HolderOf(1), qf.rp.lines-before, err)
	}
	if info, err := os.Stat(path); err != nil || qf.off != info.Size() {
		t.Fatalf("offset %d after a full replay of a %d-byte journal (%v)", qf.off, info.Size(), err)
	}
}

// TestSameTickDoubleClaim appends two claims for the same point carrying
// the same timestamp — two workers claiming in the same tick. File order
// must arbitrate: the first appended claim wins, the second is a dead
// line because the first lease cannot have expired at an equal
// timestamp.
func TestSameTickDoubleClaim(t *testing.T) {
	fakeClock(t, 5000)
	qf := mustCreate(t, t.TempDir())
	if err := qf.Append(Record{Kind: KindClaim, Index: 1, Worker: "w1", At: 5000, LeaseMs: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := qf.Append(Record{Kind: KindClaim, Index: 1, Worker: "w2", At: 5000, LeaseMs: 1000}); err != nil {
		t.Fatal(err)
	}
	st, err := qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.HolderOf(1); got != "w1" {
		t.Fatalf("same-tick double claim: holder %q, want first claimant w1", got)
	}
	// And the loser's view agrees: TryClaim by w2 at the same instant
	// reports not-won.
	won, _, err := qf.TryClaim(1, "w3", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if won {
		t.Fatal("claim on an actively-held point won")
	}
}

// TestBeatAfterExpiryRevives covers the heartbeat-after-lease-expiry
// edge in both directions: a beat from the holder after expiry but
// before any steal revives the lease (expiry authorises steals, it does
// not evict); the same beat after a steal is a dead line.
func TestBeatAfterExpiryRevives(t *testing.T) {
	advance := fakeClock(t, 1000)
	qf := mustCreate(t, t.TempDir())
	if won, _, err := qf.TryClaim(0, "w1", 100*time.Millisecond); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	// Lease expires at 1100; beat at 1500 — late, but unchallenged.
	advance(500)
	if err := qf.Beat(0, "w1", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err := qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.HolderOf(0) != "w1" || st.Points[0].Deadline != 1600 {
		t.Fatalf("late unchallenged beat did not revive: holder %q deadline %d",
			st.HolderOf(0), st.Points[0].Deadline)
	}
	// Now the revived lease expires again and w2 steals; a subsequent
	// beat from w1 must be ignored.
	advance(700) // now 2200 > 1600
	if won, _, err := qf.TryClaim(0, "w2", 100*time.Millisecond); err != nil || !won {
		t.Fatalf("steal: won=%v err=%v", won, err)
	}
	if err := qf.Beat(0, "w1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	st, err = qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.HolderOf(0) != "w2" || st.Points[0].Deadline != 2300 {
		t.Fatalf("post-steal beat took effect: holder %q deadline %d",
			st.HolderOf(0), st.Points[0].Deadline)
	}
}

// TestCommitAfterStealLeaseLost pauses a worker past its lease, lets
// another steal, and requires the original's commit to fail with
// ErrLeaseLost — and to leave no trace, so exactly one result commits.
func TestCommitAfterStealLeaseLost(t *testing.T) {
	advance := fakeClock(t, 1000)
	qf := mustCreate(t, t.TempDir())
	if won, _, err := qf.TryClaim(2, "victim", 50*time.Millisecond); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	advance(200) // victim paused past its lease
	if won, _, err := qf.TryClaim(2, "thief", time.Minute); err != nil || !won {
		t.Fatalf("steal: won=%v err=%v", won, err)
	}
	err := qf.Commit(2, "victim", json.RawMessage(`{"index":2,"stale":true}`), true)
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale commit: got %v, want ErrLeaseLost", err)
	}
	if err := qf.Commit(2, "thief", json.RawMessage(`{"index":2}`), true); err != nil {
		t.Fatal(err)
	}
	st, err := qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	p := st.Points[2]
	if p.Status != Done || p.Holder != "thief" || strings.Contains(string(p.Payload), "stale") {
		t.Fatalf("wrong committed result survived: %+v", p)
	}
}

// TestCommitRaceDetectedAfterAppend exercises the second ErrLeaseLost
// window: the steal lands between the victim's pre-commit ownership
// check and its done append. The appended done is a dead line and the
// post-append verification reports ErrLeaseLost.
func TestCommitRaceDetectedAfterAppend(t *testing.T) {
	advance := fakeClock(t, 1000)
	qf := mustCreate(t, t.TempDir())
	if won, _, err := qf.TryClaim(0, "victim", 50*time.Millisecond); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	advance(200)
	// Replicate Commit's steps with the steal interleaved after the
	// ownership check.
	st, err := qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.HolderOf(0) != "victim" {
		t.Fatalf("pre-check should still see the victim as holder (no steal yet), got %q", st.HolderOf(0))
	}
	if won, _, err := qf.TryClaim(0, "thief", time.Minute); err != nil || !won {
		t.Fatalf("steal: won=%v err=%v", won, err)
	}
	err = qf.Commit(0, "victim", json.RawMessage(`{"index":0}`), true)
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("raced commit: got %v, want ErrLeaseLost", err)
	}
	st, err = qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points[0].Status != Claimed || st.HolderOf(0) != "thief" {
		t.Fatalf("raced commit mutated state: %+v", st.Points[0])
	}
}

// TestTornClaimTailTolerated cuts the journal off mid-claim — the crash
// signature — and requires the loader to drop the tail and the queue to
// keep working. Both torn shapes are covered: unterminated, and
// newline-terminated but unparsable.
func TestTornClaimTailTolerated(t *testing.T) {
	fakeClock(t, 1000)
	dir := t.TempDir()
	qf := mustCreate(t, dir)
	if won, _, err := qf.TryClaim(0, "w1", time.Second); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	if err := qf.Commit(0, "w1", json.RawMessage(`{"index":0}`), true); err != nil {
		t.Fatal(err)
	}
	qf.Close()
	path := filepath.Join(dir, "queue.wal")
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string]string{
		"unterminated":        `{"t":"claim","index":1,"w":"w2","at_ms":12`,
		"terminated-garbage":  "garbage {\n",
		"terminated-halfjson": `{"t":"claim","index":1` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			torn := filepath.Join(t.TempDir(), "torn.wal")
			if err := os.WriteFile(torn, append(append([]byte{}, intact...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			rq, err := Open(torn, testHeader())
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer rq.Close()
			st, err := rq.Load()
			if err != nil {
				t.Fatalf("load with torn tail: %v", err)
			}
			if st.Points[0].Status != Done || st.Points[1].Status != Pending {
				t.Fatalf("torn tail leaked into state: %+v", st.Points)
			}
			// The queue must remain usable. An unterminated torn tail may
			// swallow the first append (its bytes concatenate onto the
			// dead line) — the arbitration re-read reports the loss and
			// the retry lands on a fresh line.
			won := false
			for attempt := 0; attempt < 2 && !won; attempt++ {
				var err error
				won, _, err = rq.TryClaim(1, "w3", time.Second)
				if err != nil {
					t.Fatalf("claim after torn tail: %v", err)
				}
			}
			if !won {
				t.Fatal("claim after torn tail never took effect")
			}
		})
	}
}

// TestTryClaimRetriesSwallowedClaim: on a journal ending in an
// unterminated line (a writer crashed mid-append), the first claim's
// bytes join the dead line and the point stays pending; TryClaim must
// notice and re-append on a fresh line, so the first call wins.
func TestTryClaimRetriesSwallowedClaim(t *testing.T) {
	fakeClock(t, 1000)
	dir := t.TempDir()
	qf := mustCreate(t, dir)
	qf.Close()
	path := filepath.Join(dir, "queue.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"claim","index":2,"w":"dead","at_ms":9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rq, err := Open(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer rq.Close()
	won, st, err := rq.TryClaim(1, "w1", time.Second)
	if err != nil || !won {
		t.Fatalf("first claim after a torn tail: won=%v err=%v", won, err)
	}
	if st.HolderOf(1) != "w1" || st.Points[2].Status != Pending {
		t.Fatalf("state after claim: %+v", st.Points)
	}
}

// TestDropReturnsPending covers the graceful-release path.
func TestDropReturnsPending(t *testing.T) {
	fakeClock(t, 1000)
	qf := mustCreate(t, t.TempDir())
	if won, _, err := qf.TryClaim(1, "w1", time.Minute); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	if err := qf.Drop(1, "w1"); err != nil {
		t.Fatal(err)
	}
	st, err := qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points[1].Status != Pending {
		t.Fatalf("dropped point not pending: %+v", st.Points[1])
	}
	// An immediate re-claim by another worker needs no lease wait.
	if won, _, err := qf.TryClaim(1, "w2", time.Minute); err != nil || !won {
		t.Fatalf("re-claim after drop: won=%v err=%v", won, err)
	}
}

// TestResetReopensTransientDone: reset re-opens non-final dones only.
func TestResetReopensTransientDone(t *testing.T) {
	fakeClock(t, 1000)
	qf := mustCreate(t, t.TempDir())
	for i, final := range []bool{true, false} {
		if won, _, err := qf.TryClaim(i, "w1", time.Minute); err != nil || !won {
			t.Fatalf("claim %d: won=%v err=%v", i, won, err)
		}
		if err := qf.Commit(i, "w1", json.RawMessage(`{}`), final); err != nil {
			t.Fatal(err)
		}
		if err := qf.Reset(i); err != nil {
			t.Fatal(err)
		}
	}
	st, err := qf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.Points[0].Status != Done {
		t.Fatalf("reset re-opened a final done: %+v", st.Points[0])
	}
	if st.Points[1].Status != Pending {
		t.Fatalf("reset did not re-open a transient done: %+v", st.Points[1])
	}
}

// TestOpenRejections covers the typed rejection taxonomy: a stale digest
// or rate list (ErrStale), a corrupt interior line and a wrong-version
// header (ErrQueue).
func TestOpenRejections(t *testing.T) {
	fakeClock(t, 1000)
	dir := t.TempDir()
	qf := mustCreate(t, dir)
	qf.Close()
	path := filepath.Join(dir, "queue.wal")

	stale := testHeader()
	stale.ConfigDigest = "beef"
	if _, err := Open(path, stale); !errors.Is(err, ErrStale) {
		t.Fatalf("digest mismatch: got %v, want ErrStale", err)
	}
	rates := testHeader()
	rates.Rates = []float64{0.5}
	if _, err := Open(path, rates); !errors.Is(err, ErrStale) {
		t.Fatalf("rate-list mismatch: got %v, want ErrStale", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Dead bytes (a torn line another append landed on) are skipped, not
	// fatal: the log stays readable and later records still replay.
	dead := filepath.Join(dir, "dead.wal")
	body := string(data) + "{not json}\n" + `{"t":"claim","index":0,"w":"w1","at_ms":1,"lease_ms":1}` + "\n"
	if err := os.WriteFile(dead, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	dq, err := Open(dead, testHeader())
	if err != nil {
		t.Fatalf("dead interior bytes must be tolerated: %v", err)
	}
	if st, err := dq.Load(); err != nil || st.HolderOf(0) != "w1" {
		t.Fatalf("record after dead bytes lost: %v, %v", st, err)
	}
	dq.Close()
	// A parsable record that violates the schema is a foreign or buggy
	// writer, not a crash: rejected.
	corrupt := filepath.Join(dir, "corrupt.wal")
	body = string(data) + `{"t":"claim","index":99,"w":"w1","at_ms":1,"lease_ms":1}` + "\n" +
		`{"t":"beat","index":0,"w":"w1","at_ms":2,"lease_ms":1}` + "\n"
	if err := os.WriteFile(corrupt, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(corrupt, testHeader()); !errors.Is(err, ErrQueue) {
		t.Fatalf("schema-invalid interior record: got %v, want ErrQueue", err)
	}

	v1 := filepath.Join(dir, "v1.wal")
	if err := os.WriteFile(v1, []byte(`{"version":1,"config_digest":"abcd","rates":[0.1]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v1, testHeader()); !errors.Is(err, ErrQueue) || !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 journal: got %v, want ErrVersion wrapping ErrQueue", err)
	}
}

// TestCreateResume verifies create-or-resume semantics: fresh truncates,
// non-fresh joins an existing matching journal without losing records.
func TestCreateResume(t *testing.T) {
	fakeClock(t, 1000)
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.wal")
	qf, err := Create(path, testHeader(), true)
	if err != nil {
		t.Fatal(err)
	}
	if won, _, err := qf.TryClaim(0, "w1", time.Minute); err != nil || !won {
		t.Fatalf("claim: won=%v err=%v", won, err)
	}
	if err := qf.Commit(0, "w1", json.RawMessage(`{}`), true); err != nil {
		t.Fatal(err)
	}
	qf.Close()

	rq, err := Create(path, testHeader(), false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rq.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.DoneCount() != 1 {
		t.Fatalf("resume lost the committed point: %+v", st.Points)
	}
	rq.Close()

	fq, err := Create(path, testHeader(), true)
	if err != nil {
		t.Fatal(err)
	}
	st, err = fq.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.DoneCount() != 0 {
		t.Fatalf("fresh create kept old records: %+v", st.Points)
	}
	fq.Close()
}
