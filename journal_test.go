package orion

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"orion/internal/queue"
)

// journalLines splits a journal file into its intact lines.
func journalLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	return lines
}

// isDone reports whether a journal line is a done record.
func isDone(line string) bool {
	var r struct {
		Kind string `json:"t"`
	}
	return json.Unmarshal([]byte(line), &r) == nil && r.Kind == "done"
}

// doneRecords counts the done records in a journal file: one per point
// run to completion, whoever ran it.
func doneRecords(t *testing.T, path string) int {
	t.Helper()
	n := 0
	for _, line := range journalLines(t, path) {
		if isDone(line) {
			n++
		}
	}
	return n
}

// sweepJournaled runs a journaled sweep with no cancellation.
func sweepJournaled(cfg Config, rates []float64, opts SweepJournalOptions) ([]*Result, error) {
	return SweepJournaledContext(context.Background(), cfg, rates, opts)
}

// TestSweepJournaledMatchesSweep requires the journaled sweep to produce
// the same results as the plain one, and the journal to record every
// point.
func TestSweepJournaledMatchesSweep(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.06, 0.10}
	plain, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	journaled, err := sweepJournaled(cfg, rates, SweepJournalOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if fingerprint(plain[i]) != fingerprint(journaled[i]) {
			t.Errorf("rate %g: journaled result differs from plain sweep", rates[i])
		}
	}
	if n := doneRecords(t, path); n != len(rates) {
		t.Fatalf("journal has %d done records, want %d", n, len(rates))
	}
	if n, err := settledPoints(path); err != nil || n != len(rates) {
		t.Fatalf("settled points = %d, %v; want %d, nil", n, err, len(rates))
	}
}

// settledPoints counts the done and failed points JournalStatus reports,
// as orion-sweep -resume does.
func settledPoints(path string) (int, error) {
	pts, err := JournalStatus(path)
	n := 0
	for _, p := range pts {
		if p.State == "done" || p.State == "failed" {
			n++
		}
	}
	return n, err
}

// TestSweepJournaledResume simulates a crash after the first points and
// requires the resumed sweep to (a) skip the journaled points and (b)
// return results bit-identical to an uninterrupted sweep, even with a
// half-written trailing line in the journal.
func TestSweepJournaledResume(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.06, 0.10, 0.14}
	clean, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}

	// One point in flight, so the journal runs claim, done, claim, done…
	// and a crash after the second done leaves no claim held.
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if _, err := SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{Path: full, InFlight: 1}); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, full)

	// Crash reconstruction: header + 2 completed points + a line cut off
	// mid-write.
	cut, done := 0, 0
	for done < 2 {
		if isDone(lines[cut]) {
			done++
		}
		cut++
	}
	crashed := filepath.Join(dir, "crashed.jsonl")
	partial := strings.Join(lines[:cut], "\n") + "\n" + lines[cut][:len(lines[cut])/2]
	if err := os.WriteFile(crashed, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := sweepJournaled(cfg, rates, SweepJournalOptions{Path: crashed, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if resumed[i] == nil {
			t.Fatalf("rate %g: nil result after resume", rates[i])
		}
		if fingerprint(clean[i]) != fingerprint(resumed[i]) {
			t.Errorf("rate %g: resumed result differs from clean sweep", rates[i])
		}
	}
	// The journaled points were not re-run: the 2 old done records and
	// the 2 new ones, one per point.
	if n := doneRecords(t, crashed); n != len(rates) {
		t.Fatalf("resumed journal has %d done records, want %d", n, len(rates))
	}
}

// TestSweepJournaledResumeKeepsDeterministicFailures journals a sweep
// with a deliberately saturating point and requires resume to keep the
// journaled ErrSaturated instead of re-running the hopeless point.
func TestSweepJournaledResumeKeepsDeterministicFailures(t *testing.T) {
	// MaxCycles is tight enough that the 0.01 point cannot even inject
	// its 300 samples (0.16 packets/cycle network-wide needs ~1900
	// cycles) while the 0.2 point finishes comfortably — a deterministic
	// ErrSaturated at exactly one rate.
	cfg := fastConfig(0)
	cfg.Sim.MaxCycles = 700
	rates := []float64{0.2, 0.01}
	path := filepath.Join(t.TempDir(), "sat.jsonl")
	_, err := sweepJournaled(cfg, rates, SweepJournalOptions{Path: path})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturating sweep: got %v, want ErrSaturated", err)
	}
	before := journalLines(t, path)

	results, err := sweepJournaled(cfg, rates, SweepJournalOptions{Path: path, Resume: true})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("resume lost the journaled saturation: %v", err)
	}
	var serr *SweepError
	if !errors.As(err, &serr) || len(serr.Rates) != 1 || serr.Rates[0] != 0.01 {
		t.Fatalf("resume misattributed the failure: %v", err)
	}
	if results[0] == nil || results[1] != nil {
		t.Fatalf("resume results wrong: %v", results)
	}
	// Nothing re-ran, so nothing was appended.
	if after := journalLines(t, path); len(after) != len(before) {
		t.Fatalf("resume appended %d lines to a settled journal", len(after)-len(before))
	}
}

// TestSweepJournaledRejectsMismatch covers the typed resume rejections:
// a different configuration, a different rate list, and a corrupt
// interior line (a record that parses but violates the schema; an
// unparsable line is a torn append the journal skips).
func TestSweepJournaledRejectsMismatch(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.06}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	if _, err := sweepJournaled(cfg, rates, SweepJournalOptions{Path: path}); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Traffic.Seed++
	if _, err := sweepJournaled(other, rates, SweepJournalOptions{Path: path, Resume: true}); !errors.Is(err, ErrJournal) || !errors.Is(err, ErrStaleJournal) {
		t.Fatalf("config mismatch: got %v, want ErrStaleJournal wrapping ErrJournal", err)
	}
	if _, err := sweepJournaled(cfg, []float64{0.02, 0.07}, SweepJournalOptions{Path: path, Resume: true}); !errors.Is(err, ErrJournal) || !errors.Is(err, ErrStaleJournal) {
		t.Fatalf("rate-list mismatch: got %v, want ErrStaleJournal wrapping ErrJournal", err)
	}

	lines := journalLines(t, path)
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	body := lines[0] + "\n" + `{"t":"claim","index":7,"w":"x","at_ms":1,"lease_ms":1}` + "\n" + lines[2] + "\n"
	if err := os.WriteFile(corrupt, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sweepJournaled(cfg, rates, SweepJournalOptions{Path: corrupt, Resume: true}); !errors.Is(err, ErrJournal) {
		t.Fatalf("corrupt interior line: got %v, want ErrJournal", err)
	}
	if _, err := JournalStatus(corrupt); !errors.Is(err, ErrJournal) {
		t.Fatalf("JournalStatus on corrupt journal: got %v, want ErrJournal", err)
	}
}

// TestSweepJournaledResumeAcrossExecutionSettings: PointRetries and
// PointTimeout cannot change a deterministic result, so a journal
// written under one setting resumes under another.
func TestSweepJournaledResumeAcrossExecutionSettings(t *testing.T) {
	cfg := fastConfig(0)
	cfg.Sim.PointRetries = 1
	rates := []float64{0.02, 0.06}
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	first, err := sweepJournaled(cfg, rates, SweepJournalOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	before := journalLines(t, path)

	cfg.Sim.PointRetries = 2
	cfg.Sim.PointTimeout = time.Minute
	resumed, err := sweepJournaled(cfg, rates, SweepJournalOptions{Path: path, Resume: true})
	if err != nil {
		t.Fatalf("resume with other retries and timeout: %v", err)
	}
	for i := range rates {
		if fingerprint(first[i]) != fingerprint(resumed[i]) {
			t.Errorf("rate %g: resumed result differs", rates[i])
		}
	}
	if after := journalLines(t, path); len(after) != len(before) {
		t.Fatalf("resume appended %d lines to a settled journal", len(after)-len(before))
	}
}

// TestSweepJournaledFreshStartIgnoresMissingFile requires Resume against
// a nonexistent journal to behave like a fresh sweep — the CLI always
// passes -resume, and the first run must not fail.
func TestSweepJournaledFreshStartIgnoresMissingFile(t *testing.T) {
	cfg := fastConfig(0)
	path := filepath.Join(t.TempDir(), "fresh.jsonl")
	results, err := sweepJournaled(cfg, []float64{0.04}, SweepJournalOptions{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] == nil {
		t.Fatal("fresh resumed sweep returned no result")
	}
	if n := doneRecords(t, path); n != 1 {
		t.Fatalf("fresh journal has %d done records, want 1", n)
	}
}

// TestSweepJournaledRejectsV1File: a journal in the retired version-1
// single-process format is no longer read. Resuming it and reporting
// its status (orion-sweep -status) both fail with ErrJournal and say how
// to go on, and the file is left as it was.
func TestSweepJournaledRejectsV1File(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.06}
	digest, err := SweepConfigDigest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.jsonl")
	v1 := `{"version":1,"config_digest":"` + digest + `","rates":[0.02,0.06]}` + "\n" +
		`{"index":0,"rate":0.02,"err":"x","err_kind":"saturated"}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	hint := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrJournal) || !strings.Contains(err.Error(), "no longer read") || !strings.Contains(err.Error(), "without -resume") {
			t.Fatalf("%s on a v1 journal: got %v, want ErrJournal with the re-run hint", what, err)
		}
	}
	_, err = sweepJournaled(cfg, rates, SweepJournalOptions{Path: path, Resume: true})
	hint("resume", err)
	_, err = JournalStatus(path)
	hint("status", err)
	if data, err := os.ReadFile(path); err != nil || string(data) != v1 {
		t.Fatalf("rejected v1 journal was modified (%v)", err)
	}
	// Without resume the sweep starts over on the same path.
	if _, err := sweepJournaled(cfg, rates, SweepJournalOptions{Path: path}); err != nil {
		t.Fatal(err)
	}
	if n := doneRecords(t, path); n != len(rates) {
		t.Fatalf("fresh sweep over a v1 file has %d done records, want %d", n, len(rates))
	}
}

// TestSweepJournaledReleasesClaimsOnCancel: cancelling a journaled
// sweep drops the claims of the points it cut short, so the journal
// shows them pending (not held by a dead worker) and a resume re-runs
// them at once.
func TestSweepJournaledReleasesClaimsOnCancel(t *testing.T) {
	cfg := fastConfig(0)
	cfg.Sim.SamplePackets = 200000
	rates := []float64{0.02, 0.05}
	path := filepath.Join(t.TempDir(), "cancel.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	results, err := SweepJournaledContext(ctx, cfg, rates, SweepJournalOptions{Path: path})
	if !errors.Is(err, context.Canceled) || len(results) != len(rates) {
		t.Fatalf("cancelled sweep: %d results, err %v; want a partial merge and context.Canceled", len(results), err)
	}
	st, err := JournalStatus(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st {
		if p.State != "pending" {
			t.Fatalf("point %d after cancel = %+v, want pending (claim dropped)", p.Index, p)
		}
	}
}

// TestSweepJournaledTimeoutStaysTyped: a point that hits PointTimeout
// fails with context.DeadlineExceeded on the journaled path just as on
// the plain one — the merge rebuilds transient failures with their
// sentinels too, not only the final ones.
func TestSweepJournaledTimeoutStaysTyped(t *testing.T) {
	cfg := OnChip4x4(VC16(), 0.05)
	cfg.Sim.PointTimeout = time.Nanosecond
	rates := []float64{0.05}
	if _, err := SweepContext(context.Background(), cfg, rates); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("plain sweep: got %v, want context.DeadlineExceeded", err)
	}
	path := filepath.Join(t.TempDir(), "timeout.jsonl")
	_, err := SweepJournaledContext(context.Background(), cfg, rates, SweepJournalOptions{Path: path})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("journaled sweep: got %v, want context.DeadlineExceeded", err)
	}
	// A coordinator runs none of the points, so its merge rebuilds the
	// failure from the journal's outcome code.
	_, err = runCoordinated(t, cfg, rates, filepath.Join(t.TempDir(), "coord.jsonl"), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("coordinator merge: got %v, want context.DeadlineExceeded", err)
	}
}

// TestMergeIndexesRepeatedRates: with the same rate at two points, a
// failure is matched to its point by index, not by rate. Point 0 is
// unsettled when the merge is cancelled and point 1 failed saturated;
// the merge must blame the saturation on point 1 and the cancellation
// on point 0.
func TestMergeIndexesRepeatedRates(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.1, 0.1}
	hdr, err := sweepQueueHeader(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	payload := `{"index":1,"rate":0.1,"err":"network saturated","err_kind":"saturated"}`
	lines := []any{
		hdr,
		queue.Record{Kind: queue.KindClaim, Index: 1, Worker: "w", At: 1, LeaseMs: 1000},
		queue.Record{Kind: queue.KindDone, Index: 1, Worker: "w", At: 2, Payload: json.RawMessage(payload), Final: true},
	}
	var file []byte
	for _, l := range lines {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		file = append(append(file, b...), '\n')
	}
	path := filepath.Join(t.TempDir(), "repeat.jsonl")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := mergeQueue(ctx, cfg, rates, path)
	var serr *SweepError
	if !errors.As(err, &serr) || !errors.Is(err, ErrSaturated) {
		t.Fatalf("merge: got %v, want a *SweepError wrapping ErrSaturated", err)
	}
	if len(serr.Index) != 2 || serr.Index[0] != 0 || serr.Index[1] != 1 || len(results) != 2 || results[0] != nil || results[1] != nil {
		t.Fatalf("merge: Index %v, results %v; want Index [0 1] and no results", serr.Index, results)
	}
	if !errors.Is(serr.Errs[0], context.Canceled) || errors.Is(serr.Errs[0], ErrSaturated) {
		t.Fatalf("unsettled point 0: got %v, want context.Canceled only", serr.Errs[0])
	}
	if !errors.Is(serr.Errs[1], ErrSaturated) || errors.Is(serr.Errs[1], context.Canceled) {
		t.Fatalf("settled point 1: got %v, want ErrSaturated only", serr.Errs[1])
	}
}
