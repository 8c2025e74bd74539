package orion

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	journaled, err := SweepJournaled(cfg, rates, SweepJournalOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if fingerprint(plain[i]) != fingerprint(journaled[i]) {
			t.Errorf("rate %g: journaled result differs from plain sweep", rates[i])
		}
	}
	if lines := journalLines(t, path); len(lines) != 1+len(rates) {
		t.Fatalf("journal has %d lines, want header + %d points", len(lines), len(rates))
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

	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if _, err := SweepJournaled(cfg, rates, SweepJournalOptions{Path: full}); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, full)

	// Crash reconstruction: header + 2 completed points + a line cut off
	// mid-write.
	crashed := filepath.Join(dir, "crashed.jsonl")
	partial := strings.Join(lines[:3], "\n") + "\n" + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(crashed, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := SweepJournaled(cfg, rates, SweepJournalOptions{Path: crashed, Resume: true})
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
	// The journal must have been repaired: old points intact, the torn
	// tail replaced by the re-run points.
	if lines := journalLines(t, crashed); len(lines) != 1+len(rates) {
		t.Fatalf("resumed journal has %d lines, want header + %d points", len(lines), len(rates))
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
	_, err := SweepJournaled(cfg, rates, SweepJournalOptions{Path: path})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturating sweep: got %v, want ErrSaturated", err)
	}
	before := journalLines(t, path)

	results, err := SweepJournaled(cfg, rates, SweepJournalOptions{Path: path, Resume: true})
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
// interior line.
func TestSweepJournaledRejectsMismatch(t *testing.T) {
	cfg := fastConfig(0)
	rates := []float64{0.02, 0.06}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	if _, err := SweepJournaled(cfg, rates, SweepJournalOptions{Path: path}); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Traffic.Seed++
	if _, err := SweepJournaled(other, rates, SweepJournalOptions{Path: path, Resume: true}); !errors.Is(err, ErrJournal) {
		t.Fatalf("config mismatch: got %v, want ErrJournal", err)
	}
	if _, err := SweepJournaled(cfg, []float64{0.02, 0.07}, SweepJournalOptions{Path: path, Resume: true}); !errors.Is(err, ErrJournal) {
		t.Fatalf("rate-list mismatch: got %v, want ErrJournal", err)
	}

	lines := journalLines(t, path)
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	body := lines[0] + "\n" + "{not json}\n" + lines[2] + "\n"
	if err := os.WriteFile(corrupt, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SweepJournaled(cfg, rates, SweepJournalOptions{Path: corrupt, Resume: true}); !errors.Is(err, ErrJournal) {
		t.Fatalf("corrupt interior line: got %v, want ErrJournal", err)
	}
	if _, err := JournalStatus(corrupt); !errors.Is(err, ErrJournal) {
		t.Fatalf("JournalStatus on corrupt journal: got %v, want ErrJournal", err)
	}
}

// TestSweepJournaledFreshStartIgnoresMissingFile requires Resume against
// a nonexistent journal to behave like a fresh sweep — the CLI always
// passes -resume, and the first run must not fail.
func TestSweepJournaledFreshStartIgnoresMissingFile(t *testing.T) {
	cfg := fastConfig(0)
	path := filepath.Join(t.TempDir(), "fresh.jsonl")
	results, err := SweepJournaled(cfg, []float64{0.04}, SweepJournalOptions{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] == nil {
		t.Fatal("fresh resumed sweep returned no result")
	}
	if lines := journalLines(t, path); len(lines) != 2 {
		t.Fatalf("fresh journal has %d lines, want header + 1 point", len(lines))
	}
}
