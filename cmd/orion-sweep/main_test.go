package main

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"orion/internal/serve"
)

// TestBackendsWithoutJournalWritesNoFile: -backends without -journal
// dispatches the sweep from an in-memory queue, so it creates no file in
// TMPDIR, not even for the length of the sweep: TMPDIR names a directory
// that does not exist, where creating any file fails.
func TestBackendsWithoutJournalWritesNoFile(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tmp := filepath.Join(t.TempDir(), "tmp")
	t.Setenv("TMPDIR", tmp)
	if status := run([]string{"-preset", "vc16", "-samples", "200", "-rates", "0.02,0.04", "-backends", ts.URL}); status != 0 {
		t.Fatalf("orion-sweep exited %d", status)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("TMPDIR %s was created (stat: %v)", tmp, err)
	}
}

// TestResumeRequiresJournal: -resume without -journal has nothing to
// resume from, so it is a usage error (exit 2), not a fresh sweep.
func TestResumeRequiresJournal(t *testing.T) {
	if status := run([]string{"-preset", "vc16", "-samples", "100", "-rates", "0.02", "-resume"}); status != 2 {
		t.Fatalf("orion-sweep -resume without -journal exited %d, want 2", status)
	}
}

// TestFailureFlushesProfile: a sweep that fails after profiling started
// (here, writing the CSV into a missing directory) returns 1 through
// run's deferred cleanup, so the CPU profile is still written.
func TestFailureFlushesProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	if status := run([]string{"-preset", "vc16", "-samples", "100", "-rates", "0.02",
		"-cpuprofile", cpu, "-csv", filepath.Join(dir, "missing", "x.csv")}); status != 1 {
		t.Fatalf("orion-sweep with an unwritable -csv exited %d, want 1", status)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile not flushed: stat %v, err %v", fi, err)
	}
}
