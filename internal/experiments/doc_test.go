//go:build experiments

package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the generated blocks of EXPERIMENTS.md")

const doc = "../../EXPERIMENTS.md"

// TestExperimentsDoc runs every experiment at the documented protocol
// (seed 1, 10,000 sample packets), checks every Summary predicate, and
// compares each generated block of EXPERIMENTS.md byte for byte with a
// fresh rendering. With -update it rewrites the blocks in place instead.
// Run it with `make experiments-doc`.
func TestExperimentsDoc(t *testing.T) {
	rep, err := Run(Options{Seed: 1}, "all")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Summary {
		for _, p := range v.Predicates {
			if err := p.Check(rep); err != nil {
				t.Errorf("%s: %s: %v", v.Experiment, p.Name, err)
			}
		}
	}
	old, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	blocks := append(rep.Blocks(), summaryBlock(rep))
	got, err := splice(string(old), blocks)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(doc, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, b := range blocks {
		if want := openMarker(b.Name) + "\n" + b.Text + closeMarker(b.Name); !strings.Contains(string(old), want) {
			t.Errorf("block %s of EXPERIMENTS.md has drifted (run `make experiments-doc-update`); generated:\n%s", b.Name, want)
		}
	}
	if got != string(old) {
		t.Error("EXPERIMENTS.md differs from its regenerated blocks")
	}
}

// splice replaces the text between each block's markers in doc with the
// block's rendering. Every block must appear in doc exactly once, and doc
// may hold no marker line of a block that was not rendered.
func splice(doc string, blocks []Block) (string, error) {
	rendered := map[string]bool{}
	for _, b := range blocks {
		rendered[b.Name] = true
		open, end := openMarker(b.Name)+"\n", closeMarker(b.Name)
		if strings.Count(doc, open) != 1 {
			return "", fmt.Errorf("EXPERIMENTS.md holds %d %q markers, want 1", strings.Count(doc, open), open)
		}
		i := strings.Index(doc, open) + len(open)
		j := strings.Index(doc[i:], end)
		if j < 0 {
			return "", fmt.Errorf("EXPERIMENTS.md has no %q after its open marker", end)
		}
		doc = doc[:i] + b.Text + doc[i+j:]
	}
	for _, line := range strings.Split(doc, "\n") {
		name, ok := strings.CutPrefix(line, "<!-- orion-exp:")
		if name, _, _ = strings.Cut(name, " -->"); ok && !rendered[name] {
			return "", fmt.Errorf("EXPERIMENTS.md holds block %q, which nothing renders", name)
		}
	}
	return doc, nil
}
