package topology

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/routes.golden")

// routeTopology is what the routes digest reads from a network.
type routeTopology interface {
	Nodes() int
	Ports() int
	Wraparound() bool
	Neighbor(node, port int) (int, bool)
	OppositePort(port int) int
	DimOf(port int) int
	Route(src, dst int) ([]int, error)
	VCClasses(src int, route []int) []int
}

func goldenTorus(w, h int, balanced bool) (routeTopology, error) {
	return New([]int{w, h}, true, 1, balanced)
}

func goldenMesh(w, h int) (routeTopology, error) { return New([]int{w, h}, false, 1, false) }

func goldenCMesh(w, h, c int) (routeTopology, error) { return New([]int{w, h}, false, c, false) }

func goldenTorus3D(w, h, d int, balanced bool) (routeTopology, error) {
	return New([]int{w, h, d}, true, 1, balanced)
}

// goldenTopologies is the table testdata/routes.golden pins: tori,
// meshes and concentrated meshes of several shapes, including radix-1
// and radix-2 dimensions, and 3-D tori, with balanced ties on and off.
func goldenTopologies() []struct {
	name  string
	build func() (routeTopology, error)
} {
	type entry = struct {
		name  string
		build func() (routeTopology, error)
	}
	var out []entry
	for _, s := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 3}, {3, 6}, {6, 6}, {8, 8}} {
		w, h := s[0], s[1]
		for _, bal := range []bool{false, true} {
			out = append(out, entry{fmt.Sprintf("torus %dx%d balanced=%v", w, h, bal),
				func() (routeTopology, error) { return goldenTorus(w, h, bal) }})
		}
		out = append(out, entry{fmt.Sprintf("mesh %dx%d", w, h),
			func() (routeTopology, error) { return goldenMesh(w, h) }})
	}
	for _, s := range [][3]int{{1, 1, 2}, {2, 2, 2}, {3, 2, 4}, {3, 3, 3}, {4, 4, 2}, {1, 4, 3}} {
		w, h, c := s[0], s[1], s[2]
		out = append(out, entry{fmt.Sprintf("cmesh %dx%dx%d", w, h, c),
			func() (routeTopology, error) { return goldenCMesh(w, h, c) }})
	}
	for _, s := range [][3]int{{2, 2, 2}, {3, 3, 3}, {4, 3, 2}, {4, 4, 4}, {3, 4, 5}, {1, 3, 2}} {
		w, h, d := s[0], s[1], s[2]
		for _, bal := range []bool{false, true} {
			out = append(out, entry{fmt.Sprintf("torus %dx%dx%d balanced=%v", w, h, d, bal),
				func() (routeTopology, error) { return goldenTorus3D(w, h, d, bal) }})
		}
	}
	return out
}

// routesDigest hashes everything the simulator reads from a topology:
// its sizes, every link, every opposite port, which port pairs share a
// dimension (the relation routers use, not the raw dimension numbers),
// and every route with its dateline classes.
func routesDigest(tp routeTopology) (string, error) {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	put("nodes=%d ports=%d wrap=%v\n", tp.Nodes(), tp.Ports(), tp.Wraparound())
	for n := 0; n < tp.Nodes(); n++ {
		for p := 0; p < tp.Ports(); p++ {
			m, ok := tp.Neighbor(n, p)
			put("nb %d %d %d %v\n", n, p, m, ok)
		}
	}
	for p := 0; p < tp.Ports(); p++ {
		put("opp %d %d\n", p, tp.OppositePort(p))
		for q := 0; q < tp.Ports(); q++ {
			put("same %d %d %v\n", p, q, tp.DimOf(p) >= 0 && tp.DimOf(p) == tp.DimOf(q))
		}
	}
	for src := 0; src < tp.Nodes(); src++ {
		for dst := 0; dst < tp.Nodes(); dst++ {
			route, err := tp.Route(src, dst)
			if err != nil {
				return "", err
			}
			putRoute(h, src, dst, route, tp.VCClasses(src, route))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12]), nil
}

func putRoute(h hash.Hash, src, dst int, route, classes []int) {
	fmt.Fprintf(h, "route %d %d %v ", src, dst, route)
	if classes == nil {
		fmt.Fprint(h, "classes nil\n")
		return
	}
	fmt.Fprintf(h, "classes %v\n", classes)
}

// TestRoutesGolden pins every topology of goldenTopologies to
// testdata/routes.golden. After an intended routing change, run
// `go test ./internal/topology -run TestRoutesGolden -update` and
// review the diff.
func TestRoutesGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range goldenTopologies() {
		tp, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d, err := routesDigest(tp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&b, "%s nodes=%d ports=%d digest=%s\n", tc.name, tp.Nodes(), tp.Ports(), d)
	}
	got := b.String()

	const golden = "testdata/routes.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("routes differ from %s (run with -update after an intended change)\ngot:\n%s", golden, got)
	}
}
