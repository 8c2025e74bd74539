package topology

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// shape is a grid as the tests see it, with radices in coordinate order
// (x, y, z). The tests work node indices and distances out from it
// themselves, so they check Grid's numbering rule instead of restating
// it.
type shape struct {
	dims     []int
	wrap     bool
	c        int
	balanced bool
}

func torus(dims ...int) shape { return shape{dims: dims, wrap: true, c: 1} }

func mesh(dims ...int) shape { return shape{dims: dims, c: 1} }

func cmesh(w, h, c int) shape { return shape{dims: []int{w, h}, c: c} }

func (s shape) balance() shape {
	s.balanced = true
	return s
}

func (s shape) String() string {
	parts := make([]string, len(s.dims))
	for i, k := range s.dims {
		parts[i] = fmt.Sprint(k)
	}
	kind := "mesh"
	if s.wrap {
		kind = "torus"
	}
	if s.c > 1 {
		kind, parts = "cmesh", append(parts, fmt.Sprint(s.c))
	}
	name := kind + " " + strings.Join(parts, "x")
	if s.balanced {
		name += " balanced"
	}
	return name
}

func (s shape) grid(t *testing.T) *Grid {
	t.Helper()
	g, err := New(s.dims, s.wrap, s.c, s.balanced)
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	return g
}

// node returns the terminal in the given slot of the cluster at coords:
// index (x + y·W + z·W·H)·C + slot.
func (s shape) node(slot int, coords ...int) int {
	cluster, stride := 0, 1
	for i, k := range s.dims {
		cluster += coords[i] * stride
		stride *= k
	}
	return cluster*s.c + slot
}

// coords returns a node's cluster coordinates and slot.
func (s shape) coords(node int) ([]int, int) {
	cluster := node / s.c
	out := make([]int, len(s.dims))
	for i, k := range s.dims {
		out[i] = cluster % k
		cluster /= k
	}
	return out, node % s.c
}

// plusPort returns the port that moves + along coordinate i: north and
// east on a 2-D grid, which routes y first, and 2i otherwise.
func (s shape) plusPort(i int) int {
	if len(s.dims) == 2 {
		return []int{PortEast, PortNorth}[i]
	}
	return 2 * i
}

// distance returns the minimal hop count from a to b: the shorter way
// around each torus ring or straight along each mesh line, plus a spoke
// hop at either end that is a satellite.
func (s shape) distance(a, b int) int {
	if a == b {
		return 0
	}
	ac, as := s.coords(a)
	bc, bs := s.coords(b)
	d := 0
	for i, k := range s.dims {
		fwd := (bc[i] - ac[i] + k) % k
		switch {
		case !s.wrap && bc[i] >= ac[i]:
			d += bc[i] - ac[i]
		case !s.wrap:
			d += ac[i] - bc[i]
		default:
			d += min(fwd, k-fwd)
		}
	}
	if as != 0 {
		d++
	}
	if bs != 0 {
		d++
	}
	return d
}

// assertRoutes checks the routes from every step-th source to every
// step-th destination: each walks existing links to its destination,
// ends on the local port, takes the minimal number of hops, and is
// dimension-ordered with spokes only at its ends.
func assertRoutes(t *testing.T, s shape, srcStep, dstStep int) {
	t.Helper()
	g := s.grid(t)
	local := g.Ports() - 1
	for src := 0; src < g.Nodes(); src += srcStep {
		for dst := 0; dst < g.Nodes(); dst += dstStep {
			route, err := g.Route(src, dst)
			if err != nil {
				t.Fatalf("%s: Route(%d,%d): %v", s, src, dst, err)
			}
			if route[len(route)-1] != local {
				t.Fatalf("%s: route %d->%d = %v does not end with ejection", s, src, dst, route)
			}
			cur, lastDim := src, -1
			for i, p := range route[:len(route)-1] {
				d := g.DimOf(p)
				if d < 0 && i != 0 && i != len(route)-2 || d >= 0 && d < lastDim {
					t.Fatalf("%s: route %d->%d = %v is not dimension-ordered", s, src, dst, route)
				}
				lastDim = max(lastDim, d)
				next, ok := g.Neighbor(cur, p)
				if !ok {
					t.Fatalf("%s: route %d->%d steps through missing link at node %d port %d", s, src, dst, cur, p)
				}
				cur = next
			}
			if cur != dst {
				t.Fatalf("%s: route %d->%d ends at %d", s, src, dst, cur)
			}
			if got, want := len(route)-1, s.distance(src, dst); got != want {
				t.Fatalf("%s: route %d->%d has %d hops, want minimal %d", s, src, dst, got, want)
			}
		}
	}
}

// assertLinks checks every port of every node: a link leads back through
// the opposite port, a hub has every dimension link on a torus, a
// satellite has exactly its spoke, and neither the local port nor an
// out-of-range node has a neighbour.
func assertLinks(t *testing.T, s shape) {
	t.Helper()
	g := s.grid(t)
	local := g.Ports() - 1
	for n := 0; n < g.Nodes(); n++ {
		links := 0
		for p := 0; p < local; p++ {
			m, ok := g.Neighbor(n, p)
			if !ok {
				if s.wrap && n%s.c == 0 && g.DimOf(p) >= 0 {
					t.Fatalf("%s: torus node %d must have a link on port %d", s, n, p)
				}
				continue
			}
			links++
			back, ok := g.Neighbor(m, g.OppositePort(p))
			if !ok || back != n {
				t.Fatalf("%s: link %d -%d-> %d has no symmetric return (got %d, %v)", s, n, p, m, back, ok)
			}
		}
		if n%s.c != 0 && links != 1 {
			t.Fatalf("%s: satellite %d has %d links, want exactly its spoke", s, n, links)
		}
		if _, ok := g.Neighbor(n, local); ok {
			t.Fatalf("%s: local port of %d has a neighbour", s, n)
		}
	}
	for _, n := range []int{-1, g.Nodes()} {
		if _, ok := g.Neighbor(n, 0); ok {
			t.Errorf("%s: out-of-range node %d has a neighbour", s, n)
		}
	}
}

// assertNumbering checks the node index rule through the links: from
// every hub, the + port of coordinate i leads to the hub one step up
// that coordinate (wrapped on a torus, none past a mesh edge), and the
// spokes lead to the cluster's satellites.
func assertNumbering(t *testing.T, s shape) {
	t.Helper()
	g := s.grid(t)
	for n := 0; n < g.Nodes(); n += s.c {
		c, _ := s.coords(n)
		for i, k := range s.dims {
			up := append([]int(nil), c...)
			up[i]++
			next, ok := g.Neighbor(n, s.plusPort(i))
			switch {
			case up[i] < k || s.wrap:
				up[i] %= k
				if want := s.node(0, up...); !ok || next != want {
					t.Fatalf("%s: node %d at %v, coordinate %d up: got %d %v, want %d", s, n, c, i, next, ok, want)
				}
			case ok:
				t.Fatalf("%s: mesh edge node %d at %v has a link up coordinate %d", s, n, c, i)
			}
		}
		for slot := 1; slot < s.c; slot++ {
			if next, ok := g.Neighbor(n, 2*len(s.dims)+slot-1); !ok || next != n+slot {
				t.Fatalf("%s: hub %d spoke %d leads to %d %v, want %d", s, n, slot, next, ok, n+slot)
			}
		}
	}
}

// radix returns the radix of routing dimension d: a 2-D grid routes
// coordinate 1 (y) first.
func (s shape) radix(d int) int {
	if len(s.dims) == 2 {
		return s.dims[1-d]
	}
	return s.dims[d]
}

// tieSplit counts, over every route of s, the exact half-ring walks
// along a routing dimension that go the + and the − way.
func tieSplit(t *testing.T, s shape) (plus, minus int) {
	t.Helper()
	g := s.grid(t)
	hops, port := make([]int, len(s.dims)), make([]int, len(s.dims))
	for src := 0; src < g.Nodes(); src++ {
		for dst := 0; dst < g.Nodes(); dst++ {
			route, err := g.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			clear(hops)
			for _, p := range route {
				if d := g.DimOf(p); d >= 0 {
					hops[d]++
					port[d] = p
				}
			}
			for d, n := range hops {
				if k := s.radix(d); n == 0 || k%2 != 0 || n != k/2 {
					continue
				}
				if port[d]%2 == 0 {
					plus++
				} else {
					minus++
				}
			}
		}
	}
	return plus, minus
}

func TestConstructorsRejectBadDims(t *testing.T) {
	for _, c := range []struct {
		dims []int
		c    int
	}{
		{nil, 1}, {[]int{0, 4}, 1}, {[]int{4, -1}, 1}, {[]int{0, 0}, 1},
		{[]int{4, 0, 4}, 1}, {[]int{0, 4}, 4}, {[]int{4, 4}, 0},
	} {
		for _, wrap := range []bool{false, true} {
			if _, err := New(c.dims, wrap, c.c, false); err == nil {
				t.Errorf("New(%v, wrap=%v, %d) should fail", c.dims, wrap, c.c)
			}
		}
	}
}

func TestPortNamesAndOpposite(t *testing.T) {
	for _, p := range []int{PortNorth, PortSouth, PortEast, PortWest} {
		if Opposite(Opposite(p)) != p || Opposite(p) == p {
			t.Errorf("Opposite(%d) = %d is not an involution without fixed points", p, Opposite(p))
		}
	}
	if Opposite(PortNorth) != PortSouth || Opposite(PortEast) != PortWest {
		t.Error("compass ports do not pair north/south and east/west")
	}
	if Opposite(PortLocal) != PortLocal {
		t.Error("Opposite(local) should be local")
	}
	// A 2-D grid keeps the compass numbering: north/south share a
	// dimension, routed first, and east/west the other.
	g := torus(4, 4).grid(t)
	for p := PortNorth; p < NumPorts; p++ {
		if g.OppositePort(p) != Opposite(p) {
			t.Errorf("OppositePort(%d) = %d, want %d", p, g.OppositePort(p), Opposite(p))
		}
	}
	if g.DimOf(PortNorth) != 0 || g.DimOf(PortSouth) != 0 || g.DimOf(PortEast) != 1 ||
		g.DimOf(PortWest) != 1 || g.DimOf(PortLocal) != -1 {
		t.Error("2-D ports are not north/south (routed first), east/west, local")
	}
}

func TestTorusCoordRoundTrip(t *testing.T) {
	g := torus(4, 4).grid(t)
	if g.Nodes() != 16 || g.Ports() != NumPorts || !g.Wraparound() {
		t.Fatalf("nodes/ports/wrap = %d/%d/%v, want 16/5/true", g.Nodes(), g.Ports(), g.Wraparound())
	}
	for _, s := range []shape{torus(4, 4), torus(5, 3), torus(1, 5), torus(2, 2)} {
		assertNumbering(t, s)
	}
}

func TestTorusNeighborsSymmetric(t *testing.T) {
	for _, s := range []shape{torus(4, 4), torus(5, 3), torus(1, 5), torus(2, 2)} {
		assertLinks(t, s)
	}
}

// TestTorusRouteYFirst checks the paper's routing example from Section
// 4.3 and its rule: with y routed first, traffic from (1,2) to (2,0)
// goes along the y ring before any x movement, and no route takes a y
// hop after an x hop.
func TestTorusRouteYFirst(t *testing.T) {
	s := torus(4, 4)
	g := s.grid(t)
	route, err := g.Route(s.node(0, 1, 2), s.node(0, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	// y distance from 2 to 0 is 2 either way, and the tie breaks north.
	// Then 1 east hop, then eject.
	if want := []int{PortNorth, PortNorth, PortEast, PortLocal}; fmt.Sprint(route) != fmt.Sprint(want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
	for src := 0; src < g.Nodes(); src++ {
		for dst := 0; dst < g.Nodes(); dst++ {
			route, _ := g.Route(src, dst)
			seenX := false
			for _, p := range route {
				isY := p == PortNorth || p == PortSouth
				if isY && seenX {
					t.Fatalf("route %d->%d = %v takes y after x", src, dst, route)
				}
				seenX = seenX || p == PortEast || p == PortWest
			}
		}
	}
}

func TestTorusRouteSelf(t *testing.T) {
	for _, s := range []shape{torus(4, 4), mesh(4, 4), cmesh(2, 2, 3), torus(3, 3, 3)} {
		g := s.grid(t)
		for n := 0; n < g.Nodes(); n++ {
			route, err := g.Route(n, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(route) != 1 || route[0] != g.Ports()-1 {
				t.Errorf("%s: self route of %d = %v, want [local]", s, n, route)
			}
		}
	}
}

func TestTorusRouteShortestWay(t *testing.T) {
	s := torus(4, 4)
	// (0,0) to (3,0): west once is shorter than east three times.
	route, err := s.grid(t).Route(s.node(0, 0, 0), s.node(0, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 2 || route[0] != PortWest {
		t.Errorf("route = %v, want [west local]", route)
	}
}

// TestRouteWalksToDestination verifies, for every src/dst pair of tori
// and meshes of several shapes, that following the route through
// Neighbor lands on dst in the minimal number of hops and ends with the
// local port.
func TestRouteWalksToDestination(t *testing.T) {
	for _, s := range []shape{
		torus(5, 3), torus(1, 5), torus(5, 1), torus(2, 2), torus(3, 6).balance(),
		mesh(4, 4), mesh(3, 5), mesh(5, 3), mesh(1, 1), mesh(2, 7),
	} {
		assertRoutes(t, s, 1, 1)
	}
}

// TestTorusRouteMinimal: route length must equal the torus distance plus
// the ejection hop.
func TestTorusRouteMinimal(t *testing.T) {
	assertRoutes(t, torus(4, 4), 1, 1)
	assertRoutes(t, torus(6, 6), 1, 1)
}

func TestRouteErrors(t *testing.T) {
	for _, s := range []shape{torus(4, 4), mesh(4, 4), cmesh(2, 2, 4), torus(4, 3, 2)} {
		g := s.grid(t)
		for _, c := range [][2]int{{-1, 0}, {0, -1}, {g.Nodes(), 0}, {0, g.Nodes()}, {99, 0}} {
			if _, err := g.Route(c[0], c[1]); err == nil {
				t.Errorf("%s: Route(%d,%d) should fail", s, c[0], c[1])
			}
		}
	}
}

func TestMeshEdges(t *testing.T) {
	s := mesh(4, 4)
	g := s.grid(t)
	if g.Wraparound() || g.Ports() != NumPorts {
		t.Fatalf("mesh wrap/ports = %v/%d", g.Wraparound(), g.Ports())
	}
	for _, c := range []struct{ x, y, port int }{
		{0, 0, PortWest}, {0, 0, PortSouth}, {3, 3, PortEast}, {3, 3, PortNorth},
	} {
		if _, ok := g.Neighbor(s.node(0, c.x, c.y), c.port); ok {
			t.Errorf("mesh corner (%d,%d) should have no link on port %d", c.x, c.y, c.port)
		}
	}
	if n, ok := g.Neighbor(s.node(0, 1, 1), PortNorth); !ok || n != s.node(0, 1, 2) {
		t.Error("interior mesh neighbour wrong")
	}
	for _, s := range []shape{mesh(4, 4), mesh(5, 3), mesh(1, 4)} {
		assertNumbering(t, s)
		assertLinks(t, s)
	}
}

func TestTorusRouteDeterministic(t *testing.T) {
	g := torus(4, 4).balance().grid(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		s, d := rng.Intn(16), rng.Intn(16)
		r1, _ := g.Route(s, d)
		r2, _ := g.Route(s, d)
		if fmt.Sprint(r1) != fmt.Sprint(r2) {
			t.Fatal("routing must be deterministic")
		}
	}
}

// TestBalancedTies: with balanced tie-breaking, exact half-ring ties
// split evenly between the two directions of every ring by source
// parity, while all routes stay minimal and reach their destinations;
// without it they all go the positive way.
func TestBalancedTies(t *testing.T) {
	for _, s := range []shape{torus(4, 4), torus(6, 4), torus(4, 2)} {
		if plus, minus := tieSplit(t, s); plus == 0 || minus != 0 {
			t.Errorf("%s: unbalanced ties split +%d -%d, want all positive", s, plus, minus)
		}
		b := s.balance()
		assertRoutes(t, b, 1, 1)
		if plus, minus := tieSplit(t, b); plus == 0 || plus != minus {
			t.Errorf("%s: tie split +%d -%d, want even and non-zero", b, plus, minus)
		}
	}
}

// TestTorusVCClasses: the classic dateline discipline — class 0 before a
// dimension's wraparound hop, class 1 at and after it.
func TestTorusVCClasses(t *testing.T) {
	s := torus(4, 4)
	g := s.grid(t)
	for _, c := range []struct {
		src, dst [2]int
		want     []int
	}{
		// (0,3) -> (0,1): a 2-hop tie breaks north, 3->0 wraps at once.
		{[2]int{0, 3}, [2]int{0, 1}, []int{1, 1, 0}},
		// (0,0) -> (0,2): north 0->1->2 never wraps.
		{[2]int{0, 0}, [2]int{0, 2}, []int{0, 0, 0}},
		// (0,2) -> (0,0): north, wrapping 3->0 on the second hop.
		{[2]int{0, 2}, [2]int{0, 0}, []int{0, 1, 0}},
		// (3,3) -> (0,0): north across the y dateline, then east across
		// the x dateline: each dimension starts again in class 0.
		{[2]int{3, 3}, [2]int{0, 0}, []int{1, 1, 0}},
		// (0,3) -> (3,2): y wraps, then x goes west from 0 and wraps.
		{[2]int{0, 3}, [2]int{3, 2}, []int{0, 1, 0}},
	} {
		src := s.node(0, c.src[0], c.src[1])
		route, err := g.Route(src, s.node(0, c.dst[0], c.dst[1]))
		if err != nil {
			t.Fatal(err)
		}
		if got := g.VCClasses(src, route); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%v -> %v: route %v classes %v, want %v", c.src, c.dst, route, got, c.want)
		}
	}
}

func TestMeshVCClassesNil(t *testing.T) {
	for _, s := range []shape{mesh(4, 4), cmesh(3, 3, 3)} {
		g := s.grid(t)
		route, err := g.Route(1, g.Nodes()-1)
		if err != nil {
			t.Fatal(err)
		}
		if g.VCClasses(1, route) != nil {
			t.Errorf("%s needs no VC classes", s)
		}
	}
}

func TestNTorusConstruction(t *testing.T) {
	g := torus(4, 3, 2).grid(t)
	if g.Nodes() != 24 || g.Ports() != 7 || !g.Wraparound() {
		t.Errorf("4x3x2 torus nodes/ports/wrap = %d/%d/%v, want 24/7/true", g.Nodes(), g.Ports(), g.Wraparound())
	}
	if _, ok := g.Neighbor(0, 6); ok {
		t.Error("port 6 of a 3-D torus is the local port")
	}
}

func TestNTorusCoordsRoundTrip(t *testing.T) {
	for _, s := range []shape{torus(4, 3, 2), torus(2, 2, 2), torus(1, 3, 2)} {
		assertNumbering(t, s)
	}
}

func TestNTorusPortsAndNeighbors(t *testing.T) {
	s := torus(4, 3, 2)
	g := s.grid(t)
	for p := 0; p < 6; p++ {
		if got := g.DimOf(p); got != p/2 {
			t.Errorf("DimOf(%d) = %d, want %d", p, got, p/2)
		}
		if g.OppositePort(p) != p^1 {
			t.Errorf("OppositePort(%d) = %d, want %d", p, g.OppositePort(p), p^1)
		}
	}
	if g.DimOf(6) != -1 || g.OppositePort(6) != 6 {
		t.Error("local port has no dimension and is its own opposite")
	}
	assertLinks(t, s)
	assertLinks(t, torus(3, 3, 3))
}

// TestNTorusRoutes: every 3-D route is minimal, dimension-ordered x, y,
// z and reaches its destination.
func TestNTorusRoutes(t *testing.T) {
	for _, s := range []shape{torus(4, 3, 2), torus(3, 3, 3), torus(1, 3, 2), torus(4, 3, 2).balance()} {
		assertRoutes(t, s, 1, 1)
	}
}

// TestNTorusVCClasses: class 1 from each dimension's wraparound hop.
func TestNTorusVCClasses(t *testing.T) {
	s := torus(4, 4, 4)
	g := s.grid(t)
	for _, c := range []struct {
		src, dst [3]int
		want     []int
	}{
		// One +x hop across the wrap.
		{[3]int{3, 0, 0}, [3]int{0, 0, 0}, []int{1, 0}},
		// No wraps anywhere.
		{[3]int{0, 0, 0}, [3]int{2, 2, 2}, []int{0, 0, 0, 0, 0, 0, 0}},
		// x wraps, y does not, z wraps on its second hop.
		{[3]int{3, 0, 2}, [3]int{0, 1, 0}, []int{1, 0, 0, 1, 0}},
	} {
		src := s.node(0, c.src[:]...)
		route, err := g.Route(src, s.node(0, c.dst[:]...))
		if err != nil {
			t.Fatal(err)
		}
		if got := g.VCClasses(src, route); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%v -> %v: route %v classes %v, want %v", c.src, c.dst, route, got, c.want)
		}
	}
}

func TestNTorusBalancedTies(t *testing.T) {
	for _, s := range []shape{torus(4, 4, 4), torus(4, 3, 2), torus(2, 2, 2)} {
		b := s.balance()
		assertRoutes(t, b, 1, 1)
		if plus, minus := tieSplit(t, b); plus == 0 || plus != minus {
			t.Errorf("%s: tie split +%d -%d, want even and non-zero", b, plus, minus)
		}
	}
}

func TestCMeshConstruction(t *testing.T) {
	g := cmesh(8, 8, 4).grid(t)
	if g.Nodes() != 256 || g.Ports() != 8 || g.Wraparound() {
		t.Errorf("8x8x4 cmesh nodes/ports/wrap = %d/%d/%v, want 256/8 (4 mesh + 3 spokes + local)/false",
			g.Nodes(), g.Ports(), g.Wraparound())
	}
	for p := 4; p < 8; p++ {
		if g.DimOf(p) != -1 || g.OppositePort(p) != p {
			t.Errorf("spoke/local port %d: DimOf %d, OppositePort %d", p, g.DimOf(p), g.OppositePort(p))
		}
	}
}

// TestCMeshSlotAndCoord: node (x, y, slot) has index (x + y·W)·C + slot,
// and satellites hang off their cluster's hub.
func TestCMeshSlotAndCoord(t *testing.T) {
	for _, s := range []shape{cmesh(8, 8, 4), cmesh(3, 2, 4), cmesh(1, 4, 3)} {
		assertNumbering(t, s)
		g := s.grid(t)
		for n := 0; n < g.Nodes(); n++ {
			if slot := n % s.c; slot != 0 {
				if hub, ok := g.Neighbor(n, 4+slot-1); !ok || hub != n-slot {
					t.Fatalf("%s: satellite %d spoke leads to %d %v, want hub %d", s, n, hub, ok, n-slot)
				}
			}
		}
	}
}

// TestCMeshNeighborsSymmetric: every link, mesh or spoke, is traversable
// in both directions through OppositePort, and satellites have exactly
// one link.
func TestCMeshNeighborsSymmetric(t *testing.T) {
	for _, s := range []shape{cmesh(4, 3, 4), cmesh(2, 2, 2), cmesh(1, 1, 3)} {
		assertLinks(t, s)
	}
}

// TestCMeshRouteWalks: every route walks existing links from src to dst
// in the minimal number of hops and ends with the ejection port.
func TestCMeshRouteWalks(t *testing.T) {
	for _, s := range []shape{cmesh(4, 4, 4), cmesh(3, 5, 2), cmesh(1, 1, 3)} {
		assertRoutes(t, s, 1, 1)
	}
}

// TestRouteAllocations: Route and VCClasses run once per injected
// packet, so each allocates exactly its result slice, and VCClasses
// allocates nothing on a mesh.
func TestRouteAllocations(t *testing.T) {
	for _, c := range []struct {
		s       shape
		classes float64
	}{
		{torus(4, 4).balance(), 1}, {torus(4, 3, 2), 1}, {mesh(5, 3), 0}, {cmesh(3, 2, 4), 0},
	} {
		g := c.s.grid(t)
		src, dst := 1, g.Nodes()-1
		route, _ := g.Route(src, dst)
		if n := testing.AllocsPerRun(100, func() { route, _ = g.Route(src, dst) }); n != 1 {
			t.Errorf("%s: Route allocates %v times, want 1", c.s, n)
		}
		if n := testing.AllocsPerRun(100, func() { g.VCClasses(src, route) }); n != c.classes {
			t.Errorf("%s: VCClasses allocates %v times, want %v", c.s, n, c.classes)
		}
	}
}
