package topology

import "testing"

// Scale and deadlock-freedom properties shared across topologies: the
// thousand-node fabrics of the worker-scaling study (32×32 mesh/torus,
// 3-D tori, concentrated meshes) exercise coordinate arithmetic and
// routing far outside the paper's 4×4 comfort zone, and every topology
// must prove its routing function deadlock-free — either by an acyclic
// channel dependence graph outright (mesh, cmesh) or after splitting
// channels by the dateline VC classes (tori).

// assertChannelDependenciesAcyclic builds the channel dependence graph
// induced by the topology's routing function — channels are (link, VC
// class) pairs, with an edge wherever a route holds one channel while
// requesting the next — and fails the test if it contains a cycle.
func assertChannelDependenciesAcyclic(t *testing.T, s shape) {
	t.Helper()
	tp := s.grid(t)
	nChan := tp.Nodes() * tp.Ports() * 2
	adj := make([][]int, nChan)
	seen := make(map[[2]int]bool)
	for src := 0; src < tp.Nodes(); src++ {
		for dst := 0; dst < tp.Nodes(); dst++ {
			route, err := tp.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			classes := tp.VCClasses(src, route)
			cur, prev := src, -1
			for i, p := range route {
				next, ok := tp.Neighbor(cur, p)
				if !ok {
					break // ejection hop
				}
				class := 0
				if classes != nil {
					class = classes[i]
					if class < 0 || class > 1 {
						t.Fatalf("%s: route %d->%d hop %d has class %d", s, src, dst, i, class)
					}
				}
				c := (cur*tp.Ports()+p)*2 + class
				if prev >= 0 && !seen[[2]int{prev, c}] {
					seen[[2]int{prev, c}] = true
					adj[prev] = append(adj[prev], c)
				}
				prev, cur = c, next
			}
		}
	}
	// Iterative colored DFS: 0 unvisited, 1 on stack, 2 done.
	color := make([]byte, nChan)
	var stack []int
	for start := range adj {
		if color[start] != 0 {
			continue
		}
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			if color[c] == 0 {
				color[c] = 1
				for _, n := range adj[c] {
					switch color[n] {
					case 1:
						t.Fatalf("%s: channel dependence cycle through channel %d -> %d", s, c, n)
					case 0:
						stack = append(stack, n)
					}
				}
			} else {
				color[c] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
}

// TestChannelDependenciesAcyclic: dimension-ordered routing must be
// deadlock-free on every topology — outright on meshes (and on
// concentrated meshes, TestCMeshDeadlockFree), and once channels are
// split by the dateline classes on tori. This is the
// property that lets VC routers in dateline mode partition their VCs by
// class and never hang.
func TestChannelDependenciesAcyclic(t *testing.T) {
	for _, s := range []shape{
		mesh(4, 4), mesh(3, 5), torus(4, 4), torus(5, 3), torus(4, 4).balance(), torus(3, 3, 3),
		torus(4, 3, 2).balance(), torus(2, 2, 2),
	} {
		assertChannelDependenciesAcyclic(t, s)
	}
}

// TestCMeshDeadlockFree: the channel dependence graph of a concentrated
// mesh is acyclic with no VC classes (a spoke tree grafted onto a
// dimension-ordered mesh). A cycle here would hang the network at
// saturation; VCClasses correctly claims no classes are needed only
// because of this property.
func TestCMeshDeadlockFree(t *testing.T) {
	for _, s := range []shape{cmesh(3, 3, 3), cmesh(2, 2, 4), cmesh(4, 1, 2)} {
		assertChannelDependenciesAcyclic(t, s)
		g := s.grid(t)
		if route, _ := g.Route(1, g.Nodes()-1); g.VCClasses(1, route) != nil {
			t.Errorf("%s: VCClasses not nil", s)
		}
	}
}

// TestDatelineClassesRequired is the negative control for the acyclicity
// check: merging a torus ring's channels into one class (what VCClasses
// prevents) must produce a cycle, proving the checker can actually see
// one.
func TestDatelineClassesRequired(t *testing.T) {
	for _, s := range []shape{torus(4, 4), torus(5, 3), torus(4, 3, 2)} {
		tp := s.grid(t)
		nChan := tp.Nodes() * tp.Ports()
		adj := make([][]int, nChan)
		seen := make(map[[2]int]bool)
		for src := 0; src < tp.Nodes(); src++ {
			for dst := 0; dst < tp.Nodes(); dst++ {
				route, _ := tp.Route(src, dst)
				cur, prev := src, -1
				for _, p := range route {
					next, ok := tp.Neighbor(cur, p)
					if !ok {
						break
					}
					c := cur*tp.Ports() + p
					if prev >= 0 && !seen[[2]int{prev, c}] {
						seen[[2]int{prev, c}] = true
						adj[prev] = append(adj[prev], c)
					}
					prev, cur = c, next
				}
			}
		}
		color := make([]byte, nChan)
		var cyclic bool
		var visit func(int)
		visit = func(c int) {
			color[c] = 1
			for _, n := range adj[c] {
				if color[n] == 1 {
					cyclic = true
					return
				}
				if color[n] == 0 {
					visit(n)
				}
			}
			color[c] = 2
		}
		for c := range adj {
			if color[c] == 0 && !cyclic {
				visit(c)
			}
		}
		if !cyclic {
			t.Fatalf("%s: classless channel graph is acyclic — the dateline test proves nothing", s)
		}
	}
}

// TestNTorusScaleRoundTrip: node numbering and links must hold on
// fabrics far beyond the paper's 4×4 — a 32×32 (1024-node) torus, an
// 8×8×8 (512-node) 3-D torus and a 16×16×4 (1024-node) concentrated
// mesh.
func TestNTorusScaleRoundTrip(t *testing.T) {
	for _, s := range []shape{torus(32, 32), torus(8, 8, 8), cmesh(16, 16, 4)} {
		assertNumbering(t, s)
		assertLinks(t, s)
	}
}

// TestNTorusScaleRouteMinimal: routes on the scaled fabrics must walk
// existing links to the destination in the minimal number of hops.
// Sampled with coprime strides to keep the quadratic pair space
// affordable.
func TestNTorusScaleRouteMinimal(t *testing.T) {
	for _, s := range []shape{torus(32, 32), torus(8, 8, 8), cmesh(16, 16, 4), mesh(32, 32)} {
		assertRoutes(t, s, 7, 11)
	}
}
