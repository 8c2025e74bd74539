// Package topology defines the network grid and its source routing.
//
// The paper's experiments use a 4×4 2-D torus (Figure 4) with five router
// ports (north, south, east, west, injection/ejection) and source
// dimension-ordered routing: "the route is encoded in a packet beforehand
// at source" (Section 4.1), and "In our dimension-ordered routing, we route
// along the y-axis first" (Section 4.3).
//
// One type, Grid, covers the whole family: an n-dimensional grid of
// clusters with wraparound links in every dimension (a k-ary n-cube, or
// torus) or in none (a mesh), and C terminals per cluster. With C = 1
// every terminal is a full grid router; with C ≥ 2 each cluster is a
// concentrated-mesh hub (slot 0) with C−1 satellites on spoke links.
//
// Numbering. Dimensions are numbered in routing order, and routes
// exhaust them in that order. A 2-D grid routes y first, as the paper
// does; grids of any other rank route x, y, z, …. Routing dimension i
// uses port 2i (+ direction) and 2i+1 (− direction); after them come the
// C−1 spoke ports, and the local injection/ejection port is last. So a
// 2-D grid's ports are north, south, east, west, then spokes, then
// local. Node (x, y, z, …, slot) has index (x + y·W + z·W·H + …)·C +
// slot, whatever the routing order.
package topology

import "fmt"

// Router port indices of a 2-D grid. The names follow the paper's
// compass convention; +Y is north, +X is east.
const (
	PortNorth = iota // +Y
	PortSouth        // -Y
	PortEast         // +X
	PortWest         // -X
	PortLocal        // injection/ejection
	// NumPorts is the number of ports per router of a 2-D grid with
	// C = 1 (Section 3.3: "5 input/output ports").
	NumPorts
)

// Opposite returns the port on the far side of a 2-D link: a flit
// leaving through north arrives at the neighbour's south input.
func Opposite(p int) int {
	if p >= 0 && p < PortLocal {
		return p ^ 1
	}
	return p
}

// dim is one grid dimension in routing order.
type dim struct {
	radix  int // clusters along the dimension
	stride int // cluster-index distance between neighbours along it
}

// Grid is an n-dimensional torus or mesh of clusters of C terminals.
type Grid struct {
	dims    []dim // in routing order
	wrap    bool
	c       int
	balance bool
	nodes   int
}

// New returns a grid with the given radices in coordinate order (x, y,
// z, …), wraparound links in every dimension when wrap is set, and
// concentration terminals per cluster. With balancedTies, exact
// half-ring ties alternate direction by the parity of the source's
// coordinate sum instead of always going the positive way:
// always-positive ties load the + rings with three times the − traffic
// on even-radix rings, and splitting them raises saturation throughput.
func New(radices []int, wrap bool, concentration int, balancedTies bool) (*Grid, error) {
	if len(radices) == 0 {
		return nil, fmt.Errorf("topology: a grid needs at least one dimension")
	}
	if concentration < 1 {
		return nil, fmt.Errorf("topology: concentration must be at least 1, got %d", concentration)
	}
	g := &Grid{wrap: wrap, c: concentration, balance: balancedTies, nodes: concentration}
	stride := 1
	for d, k := range radices {
		if k <= 0 {
			return nil, fmt.Errorf("topology: dimension %d has radix %d", d, k)
		}
		g.dims = append(g.dims, dim{radix: k, stride: stride})
		stride *= k
	}
	g.nodes *= stride
	if len(g.dims) == 2 {
		g.dims[0], g.dims[1] = g.dims[1], g.dims[0] // y first
	}
	return g, nil
}

// Nodes returns the number of terminals.
func (g *Grid) Nodes() int { return g.nodes }

// Ports returns the number of ports per router: two per dimension, C−1
// spokes and the local port.
func (g *Grid) Ports() int { return 2*len(g.dims) + g.c }

// Wraparound reports whether the grid is a torus, in which case
// dimension-ordered routing needs deadlock avoidance.
func (g *Grid) Wraparound() bool { return g.wrap }

// local returns the injection/ejection port.
func (g *Grid) local() int { return 2*len(g.dims) + g.c - 1 }

// spoke returns the port joining a hub and its satellite in the given
// slot (≥ 1). A spoke uses the same port index at both ends.
func (g *Grid) spoke(slot int) int { return 2*len(g.dims) + slot - 1 }

// coord returns a cluster's coordinate along routing dimension d.
func (g *Grid) coord(cluster int, d dim) int { return cluster / d.stride % d.radix }

// DimOf returns the routing dimension a port moves along, or -1 for
// spoke and local ports. Routers use it for bubble flow control's
// continuing-vs-entering distinction.
func (g *Grid) DimOf(port int) int {
	if port < 0 || port >= 2*len(g.dims) {
		return -1
	}
	return port / 2
}

// OppositePort returns the input port at the far end of a link left
// through the given output port: + pairs with −, and a spoke or the
// local port is its own opposite.
func (g *Grid) OppositePort(port int) int {
	if port < 0 || port >= 2*len(g.dims) {
		return port
	}
	return port ^ 1
}

// Neighbor returns the node reached by leaving through the given output
// port, and whether such a link exists. Hubs link to neighbouring hubs
// through the dimension ports and to their satellites through the
// spokes; a satellite's only link is the spoke back to its hub; the
// local port has no neighbour.
func (g *Grid) Neighbor(node, port int) (int, bool) {
	if node < 0 || node >= g.nodes {
		return 0, false
	}
	slot := node % g.c
	hub := node - slot
	if slot != 0 {
		if port == g.spoke(slot) {
			return hub, true
		}
		return 0, false
	}
	if d := g.DimOf(port); d >= 0 {
		dm := g.dims[d]
		cluster := hub / g.c
		x := g.coord(cluster, dm)
		next := x + 1
		if port%2 == 1 {
			next = x - 1
		}
		switch {
		case next >= 0 && next < dm.radix:
		case !g.wrap:
			return 0, false
		default:
			next = mod(next, dm.radix)
		}
		return (cluster + (next-x)*dm.stride) * g.c, true
	}
	if s := port - 2*len(g.dims) + 1; s >= 1 && s < g.c {
		return hub + s, true
	}
	return 0, false
}

// steps returns the hop count and port along routing dimension d from
// cluster a to cluster b: the shorter way around a torus ring (ties by
// positiveTie), or straight along a mesh.
func (g *Grid) steps(d, a, b int, positiveTie bool) (int, int) {
	dm := g.dims[d]
	fwd := g.coord(b, dm) - g.coord(a, dm)
	if !g.wrap {
		if fwd >= 0 {
			return fwd, 2 * d
		}
		return -fwd, 2*d + 1
	}
	fwd, bwd := mod(fwd, dm.radix), mod(-fwd, dm.radix)
	if fwd < bwd || fwd == bwd && positiveTie {
		return fwd, 2 * d
	}
	return bwd, 2*d + 1
}

// Route returns the source route from src to dst: the output port to
// take at each router visited, ending with the local port at the
// destination. A satellite source first climbs its spoke; the route then
// exhausts the dimensions in routing order, the shorter way around each
// torus ring, and a satellite destination ends down its spoke.
func (g *Grid) Route(src, dst int) ([]int, error) {
	if src < 0 || src >= g.nodes {
		return nil, fmt.Errorf("topology: source node %d out of range [0,%d)", src, g.nodes)
	}
	if dst < 0 || dst >= g.nodes {
		return nil, fmt.Errorf("topology: destination node %d out of range [0,%d)", dst, g.nodes)
	}
	a, b := src/g.c, dst/g.c
	up, down := src != dst && src%g.c != 0, src != dst && dst%g.c != 0
	positiveTie := true
	if g.balance {
		sum := 0
		for _, dm := range g.dims {
			sum += g.coord(a, dm)
		}
		positiveTie = sum%2 == 0
	}
	hops := 1
	if up {
		hops++
	}
	if down {
		hops++
	}
	for d := range g.dims {
		n, _ := g.steps(d, a, b, positiveTie)
		hops += n
	}

	route := make([]int, 0, hops)
	if up {
		route = append(route, g.spoke(src%g.c))
	}
	for d := range g.dims {
		n, port := g.steps(d, a, b, positiveTie)
		for ; n > 0; n-- {
			route = append(route, port)
		}
	}
	if down {
		route = append(route, g.spoke(dst%g.c))
	}
	return append(route, g.local()), nil
}

// VCClasses returns the dateline class of each hop of a route starting
// at src, or nil on a mesh, whose dimension-ordered routes need no
// classes for deadlock freedom. On a torus every packet enters a
// dimension in class 0 and switches to class 1 at that dimension's
// wraparound (dateline) hop, so hops at or after the wrap are class 1.
// Virtual-channel routers configured for dateline deadlock avoidance
// partition their VCs by these classes. Routes are dimension-ordered, so
// the class resets whenever the dimension changes.
func (g *Grid) VCClasses(src int, route []int) []int {
	if !g.wrap {
		return nil
	}
	classes := make([]int, len(route))
	cluster := src / g.c
	cur, class, x := -1, 0, 0
	for i, p := range route {
		d := g.DimOf(p)
		if d < 0 {
			continue
		}
		dm := g.dims[d]
		if d != cur {
			cur, class, x = d, 0, g.coord(cluster, dm)
		}
		if p%2 == 0 { // + direction: the dateline is the hop from k-1
			if x == dm.radix-1 {
				class = 1
			}
			x = mod(x+1, dm.radix)
		} else { // − direction: the dateline is the hop from 0
			if x == 0 {
				class = 1
			}
			x = mod(x-1, dm.radix)
		}
		classes[i] = class
	}
	return classes
}

func mod(a, k int) int {
	a %= k
	if a < 0 {
		a += k
	}
	return a
}
