package power

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"orion/internal/tech"
)

func mustArbiter(t *testing.T, cfg ArbiterConfig) *ArbiterModel {
	t.Helper()
	m, err := NewArbiter(cfg, tech.Default())
	if err != nil {
		t.Fatalf("NewArbiter(%+v): %v", cfg, err)
	}
	return m
}

func TestArbiterKindString(t *testing.T) {
	if MatrixArbiter.String() != "matrix" || RoundRobinArbiter.String() != "roundrobin" ||
		QueuingArbiter.String() != "queuing" {
		t.Error("kind names wrong")
	}
	if ArbiterKind(9).String() != "ArbiterKind(9)" {
		t.Error("unknown kind should format numerically")
	}
}

func TestArbiterConfigValidate(t *testing.T) {
	bad := []ArbiterConfig{
		{Kind: ArbiterKind(7), Requesters: 4},
		{Kind: MatrixArbiter, Requesters: 0},
		{Kind: MatrixArbiter, Requesters: 65},
		{Kind: MatrixArbiter, Requesters: -3},
	}
	for i, cfg := range bad {
		if _, err := NewArbiter(cfg, tech.Default()); err == nil {
			t.Errorf("case %d: accepted invalid config %+v", i, cfg)
		}
	}
}

func TestArbiterPriorityBits(t *testing.T) {
	if got := mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: 5}).PriorityBits(); got != 10 {
		t.Errorf("matrix priority bits = %d, want 10 (R(R-1)/2)", got)
	}
	if got := mustArbiter(t, ArbiterConfig{Kind: RoundRobinArbiter, Requesters: 5}).PriorityBits(); got != 5 {
		t.Errorf("round-robin priority bits = %d, want 5", got)
	}
	if got := mustArbiter(t, ArbiterConfig{Kind: QueuingArbiter, Requesters: 5}).PriorityBits(); got != 0 {
		t.Errorf("queuing priority bits = %d, want 0", got)
	}
}

func TestQueuingArbiterReusesBufferModel(t *testing.T) {
	m := mustArbiter(t, ArbiterConfig{Kind: QueuingArbiter, Requesters: 5})
	if m.Queue == nil {
		t.Fatal("queuing arbiter should embed a FIFO buffer model")
	}
	if m.Queue.Config.Flits != 5 {
		t.Errorf("queue depth = %d, want 5", m.Queue.Config.Flits)
	}
	if m.Queue.Config.FlitBits != 3 {
		t.Errorf("queue width = %d bits, want 3 (⌈log2 5⌉)", m.Queue.Config.FlitBits)
	}
	if mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: 5}).Queue != nil {
		t.Error("matrix arbiter should not have a queue")
	}
}

func TestArbiterRequestEnergyClamping(t *testing.T) {
	m := mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: 4})
	if m.RequestEnergy(-1) != 0 {
		t.Error("negative request switching should clamp to zero")
	}
	if m.RequestEnergy(100) != m.RequestEnergy(4) {
		t.Error("request switching should clamp at R")
	}
	if m.RequestEnergy(2) != 2*(m.EReq+m.EInt) {
		t.Error("request energy formula wrong")
	}
}

func TestMatrixArbiterStateGrantUpdatesPriority(t *testing.T) {
	m := mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: 4})
	s := NewArbiterState(m)
	if s.Model() != m {
		t.Fatal("Model() accessor broken")
	}

	// Requesters 0 and 2 request; 0 wins. Initially 0 has priority over
	// everyone (pri[0][j] true for j>0, pri[j][0] false), so granting 0
	// flips pri[0][1..3] and pri[1..3][0]: 6 toggles.
	e, err := s.Arbitrate(0b0101, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := m.RequestEnergy(2) + m.GrantEnergy() +
		m.FF.LatchEnergy(m.PriorityBits(), 6) + 6*m.EPri
	if math.Abs(e-want)/want > 1e-12 {
		t.Errorf("arbitration energy = %g, want %g", e, want)
	}

	// Granting 0 again with the same requests: no request-line change,
	// no priority flips.
	e2, err := s.Arbitrate(0b0101, 0)
	if err != nil {
		t.Fatal(err)
	}
	want2 := m.GrantEnergy() + m.FF.LatchEnergy(m.PriorityBits(), 0)
	if math.Abs(e2-want2)/want2 > 1e-12 {
		t.Errorf("repeat arbitration energy = %g, want %g", e2, want2)
	}
}

func TestArbiterStateNoGrant(t *testing.T) {
	m := mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: 4})
	s := NewArbiterState(m)
	e, err := s.Arbitrate(0b0011, -1)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.RequestEnergy(2); math.Abs(e-want) > 1e-30 {
		t.Errorf("no-grant energy = %g, want request lines only %g", e, want)
	}
}

func TestArbiterStateErrors(t *testing.T) {
	s := NewArbiterState(mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: 4}))
	if _, err := s.Arbitrate(0b0001, 4); err == nil {
		t.Error("winner out of range should error")
	}
	if _, err := s.Arbitrate(0b0001, 1); err == nil {
		t.Error("winner that did not request should error")
	}
}

func TestRoundRobinArbiterPointer(t *testing.T) {
	m := mustArbiter(t, ArbiterConfig{Kind: RoundRobinArbiter, Requesters: 4})
	s := NewArbiterState(m)

	// Pointer starts at 0; granting 3 moves it back to 0: no movement
	// after the modulo, so no toggles.
	e, err := s.Arbitrate(0b1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantStill := m.RequestEnergy(1) + m.GrantEnergy() + m.FF.LatchEnergy(4, 0)
	if math.Abs(e-wantStill)/wantStill > 1e-12 {
		t.Errorf("stationary pointer energy = %g, want %g", e, wantStill)
	}

	// Granting 0 moves the pointer to 1: two one-hot bits flip.
	e2, err := s.Arbitrate(0b1001, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMove := m.RequestEnergy(1) + m.GrantEnergy() + m.FF.LatchEnergy(4, 2) + 2*m.EPri
	if math.Abs(e2-wantMove)/wantMove > 1e-12 {
		t.Errorf("moving pointer energy = %g, want %g", e2, wantMove)
	}
}

func TestQueuingArbiterState(t *testing.T) {
	m := mustArbiter(t, ArbiterConfig{Kind: QueuingArbiter, Requesters: 4})
	s := NewArbiterState(m)

	eq := s.EnqueueRequest(2)
	if eq <= 0 {
		t.Error("enqueue should consume FIFO write energy")
	}
	e, err := s.Arbitrate(0b0100, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Must include a FIFO read.
	if e <= m.RequestEnergy(1)+m.GrantEnergy() {
		t.Errorf("queuing grant energy %g should include FIFO read", e)
	}
	// Other kinds: enqueue is free.
	s2 := NewArbiterState(mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: 4}))
	if s2.EnqueueRequest(1) != 0 {
		t.Error("non-queuing enqueue should be free")
	}
}

// TestArbiterEnergyTiny: the paper finds arbiter power to be "less than 1%
// of node power"; at minimum an arbitration must be orders of magnitude
// below one buffer access of the paper's on-chip configuration.
func TestArbiterEnergyTiny(t *testing.T) {
	arb := mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: 5})
	buf := mustBuffer(t, BufferConfig{Flits: 8, FlitBits: 256, ReadPorts: 1, WritePorts: 1})
	s := NewArbiterState(arb)
	e, err := s.Arbitrate(0b11111, 2)
	if err != nil {
		t.Fatal(err)
	}
	if e >= buf.ReadEnergy()/50 {
		t.Errorf("arbitration energy %g too close to buffer read %g", e, buf.ReadEnergy())
	}
}

func TestArbiterStateProperty(t *testing.T) {
	m := mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: 8})
	s := NewArbiterState(m)
	err := quick.Check(func(req uint8, w uint8) bool {
		r := uint64(req)
		if r == 0 {
			r = 1
		}
		// Pick the lowest set bit as winner.
		winner := 0
		for r&(1<<uint(winner)) == 0 {
			winner++
		}
		e, err := s.Arbitrate(r, winner)
		return err == nil && e > 0 && !math.IsNaN(e)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFlipFlopModel(t *testing.T) {
	ff, err := NewFlipFlop(tech.Default())
	if err != nil {
		t.Fatal(err)
	}
	if ff.EClock <= 0 || ff.EToggle <= 0 {
		t.Error("flip-flop energies must be positive")
	}
	if ff.LatchEnergy(8, 3) != 8*ff.EClock+3*ff.EToggle {
		t.Error("latch energy formula wrong")
	}
	if ff.LatchEnergy(-1, -1) != 0 {
		t.Error("negative counts should clamp")
	}
	if ff.LatchEnergy(2, 10) != ff.LatchEnergy(2, 2) {
		t.Error("toggles should clamp to bits")
	}
	var bad tech.Params
	if _, err := NewFlipFlop(bad); err == nil {
		t.Error("invalid tech should be rejected")
	}
}

// matrixOracle is the [][]bool priority matrix the bitboard ArbiterState
// replaced, kept as its oracle: pri[i][j] is true when requester i has
// priority over j, and a grant walks the winner's row and column.
type matrixOracle struct {
	m       *ArbiterModel
	lastReq uint64
	pri     [][]bool
}

func newMatrixOracle(m *ArbiterModel) *matrixOracle {
	R := m.Config.Requesters
	o := &matrixOracle{m: m, pri: make([][]bool, R)}
	for i := range o.pri {
		o.pri[i] = make([]bool, R)
		for j := range o.pri[i] {
			o.pri[i][j] = i < j
		}
	}
	return o
}

func (o *matrixOracle) arbitrate(req uint64, winner int) (float64, error) {
	m := o.m
	R := m.Config.Requesters
	if R < 64 {
		req &= (uint64(1) << uint(R)) - 1
	}
	if winner >= R {
		return 0, fmt.Errorf("power: arbiter winner %d out of range [0,%d)", winner, R)
	}
	if winner >= 0 && req&(uint64(1)<<uint(winner)) == 0 {
		return 0, fmt.Errorf("power: arbiter winner %d did not request (vector %b)", winner, req)
	}
	dreq := bits.OnesCount64(req ^ o.lastReq)
	o.lastReq = req
	e := m.RequestEnergy(dreq)
	if winner < 0 {
		return e, nil
	}
	e += m.GrantEnergy()
	toggles := 0
	for j := 0; j < R; j++ {
		if j == winner {
			continue
		}
		if o.pri[winner][j] {
			o.pri[winner][j] = false
			toggles++
		}
		if !o.pri[j][winner] {
			o.pri[j][winner] = true
			toggles++
		}
	}
	e += m.FF.LatchEnergy(m.PriorityBits(), toggles)
	e += float64(toggles) * m.EPri
	return e, nil
}

// TestMatrixArbiterMatchesOracle: over random request and winner
// sequences the bitboard matrix arbiter charges bit-identical energies
// and returns the same errors as the [][]bool oracle, for widths from 1
// to 64 and for winners that are -1, did not request, or are out of
// range; at the end of each sequence both bitboards mirror the oracle's
// matrix.
func TestMatrixArbiterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, R := range []int{1, 2, 3, 7, 8, 16, 63, 64} {
		m := mustArbiter(t, ArbiterConfig{Kind: MatrixArbiter, Requesters: R})
		for seq := 0; seq < 1250; seq++ {
			s, o := NewArbiterState(m), newMatrixOracle(m)
			for step := 0; step < 40; step++ {
				req := rng.Uint64() >> uint(rng.Intn(64))
				winner := -1
				switch k := rng.Intn(10); {
				case k == 0: // no grant
				case k == 1: // out of range
					winner = R + rng.Intn(3)
				case k == 2: // any index, requesting or not
					winner = rng.Intn(R)
				default: // a random requester, when there is one
					if r := req & s.all; r != 0 {
						for k := rng.Intn(bits.OnesCount64(r)); k > 0; k-- {
							r &= r - 1
						}
						winner = bits.TrailingZeros64(r)
					}
				}
				got, gerr := s.Arbitrate(req, winner)
				want, werr := o.arbitrate(req, winner)
				if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("R=%d seq %d step %d Arbitrate(%#x, %d) = %v, %v; oracle %v, %v",
						R, seq, step, req, winner, got, gerr, want, werr)
				}
			}
			for i := 0; i < R; i++ {
				for j := 0; j < R; j++ {
					if s.row[i]>>uint(j)&1 == 1 != o.pri[i][j] || s.col[j]>>uint(i)&1 == 1 != o.pri[i][j] {
						t.Fatalf("R=%d seq %d: pri[%d][%d] = %v, row %#x col %#x",
							R, seq, i, j, o.pri[i][j], s.row[i], s.col[j])
					}
				}
			}
		}
	}
}
