package power

import (
	"fmt"

	"orion/internal/flit"
)

// BufferState tracks the switching activity of one physical buffer
// instance during simulation, converting written values into the δ_bw
// (switching write bitlines) and δ_bc (switching memory cells) factors of
// Table 2. It mirrors the array contents as a ring so δ_bc is computed
// against the true overwritten cell values.
type BufferState struct {
	model *BufferModel
	words int // row width: PayloadWords(FlitBits)
	// rows is Flits+1 rows of words each, flat: the mirrored array
	// contents in ring order, then the last value driven onto the write
	// bitlines.
	rows []uint64
	tail int
	warm bool // false until the first write
}

// NewBufferState returns a tracker for one instance of the modelled buffer.
func NewBufferState(m *BufferModel) *BufferState {
	words := flit.PayloadWords(m.Config.FlitBits)
	return &BufferState{
		model: m,
		words: words,
		rows:  make([]uint64, (m.Config.Flits+1)*words),
	}
}

// Model returns the underlying capacitance model.
func (s *BufferState) Model() *BufferModel { return s.model }

// row returns row i of the flat mirror.
func (s *BufferState) row(i int) []uint64 {
	return s.rows[i*s.words : (i+1)*s.words : (i+1)*s.words]
}

// Write records a write of data into the FIFO tail and returns its energy.
// The first write assumes all bitlines and the written cells switch, as
// there is no prior electrical state to compare against. A payload
// shorter than the flit is zero-extended; one wider than the flit is a
// caller bug and panics, as the array has no cells to hold it.
func (s *BufferState) Write(data []uint64) float64 {
	if len(data) > s.words {
		panic(fmt.Sprintf("power: %d-word payload written to a buffer of %d-bit flits", len(data), s.model.Config.FlitBits))
	}
	last, cells := s.row(s.model.Config.Flits), s.row(s.tail)
	var dbw, dbc int
	if s.warm {
		dbw = flit.Hamming(last, data)
		dbc = flit.Hamming(cells, data)
	} else {
		dbw = s.model.Config.FlitBits
		dbc = flit.Ones(data)
		s.warm = true
	}
	// Copy, zero-extending a short payload.
	clear(last[copy(last, data):])
	clear(cells[copy(cells, data):])
	if s.tail++; s.tail == s.model.Config.Flits {
		s.tail = 0
	}
	return s.model.WriteEnergy(dbw, dbc)
}

// Read returns the energy of one read operation. Reads are
// data-independent (Table 2): every bitline pair is precharged and sensed.
func (s *BufferState) Read() float64 {
	return s.model.ReadEnergy()
}

func copyInto(dst *[]uint64, src []uint64) {
	if len(*dst) < len(src) {
		*dst = make([]uint64, len(src))
	}
	d := *dst
	n := copy(d, src)
	for i := n; i < len(d); i++ {
		d[i] = 0
	}
}
