// Package flit defines the units of network flow control: packets, flits
// and credits.
//
// A flit (flow-control digit) is the smallest unit of flow control — a
// fixed-size piece of a packet (paper Section 3.3, footnote 4). Flits carry
// their payload bits explicitly so that power models can track real
// switching activity (Hamming distance between successive values on a
// wire), which is the α the paper monitors "through network simulation".
package flit

import (
	"fmt"
	"math/bits"
)

// Kind distinguishes the flits of a packet.
type Kind int

const (
	// Head leads a packet and carries the route.
	Head Kind = iota
	// Body is an interior data flit.
	Body
	// Tail ends a packet and releases resources.
	Tail
	// HeadTail is a single-flit packet.
	HeadTail
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "headtail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsHead reports whether the flit leads a packet (Head or HeadTail).
func (k Kind) IsHead() bool { return k == Head || k == HeadTail }

// IsTail reports whether the flit ends a packet (Tail or HeadTail).
func (k Kind) IsTail() bool { return k == Tail || k == HeadTail }

// Packet is the unit of routing. The route is encoded at the source
// (source dimension-ordered routing, Section 4.1) as the sequence of output
// ports to take at each hop.
type Packet struct {
	// ID is unique per simulation.
	ID int64
	// Src and Dst are node indices.
	Src, Dst int
	// Route[i] is the output port to take at the i-th router visited.
	// The final entry is the ejection port at the destination.
	Route []int
	// VCClasses[i] is the dateline class of the channel left through
	// Route[i]: on a torus, virtual-channel routers must allocate the
	// downstream VC from the matching class partition to keep
	// dimension-ordered routing deadlock-free across the wraparound
	// links. Nil means unrestricted (e.g. mesh topologies).
	VCClasses []int
	// Length is the number of flits.
	Length int
	// CreatedAt is the cycle the packet was created at the source
	// (before source queuing); latency is measured from here
	// (Section 4.1).
	CreatedAt int64
	// Sample marks packets belonging to the measurement sample.
	Sample bool
	// Buf is an opaque recycling handle owned by whatever allocated the
	// packet (the traffic generator's free list). Simulator components
	// must neither read nor write it; it is excluded from snapshots and
	// carries no simulated state.
	Buf any
}

// Flit is one flow-control unit of a packet.
type Flit struct {
	// Packet is the owning packet; all flits of a packet share it.
	Packet *Packet
	// Seq is the flit's index within the packet, 0-based.
	Seq int
	// Kind is the flit's position class.
	Kind Kind
	// Payload holds the flit's data bits, packed little-endian into
	// 64-bit words; bit i of the flit is bit i%64 of Payload[i/64].
	Payload []uint64
	// Hop is the number of routers already traversed; Packet.Route[Hop]
	// is the output port at the current router.
	Hop int
	// VC is the virtual channel currently occupied (set per hop by the
	// router; meaningless in transit).
	VC int
}

// OutputPort returns the output port this flit must take at the current
// router, or an error if the route is exhausted.
func (f *Flit) OutputPort() (int, error) {
	if f.Packet == nil {
		return 0, fmt.Errorf("flit: packet %v has no packet record", f)
	}
	if f.Hop < 0 || f.Hop >= len(f.Packet.Route) {
		return 0, fmt.Errorf("flit: packet %d flit %d hop %d outside route of length %d",
			f.Packet.ID, f.Seq, f.Hop, len(f.Packet.Route))
	}
	return f.Packet.Route[f.Hop], nil
}

// String implements fmt.Stringer for debugging.
func (f *Flit) String() string {
	pid := int64(-1)
	if f.Packet != nil {
		pid = f.Packet.ID
	}
	return fmt.Sprintf("flit{pkt=%d seq=%d %s hop=%d vc=%d}", pid, f.Seq, f.Kind, f.Hop, f.VC)
}

// Credit is a flow-control token returned upstream when a flit leaves a
// buffer (credit-based flow control, Section 4.1).
type Credit struct {
	// VC is the virtual channel the freed buffer slot belongs to.
	VC int
}

// PayloadWords returns the number of 64-bit words needed for a flit of the
// given width in bits.
func PayloadWords(widthBits int) int {
	if widthBits <= 0 {
		return 0
	}
	return (widthBits + 63) / 64
}

// Hamming returns the number of differing bits between two payloads.
// A nil or short payload is treated as zero-extended.
func Hamming(a, b []uint64) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	d := 0
	for i := 0; i < n; i++ {
		var x, y uint64
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		d += bits.OnesCount64(x ^ y)
	}
	return d
}

// Ones returns the number of set bits in the payload.
func Ones(a []uint64) int {
	d := 0
	for _, w := range a {
		d += bits.OnesCount64(w)
	}
	return d
}

// MaskPayload clears bits at and above widthBits in the last word so that
// payloads never carry stray bits beyond the flit width.
func MaskPayload(p []uint64, widthBits int) {
	if widthBits <= 0 {
		for i := range p {
			p[i] = 0
		}
		return
	}
	full := widthBits / 64
	rem := widthBits % 64
	for i := range p {
		switch {
		case i < full:
			// keep
		case i == full && rem > 0:
			p[i] &= (uint64(1) << uint(rem)) - 1
		default:
			p[i] = 0
		}
	}
}
