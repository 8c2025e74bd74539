package router

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// scanPick is the wrap-around scan picker.pick replaced, kept as its
// oracle: the first requester at or after the pointer wins.
func scanPick(p *picker, req uint64) int {
	if p.n <= 0 || p.n > 64 {
		return -1
	}
	req &= mask(p.n)
	if req == 0 {
		return -1
	}
	for i := 0; i < p.n; i++ {
		w := (p.ptr + i) % p.n
		if req&(1<<uint(w)) != 0 {
			p.ptr = (w + 1) % p.n
			return w
		}
	}
	return -1
}

// TestPickerMatchesScanOracle: pick returns the scan's winner and leaves
// the scan's pointer, for every width and pointer on edge vectors (empty,
// full, bit 63, bits at or above the width, each single bit) and on
// random vectors, and along random request sequences.
func TestPickerMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(n, ptr int, req uint64) {
		t.Helper()
		got, want := picker{n: n, ptr: ptr}, picker{n: n, ptr: ptr}
		if g, w := got.pick(req), scanPick(&want, req); g != w || got.ptr != want.ptr {
			t.Fatalf("n=%d ptr=%d req=%#x: pick = %d (ptr %d), scan = %d (ptr %d)",
				n, ptr, req, g, got.ptr, w, want.ptr)
		}
	}
	randoms := 0
	for n := 1; n <= 64; n++ {
		edges := []uint64{0, ^uint64(0), 1 << 63, ^mask(n), mask(n), ^mask(n) | 1}
		for b := 0; b < 64; b++ {
			edges = append(edges, 1<<uint(b))
		}
		for ptr := 0; ptr < n; ptr++ {
			for _, req := range edges {
				check(n, ptr, req)
			}
			for i := 0; i < 4; i++ {
				check(n, ptr, rng.Uint64()&rng.Uint64()) // sparse
				check(n, ptr, rng.Uint64())
				randoms += 2
			}
		}
	}
	for randoms < 20_000 {
		n := 1 + rng.Intn(64)
		got, want := picker{n: n}, picker{n: n}
		for i := 0; i < 50; i++ {
			req := rng.Uint64() >> uint(rng.Intn(64))
			if g, w := got.pick(req), scanPick(&want, req); g != w || got.ptr != want.ptr {
				t.Fatalf("n=%d step %d req=%#x: pick = %d (ptr %d), scan = %d (ptr %d)",
					n, i, req, g, got.ptr, w, want.ptr)
			}
			randoms++
		}
	}
}

func TestPickerRoundRobin(t *testing.T) {
	p := picker{n: 4}
	// All requesting: grants rotate 0,1,2,3,0...
	seq := []int{}
	for i := 0; i < 6; i++ {
		seq = append(seq, p.pick(0b1111))
	}
	want := []int{0, 1, 2, 3, 0, 1}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("round robin sequence = %v, want %v", seq, want)
		}
	}
}

func TestPickerSkipsNonRequesters(t *testing.T) {
	p := picker{n: 4}
	if got := p.pick(0b1000); got != 3 {
		t.Errorf("pick(1000b) = %d, want 3", got)
	}
	// Pointer is now 0; 0 not requesting, 2 is.
	if got := p.pick(0b0100); got != 2 {
		t.Errorf("pick(0100b) = %d, want 2", got)
	}
	if got := p.pick(0); got != -1 {
		t.Errorf("pick(0) = %d, want -1", got)
	}
}

func TestPickerDegenerate(t *testing.T) {
	p := picker{n: 0}
	if p.pick(1) != -1 {
		t.Error("zero-width picker should never grant")
	}
	q := picker{n: 65}
	if q.pick(1) != -1 {
		t.Error("over-wide picker should never grant")
	}
	one := picker{n: 1}
	if one.pick(1) != 0 || one.pick(1) != 0 {
		t.Error("single-requester picker should always grant 0")
	}
}

func TestPickerAlwaysGrantsARequester(t *testing.T) {
	p := picker{n: 8}
	err := quick.Check(func(req uint8) bool {
		w := p.pick(uint64(req))
		if req == 0 {
			return w == -1
		}
		return w >= 0 && w < 8 && req&(1<<uint(w)) != 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestPickerFairness: under continuous full contention every requester is
// served equally.
func TestPickerFairness(t *testing.T) {
	p := picker{n: 5}
	counts := make([]int, 5)
	for i := 0; i < 500; i++ {
		counts[p.pick(0b11111)]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("requester %d granted %d times, want 100", i, c)
		}
	}
}

func TestFifoBasics(t *testing.T) {
	var f fifo[int]
	if f.len() != 0 {
		t.Fatal("new fifo should be empty")
	}
	if _, ok := f.front(); ok {
		t.Fatal("front of empty fifo")
	}
	if _, ok := f.pop(); ok {
		t.Fatal("pop of empty fifo")
	}
	f.push(1)
	f.push(2)
	if v, ok := f.front(); !ok || v != 1 {
		t.Fatalf("front = %d,%v", v, ok)
	}
	if v, _ := f.pop(); v != 1 {
		t.Fatal("pop order wrong")
	}
	if v, _ := f.pop(); v != 2 {
		t.Fatal("pop order wrong")
	}
	if f.len() != 0 {
		t.Fatal("fifo should be empty again")
	}
}

func TestFifoCompaction(t *testing.T) {
	var f fifo[int]
	for round := 0; round < 100; round++ {
		for i := 0; i < 100; i++ {
			f.push(round*100 + i)
		}
		for i := 0; i < 100; i++ {
			v, ok := f.pop()
			if !ok || v != round*100+i {
				t.Fatalf("round %d: pop = %d,%v", round, v, ok)
			}
		}
	}
	if cap(f.items) > 1024 {
		t.Errorf("fifo backing grew to %d; compaction is not bounding memory", cap(f.items))
	}
}

func TestFifoOrderProperty(t *testing.T) {
	err := quick.Check(func(vals []int) bool {
		var f fifo[int]
		for _, v := range vals {
			f.push(v)
		}
		for _, v := range vals {
			got, ok := f.pop()
			if !ok || got != v {
				return false
			}
		}
		return f.len() == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestReqSlotRoundTrip(t *testing.T) {
	for o := 0; o < 5; o++ {
		for p := 0; p < 5; p++ {
			if p == o {
				continue
			}
			slot := reqSlot(o, p)
			if slot < 0 || slot >= 4 {
				t.Errorf("reqSlot(%d,%d) = %d out of [0,4)", o, p, slot)
			}
			if back := slotToPort(o, slot); back != p {
				t.Errorf("slotToPort(%d, reqSlot(%d,%d)) = %d", o, o, p, back)
			}
		}
	}
}
