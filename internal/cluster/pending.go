package cluster

import (
	"cmp"
	"slices"
)

// The pending queue holds the VMs waiting for power in queue order, stored
// so that a step pays for the VMs it launches or drops rather than for the
// VMs it holds. Every queued VM takes the next sequence number and joins
// the FIFO of its (cores, memory) shape as a (sequence, slot) entry. The
// launch pass (Site.launch) merges the shapes' next entries by sequence
// number, so it tries VMs in queue order, and a shape's turn ends at its
// first refusal by admission control or best fit. Expiry needs no search:
// the expiry heap names the slot, and the slot names its FIFO.

// entry is one queued VM in a shape's FIFO. It is live while its slot's
// sequence number equals seq; a launch or an expiry clears the slot's.
type entry struct {
	seq  uint64
	slot int32
}

// shapeFIFO holds the queued VMs of one shape in sequence order. Every
// entry before head is dead, and q[head] is live whenever live > 0.
type shapeFIFO struct {
	q    []entry
	head int
	live int
}

type shapeKey struct{ cores, memGB int }

// pendingQueue is the site's queue of VMs waiting for power.
type pendingQueue struct {
	shapes  []shapeFIFO
	byShape map[shapeKey]int // shape -> index into shapes
	seq     uint64           // sequence number of the last queued VM
	n       int              // live entries over all shapes
	heads   headHeap         // launch-pass scratch
}

// shapeHead is a shape's next untried entry in a launch pass.
type shapeHead struct {
	seq        uint64
	shape, pos int32
}

// live reports whether e still names a queued VM.
func (e entry) live(t *slotTable) bool { return t.at(e.slot).seq == e.seq }

// push queues slot i behind every VM queued so far.
func (p *pendingQueue) push(t *slotTable, i int32, evicted bool) {
	sl := t.at(i)
	if sl.shape < 0 {
		key := shapeKey{sl.vm.Cores, sl.vm.MemoryGB}
		si, ok := p.byShape[key]
		if !ok {
			if p.byShape == nil {
				p.byShape = make(map[shapeKey]int)
			}
			si = len(p.shapes)
			p.byShape[key] = si
			p.shapes = append(p.shapes, shapeFIFO{})
		}
		sl.shape = int32(si)
	}
	p.seq++
	p.n++
	sl.seq, sl.server, sl.evicted = p.seq, queuedSlot, evicted
	f := &p.shapes[sl.shape]
	if len(f.q) == cap(f.q) {
		// Reuse the room of dead entries once they fill a quarter of the
		// slice, which bounds the moves to four per push; else double it.
		if 4*f.live <= 3*len(f.q) {
			f.q = slices.DeleteFunc(f.q, func(e entry) bool { return !e.live(t) })
			f.head = 0
		} else {
			f.q = slices.Grow(f.q, len(f.q))
		}
	}
	f.q = append(f.q, entry{p.seq, i})
	f.live++
}

// drop takes queued slot i out of the queue.
func (p *pendingQueue) drop(t *slotTable, i int32) {
	sl := t.at(i)
	sl.seq = 0
	f := &p.shapes[sl.shape]
	f.live--
	p.n--
	if f.live == 0 {
		f.q, f.head = f.q[:0], 0
		return
	}
	for !f.q[f.head].live(t) {
		f.head++
	}
}

// next returns the position of shape si's first live entry after i, or
// -1 if there is none.
func (p *pendingQueue) next(t *slotTable, si, i int) int {
	q := p.shapes[si].q
	for i++; i < len(q); i++ {
		if q[i].live(t) {
			return i
		}
	}
	return -1
}

// inOrder returns the queued slots in queue order.
func (p *pendingQueue) inOrder(t *slotTable) []int32 {
	live := make([]entry, 0, p.n)
	for _, f := range p.shapes {
		for _, e := range f.q[f.head:] {
			if e.live(t) {
				live = append(live, e)
			}
		}
	}
	slices.SortFunc(live, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]int32, len(live))
	for k, e := range live {
		out[k] = e.slot
	}
	return out
}

// headHeap is a binary min-heap of shape heads by sequence number; the
// zero value is empty.
type headHeap []shapeHead

func (h *headHeap) push(x shapeHead) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up].seq <= s[i].seq {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
	*h = s
}

// pop removes and returns the head with the smallest sequence number. The
// heap must not be empty.
func (h *headHeap) pop() shapeHead {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].seq < s[c].seq {
			c++
		}
		if s[i].seq <= s[c].seq {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}
