package cluster

import (
	"cmp"
	"math"
	"slices"
	"time"

	"github.com/vbcloud/vb/internal/workload"
)

// The pending queue holds the VMs waiting for power in queue order, stored
// so that a step pays for the VMs it launches or drops rather than for the
// VMs it holds. Every queued VM takes the next sequence number and joins
// the FIFO of its (cores, memory) shape. The launch pass (Site.launch)
// merges the shapes' next entries by sequence number, so it tries VMs in
// queue order, and a shape's turn ends at its first refusal by admission
// control or best fit. A min-heap on (end, sequence) finds the VMs whose
// lifetime is over without looking at the rest.

// pendingVM is a VM waiting for power: either rejected at arrival or evicted
// by a power drop.
type pendingVM struct {
	vm      workload.VM
	evicted bool // true if it previously ran here (re-launch is a migration in either way)
}

// entry is one VM in a shape's FIFO.
type entry struct {
	vm      workload.VM
	seq     uint64 // position in queue order
	evicted bool
	gone    bool // launched or expired; a compaction drops it
}

// bySeq orders a FIFO's entries for binary search.
func bySeq(e entry, seq uint64) int { return cmp.Compare(e.seq, seq) }

// shapeFIFO holds the queued VMs of one shape in sequence order. Every
// entry before head is gone, and q[head] is live whenever live > 0.
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
	// expiry holds a key for every queued VM with a finite lifetime. The
	// keys of launched VMs stay until their end passes and are then
	// skipped: their sequence number no longer names a live entry.
	expiry minHeap[expiry]
	heads  minHeap[shapeHead] // launch-pass scratch
}

// expiry is the expiry heap's key for a queued VM: its end time as exact
// whole seconds and nanoseconds since the Unix epoch, which order every
// time.Time without the overflow of UnixNano, then its sequence number.
type expiry struct {
	sec         int64
	nsec, shape int32
	seq         uint64
}

func expiryAt(t time.Time) expiry { return expiry{sec: t.Unix(), nsec: int32(t.Nanosecond())} }

func (a expiry) less(b expiry) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	return a.seq < b.seq
}

// shapeHead is a shape's next untried entry in a launch pass.
type shapeHead struct {
	seq        uint64
	shape, pos int
}

func (a shapeHead) less(b shapeHead) bool { return a.seq < b.seq }

// push queues vm behind every VM queued so far.
func (p *pendingQueue) push(vm workload.VM, evicted bool) {
	key := shapeKey{vm.Cores, vm.MemoryGB}
	si, ok := p.byShape[key]
	if !ok {
		if p.byShape == nil {
			p.byShape = make(map[shapeKey]int)
		}
		si = len(p.shapes)
		p.byShape[key] = si
		p.shapes = append(p.shapes, shapeFIFO{})
	}
	p.seq++
	p.n++
	f := &p.shapes[si]
	if len(f.q) == cap(f.q) {
		// Reuse the room of gone entries once they fill a quarter of the
		// slice, which bounds the moves to four per push; else double it.
		if 4*f.live <= 3*len(f.q) {
			f.q = slices.DeleteFunc(f.q, func(e entry) bool { return e.gone })
			f.head = 0
		} else {
			f.q = slices.Grow(f.q, len(f.q))
		}
	}
	f.q = append(f.q, entry{vm: vm, seq: p.seq, evicted: evicted})
	f.live++
	if end := vm.End(); !end.IsZero() {
		x := expiryAt(end)
		x.shape, x.seq = int32(si), p.seq
		p.expiry.push(x)
	}
}

// drop marks entry i of shape si gone.
func (p *pendingQueue) drop(si, i int) {
	f := &p.shapes[si]
	f.q[i].gone = true
	f.live--
	p.n--
	if f.live == 0 {
		f.q, f.head = f.q[:0], 0
		return
	}
	for f.q[f.head].gone {
		f.head++
	}
}

// next returns the position of shape si's first live entry after i, or
// -1 if there is none.
func (p *pendingQueue) next(si, i int) int {
	q := p.shapes[si].q
	for i++; i < len(q); i++ {
		if !q[i].gone {
			return i
		}
	}
	return -1
}

// expire drops every queued VM whose lifetime ended by now.
func (p *pendingQueue) expire(now time.Time) {
	// Every key at now, whatever its sequence number, ends by now.
	last := expiryAt(now)
	last.seq = math.MaxUint64
	for len(p.expiry) > 0 && !last.less(p.expiry[0]) {
		x := p.expiry.pop()
		f := &p.shapes[x.shape]
		i, found := slices.BinarySearchFunc(f.q[f.head:], x.seq, bySeq)
		if found && !f.q[f.head+i].gone {
			p.drop(int(x.shape), f.head+i)
		}
	}
}

// inOrder returns the queued VMs in queue order.
func (p *pendingQueue) inOrder() []pendingVM {
	live := make([]entry, 0, p.n)
	for _, f := range p.shapes {
		for _, e := range f.q[f.head:] {
			if !e.gone {
				live = append(live, e)
			}
		}
	}
	slices.SortFunc(live, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]pendingVM, len(live))
	for i, e := range live {
		out[i] = pendingVM{vm: e.vm, evicted: e.evicted}
	}
	return out
}

// minHeap is a binary min-heap; the zero value is empty.
type minHeap[T interface{ less(T) bool }] []T

func (h *minHeap[T]) push(x T) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s[i].less(s[up]) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
	*h = s
}

// pop removes and returns the smallest element. The heap must not be
// empty.
func (h *minHeap[T]) pop() T {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].less(s[c]) {
			c++
		}
		if !s[c].less(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}
