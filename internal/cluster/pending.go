package cluster

// The pending queue holds the VMs waiting for power in queue order, stored
// so that a step pays for the VMs it launches or drops rather than for the
// VMs it holds. Every queued VM takes the next sequence number and joins
// the tail of its (cores, memory) shape's list, a doubly linked list
// threaded through the slots (slot.prev, slot.next), so each list runs in
// sequence order. The launch pass (Site.launch) merges the shapes' lists by
// sequence number, so it tries VMs in queue order, and a shape's turn ends
// at its first refusal by admission control or best fit. Leaving the queue
// needs no search: a launch or an expiry holds the slot, the slot names its
// shape and its neighbours, and unlinking it touches nothing else. Only
// Run's steps queue VMs, arrivals they refuse and VMs they evict, so the
// queue belongs to Run and State leaves it out.

// shapeList is the queued VMs of one shape in sequence order: the first
// and last slot, or -1 for both when none of the shape is queued.
type shapeList struct {
	head, tail int32
}

type shapeKey struct{ cores, memGB int }

// pendingQueue is the site's queue of VMs waiting for power.
type pendingQueue struct {
	shapes  []shapeList
	byShape map[shapeKey]int // shape -> index into shapes
	seq     uint64           // sequence number of the last queued VM
	n       int              // queued VMs over all shapes
	heads   headHeap         // launch-pass scratch
}

// shapeHead is a shape's next untried slot in a launch pass.
type shapeHead struct {
	seq  uint64
	slot int32
}

// push queues slot i, which is sl, behind every VM queued so far.
func (p *pendingQueue) push(t *slotTable, i int32, sl *slot) {
	if sl.shape < 0 {
		key := shapeKey{sl.vm.Cores, sl.vm.MemoryGB}
		si, ok := p.byShape[key]
		if !ok {
			if p.byShape == nil {
				p.byShape = make(map[shapeKey]int)
			}
			si = len(p.shapes)
			p.byShape[key] = si
			p.shapes = append(p.shapes, shapeList{-1, -1})
		}
		sl.shape = int32(si)
	}
	p.seq++
	p.n++
	sl.seq, sl.server = p.seq, queuedSlot
	l := &p.shapes[sl.shape]
	sl.prev, sl.next = l.tail, -1
	if l.tail >= 0 {
		t.at(l.tail).next = i
	} else {
		l.head = i
	}
	l.tail = i
}

// drop unlinks queued slot sl from its shape's list.
func (p *pendingQueue) drop(t *slotTable, sl *slot) {
	l := &p.shapes[sl.shape]
	if sl.prev >= 0 {
		t.at(sl.prev).next = sl.next
	} else {
		l.head = sl.next
	}
	if sl.next >= 0 {
		t.at(sl.next).prev = sl.prev
	} else {
		l.tail = sl.prev
	}
	sl.seq, sl.prev, sl.next = 0, -1, -1
	p.n--
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

// pop removes the head with the smallest sequence number. The heap must
// not be empty.
func (h *headHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.down()
}

// down sifts the top head down to its place, after the top's key has
// grown or the top was replaced.
func (h headHeap) down() {
	n := len(h)
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].seq < h[c].seq {
			c++
		}
		if h[i].seq <= h[c].seq {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
